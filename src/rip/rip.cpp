#include "rip/rip.hpp"

namespace xrp::rip {

using net::IPv4;
using net::IPv4Net;

namespace {
// RIPv2 multicast group (224.0.0.9); the virtual network delivers
// multicast to every endpoint on the segment.
const IPv4 kRipGroup = IPv4((224u << 24) | 9);
}  // namespace

RipProcess::RipProcess(ev::EventLoop& loop, fea::Fea& fea, Config config,
                       std::unique_ptr<rib::RibClient> rib)
    : loop_(loop),
      fea_(fea),
      config_(config),
      rib_(std::move(rib)),
      db_(loop,
          RouteDb::Timers{config.timeout, config.gc},
          [this](bool is_add, const RipRoute& r) {
              on_route_change(is_add, r);
          }) {
    if (!rib_) rib_ = std::make_unique<rib::NullRibClient>();
    sock_ = fea_.udp_open(kRipPort,
                          [this](const std::string& ifname,
                                 const fea::Datagram& d) {
                              batched([&] { on_datagram(ifname, d); });
                          });
    iftable_listener_ = fea_.interfaces().add_listener(
        [this](const fea::Interface& itf, bool up) {
            batched([&] { on_interface_change(itf, up); });
        });
    update_timer_ = loop_.set_periodic(config_.update_interval, [this] {
        periodic_update();
        return true;
    });
}

RipProcess::RipProcess(ev::EventLoop& loop, fea::Fea& fea)
    : RipProcess(loop, fea, Config{}, nullptr) {}

RipProcess::~RipProcess() {
    fea_.udp_close(sock_);
    fea_.interfaces().remove_listener(iftable_listener_);
}

bool RipProcess::enable_interface(const std::string& ifname) {
    const fea::Interface* itf = fea_.interfaces().find(ifname);
    if (itf == nullptr || sock_ == 0) return false;
    enabled_.insert(ifname);
    // Originate the connected subnet and ask neighbours for their tables
    // immediately — convergence must not wait for a periodic timer (§4).
    batched([&] { db_.originate(itf->subnet, 1); });
    RipPacket req = RipPacket::whole_table_request();
    fea_.udp_send(sock_, ifname, kRipGroup, kRipPort, encode_packet(req));
    return true;
}

void RipProcess::disable_interface(const std::string& ifname) {
    enabled_.erase(ifname);
    batched([&] { db_.expire_interface_routes(ifname); });
    schedule_triggered();
}

void RipProcess::originate(const IPv4Net& net, uint32_t metric) {
    batched([&] { db_.originate(net, metric); });
    schedule_triggered();
}

void RipProcess::withdraw(const IPv4Net& net) {
    bool changed = false;
    batched([&] { changed = db_.withdraw(net); });
    if (changed) schedule_triggered();
}

void RipProcess::on_datagram(const std::string& ifname,
                             const fea::Datagram& dgram) {
    if (enabled_.count(ifname) == 0) return;
    ++stats_.packets_in;
    auto packet = decode_packet(dgram.payload.data(), dgram.payload.size());
    if (!packet) {
        ++stats_.bad_packets;
        return;
    }
    if (packet->command == Command::kRequest) {
        // Answer whole-table requests with a full (split-horizon) dump
        // unicast back to the asker.
        if (packet->is_whole_table_request())
            send_full_table(ifname, dgram.src, dgram.src_port);
        return;
    }
    process_response(ifname, dgram);
}

void RipProcess::process_response(const std::string& ifname,
                                  const fea::Datagram& dgram) {
    const fea::Interface* itf = fea_.interfaces().find(ifname);
    if (itf == nullptr) return;
    // RFC 2453 §3.9.2: responses must come from a neighbour on the
    // directly-connected network and from the RIP port.
    if (!itf->subnet.contains(dgram.src) || dgram.src == itf->addr) return;
    if (dgram.src_port != kRipPort) return;

    auto packet = decode_packet(dgram.payload.data(), dgram.payload.size());
    if (!packet) return;
    bool changed = false;
    for (const RipEntry& e : packet->entries) {
        if (e.afi != 2) continue;
        uint32_t metric = std::min(e.metric + 1, kInfinity);
        // An explicit nexthop on our subnet short-circuits the extra hop.
        IPv4 via = dgram.src;
        if (e.nexthop != IPv4::any() && itf->subnet.contains(e.nexthop))
            via = e.nexthop;
        changed |= db_.update(e.net, via, ifname, metric, e.tag);
    }
    if (changed) schedule_triggered();
}

void RipProcess::send_routes(const std::string& ifname, IPv4 dst,
                             uint16_t dst_port,
                             const std::vector<RipRoute>& routes) {
    RipPacket p;
    p.command = Command::kResponse;
    for (const RipRoute& r : routes) {
        RipEntry e;
        e.net = r.net;
        e.tag = r.tag;
        uint32_t metric = r.metric;
        if (r.ifname == ifname && !r.permanent) {
            // Split horizon with poisoned reverse (§3.4.3): advertise
            // routes learned on this interface as unreachable (or not at
            // all, if poisoning is off).
            if (!config_.split_horizon_poison) continue;
            metric = kInfinity;
        }
        e.metric = metric;
        p.entries.push_back(e);
        if (p.entries.size() == kMaxEntriesPerPacket) {
            fea_.udp_send(sock_, ifname, dst, dst_port, encode_packet(p));
            p.entries.clear();
        }
    }
    if (!p.entries.empty())
        fea_.udp_send(sock_, ifname, dst, dst_port, encode_packet(p));
}

void RipProcess::send_full_table(const std::string& ifname, IPv4 dst,
                                 uint16_t dst_port) {
    std::vector<RipRoute> all;
    db_.for_each([&](const RipRoute& r) { all.push_back(r); });
    send_routes(ifname, dst, dst_port, all);
    ++stats_.updates_sent;
}

void RipProcess::periodic_update() {
    for (const std::string& ifname : enabled_)
        send_full_table(ifname, kRipGroup, kRipPort);
}

void RipProcess::schedule_triggered() {
    if (triggered_pending_) return;
    triggered_pending_ = true;
    triggered_timer_ = loop_.set_timer(config_.triggered_delay, [this] {
        triggered_pending_ = false;
        fire_triggered();
    });
}

void RipProcess::fire_triggered() {
    std::vector<RipRoute> changed = db_.take_changed();
    if (changed.empty()) return;
    for (const std::string& ifname : enabled_) {
        send_routes(ifname, kRipGroup, kRipPort, changed);
        ++stats_.triggered_sent;
    }
}

void RipProcess::on_route_change(bool is_add, const RipRoute& r) {
    if (is_add)
        rib_pending_.add(r.net, net::NexthopSet4::single(r.nexthop),
                         r.metric);
    else
        rib_pending_.del(r.net);
    if (!gathering_) flush_rib();  // a timer expiry
    schedule_triggered();
}

void RipProcess::flush_rib() {
    if (rib_pending_.empty()) return;
    stage::RouteBatch4 delta = std::move(rib_pending_);
    rib_pending_.clear();
    rib_->push_batch("rip", std::move(delta));
}

void RipProcess::on_interface_change(const fea::Interface& itf, bool up) {
    if (enabled_.count(itf.name) == 0) return;
    if (!up) {
        // Event-driven reaction to link failure: expire everything learned
        // via the interface right now.
        db_.expire_interface_routes(itf.name);
        schedule_triggered();
    } else {
        // Link restored: re-request neighbours' tables immediately.
        RipPacket req = RipPacket::whole_table_request();
        fea_.udp_send(sock_, itf.name, kRipGroup, kRipPort,
                      encode_packet(req));
    }
}

}  // namespace xrp::rip
