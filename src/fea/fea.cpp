#include "fea/fea.hpp"

#include "telemetry/journal.hpp"

namespace xrp::fea {

void Fea::add_route(const net::IPv4Net& net, net::IPv4 nexthop) {
    trace_in(net, "add");
    FibEntry e;
    e.net = net;
    e.nexthop = nexthop;
    const Interface* itf = interfaces_.find_by_subnet(nexthop);
    if (itf != nullptr) e.ifname = itf->name;
    fib_.add_route(e);
    ++fib_adds_;
    if (telemetry::journal_enabled())
        telemetry::Journal::current().record(
            loop_.now(), telemetry::JournalKind::kFibAdd, node_, "fea",
            net.str(), nexthop.str() + ":" + e.ifname);
}

void Fea::add_route(const net::IPv4Net& net,
                    const net::NexthopSet4& nexthops) {
    if (nexthops.size() <= 1) {
        add_route(net,
                  nexthops.empty() ? net::IPv4() : nexthops.primary());
        return;
    }
    trace_in(net, "add");
    FibEntry e;
    e.net = net;
    e.nexthops = nexthops;
    // Per-member egress resolution; journal detail is "addr[@w]:ifname"
    // per member, '|'-joined — the single-member form is byte-identical
    // to the legacy scalar detail, and the analyzer rebuilds the set from
    // the member tokens.
    std::string detail;
    for (const auto& m : nexthops.members()) {
        const Interface* itf = interfaces_.find_by_subnet(m.addr);
        e.ifnames.push_back(itf != nullptr ? itf->name : std::string());
        if (!detail.empty()) detail += '|';
        detail += m.addr.str();
        if (m.weight != 1) detail += '@' + std::to_string(m.weight);
        detail += ':' + e.ifnames.back();
    }
    e.nexthop = nexthops.primary();
    e.ifname = e.ifnames.front();
    fib_.add_route(e);
    ++fib_adds_;
    if (telemetry::journal_enabled())
        telemetry::Journal::current().record(
            loop_.now(), telemetry::JournalKind::kFibAdd, node_, "fea",
            net.str(), detail);
}

void Fea::apply_batch(const stage::RouteBatch4& batch) {
    for (const auto& e : batch.entries()) {
        switch (e.op) {
        case stage::BatchOp::kAdd:
            if (e.route.is_multipath())
                add_route(e.route.net, e.route.nexthops);
            else
                add_route(e.route.net, e.route.nexthop);
            break;
        case stage::BatchOp::kDelete:
            delete_route(e.route.net);
            break;
        case stage::BatchOp::kReplace:
            delete_route(e.old_route.net);
            if (e.route.is_multipath())
                add_route(e.route.net, e.route.nexthops);
            else
                add_route(e.route.net, e.route.nexthop);
            break;
        }
    }
}

bool Fea::delete_route(const net::IPv4Net& net) {
    trace_in(net, "delete");
    bool ok = fib_.delete_route(net);
    if (ok) ++fib_deletes_;
    if (ok && telemetry::journal_enabled())
        telemetry::Journal::current().record(loop_.now(),
                                            telemetry::JournalKind::kFibDelete,
                                            node_, "fea", net.str());
    return ok;
}

void Fea::attach_to_network(VirtualNetwork* network, int link_id,
                            const std::string& ifname) {
    attachments_[ifname] = {network, link_id};
    network->attach(link_id, this, ifname);
}

int Fea::udp_open(uint16_t port, UdpReceiveCallback cb) {
    for (const auto& [id, s] : sockets_)
        if (s.port == port) return 0;
    int id = next_sock_++;
    sockets_[id] = {port, std::move(cb)};
    return id;
}

void Fea::udp_close(int sock) { sockets_.erase(sock); }

bool Fea::udp_send(int sock, const std::string& ifname, net::IPv4 dst,
                   uint16_t dst_port, std::vector<uint8_t> payload) {
    auto sit = sockets_.find(sock);
    if (sit == sockets_.end()) return false;
    const Interface* itf = interfaces_.find(ifname);
    if (itf == nullptr || !itf->enabled || !itf->link_up) return false;
    auto ait = attachments_.find(ifname);
    if (ait == attachments_.end()) return false;
    Datagram d;
    d.src = itf->addr;
    d.dst = dst;
    d.src_port = sit->second.port;
    d.dst_port = dst_port;
    d.payload = std::move(payload);
    ait->second.network->send(this, ifname, d);
    return true;
}

void Fea::receive(const std::string& ifname, const Datagram& dgram) {
    const Interface* itf = interfaces_.find(ifname);
    if (itf == nullptr || !itf->enabled || !itf->link_up) return;
    for (const auto& [id, s] : sockets_) {
        if (s.port != dgram.dst_port) continue;
        // Accept unicast to our address, subnet broadcast, multicast, and
        // limited broadcast.
        bool for_us = dgram.dst == itf->addr || dgram.dst.is_multicast() ||
                      dgram.dst == net::IPv4::all_ones() ||
                      (itf->subnet.contains(dgram.dst) &&
                       dgram.dst ==
                           (itf->subnet.masked_addr() |
                            ~net::IPv4::make_prefix(itf->subnet.prefix_len())));
        if (for_us && s.cb) s.cb(ifname, dgram);
    }
}

void Fea::trace_in(const net::IPv4Net& net, const char* op) {
    if (telemetry::trace_points_enabled())
        telemetry::Journal::current().record(
            loop_.now(), telemetry::JournalKind::kFeaIn, node_, "fea",
            net.str(), op);
}

}  // namespace xrp::fea
