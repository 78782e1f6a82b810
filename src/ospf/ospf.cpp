#include "ospf/ospf.hpp"

#include <algorithm>
#include <chrono>

#include "telemetry/journal.hpp"

namespace xrp::ospf {

using net::IPv4;
using net::IPv4Net;

namespace {

uint16_t secs(ev::Duration d) {
    return static_cast<uint16_t>(
        std::chrono::duration_cast<std::chrono::seconds>(d).count());
}

}  // namespace

const char* neighbor_state_name(NeighborState s) {
    switch (s) {
        case NeighborState::kDown: return "Down";
        case NeighborState::kInit: return "Init";
        case NeighborState::kExchange: return "Exchange";
        case NeighborState::kLoading: return "Loading";
        case NeighborState::kFull: return "Full";
    }
    return "?";
}

OspfProcess::OspfProcess(ev::EventLoop& loop, fea::Fea& fea, Config config,
                         std::unique_ptr<rib::RibClient> rib)
    : loop_(loop),
      fea_(fea),
      config_(config),
      rib_(std::move(rib)),
      router_id_(config.router_id),
      db_(loop, config.max_age_secs) {
    if (!rib_) rib_ = std::make_unique<rib::NullRibClient>();
    auto& reg = telemetry::Registry::global();
    m_spf_full_ = reg.counter(
        telemetry::metric_key("ospf_spf_runs_total", {{"mode", "full"}}));
    m_spf_incr_ = reg.counter(telemetry::metric_key("ospf_spf_runs_total",
                                                    {{"mode", "incremental"}}));
    m_spf_latency_ = reg.histogram("ospf_spf_latency_ns");
    m_lsa_count_ = reg.gauge("ospf_lsa_count");
    m_flood_tx_ = reg.counter("ospf_flood_tx_total");

    sock_ = fea_.udp_open(kOspfPort, [this](const std::string& ifname,
                                            const fea::Datagram& d) {
        on_datagram(ifname, d);
    });
    iftable_listener_ = fea_.interfaces().add_listener(
        [this](const fea::Interface& itf, bool up) {
            on_interface_change(itf, up);
        });
    hello_timer_ = loop_.set_periodic(config_.hello_interval, [this] {
        for (const auto& [ifname, cost] : iface_cost_) {
            (void)cost;
            send_hello(ifname);
        }
        return true;
    });
    retransmit_timer_ =
        loop_.set_periodic(config_.retransmit_interval, [this] {
            retransmit_scan();
            return true;
        });
    age_timer_ = loop_.set_periodic(config_.age_scan_interval, [this] {
        age_scan();
        return true;
    });
    refresh_timer_ = loop_.set_periodic(config_.lsa_refresh, [this] {
        refresh_own_lsas();
        return true;
    });
}

OspfProcess::OspfProcess(ev::EventLoop& loop, fea::Fea& fea)
    : OspfProcess(loop, fea, Config{}, nullptr) {}

OspfProcess::~OspfProcess() {
    fea_.udp_close(sock_);
    fea_.interfaces().remove_listener(iftable_listener_);
}

bool OspfProcess::iface_active(const std::string& ifname) const {
    if (iface_cost_.find(ifname) == iface_cost_.end()) return false;
    const fea::Interface* itf = fea_.interfaces().find(ifname);
    return itf != nullptr && itf->enabled && itf->link_up;
}

bool OspfProcess::set_router_id(IPv4 id) {
    if (id == router_id_) return true;
    if (!iface_cost_.empty()) return false;
    router_id_ = id;
    return true;
}

bool OspfProcess::enable_interface(const std::string& ifname, uint32_t cost) {
    const fea::Interface* itf = fea_.interfaces().find(ifname);
    if (itf == nullptr || sock_ == 0) return false;
    if (cost == 0) cost = 1;
    // Derive the router id from the first enabled interface if the config
    // didn't pin one.
    if (router_id_ == IPv4()) router_id_ = itf->addr;
    iface_cost_[ifname] = cost;
    send_hello(ifname);
    schedule_origination();
    return true;
}

void OspfProcess::disable_interface(const std::string& ifname) {
    iface_cost_.erase(ifname);
    drop_interface_neighbors(ifname);
    schedule_origination();
}

bool OspfProcess::set_interface_cost(const std::string& ifname,
                                     uint32_t cost) {
    auto it = iface_cost_.find(ifname);
    if (it == iface_cost_.end()) return false;
    it->second = cost == 0 ? 1 : cost;
    schedule_origination();
    return true;
}

NeighborState OspfProcess::neighbor_state(const std::string& ifname,
                                          IPv4 id) const {
    auto it = neighbors_.find({ifname, id});
    return it == neighbors_.end() ? NeighborState::kDown : it->second.state;
}

size_t OspfProcess::full_neighbor_count() const {
    size_t n = 0;
    for (const auto& [k, nb] : neighbors_)
        if (nb.state == NeighborState::kFull) ++n;
    return n;
}

std::string OspfProcess::describe_neighbors() const {
    std::string out;
    for (const auto& [k, n] : neighbors_) {
        out += k.first + " " + n.router_id.str() + " " +
               neighbor_state_name(n.state) + "\n";
    }
    return out;
}

std::string OspfProcess::describe_lsdb() const {
    std::string out;
    db_.for_each([&](const Lsa& l) { out += l.str() + "\n"; });
    return out;
}

// ---- packet handling ----------------------------------------------------

void OspfProcess::on_datagram(const std::string& ifname,
                              const fea::Datagram& dgram) {
    if (iface_cost_.find(ifname) == iface_cost_.end()) return;
    ++stats_.packets_in;
    const fea::Interface* itf = fea_.interfaces().find(ifname);
    if (itf == nullptr) return;
    // Same neighbour-locality rules as RIP: packets must come from a
    // distinct host on the directly connected subnet, from the OSPF port.
    if (!itf->subnet.contains(dgram.src) || dgram.src == itf->addr) return;
    if (dgram.src_port != kOspfPort) return;
    auto pkt = decode_packet(dgram.payload.data(), dgram.payload.size());
    if (!pkt) {
        ++stats_.bad_packets;
        return;
    }
    if (pkt->router_id == router_id_) return;
    if (pkt->type == PacketType::kHello) {
        handle_hello(ifname, dgram, *pkt);
        return;
    }
    auto it = neighbors_.find({ifname, pkt->router_id});
    if (it == neighbors_.end()) return;
    Neighbor& n = it->second;
    switch (pkt->type) {
        case PacketType::kHello: break;
        case PacketType::kDbDesc: handle_dbdesc(n, *pkt); break;
        case PacketType::kLsRequest: handle_lsrequest(n, *pkt); break;
        case PacketType::kLsUpdate: handle_lsupdate(n, ifname, *pkt); break;
        case PacketType::kLsAck: handle_lsack(n, *pkt); break;
    }
}

void OspfProcess::handle_hello(const std::string& ifname,
                               const fea::Datagram& dgram,
                               const OspfPacket& pkt) {
    // RFC 2328 §10.5: timer parameters must match or the packet is ignored.
    if (pkt.hello.hello_interval != secs(config_.hello_interval) ||
        pkt.hello.dead_interval != secs(config_.dead_interval)) {
        ++stats_.bad_packets;
        return;
    }
    NeighborKey key{ifname, pkt.router_id};
    auto [it, inserted] = neighbors_.try_emplace(key);
    Neighbor& n = it->second;
    if (inserted) {
        n.router_id = pkt.router_id;
        n.ifname = ifname;
        n.state = NeighborState::kInit;
        // Answer at once so discovery doesn't wait out a hello interval.
        send_hello(ifname);
    }
    n.addr = dgram.src;
    restart_dead_timer(n);
    bool sees_us =
        std::find(pkt.hello.neighbors.begin(), pkt.hello.neighbors.end(),
                  router_id_) != pkt.hello.neighbors.end();
    if (sees_us) {
        if (n.state == NeighborState::kInit) enter_exchange(n);
    } else if (n.state > NeighborState::kInit) {
        // One-way: they restarted and forgot us. Regress and rebuild.
        reset_neighbor(n);
        schedule_origination();
    }
}

void OspfProcess::handle_dbdesc(Neighbor& n, const OspfPacket& pkt) {
    if (n.state == NeighborState::kDown) return;
    // A DbDesc from an Init neighbour implies bidirectionality.
    if (n.state == NeighborState::kInit) enter_exchange(n);
    if (n.got_dbdesc) {
        // Retransmission: they are stuck in Exchange because ours was
        // lost. Re-send ours; don't reprocess theirs.
        send_dbdesc(n);
        return;
    }
    n.got_dbdesc = true;
    n.requested.clear();
    for (const LsaHeader& h : pkt.headers) {
        Lsa probe;
        probe.type = h.type;
        probe.id = h.id;
        probe.adv_router = h.adv_router;
        probe.seq = h.seq;
        // Request instances fresher than ours; never request a MaxAge
        // instance we don't hold (RFC 2328 §13, it's being withdrawn).
        if (h.age < db_.max_age() &&
            db_.compare_with_stored(probe, h.age) > 0)
            n.requested.insert(h.key());
    }
    if (n.requested.empty()) {
        become_full(n);
    } else {
        n.state = NeighborState::kLoading;
        send_lsrequest(n);
    }
}

void OspfProcess::handle_lsrequest(Neighbor& n, const OspfPacket& pkt) {
    if (n.state < NeighborState::kExchange) return;
    std::vector<Lsa> out;
    for (const LsaKey& k : pkt.requests) {
        if (const Lsa* l = db_.lookup(k)) {
            Lsa copy = *l;
            copy.age = db_.current_age(k);
            out.push_back(std::move(copy));
        }
    }
    if (!out.empty()) send_update(n.ifname, n.addr, std::move(out));
}

void OspfProcess::handle_lsupdate(Neighbor& n, const std::string& ifname,
                                  const OspfPacket& pkt) {
    if (n.state < NeighborState::kExchange) return;
    std::vector<LsaHeader> acks;
    bool reoriginate = false;
    for (const Lsa& lsa : pkt.lsas) {
        acks.push_back(LsaHeader::of(lsa, lsa.age));
        int cmp = db_.compare_with_stored(lsa, lsa.age);
        if (cmp < 0) {
            // We hold something fresher: correct the sender directly.
            if (const Lsa* cur = db_.lookup(lsa.key())) {
                Lsa copy = *cur;
                copy.age = db_.current_age(lsa.key());
                send_update(n.ifname, n.addr, {std::move(copy)});
            }
            continue;
        }
        n.requested.erase(lsa.key());
        if (cmp == 0) continue;  // duplicate; the ack is all it needs
        if (lsa.adv_router == router_id_) {
            // A fresher instance of our own LSA is circulating — a remnant
            // of a previous incarnation or a premature-age kill. Record
            // its sequence number so re-origination jumps above it.
            uint32_t& s = own_seq_[lsa.key()];
            s = std::max(s, lsa.seq);
            reoriginate = true;
        }
        if (lsa.age >= db_.max_age()) {
            // Premature aging: drop any stored copy and propagate the kill.
            // With no database copy there is nothing to withdraw — ack and
            // discard (RFC 2328 §13 step 4); re-flooding would let the kill
            // circulate forever around any topology cycle.
            if (db_.lookup(lsa.key()) != nullptr) {
                db_.remove(lsa.key());
                schedule_spf(lsa.key());
                flood(lsa, ifname);
            }
        } else {
            auto res = db_.install(lsa);
            if (res.installed) {
                flood(lsa, ifname);
                if (res.content_changed) schedule_spf(lsa.key());
            }
        }
    }
    // Ack everything received — acks are what stop the sender's
    // retransmit list.
    if (!acks.empty()) {
        OspfPacket ack;
        ack.type = PacketType::kLsAck;
        ack.router_id = router_id_;
        ack.headers = std::move(acks);
        fea_.udp_send(sock_, n.ifname, n.addr, kOspfPort, encode_packet(ack));
    }
    if (n.state == NeighborState::kLoading && n.requested.empty())
        become_full(n);
    if (reoriginate) schedule_origination();
}

void OspfProcess::handle_lsack(Neighbor& n, const OspfPacket& pkt) {
    for (const LsaHeader& h : pkt.headers) {
        auto it = n.retransmit.find(h.key());
        if (it != n.retransmit.end() && h.seq >= it->second.seq)
            n.retransmit.erase(it);
    }
}

// ---- adjacency machinery -------------------------------------------------

void OspfProcess::send_hello(const std::string& ifname) {
    if (!iface_active(ifname) || router_id_ == IPv4()) return;
    OspfPacket p;
    p.type = PacketType::kHello;
    p.router_id = router_id_;
    p.hello.hello_interval = secs(config_.hello_interval);
    p.hello.dead_interval = secs(config_.dead_interval);
    p.hello.dr = dr_for(ifname);
    for (const auto& [k, n] : neighbors_)
        if (k.first == ifname) p.hello.neighbors.push_back(n.router_id);
    fea_.udp_send(sock_, ifname, kAllSpfRouters, kOspfPort, encode_packet(p));
    ++stats_.hellos_sent;
}

void OspfProcess::send_dbdesc(Neighbor& n) {
    OspfPacket p;
    p.type = PacketType::kDbDesc;
    p.router_id = router_id_;
    for (const auto& [k, e] : db_.entries())
        p.headers.push_back(LsaHeader::of(e.lsa, db_.current_age(k)));
    fea_.udp_send(sock_, n.ifname, n.addr, kOspfPort, encode_packet(p));
}

void OspfProcess::send_lsrequest(Neighbor& n) {
    OspfPacket p;
    p.type = PacketType::kLsRequest;
    p.router_id = router_id_;
    p.requests.assign(n.requested.begin(), n.requested.end());
    fea_.udp_send(sock_, n.ifname, n.addr, kOspfPort, encode_packet(p));
}

void OspfProcess::enter_exchange(Neighbor& n) {
    n.state = NeighborState::kExchange;
    n.got_dbdesc = false;
    send_dbdesc(n);
}

void OspfProcess::become_full(Neighbor& n) {
    n.state = NeighborState::kFull;
    // The adjacency changes our router LSA (stub → transit) and possibly
    // makes us DR; the origination path floods and schedules SPF.
    schedule_origination();
}

void OspfProcess::reset_neighbor(Neighbor& n) {
    n.state = NeighborState::kInit;
    n.requested.clear();
    n.retransmit.clear();
    n.got_dbdesc = false;
}

void OspfProcess::restart_dead_timer(Neighbor& n) {
    NeighborKey key{n.ifname, n.router_id};
    // Move-assignment cancels the previous deadline.
    n.dead_timer = loop_.set_timer(config_.dead_interval,
                                   [this, key] { neighbor_dead(key); });
}

void OspfProcess::neighbor_dead(const NeighborKey& key) {
    auto it = neighbors_.find(key);
    if (it == neighbors_.end()) return;
    neighbors_.erase(it);
    schedule_origination();
}

void OspfProcess::drop_interface_neighbors(const std::string& ifname) {
    for (auto it = neighbors_.begin(); it != neighbors_.end();) {
        if (it->first.first == ifname)
            it = neighbors_.erase(it);
        else
            ++it;
    }
}

void OspfProcess::on_interface_change(const fea::Interface& itf, bool up) {
    if (iface_cost_.find(itf.name) == iface_cost_.end()) return;
    if (!up) {
        // Event-driven reaction to link failure: the adjacencies are gone
        // now, not a dead-interval later.
        drop_interface_neighbors(itf.name);
    } else {
        send_hello(itf.name);
    }
    schedule_origination();
}

IPv4 OspfProcess::dr_for(const std::string& ifname) const {
    const fea::Interface* itf = fea_.interfaces().find(ifname);
    if (itf == nullptr) return {};
    IPv4 dr_id = router_id_;
    IPv4 dr_addr = itf->addr;
    for (const auto& [k, n] : neighbors_) {
        if (k.first == ifname && n.state == NeighborState::kFull &&
            n.router_id > dr_id) {
            dr_id = n.router_id;
            dr_addr = n.addr;
        }
    }
    return dr_addr;
}

// ---- flooding ------------------------------------------------------------

void OspfProcess::send_update(const std::string& ifname, IPv4 dst,
                              std::vector<Lsa> lsas) {
    OspfPacket p;
    p.type = PacketType::kLsUpdate;
    p.router_id = router_id_;
    p.lsas = std::move(lsas);
    fea_.udp_send(sock_, ifname, dst, kOspfPort, encode_packet(p));
    ++stats_.floods_sent;
    m_flood_tx_->inc();
}

void OspfProcess::flood(const Lsa& lsa, const std::string& except_ifname) {
    if (telemetry::journal_enabled())
        telemetry::Journal::current().record(
            loop_.now(), telemetry::JournalKind::kLsaFlood, node_, "ospf",
            lsa.key().str(), except_ifname, static_cast<int64_t>(lsa.seq));
    for (const auto& [ifname, cost] : iface_cost_) {
        (void)cost;
        if (ifname == except_ifname || !iface_active(ifname)) continue;
        bool any = false;
        for (auto& [k, n] : neighbors_) {
            if (k.first != ifname || n.state < NeighborState::kExchange)
                continue;
            n.retransmit[lsa.key()] = lsa;
            any = true;
        }
        // One multicast reaches every neighbour on the segment.
        if (any) send_update(ifname, kAllSpfRouters, {lsa});
    }
}

void OspfProcess::retransmit_scan() {
    for (auto& [key, n] : neighbors_) {
        if (n.state < NeighborState::kExchange || !iface_active(n.ifname))
            continue;
        if (n.state == NeighborState::kExchange) {
            // Their DbDesc never arrived (or ours didn't) — try again.
            send_dbdesc(n);
            ++stats_.retransmits;
        }
        if (n.state == NeighborState::kLoading && !n.requested.empty()) {
            send_lsrequest(n);
            ++stats_.retransmits;
        }
        if (!n.retransmit.empty()) {
            std::vector<Lsa> lsas;
            for (const auto& [k, l] : n.retransmit) {
                Lsa copy = l;
                // Re-send with the database's current age when the same
                // instance is still installed, so ages keep advancing.
                const Lsa* cur = db_.lookup(k);
                if (cur != nullptr && cur->seq == copy.seq)
                    copy.age = db_.current_age(k);
                lsas.push_back(std::move(copy));
            }
            send_update(n.ifname, n.addr, std::move(lsas));
            ++stats_.retransmits;
        }
    }
}

// ---- origination ----------------------------------------------------------

void OspfProcess::schedule_origination() {
    if (origination_scheduled_) return;
    origination_scheduled_ = true;
    // Short debounce: a burst of adjacency changes costs one origination.
    origination_timer_ =
        loop_.set_timer(std::chrono::milliseconds(10), [this] {
            origination_scheduled_ = false;
            run_origination();
        });
}

uint32_t OspfProcess::next_seq(const LsaKey& key) {
    uint32_t& s = own_seq_[key];
    const Lsa* cur = db_.lookup(key);
    s = std::max(s, cur != nullptr ? cur->seq : 0) + 1;
    return s;
}

void OspfProcess::premature_age(const LsaKey& key, uint32_t min_seq) {
    const Lsa* cur = db_.lookup(key);
    Lsa dead;
    if (cur != nullptr) {
        dead = *cur;
    } else {
        dead.type = key.type;
        dead.id = key.id;
        dead.adv_router = key.adv_router;
    }
    uint32_t& s = own_seq_[key];
    s = std::max({s, dead.seq, min_seq}) + 1;
    dead.seq = s;
    dead.age = db_.max_age();
    db_.remove(key);
    flood(dead, "");
    schedule_spf(key);
}

void OspfProcess::run_origination() {
    if (router_id_ == IPv4()) return;
    Lsa rl;
    rl.type = LsaType::kRouter;
    rl.id = rl.adv_router = router_id_;
    bool any_iface = false;
    std::set<LsaKey> desired_nets;
    std::vector<Lsa> net_lsas;
    for (const auto& [ifname, cost] : iface_cost_) {
        const fea::Interface* itf = fea_.interfaces().find(ifname);
        if (itf == nullptr || !itf->enabled || !itf->link_up) continue;
        any_iface = true;
        std::vector<const Neighbor*> full;
        for (const auto& [k, n] : neighbors_)
            if (k.first == ifname && n.state == NeighborState::kFull)
                full.push_back(&n);
        if (full.empty()) {
            // Lonely segment: a stub link carrying the connected prefix.
            rl.links.push_back(
                {LinkType::kStub, itf->subnet.masked_addr(),
                 IPv4::make_prefix(itf->subnet.prefix_len()), cost});
            continue;
        }
        // Transit segment; DR = highest router id among the fully
        // adjacent routers (self included).
        IPv4 dr_id = router_id_;
        IPv4 dr_addr = itf->addr;
        for (const Neighbor* n : full) {
            if (n->router_id > dr_id) {
                dr_id = n->router_id;
                dr_addr = n->addr;
            }
        }
        rl.links.push_back({LinkType::kTransit, dr_addr, itf->addr, cost});
        if (dr_id == router_id_) {
            Lsa nl;
            nl.type = LsaType::kNetwork;
            nl.id = itf->addr;
            nl.adv_router = router_id_;
            nl.mask_len = static_cast<uint8_t>(itf->subnet.prefix_len());
            nl.attached.push_back(router_id_);
            for (const Neighbor* n : full) nl.attached.push_back(n->router_id);
            std::sort(nl.attached.begin(), nl.attached.end());
            desired_nets.insert(nl.key());
            net_lsas.push_back(std::move(nl));
        }
    }
    std::sort(rl.links.begin(), rl.links.end());

    auto originate = [&](Lsa lsa) {
        const Lsa* cur = db_.lookup(lsa.key());
        if (cur != nullptr && cur->same_content(lsa)) return;
        lsa.seq = next_seq(lsa.key());
        lsa.age = 0;
        auto res = db_.install(lsa);
        if (res.installed) {
            flood(lsa, "");
            if (res.content_changed) schedule_spf(lsa.key());
        }
    };
    if (any_iface)
        originate(std::move(rl));
    else if (db_.lookup(rl.key()) != nullptr)
        premature_age(rl.key(), 0);
    for (Lsa& nl : net_lsas) originate(std::move(nl));

    // Withdraw own Network LSAs for segments we no longer speak for
    // (DR change, interface loss): flood a premature-aged instance.
    std::vector<LsaKey> unwanted;
    db_.for_each([&](const Lsa& l) {
        if (l.type == LsaType::kNetwork && l.adv_router == router_id_ &&
            desired_nets.find(l.key()) == desired_nets.end())
            unwanted.push_back(l.key());
    });
    for (const LsaKey& k : unwanted) premature_age(k, 0);
}

void OspfProcess::refresh_own_lsas() {
    std::vector<LsaKey> own;
    db_.for_each([&](const Lsa& l) {
        if (l.adv_router == router_id_) own.push_back(l.key());
    });
    for (const LsaKey& k : own) {
        Lsa copy = *db_.lookup(k);
        copy.seq = next_seq(k);
        copy.age = 0;
        db_.install(copy);  // same content — never triggers SPF
        flood(copy, "");
    }
}

void OspfProcess::age_scan() {
    for (const LsaKey& k : db_.purge_expired()) schedule_spf(k);
}

// ---- SPF -------------------------------------------------------------------

void OspfProcess::schedule_spf(const LsaKey& key) {
    pending_spf_.push_back(key);
    if (spf_scheduled_) return;
    spf_scheduled_ = true;
    ev::Duration delay = config_.spf_delay;
    if (have_spf_time_) {
        auto earliest = last_spf_time_ + config_.spf_holddown;
        auto now = loop_.now();
        if (earliest > now + delay) delay = earliest - now;
    }
    spf_timer_ = loop_.set_timer(delay, [this] { run_spf(); });
}

void OspfProcess::run_spf() {
    spf_scheduled_ = false;
    std::vector<LsaKey> changed = std::move(pending_spf_);
    pending_spf_.clear();
    engine_.set_root(router_id_);
    engine_.set_max_paths(config_.max_paths);
    uint64_t full_before = engine_.stats().full_runs;
    // Wall-clock timing: the latency histogram must be meaningful even on
    // a virtual event-loop clock.
    auto t0 = std::chrono::steady_clock::now();
    const RouteMap& computed = engine_.has_run()
                                   ? engine_.run_incremental(db_, changed)
                                   : engine_.run_full(db_);
    auto t1 = std::chrono::steady_clock::now();
    ++stats_.spf_runs;
    last_spf_time_ = loop_.now();
    have_spf_time_ = true;
    if (engine_.stats().full_runs > full_before)
        m_spf_full_->inc();
    else
        m_spf_incr_->inc();
    m_spf_latency_->observe(
        std::chrono::duration_cast<ev::Duration>(t1 - t0));
    m_lsa_count_->set(static_cast<int64_t>(db_.size()));

    // Sync the prefixes the run may have moved into the RIB, as one batch.
    // Prefixes whose best path has no gateway are the root's own or
    // directly attached segments — the connected origin owns those, OSPF
    // must not shadow them.
    stage::RouteBatch4 delta;
    for (const IPv4Net& net : engine_.take_moved_prefixes()) {
        auto cit = computed.find(net);
        auto iit = installed_.find(net);
        if (cit == computed.end() || cit->second.nexthop == IPv4()) {
            if (iit != installed_.end()) {
                delta.del(net);
                installed_.erase(iit);
            }
            continue;
        }
        const SpfRoute& r = cit->second;
        // OriginStage add is replace-on-duplicate, so metric/nexthop
        // changes are a single add.
        if (iit != installed_.end() && iit->second == r) continue;
        installed_.insert_or_assign(iit, net, r);
        delta.add(net, r.nexthops, r.cost);
    }
    if (!delta.empty()) rib_->push_batch("ospf", std::move(delta));
}

void OspfProcess::set_max_paths(uint32_t k) {
    k = k == 0 ? 1 : k;
    if (config_.max_paths == k) return;
    config_.max_paths = k;
    engine_.set_max_paths(k);  // invalidates: next run is full
    schedule_spf(LsaKey{});
}

}  // namespace xrp::ospf
