// Rib: the Routing Information Base process (§3, §5.2, Figure 7).
//
// "The RIB serves as the plumbing between routing protocols": protocols
// deposit candidate routes into per-protocol origin tables; a tree of
// pairwise Merge stages (administrative distance) plus the ExtInt stage
// (external/internal composition and recursive nexthop resolution)
// computes the winners; dynamic Redist stages tap the winner stream for
// route redistribution; the Register stage answers interest
// registrations (Figure 8), pushes cache invalidations and answers the
// winner queries; and the final sink, which stores nothing, feeds the FEA.
//
//   connected --.
//   static   --- merge .
//   ospf     ---- merge - merge = internal --.
//   rip      ---/                             ExtInt -> [Redist]* -> Register -> FEA
//   ebgp     --- merge ======== external ----/
//   ibgp     ---/
//
// Every origin shown is live: connected routes come from the FEA's
// interface table, static from the Router Manager, ospf from the
// OspfProcess's SPF results, rip from the RipProcess, and ebgp/ibgp from
// the BgpProcess — each pushing deltas under its protocol name through a
// rib::RibClient (rib_client.hpp) and arbitrated by the distance table
// below. Winners leave for the FEA the same way, one delta per change set,
// through a FeaHandle.
//
// Profiling points: "rib_in" (route arriving at the RIB) and
// "rib_fea_queued" (winner queued for transmission to the FEA) — the
// middle points of Figures 10-12.
#ifndef XRP_RIB_RIB_HPP
#define XRP_RIB_RIB_HPP

#include <functional>
#include <map>
#include <memory>

#include "ev/eventloop.hpp"
#include "fea/fea.hpp"
#include "stage/deletion.hpp"
#include "stage/extint.hpp"
#include "stage/merge.hpp"
#include "stage/origin.hpp"
#include "stage/redist.hpp"
#include "stage/register.hpp"
#include "stage/sink.hpp"
#include "stage/stale_sweeper.hpp"

namespace xrp::rib {

using Route4 = stage::Route<net::IPv4>;

// Coupling to the FEA, abstract so the RIB tests standalone and deploys
// over XRLs. Every winner change reaches it as a delta through push_batch:
// the fea-branch sink, which keeps no table of its own, hands even a lone
// add or delete on as a one-entry batch. The scalar virtuals call nothing
// in the program; they remain for handles written against them, and by
// default wrap their change in a one-entry batch.
class FeaHandle {
public:
    virtual ~FeaHandle() = default;
    virtual void push_batch(stage::RouteBatch4&& batch) = 0;
    virtual void add_route(const net::IPv4Net& net, net::IPv4 nexthop) {
        add_route(net, net::NexthopSet4::single(nexthop));
    }
    virtual void add_route(const net::IPv4Net& net,
                           const net::NexthopSet4& nexthops) {
        stage::RouteBatch4 b;
        b.add(net, nexthops, 0);
        push_batch(std::move(b));
    }
    virtual void delete_route(const net::IPv4Net& net) {
        stage::RouteBatch4 b;
        b.del(net);
        push_batch(std::move(b));
    }
};

class NullFeaHandle final : public FeaHandle {
public:
    void push_batch(stage::RouteBatch4&&) override {}
};

// Same-address-space FEA coupling (single-process router assembly).
class DirectFeaHandle final : public FeaHandle {
public:
    explicit DirectFeaHandle(fea::Fea& fea) : fea_(fea) {}
    void push_batch(stage::RouteBatch4&& batch) override {
        fea_.apply_batch(batch);
    }

private:
    fea::Fea& fea_;
};

class Rib {
public:
    // The protocol -> administrative-distance table, defined in this one
    // place (operators can override per protocol at runtime with
    // set_admin_distance):
    //
    //   protocol    distance   fed by
    //   connected       0      FEA interface subnets
    //   static          1      Router Manager config
    //   ebgp           20      BgpProcess, external sessions
    //   ospf          110      OspfProcess (SPF results)
    //   rip           120      RipProcess
    //   ibgp          200      BgpProcess, internal sessions
    static constexpr uint32_t kDistanceConnected = 0;
    static constexpr uint32_t kDistanceStatic = 1;
    static constexpr uint32_t kDistanceEbgp = 20;
    static constexpr uint32_t kDistanceOspf = 110;
    static constexpr uint32_t kDistanceRip = 120;
    static constexpr uint32_t kDistanceIbgp = 200;

    Rib(ev::EventLoop& loop, std::unique_ptr<FeaHandle> fea = nullptr);
    ~Rib();
    Rib(const Rib&) = delete;
    Rib& operator=(const Rib&) = delete;

    // ---- protocol route input -------------------------------------------
    // Known protocols: connected, static, ospf, rip (internal), ebgp,
    // ibgp (external). Returns false for an unknown protocol name.
    //
    // The one entry point: an ordered delta from a single origin protocol.
    // Entries are stamped with the protocol's admin distance and flow into
    // the origin as one message.
    bool push_batch(const std::string& protocol, stage::RouteBatch4&& batch);
    // One-entry batches through push_batch, for callers with one change in
    // hand (the rib/1.0 scripting pair, harnesses). A 0/1-member set
    // degrades to the scalar form, so downstream stages see the identical
    // route either way.
    bool add_route(const std::string& protocol, const net::IPv4Net& net,
                   net::IPv4 nexthop, uint32_t metric = 0) {
        return add_route(protocol, net, net::NexthopSet4::single(nexthop),
                         metric);
    }
    bool add_route(const std::string& protocol, const net::IPv4Net& net,
                   const net::NexthopSet4& nexthops, uint32_t metric = 0) {
        stage::RouteBatch4 b;
        b.add(net, nexthops, metric);
        return push_batch(protocol, std::move(b));
    }
    bool delete_route(const std::string& protocol, const net::IPv4Net& net) {
        stage::RouteBatch4 b;
        b.del(net);
        return push_batch(protocol, std::move(b));
    }
    void set_admin_distance(const std::string& protocol, uint32_t distance);

    // ---- winner queries -----------------------------------------------
    std::optional<Route4> lookup(net::IPv4 addr) const;
    std::optional<Route4> lookup_exact(const net::IPv4Net& net) const;
    size_t route_count() const { return register_stage_->route_count(); }
    size_t origin_route_count(const std::string& protocol) const;

    // ---- interest registration (Figure 8, §5.2.1) ----------------------
    struct Answer {
        bool resolves = false;
        net::IPv4Net matched_net{};
        net::IPv4 nexthop{};
        uint32_t metric = 0;
        net::IPv4Net valid_subnet{};
    };
    using InvalidateCallback = std::function<void(const net::IPv4Net&)>;
    Answer register_interest(net::IPv4 addr, uint64_t client_id,
                             InvalidateCallback cb);
    void unregister_interest(const net::IPv4Net& valid_subnet,
                             uint64_t client_id);
    size_t registration_count() const {
        return register_stage_->registration_count();
    }

    // ---- redistribution (dynamic Redist stages) -------------------------
    using RedistSink = std::function<void(bool is_add, const Route4&)>;
    using RedistPredicate = std::function<bool(const Route4&)>;
    uint64_t add_redist(RedistPredicate pred, RedistSink sink);
    void remove_redist(uint64_t id);

    // ---- graceful restart (§5.1.2 applied to component death) -----------
    // When a protocol component dies, its routes are NOT deleted: the
    // origin marks them stale (one generation bump, zero downstream
    // traffic) and a per-protocol grace timer starts. Forwarding keeps
    // using the stale routes the whole time.
    //
    //   origin_dead      — protocol died: mark stale, start the clock.
    //   origin_revived   — restarted instance is back and resyncing: stop
    //                      the clock; re-adds refresh stamps in place.
    //   origin_resynced  — resync declared complete: splice a
    //                      StaleSweeperStage after the origin to reap, in
    //                      background slices, only routes never refreshed.
    //   grace expiry     — restart never completed: detach the whole
    //                      table into a classic DeletionStage (or, if a
    //                      partial resync snuck in, sweep just the stale
    //                      part) so the origin starts over empty.
    enum class OriginState { kFresh, kStale, kSweeping };
    void origin_dead(const std::string& protocol);
    void origin_revived(const std::string& protocol);
    void origin_resynced(const std::string& protocol);
    void set_grace_period(const std::string& protocol, ev::Duration grace);
    OriginState origin_state(const std::string& protocol) const;
    // Preserved-but-unconfirmed routes for one protocol (0 when fresh).
    size_t stale_route_count(const std::string& protocol) const;
    // Stale routes reaped by sweepers for this protocol, lifetime total.
    uint64_t swept_route_count(const std::string& protocol) const;

    // Router identity stamped on journal events ("r3"); empty = unbound.
    void set_node(std::string node) { node_ = std::move(node); }
    const std::string& node() const { return node_; }

private:
    struct Origin {
        uint32_t admin_distance;
        std::unique_ptr<stage::OriginStage<net::IPv4>> stage;
        // Per-protocol update counters, bound once at construction.
        telemetry::Counter* adds = nullptr;
        telemetry::Counter* deletes = nullptr;
        // Graceful-restart state (see the public API above).
        OriginState state = OriginState::kFresh;
        ev::Duration grace = std::chrono::seconds(120);
        ev::Timer grace_timer;
        telemetry::Gauge* stale_gauge = nullptr;
        telemetry::Counter* swept = nullptr;
        telemetry::Counter* grace_expiries = nullptr;
        // Per-instance sweep total (the telemetry counter above is
        // process-global and shared across Ribs in one simulation).
        uint64_t swept_total = 0;
        // Declared after `stage`: the sweeper parks an iterator in the
        // stage's trie and must be destroyed first.
        std::unique_ptr<stage::StaleSweeperStage<net::IPv4>> sweeper;
    };

    void grace_expired(const std::string& protocol);
    void start_sweep(const std::string& protocol, Origin& o);

    ev::EventLoop& loop_;
    std::unique_ptr<FeaHandle> fea_;
    std::string node_;

    std::map<std::string, Origin> origins_;
    std::vector<std::unique_ptr<stage::MergeStage<net::IPv4>>> merges_;
    std::unique_ptr<stage::ExtIntStage<net::IPv4>> extint_;
    std::map<uint64_t, std::unique_ptr<stage::RedistStage<net::IPv4>>>
        redists_;
    std::unique_ptr<stage::RegisterStage<net::IPv4>> register_stage_;
    std::unique_ptr<stage::SinkStage<net::IPv4>> final_;
    // ECMP occupancy of the forwarding set: multipath winners currently
    // installed, and their total member count.
    telemetry::Gauge* m_ecmp_routes_ = nullptr;
    telemetry::Gauge* m_ecmp_members_ = nullptr;
    // Live DeletionStages flushing tables whose grace period expired;
    // each removes itself via its completion callback.
    std::vector<std::unique_ptr<stage::DeletionStage<net::IPv4>>> deleters_;
    uint64_t next_redist_id_ = 1;
};

}  // namespace xrp::rib

#endif
