// BgpProcess: the BGP routing process, assembled exactly as Figure 5:
//
//   PeerIn -> [Deletion]* -> InFilter -> [Damping] -> NexthopResolver \
//   PeerIn -> [Deletion]* -> InFilter -> [Damping] -> NexthopResolver  > Decision -> Fanout
//   LocalOrigin ----------------------------------------------------- /      |
//                                                                    +-------+-------+
//                                                           per-peer OutFilter->PeerOut
//                                                           RIB branch (to the RIB)
//                                                           Loc-RIB sink (winners)
//
// Dynamic stages appear at runtime: a DeletionStage per peer failure
// (§5.1.2), and the damping stage when the operator enables flap damping
// (§8.3). Peer table dumps to newly-established peers run as background
// tasks over safe iterators (§5.3).
//
// The RIB coupling is behind RibHandle so the process tests standalone;
// production wiring uses the XRL-backed implementation (rib module) and
// the Figure-8 registration protocol for nexthop resolution.
#ifndef XRP_BGP_PROCESS_HPP
#define XRP_BGP_PROCESS_HPP

#include <map>
#include <memory>

#include "bgp/damping.hpp"
#include "bgp/peer.hpp"
#include "bgp/stages.hpp"
#include "ev/eventloop.hpp"
#include "policy/vm.hpp"
#include "stage/deletion.hpp"
#include "stage/fanout.hpp"
#include "stage/filter.hpp"
#include "stage/origin.hpp"
#include "stage/sink.hpp"

namespace xrp::bgp {

// BGP's view of the RIB (§3: BGP "must examine the routing information
// supplied to the RIB by other routing protocols"). Winners leave as
// deltas through push_batch: the rib-branch sink hands even a lone change
// on as a one-entry batch. The scalar virtuals call nothing in the
// program; they remain for handles written against them, and by default
// wrap their change in a one-entry batch.
class RibHandle {
public:
    virtual ~RibHandle() = default;
    virtual void push_batch(stage::RouteBatch<net::IPv4>&& batch) = 0;
    // Figure-8 registration: answer arrives asynchronously with the IGP
    // metric (nullopt = unreachable) and the validity subnet.
    virtual void register_interest(
        net::IPv4 nexthop, NexthopResolverStage::AnswerCallback answer) = 0;
    virtual void add_route(const BgpRoute& r) {
        stage::RouteBatch<net::IPv4> b;
        b.add(r);
        push_batch(std::move(b));
    }
    virtual void delete_route(const BgpRoute& r) {
        stage::RouteBatch<net::IPv4> b;
        b.del(r);
        push_batch(std::move(b));
    }
};

// Standalone operation: every nexthop resolves with metric 0 and the
// answer is valid forever. Used by tests and by the Figure-13 benchmark,
// which exercises propagation rather than hot-potato selection.
class NullRibHandle final : public RibHandle {
public:
    void push_batch(stage::RouteBatch<net::IPv4>&&) override {}
    void register_interest(
        net::IPv4 nexthop,
        NexthopResolverStage::AnswerCallback answer) override {
        answer(0, net::IPv4Net(nexthop, 32));
    }
};

class BgpProcess {
public:
    struct Config {
        As local_as = 0;
        net::IPv4 bgp_id;
        bool enable_damping = false;
        DampingConfig damping;
        // Routes per background-task slice for table dumps and deletions.
        size_t routes_per_slice = 100;
        // Config leaf "multipath": merge equal-ranked paths (through step
        // 6 of the ranking) into one NexthopSet, up to max_paths members.
        bool multipath = false;
        size_t max_paths = 4;
    };

    BgpProcess(ev::EventLoop& loop, Config config,
               std::unique_ptr<RibHandle> rib = nullptr);
    ~BgpProcess();
    BgpProcess(const BgpProcess&) = delete;
    BgpProcess& operator=(const BgpProcess&) = delete;

    // ---- peers ----------------------------------------------------------
    // Adds a peer and starts its session. Returns the peer id.
    int add_peer(const BgpPeer::Config& config,
                 std::unique_ptr<BgpTransport> transport);
    void remove_peer(int id);
    BgpPeer* peer_session(int id);

    // ---- local routes ("network" statements) ---------------------------
    void originate(const net::IPv4Net& net, net::IPv4 nexthop);
    void withdraw(const net::IPv4Net& net);

    // ---- policy (§8.3) ---------------------------------------------------
    // Import policy runs on routes from the peer before decision; export
    // policy runs per-peer after fanout. Setting a policy re-filters the
    // affected origin in the background.
    void set_import_policy(int peer_id,
                           std::shared_ptr<const policy::Program> prog);
    void set_export_policy(int peer_id,
                           std::shared_ptr<const policy::Program> prog);
    // The BGP attribute vocabulary (localpref, med, aspath-len, origin,
    // community) for policy programs.
    static policy::AttributeBinding<net::IPv4> policy_binding();

    // ---- RIB coupling ----------------------------------------------------
    // Called (typically via XRL) when the RIB invalidates a registration.
    void nexthop_invalid(const net::IPv4Net& valid_subnet);

    // ---- introspection -----------------------------------------------------
    size_t peer_route_count(int peer_id) const;
    size_t loc_rib_count() const { return loc_rib_->route_count(); }
    std::optional<BgpRoute> best_route(const net::IPv4Net& net) const {
        return decision_->lookup_route(net);
    }
    const net::RouteTrie<net::IPv4, BgpRoute>& loc_rib() const {
        return loc_rib_->table();
    }
    size_t active_deletion_stages() const { return deleters_.size(); }
    DampingStage* damping_stage(int peer_id);

    ev::EventLoop& loop() { return loop_; }
    const Config& config() const { return config_; }

private:
    struct PeerPipeline;

    // Terminal stage on each peer's out branch: encodes UPDATEs.
    class PeerOutStage;

    void handle_update(int peer_id, const UpdateMessage& update);
    void handle_peer_established(int peer_id);
    void handle_peer_down(int peer_id);
    void start_table_dump(int peer_id);
    void install_out_filters(PeerPipeline& p);
    void refilter_all_peers_into(int peer_id);

    ev::EventLoop& loop_;
    Config config_;
    std::unique_ptr<RibHandle> rib_;

    std::unique_ptr<DecisionStage> decision_;
    std::unique_ptr<stage::FanoutStage<net::IPv4>> fanout_;
    std::unique_ptr<stage::SinkStage<net::IPv4>> rib_branch_;
    std::unique_ptr<stage::SinkStage<net::IPv4>> loc_rib_;

    // Locally-originated routes feed the decision like a peer would.
    std::unique_ptr<stage::OriginStage<net::IPv4>> local_origin_;
    std::unique_ptr<NexthopResolverStage> local_resolver_;

    std::map<int, std::unique_ptr<PeerPipeline>> peers_;
    std::vector<std::unique_ptr<stage::DeletionStage<net::IPv4>>> deleters_;
    int next_peer_id_ = 1;
};

}  // namespace xrp::bgp

#endif
