// The SPF engine: Dijkstra over the link-state database (RFC 2328 §16),
// with an incremental recompute path for the common case — one LSA
// changed, most of the shortest-path tree still valid.
//
// Graph model: vertices are routers (Router LSAs) and multi-access
// networks (Network LSAs). Edges exist only when both endpoints agree
// (the §13.? back-link check): a one-way claim — router A lists B but B
// doesn't list A — contributes nothing, which is what makes flooding
// races and dead-router remnants safe to compute over. Stub links and
// network prefixes are not vertices; they are prefix contributions hung
// off reachable vertices after the tree is built.
//
// Incremental algorithm (the Ramalingam–Reps family, specialised to SPT
// maintenance): diff the changed LSAs' edges against the last run's
// snapshot; cost decreases seed relaxations, cost increases/removals on
// tree edges invalidate exactly the affected subtree, which is then
// re-settled by a Dijkstra restricted to candidates entering from the
// stable region. The ECMP hop sets are then re-derived by a worklist
// pass seeded with the re-settled vertices, their neighbours and the
// heads of changed edges, which spreads only while a hop set moves. An
// incremental run thus costs the re-settled region, its boundary and the
// vertices whose successor sets changed; it reports the prefixes it may
// have moved, so the caller syncs only those. bench_spf measures the gap
// against a full run and checks the two agree.
// Refresh-only changes (same content, new seq) and pure stub-metric
// changes skip the graph phase entirely. When the engine has no prior
// state, the root moved, or the change set is too broad, it falls back
// to a full run; equivalence of the two paths is pinned by test_ospf's
// random-mutation tests.
#ifndef XRP_OSPF_SPF_HPP
#define XRP_OSPF_SPF_HPP

#include <map>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "net/nexthop_set.hpp"
#include "ospf/lsdb.hpp"

namespace xrp::ospf {

struct SpfRoute {
    uint32_t cost = 0;
    // First-hop address; 0 for prefixes on the root itself or on a
    // directly attached segment (the RIB's connected origin owns those).
    net::IPv4 nexthop{};
    // Every equal-cost first hop (ECMP successor set), canonical order,
    // clamped to the engine's max_paths. Empty iff nexthop is 0 (root's
    // own / directly attached prefixes); otherwise nexthop ==
    // nexthops.primary(). Both SPF modes derive this from the finished
    // distance field with the same deterministic pass, so the sets are
    // identical between full and incremental runs by construction.
    net::NexthopSet4 nexthops;
    friend auto operator<=>(const SpfRoute&, const SpfRoute&) = default;
};

using RouteMap = std::map<net::IPv4Net, SpfRoute>;

class SpfEngine {
public:
    struct Stats {
        uint64_t full_runs = 0;
        uint64_t incremental_runs = 0;
        // Incremental requests that had to fall back to a full run.
        uint64_t fallbacks = 0;
        // Vertices settled by the most recent run.
        size_t last_visited = 0;
        // Vertices whose hop set the most recent run's hop pass recomputed.
        size_t last_hop_visits = 0;
    };

    void set_root(net::IPv4 router_id) {
        if (root_ != router_id) {
            root_ = router_id;
            has_run_ = false;
        }
    }
    net::IPv4 root() const { return root_; }

    // ECMP width cap; 1 disables multipath. A change forces the next run
    // full so every successor set is re-derived under the new cap.
    void set_max_paths(size_t k) {
        k = k == 0 ? 1 : k;
        if (max_paths_ != k) {
            max_paths_ = k;
            has_run_ = false;
        }
    }
    size_t max_paths() const { return max_paths_; }
    bool has_run() const { return has_run_; }

    const RouteMap& run_full(const Lsdb& db);
    // `changed` are the LSDB keys whose instances were installed/removed
    // since the last run (refresh-only keys are fine — they are detected
    // and skipped).
    const RouteMap& run_incremental(const Lsdb& db,
                                    const std::vector<LsaKey>& changed);

    const RouteMap& routes() const { return routes_; }
    // Hands over the prefixes whose route the runs since the last call may
    // have changed (added, removed or altered); every other entry of
    // routes() is as it was then.
    std::set<net::IPv4Net> take_moved_prefixes() {
        return std::exchange(moved_, {});
    }
    const Stats& stats() const { return stats_; }

private:
    static constexpr uint32_t kInf = 0xffffffffu;

    struct Vertex {
        LsaType kind = LsaType::kRouter;
        net::IPv4 id{};
        friend constexpr auto operator<=>(const Vertex&,
                                          const Vertex&) = default;
    };
    struct Node {
        uint32_t dist = kInf;
        Vertex parent{};
        bool has_parent = false;
        net::IPv4 nexthop{};
        // Full equal-cost hop set, kept by derive_hops(); nexthop is its
        // primary (or 0 when the set is the direct-attachment sentinel
        // {0} / empty).
        net::NexthopSet4 hops;
        // Pass stamp: settled by the Dijkstra, or queued by derive_hops(),
        // in the pass with this id.
        uint64_t processed_run = 0;
    };
    struct QueueEntry {
        uint32_t dist;
        Vertex v;
        bool operator>(const QueueEntry& o) const {
            if (dist != o.dist) return dist > o.dist;
            return o.v < v;
        }
    };

    const Lsa* router_lsa(net::IPv4 id) const;
    const Lsa* network_lsa(net::IPv4 id) const;
    // Directed edge weight under the current snapshot, with back-link
    // checks; nullopt if the edge does not (or no longer does) exist.
    std::optional<uint32_t> edge_weight(const Vertex& a,
                                        const Vertex& b) const;
    // Neighbour vertex set claimed by `v`'s LSA, no validity checks.
    std::vector<Vertex> raw_targets(const Vertex& v) const;
    // The hop a tight edge decides by itself, when `parent` is the root or
    // was reached with no gateway (a directly attached segment).
    net::IPv4 first_hop(const Vertex& parent, const Vertex& child) const;
    void relax(const Vertex& v,
               std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                                   std::greater<QueueEntry>>& pq);
    void add_contributions(const Vertex& v, std::set<net::IPv4Net>* touched);
    void drop_contributions(const Vertex& v, std::set<net::IPv4Net>* touched);
    SpfRoute winner_for(const std::map<Vertex, SpfRoute>& contribs) const;
    void recompute_winners(const std::set<net::IPv4Net>& touched);
    // ECMP hop pass over the finished distance field: recomputes the
    // equal-cost hop set of each seed (union over tight in-edges), in
    // topological order, and queues a vertex's later neighbours whenever
    // its set moves. The one pass serves both run modes (a full run seeds
    // every vertex) — that is the incremental==full successor-set
    // guarantee. Vertices whose hop set moved are added to `changed` (may
    // be null).
    void derive_hops(const std::vector<Vertex>& seeds,
                     std::set<Vertex>* changed);
    void rebuild_snapshot(const Lsdb& db);

    net::IPv4 root_{};
    bool has_run_ = false;
    uint64_t run_id_ = 0;
    size_t max_paths_ = 8;

    // Last-run snapshot: LSA contents, network-LSA index, the SPT, prefix
    // contributions per vertex, and the resulting routes.
    std::map<LsaKey, Lsa> snap_;
    std::map<net::IPv4, LsaKey> net_idx_;
    std::map<Vertex, Node> nodes_;
    std::map<net::IPv4Net, std::map<Vertex, SpfRoute>> contrib_;
    std::map<Vertex, std::vector<net::IPv4Net>> vertex_prefixes_;
    RouteMap routes_;
    std::set<net::IPv4Net> moved_;
    Stats stats_;
};

}  // namespace xrp::ospf

#endif
