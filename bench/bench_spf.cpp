// bench_spf: full vs incremental SPF over synthetic link-state databases
// (EXPERIMENTS.md). Topologies are n x n grids of point-to-point links
// and k-ary fat-trees — 64 to ~1k routers, each advertising one stub
// prefix. The headline comparison: after a single link re-cost, the
// incremental path (restricted Dijkstra over the moved subtree) against
// rerunning full Dijkstra, which is what a naive implementation does on
// every flap. The middle link has equal-cost alternatives, so its re-cost
// moves almost nothing; the *SolePathChange cases re-cost a link on the
// only shortest path to a mid-fabric subtree, which must re-settle the
// whole subtree.
//
// Self-checking: after its timed loop, every incremental case compares
// the engine's RouteMap (successor sets included) with a fresh full run
// over the same database, and the process exits non-zero on a mismatch,
// so the CI bench smoke catches an incremental/full divergence at real
// topology sizes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "ev/eventloop.hpp"
#include "report.hpp"
#include "ospf/spf.hpp"

using namespace xrp;
using namespace xrp::ospf;
using net::IPv4;
using net::IPv4Net;

namespace {

// Set when an incremental run disagrees with a fresh full run.
bool g_mismatch = false;

// A topology expressed directly as Router LSAs (point-to-point links
// with symmetric metrics plus one stub per router).
struct Topology {
    size_t n = 0;
    std::vector<std::vector<std::pair<size_t, uint32_t>>> adj;
    std::vector<uint32_t> seq;
    // The link the *LinkChange cases re-cost: both ends mid-fabric and
    // neither is the SPF root (router 0), so a re-cost moves a real
    // subtree rather than a leaf or the root's own uplink.
    std::pair<size_t, size_t> middle{};
    // A link on the only shortest path from the root to a subtree of
    // several routers: re-costing it moves the whole subtree.
    std::pair<size_t, size_t> sole_path{};

    explicit Topology(size_t routers) : n(routers), adj(routers),
                                        seq(routers, 1) {}

    static IPv4 rid(size_t i) { return IPv4(static_cast<uint32_t>(i + 1)); }
    static IPv4Net stub_net(size_t i) {
        return IPv4Net(IPv4((10u << 24) | (static_cast<uint32_t>(i) << 8)),
                       24);
    }

    void link(size_t a, size_t b, uint32_t metric = 1) {
        adj[a].emplace_back(b, metric);
        adj[b].emplace_back(a, metric);
    }
    void set_metric(size_t a, size_t b, uint32_t metric) {
        for (auto& [t, m] : adj[a])
            if (t == b) m = metric;
        for (auto& [t, m] : adj[b])
            if (t == a) m = metric;
    }

    Lsa lsa_of(size_t i) const {
        Lsa l;
        l.type = LsaType::kRouter;
        l.id = rid(i);
        l.adv_router = rid(i);
        l.seq = seq[i];
        for (const auto& [t, m] : adj[i])
            l.links.push_back(
                {LinkType::kPointToPoint, rid(t), rid(i), m});
        IPv4Net s = stub_net(i);
        l.links.push_back({LinkType::kStub, s.masked_addr(),
                           IPv4::make_prefix(s.prefix_len()), 1});
        return l;
    }
    void install_all(Lsdb& db) const {
        for (size_t i = 0; i < n; ++i) db.install(lsa_of(i));
    }
    // Reinstalls both endpoints' LSAs after set_metric; returns the
    // changed keys (what flooding would hand the SPF scheduler).
    std::vector<LsaKey> reinstall(Lsdb& db, size_t a, size_t b) {
        ++seq[a];
        ++seq[b];
        Lsa la = lsa_of(a), lb = lsa_of(b);
        db.install(la);
        db.install(lb);
        return {la.key(), lb.key()};
    }
};

// side x side grid: the worst-ish case for incremental SPF (many
// equal-cost paths, so a change can still touch a large subtree).
Topology make_grid(size_t side) {
    Topology t(side * side);
    for (size_t r = 0; r < side; ++r)
        for (size_t c = 0; c < side; ++c) {
            size_t i = r * side + c;
            if (c + 1 < side) t.link(i, i + 1);
            if (r + 1 < side) t.link(i, i + side);
        }
    // The centre router and its right-hand neighbour.
    const size_t centre = (side / 2) * side + side / 2;
    t.middle = {centre, centre + 1};
    // Routers on the root's row have one shortest path, along the row; the
    // link at mid-row carries it to the row's far half.
    t.sole_path = {side / 2 - 1, side / 2};
    return t;
}

// k-ary fat-tree: (5/4)k^2 switches — k^2/4 core, k^2/2 aggregation,
// k^2/2 edge. The classic datacenter fabric shape.
Topology make_fat_tree(size_t k) {
    size_t half = k / 2;
    size_t cores = half * half;
    size_t aggs = k * half;
    Topology t(cores + aggs + k * half);
    auto core = [&](size_t j) { return j; };
    auto agg = [&](size_t pod, size_t i) { return cores + pod * half + i; };
    auto edge = [&](size_t pod, size_t i) {
        return cores + aggs + pod * half + i;
    };
    for (size_t pod = 0; pod < k; ++pod)
        for (size_t i = 0; i < half; ++i) {
            for (size_t j = 0; j < half; ++j) {
                t.link(agg(pod, i), core(i * half + j));
                t.link(edge(pod, i), agg(pod, j));
            }
        }
    // An aggregation-edge link in the middle pod (the root is core 0).
    t.middle = {agg(k / 2, 0), edge(k / 2, 0)};
    // The middle pod hangs off core 0 through its first aggregation
    // switch alone: every edge switch and the pod's other aggregation
    // switches are reached through that one link.
    t.sole_path = {core(0), agg(k / 2, 0)};
    return t;
}

Topology make_topology(bool fat_tree, size_t arg) {
    return fat_tree ? make_fat_tree(arg) : make_grid(arg);
}

void check_against_full(const char* shape, int64_t arg,
                        const SpfEngine& engine, const Lsdb& db) {
    SpfEngine full;
    full.set_root(engine.root());
    full.set_max_paths(engine.max_paths());
    if (engine.routes() == full.run_full(db)) return;
    std::fprintf(stderr,
                 "FAIL: %s/%lld: incremental routes differ from a full run\n",
                 shape, static_cast<long long>(arg));
    g_mismatch = true;
}

// Which link each iteration re-costs (between metric 1 and 5).
enum class Change { kNone, kMiddle, kSolePath };

void run_spf_benchmark(benchmark::State& state, bool fat_tree,
                       bool incremental, Change change) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Lsdb db(loop);
    Topology topo = make_topology(fat_tree, static_cast<size_t>(state.range(0)));
    topo.install_all(db);
    SpfEngine engine;
    engine.set_root(Topology::rid(0));
    engine.run_full(db);

    auto [a, b] = change == Change::kSolePath ? topo.sole_path : topo.middle;
    uint32_t flip = 0;
    for (auto _ : state) {
        std::vector<LsaKey> changed;
        if (change != Change::kNone) {
            topo.set_metric(a, b, (flip++ % 2) ? 1 : 5);
            changed = topo.reinstall(db, a, b);
        }
        if (incremental)
            benchmark::DoNotOptimize(engine.run_incremental(db, changed));
        else
            benchmark::DoNotOptimize(engine.run_full(db));
    }
    if (incremental)
        check_against_full(fat_tree ? "fat-tree" : "grid", state.range(0),
                           engine, db);
    state.counters["routers"] = static_cast<double>(topo.n);
    state.counters["visited"] =
        static_cast<double>(engine.stats().last_visited);
    // Vertices whose hop set the last run's hop pass recomputed.
    state.counters["hop_visits"] =
        static_cast<double>(engine.stats().last_hop_visits);
    state.counters["fallbacks"] =
        static_cast<double>(engine.stats().fallbacks);
}

}  // namespace

// Baseline: what every topology change costs without the incremental
// path.
static void BM_GridFullSpf(benchmark::State& state) {
    run_spf_benchmark(state, false, false, Change::kNone);
}
BENCHMARK(BM_GridFullSpf)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

// The contest on one re-costed link: full recompute...
static void BM_GridFullAfterLinkChange(benchmark::State& state) {
    run_spf_benchmark(state, false, false, Change::kMiddle);
}
BENCHMARK(BM_GridFullAfterLinkChange)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

// ...versus the incremental dynamic-SPT update.
static void BM_GridIncrementalLinkChange(benchmark::State& state) {
    run_spf_benchmark(state, false, true, Change::kMiddle);
}
BENCHMARK(BM_GridIncrementalLinkChange)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

static void BM_FatTreeFullSpf(benchmark::State& state) {
    run_spf_benchmark(state, true, false, Change::kNone);
}
BENCHMARK(BM_FatTreeFullSpf)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

static void BM_FatTreeFullAfterLinkChange(benchmark::State& state) {
    run_spf_benchmark(state, true, false, Change::kMiddle);
}
BENCHMARK(BM_FatTreeFullAfterLinkChange)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

static void BM_FatTreeIncrementalLinkChange(benchmark::State& state) {
    run_spf_benchmark(state, true, true, Change::kMiddle);
}
BENCHMARK(BM_FatTreeIncrementalLinkChange)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// A re-cost on the only shortest path to a subtree: the incremental run
// re-settles the subtree, so `visited` grows with the fabric.
static void BM_GridIncrementalSolePathChange(benchmark::State& state) {
    run_spf_benchmark(state, false, true, Change::kSolePath);
}
BENCHMARK(BM_GridIncrementalSolePathChange)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

static void BM_FatTreeIncrementalSolePathChange(benchmark::State& state) {
    run_spf_benchmark(state, true, true, Change::kSolePath);
}
BENCHMARK(BM_FatTreeIncrementalSolePathChange)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// A refresh (new seq, same topology) must cost ~nothing: the delta
// reduction detects it before any graph work.
static void BM_GridRefreshOnly(benchmark::State& state) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Lsdb db(loop);
    Topology topo = make_grid(static_cast<size_t>(state.range(0)));
    topo.install_all(db);
    SpfEngine engine;
    engine.set_root(Topology::rid(0));
    engine.run_full(db);
    size_t i = topo.n / 2;
    for (auto _ : state) {
        ++topo.seq[i];
        Lsa l = topo.lsa_of(i);
        db.install(l);
        benchmark::DoNotOptimize(engine.run_incremental(db, {l.key()}));
    }
    check_against_full("grid-refresh", state.range(0), engine, db);
}
BENCHMARK(BM_GridRefreshOnly)->Arg(32)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    xrp::bench::Report report("spf");
    xrp::bench::GBenchReporter reporter(report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return g_mismatch ? 1 : 0;
}
