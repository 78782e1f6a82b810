// download_1m: 1,000,000 distinct /24 routes through rtrmgr's
// ThreadedRouter, where BGP, RIB and FEA each run their own thread and
// talk over xring. The driver (this thread) posts 1,024-route batches,
// built during set-up, onto the BGP thread into BGP's RIB handle, with at
// most 8 batches in flight. Timed until the last FIB install. The seed
// picks where the consecutive /24s start.
#include <sched.h>

#include <thread>

#include "rtrmgr/threaded.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace xrp;

namespace {

constexpr size_t kBatch = 1024;
constexpr size_t kInFlight = 8;

// The i-th route of the download: consecutive /24s from a seeded start,
// wrapping within the 2^20 /24s of 10.0.0.0 - 25.255.255.0, all via
// peer A. Consecutive, like a table dump; a random order would make the
// workload measure trie cache misses instead of the pipeline.
struct RouteGen {
    explicit RouteGen(uint64_t seed)
        : start(static_cast<uint32_t>(seed * 2654435761u) & 0xfffffu) {}
    IPv4Net net(size_t i) const {
        const uint32_t x = (start + static_cast<uint32_t>(i)) & 0xfffffu;
        return IPv4Net(IPv4(0x0a000000u + (x << 8)), 24);
    }
    stage::Route4 route(size_t i) const {
        stage::Route4 r;
        r.net = net(i);
        r.nexthop = kPeerA;
        r.protocol = "ebgp";
        r.igp_metric = 1;
        return r;
    }
    uint32_t start;
};

struct Run {
    double setup_s = 0;
    double wall_s = 0;
    double cpu_s = 0;
    double half_s = 0;  // until half the routes were in the FIB
    double p99_s = 0;   // until 99% of them were
    double busy[4] = {0, 0, 0, 0};  // bgp, rib, fea, driver
    double stat_read_s = 0;          // time spent reading thread CPU
};

using Batches = std::vector<std::shared_ptr<stage::RouteBatch4>>;

Batches make_batches(const RouteGen& gen, size_t n) {
    Batches out;
    for (size_t i = 0; i < n; i += kBatch) {
        auto b = std::make_shared<stage::RouteBatch4>();
        b->reserve(kBatch);
        for (size_t j = i; j < std::min(n, i + kBatch); ++j) b->add(gen.route(j));
        out.push_back(std::move(b));
    }
    return out;
}

// Set-up is starting the router and building the input batches; with
// `setup_only` the run ends there.
Run download_once(const RouteGen& gen, size_t n, Result* r, bool inject,
                  bool setup_only = false) {
    Run run;
    const auto ts = Clock::now();
    Batches batches = make_batches(gen, n);
    ev::RealClock clock;
    rtrmgr::ThreadedRouter router(clock);
    router.rib().add_route("static", kCovering,
                           IPv4::must_parse("192.0.2.250"), 1);
    router.start();
    while (router.fib_size() < 1) std::this_thread::yield();
    int tids[4] = {0, 0, 0, current_tid()};
    router.bgp_thread().run_sync([&] { tids[0] = current_tid(); });
    router.rib_thread().run_sync([&] { tids[1] = current_tid(); });
    router.fea_thread().run_sync([&] { tids[2] = current_tid(); });
    run.setup_s = seconds_since(ts);
    if (setup_only) return run;
    // One vCPU per thread (BGP, RIB, FEA, driver) when there are four:
    // unpinned, migrations made runs swing by 15%. The driver's own mask
    // is restored at the end, since threads it spawns later inherit it.
    cpu_set_t driver_mask;
    CPU_ZERO(&driver_mask);
    sched_getaffinity(0, sizeof driver_mask, &driver_mask);
    if (std::thread::hardware_concurrency() >= 4) {
        for (int k = 0; k < 4; ++k) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(k, &set);
            sched_setaffinity(tids[k], sizeof set, &set);
        }
    }

    const size_t base = router.fib_size();
    double cpu_t0[4];
    auto tr = Clock::now();
    for (int k = 0; k < 4; ++k) cpu_t0[k] = thread_cpu_s(tids[k]);
    run.stat_read_s = seconds_since(tr);
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    // The driver waits on the FIB mirror. It sleeps while the FIB is more
    // than a batch short of the next timed milestone (half, 99%, all),
    // which leaves the fourth core to the machine (a spinning driver made
    // runs swing by 25%), and spins within a batch of it, so no timing is
    // quantised to a sleep period.
    const size_t half = base + (n + 1) / 2;
    const size_t p99 = base + (n * 99 + 99) / 100;
    auto observe = [&] {
        const size_t fib = router.fib_size();
        if (run.half_s == 0 && fib >= half) run.half_s = seconds_since(t0);
        if (run.p99_s == 0 && fib >= p99) run.p99_s = seconds_since(t0);
        return fib;
    };
    auto wait_fib = [&](size_t target) {
        const auto start = Clock::now();
        for (size_t fib = observe(); fib < target; fib = observe()) {
            if (seconds_since(start) > 120) return;
            const size_t milestone = run.half_s == 0  ? half
                                     : run.p99_s == 0 ? p99
                                                      : base + n;
            if (fib + kBatch < milestone)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            else
                std::this_thread::yield();
        }
    };
    size_t posted = 0;
    for (auto& bp : batches) {
        posted += bp->size();
        router.post_bgp([&router, b = std::move(bp)] {
            router.rib_handle()->push_batch(std::move(*b));
        });
        if (posted > kInFlight * kBatch)
            wait_fib(base + posted - kInFlight * kBatch);
    }
    wait_fib(base + n);
    run.wall_s = seconds_since(t0);
    run.cpu_s = process_cpu_s() - cpu0;
    std::fprintf(stderr, "download: %zu routes in %.3f s\n", n, run.wall_s);
    tr = Clock::now();
    for (int k = 0; k < 4; ++k)
        run.busy[k] = (thread_cpu_s(tids[k]) - cpu_t0[k]) / run.wall_s;
    run.stat_read_s += seconds_since(tr);
    router.stop();
    sched_setaffinity(0, sizeof driver_mask, &driver_mask);

    if (r == nullptr) return run;
    auto& fib = router.fea().fib();
    if (inject) fib.delete_route(gen.net(n / 2));
    std::vector<IPv4Net> expected(n);
    for (size_t i = 0; i < n; ++i) expected[i] = gen.net(i);
    check_fib(fib, expected, *r, "download_1m");
    return run;
}

}  // namespace

Result run_download(const Options& o) {
    const size_t n =
        std::max<size_t>(20000, static_cast<size_t>(1000000 * o.scale));
    const RouteGen gen(o.seed);
    Result r;
    std::vector<double> setup, rate, half, p99;
    double cpu = 0, timed = 0, rss = 0;
    std::vector<Run> runs;
    // Set-up alone, a few more times, so its median is steady.
    for (int k = 0; k < 3; ++k)
        setup.push_back(download_once(gen, n, nullptr, false, true).setup_s);
    for (int rep = 0; rep < 15 && timed < o.seconds; ++rep) {
        runs.push_back(download_once(gen, n, &r, o.inject_fib_delete && rep == 0));
        const Run& run = runs.back();
        setup.push_back(run.setup_s);
        rate.push_back(static_cast<double>(n) / run.wall_s);
        half.push_back(run.half_s * 1e3);
        p99.push_back(run.p99_s * 1e3);
        cpu += run.cpu_s;
        timed += run.wall_s;
        // Later repetitions inherit the allocator's state, so the peak of
        // the first one is the steady memory figure.
        if (rep == 0) rss = peak_rss_mb();
    }

    if (!o.trace) {
        EndToEnd e;
        e.throughput_per_s = median(rate);
        e.latency_p50_ms = median(half);
        e.latency_tail_ms = median(p99);
        e.setup_s = median(setup);
        e.cpu_s = cpu / static_cast<double>(rate.size());
        e.rss_mb = rss;
        add_end_to_end(r, e);
        return r;
    }

    LayerTable t;
    // BGP is bypassed here: bgp.ingest comes from the stand-in feed; the
    // other route-path rows are overwritten with this workload's batches.
    probe_standin_route_path(o.seed, t);
    probe_standin_spans(o.seed, t);
    probe_standin_ospf(o.seed, t);
    t.bgp_routes_per_batch = static_cast<double>(kBatch);
    // Busy shares: the median run by throughput.
    std::vector<size_t> order(runs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return runs[a].wall_s < runs[b].wall_s;
    });
    const Run& mid = runs[order[order.size() / 2]];
    t.thread_bgp_busy = mid.busy[0];
    t.thread_rib_busy = mid.busy[1];
    t.thread_fea_busy = mid.busy[2];
    t.thread_driver_busy = mid.busy[3];
    // The only tracing here is reading each thread's CPU time.
    t.trace_overhead_share = mid.stat_read_s / mid.wall_s;

    std::vector<stage::RouteBatch4> batches;
    for (auto& b : make_batches(gen, n)) batches.push_back(std::move(*b));
    const double self_s = probe_batch_path(batches, "xring", t);
    t.span_residual_share = 1.0 - self_s / mid.wall_s;
    add_layer_table(r, t);
    return r;
}

void probe_standin_threads(uint64_t seed, LayerTable& t) {
    const Run run = download_once(RouteGen(seed), 100 * kBatch, nullptr, false);
    t.thread_bgp_busy = run.busy[0];
    t.thread_rib_busy = run.busy[1];
    t.thread_fea_busy = run.busy[2];
    t.thread_driver_busy = run.busy[3];
}

}  // namespace perfbench
