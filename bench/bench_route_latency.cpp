// Figures 10, 11, 12 reproduction: route propagation latency through the
// full control plane, measured at the paper's eight profiling points:
//
//   1. Entering BGP                        (bgp_in)
//   2. Queued for transmission to the RIB  (bgp_rib_queued)
//   3. Sent to RIB                         (bgp_rib_sent)
//   4. Arriving at the RIB                 (rib_in)
//   5. Queued for transmission to the FEA  (rib_fea_queued)
//   6. Sent to the FEA                     (rib_fea_sent)
//   7. Arriving at FEA                     (fea_in)
//   8. Entering kernel                     (kernel_in)
//
// Three experiments, as in the paper: (Fig 10) empty table; (Fig 11) a
// 146515-route synthetic backbone feed with test routes injected on the
// SAME peering; (Fig 12) the same table with test routes on a DIFFERENT
// peering (different code paths through the decision process). 255 test
// routes are announced and withdrawn one at a time; per-point Avg/SD/
// Min/Max are reported relative to "Entering BGP". The points are read
// off the event journal with tracing on; the bench exits non-zero when a
// figure measures fewer test routes than it sent.
//
// BGP, RIB, and FEA are separate components coupled by XRLs over real
// loopback TCP, so the measured latency includes genuine IPC, as the
// paper's did ("latency is mostly dominated by ... inter-process
// communication").
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <thread>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bgp/bgp_xrl.hpp"
#include "fea/fea_xrl.hpp"
#include "report.hpp"
#include "rib/rib_xrl.hpp"
#include "rtrmgr/threaded.hpp"
#include "sim/harness.hpp"
#include "sim/routefeed.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"

using namespace xrp;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;

namespace {

// The eight points as journal events: each point is the newest "add"
// event of its kind for the test prefix. rib_in and kernel_in are the
// journal's route_install and fib_add; the other six are trace points,
// recorded while tracing is on.
struct Point {
    const char* name;
    const char* label;
    telemetry::JournalKind kind;
};
const Point kPoints[] = {
    {"bgp_in", "Entering BGP", telemetry::JournalKind::kBgpIn},
    {"bgp_rib_queued", "Queued for transmission to the RIB",
     telemetry::JournalKind::kBgpRibQueued},
    {"bgp_rib_sent", "Sent to RIB", telemetry::JournalKind::kBgpRibSent},
    {"rib_in", "Arriving at the RIB", telemetry::JournalKind::kRouteInstall},
    {"rib_fea_queued", "Queued for transmission to the FEA",
     telemetry::JournalKind::kRibFeaQueued},
    {"rib_fea_sent", "Sent to the FEA", telemetry::JournalKind::kRibFeaSent},
    {"fea_in", "Arriving at FEA", telemetry::JournalKind::kFeaIn},
    {"kernel_in", "Entering kernel", telemetry::JournalKind::kFibAdd},
};

struct Stack {
    ev::RealClock clock;
    ipc::Plexus plexus{clock};

    ipc::XrlRouter fea_xr{plexus, "fea", true};
    fea::Fea fea{plexus.loop};
    ipc::XrlRouter rib_xr{plexus, "rib", true};
    std::unique_ptr<rib::Rib> rib;
    rib::XrlFeaHandle* fea_handle = nullptr;
    ipc::XrlRouter bgp_xr{plexus, "bgp", true};
    std::unique_ptr<bgp::BgpProcess> bgp_proc;
    bgp::XrlRibHandle* rib_handle = nullptr;

    Stack() {
        // Every component listens on TCP and prefers TCP outbound, so
        // inter-component XRLs run over real loopback sockets, like the
        // separate processes of the paper's deployment.
        fea::bind_fea_xrl(fea, fea_xr);
        fea_xr.enable_tcp();
        fea_xr.finalize();

        auto fh = std::make_unique<rib::XrlFeaHandle>(rib_xr);
        fea_handle = fh.get();
        rib = std::make_unique<rib::Rib>(plexus.loop, std::move(fh));
        rib::bind_rib_xrl(*rib, rib_xr);
        rib_xr.enable_tcp();
        rib_xr.finalize();
        rib_xr.set_preferred_family("stcp");

        bgp::BgpProcess::Config cfg;
        cfg.local_as = 1777;
        cfg.bgp_id = IPv4::must_parse("192.0.2.250");
        auto rh = std::make_unique<bgp::XrlRibHandle>(bgp_xr);
        rib_handle = rh.get();
        bgp_proc = std::make_unique<bgp::BgpProcess>(plexus.loop, cfg,
                                                     std::move(rh));
        bgp::bind_bgp_xrl(*bgp_proc, bgp_xr);
        bgp_xr.enable_tcp();
        bgp_xr.finalize();
        bgp_xr.set_preferred_family("stcp");

        // The IGP route that makes peer nexthops resolvable; kept
        // installed for the whole test, like the paper's single route
        // that avoids extra RIB interactions in the empty-table case.
        rib->add_route("static", IPv4Net::must_parse("192.0.2.0/24"),
                       IPv4::must_parse("192.0.2.250"), 1);
    }

    bool run_until(std::function<bool()> pred, ev::Duration limit) {
        return plexus.loop.run_until(std::move(pred), limit);
    }
};

// Time of each point's newest "add" event for `prefix`, in kPoints order.
std::vector<std::optional<ev::TimePoint>> point_times(
    const std::vector<telemetry::JournalEvent>& events,
    const std::string& prefix) {
    std::vector<std::optional<ev::TimePoint>> out(std::size(kPoints));
    for (const telemetry::JournalEvent& e : events) {
        const bool add = e.kind == telemetry::JournalKind::kRouteInstall ||
                         e.kind == telemetry::JournalKind::kFibAdd ||
                         e.detail == "add";
        if (!add || e.subject != prefix) continue;
        for (size_t p = 0; p < std::size(kPoints); ++p)
            if (e.kind == kPoints[p].kind) out[p] = e.t;
    }
    return out;
}

bool g_inproc = false;

// False unless every test route was measured at all eight points.
bool run_experiment(bench::Report& report, const char* figure,
                    const char* title, bool full_table, bool same_peering,
                    size_t table_size, int test_routes) {
    Stack stack;
    if (g_inproc) {
        stack.rib_xr.set_preferred_family("");
        stack.bgp_xr.set_preferred_family("");
    }
    auto [feed_a, peer_a] = sim::attach_feed_peer(
        stack.plexus.loop, *stack.bgp_proc, IPv4::must_parse("192.0.2.1"),
        3561);
    auto [feed_b, peer_b] = sim::attach_feed_peer(
        stack.plexus.loop, *stack.bgp_proc, IPv4::must_parse("192.0.2.2"),
        7018);
    if (!stack.run_until(
            [&] { return feed_a->established() && feed_b->established(); },
            10s)) {
        std::fprintf(stderr, "peers failed to establish\n");
        return false;
    }

    if (full_table) {
        sim::RouteFeedConfig cfg;
        cfg.route_count = table_size;
        cfg.nexthop = IPv4::must_parse("192.0.2.1");
        auto updates = sim::generate_feed(cfg);
        std::fprintf(stderr, "[%s] loading %zu-route feed...\n", title,
                     table_size);
        for (const auto& u : updates) feed_a->send(u);
        if (getenv("XRP_DEBUG_STALL") != nullptr) {
            for (int k = 0; k < 30; ++k) {
                stack.plexus.loop.run_for(2s);
                std::fprintf(stderr,
                             "dbg t=%d locrib=%zu rib=%zu fib=%zu\n  bgp %s\n"
                             "  rib %s\n  fea %s\n",
                             k, stack.bgp_proc->loc_rib_count(),
                             stack.rib->route_count(), stack.fea.fib().size(),
                             stack.bgp_xr.debug_state().c_str(),
                             stack.rib_xr.debug_state().c_str(),
                             stack.fea_xr.debug_state().c_str());
                if (stack.fea.fib().size() >= table_size) break;
            }
        }
        if (!stack.run_until(
                [&] { return stack.bgp_proc->loc_rib_count() >= table_size; },
                600s)) {
            std::fprintf(stderr, "feed load timed out (loc-rib=%zu)\n",
                         stack.bgp_proc->loc_rib_count());
            return false;
        }
        // Let the RIB/FEA drain.
        if (!stack.run_until(
                [&] { return stack.fea.fib().size() >= table_size; }, 600s)) {
            std::fprintf(stderr, "FIB load timed out (fib=%zu)\n",
                         stack.fea.fib().size());
            return false;
        }
        std::fprintf(stderr, "[%s] feed loaded: bgp=%zu rib=%zu fib=%zu\n",
                     title, stack.bgp_proc->loc_rib_count(),
                     stack.rib->route_count(), stack.fea.fib().size());
    }

    sim::FeedPeer* feed = same_peering ? feed_a.get() : feed_b.get();
    const IPv4 nexthop = same_peering ? IPv4::must_parse("192.0.2.1")
                                      : IPv4::must_parse("192.0.2.2");

    // Warm the nexthop-resolver cache (the paper's kept-installed route
    // plays this role for the empty test); one throwaway route.
    feed->announce(IPv4Net::must_parse("10.255.255.0/24"), nexthop, {65000});
    stack.run_until(
        [&] {
            return stack.fea.fib().find_exact(
                       IPv4Net::must_parse("10.255.255.0/24")) != nullptr;
        },
        10s);
    feed->withdraw(IPv4Net::must_parse("10.255.255.0/24"));
    stack.run_until(
        [&] {
            return stack.fea.fib().find_exact(
                       IPv4Net::must_parse("10.255.255.0/24")) == nullptr;
        },
        10s);
    // The measurement loop: announce, wait for the kernel, read the
    // route's eight points off the journal, withdraw.
    auto& journal = telemetry::Journal::global();
    journal.clear();
    journal.set_enabled(true);
    telemetry::set_tracing_enabled(true);
    sim::LatencyStats stats[std::size(kPoints)];
    int measured = 0;
    for (int i = 0; i < test_routes; ++i) {
        IPv4Net net(IPv4((10u << 24) | (static_cast<uint32_t>(i + 1) << 8)),
                    24);
        feed->announce(net, nexthop, {65000});
        bool ok = stack.run_until(
            [&] { return stack.fea.fib().find_exact(net) != nullptr; }, 5s);
        if (ok) {
            auto t = point_times(journal.events(), net.str());
            if (std::all_of(t.begin(), t.end(),
                            [](const auto& tp) { return tp.has_value(); })) {
                ++measured;
                for (size_t p = 1; p < std::size(kPoints); ++p)
                    stats[p].add(std::chrono::duration<double, std::milli>(
                                     *t[p] - *t[0])
                                     .count());
            }
        }
        feed->withdraw(net);
        stack.run_until(
            [&] { return stack.fea.fib().find_exact(net) == nullptr; }, 5s);
        journal.clear();
    }
    telemetry::set_tracing_enabled(false);
    journal.set_enabled(false);

    std::printf("\n## %s\n", title);
    std::printf("#   (%d test routes measured; latencies in ms relative to "
                "\"Entering BGP\")\n",
                measured);
    std::printf("%-38s %8s %8s %8s %8s\n", "Profile Point", "Avg", "SD",
                "Min", "Max");
    std::printf("%-38s %8s %8s %8s %8s\n", kPoints[0].label, "-", "-", "-",
                "-");
    for (size_t p = 1; p < std::size(kPoints); ++p) {
        std::printf("%-38s %s\n", kPoints[p].label, stats[p].row().c_str());
        json::Value& row = report.add_row();
        row.set("figure", json::Value(figure));
        row.set("point", json::Value(kPoints[p].name));
        row.set("measured", json::Value(measured));
        row.set("avg_ms", json::Value(stats[p].mean()));
        row.set("sd_ms", json::Value(stats[p].stddev()));
        row.set("min_ms", json::Value(stats[p].min()));
        row.set("max_ms", json::Value(stats[p].max()));
    }
    std::fflush(stdout);
    if (measured < test_routes)
        std::fprintf(stderr, "[%s] measured %d of %d test routes\n", figure,
                     measured, test_routes);
    return measured == test_routes;
}

// ---- million-route download + churn replay ------------------------------
//
// The bulk-API experiment: a full-table download (BGP's coupling to the
// RIB, over loopback TCP, through the RIB pipeline, into the FEA) driven
// two ways — one scalar XRL per route vs. framed add_routes_bulk batches
// — then a churn replay on the loaded table measuring end-to-end
// latency percentiles per burst. Rows: download throughput per mode,
// churn p50/p95/p99 per mode, and a CDF per mode for plotting.

constexpr double kCdfPcts[] = {1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9, 100};

IPv4Net download_net(size_t i) {
    // Distinct /24s walking up from 10.0.0.0; 1M routes end near
    // 25.66.64.0/24, clear of every other range the bench uses.
    return IPv4Net(IPv4(0x0a000000u + (static_cast<uint32_t>(i) << 8)), 24);
}

stage::Route4 download_route(size_t i, const char* nexthop) {
    stage::Route4 r;
    r.net = download_net(i);
    r.nexthop = IPv4::must_parse(nexthop);
    r.protocol = "ebgp";
    r.igp_metric = 1;
    return r;
}

double run_download_mode(bench::Report& report, bool batched, size_t n_routes,
                        size_t churn_bursts, size_t burst_size) {
    const char* mode = batched ? "batch" : "per_route";
    Stack stack;
    if (g_inproc) {
        stack.rib_xr.set_preferred_family("");
        stack.bgp_xr.set_preferred_family("");
    }
    const size_t base_fib = stack.fea.fib().size();

    std::fprintf(stderr, "[download %s] pushing %zu routes...\n", mode,
                 n_routes);
    constexpr size_t kChunk = 8192;
    const auto t0 = std::chrono::steady_clock::now();
    if (batched) {
        stage::RouteBatch4 b;
        b.reserve(kChunk);
        for (size_t i = 0; i < n_routes; ++i) {
            b.add(download_route(i, "192.0.2.1"));
            if (b.size() == kChunk) {
                stack.rib_handle->push_batch(std::move(b));
                b.clear();
                b.reserve(kChunk);
                // Keep the pipeline moving so send queues stay bounded.
                stack.run_until(
                    [&] {
                        return stack.fea.fib().size() + 8 * kChunk >=
                               base_fib + i;
                    },
                    60s);
            }
        }
        if (!b.empty()) stack.rib_handle->push_batch(std::move(b));
    } else {
        for (size_t i = 0; i < n_routes; ++i) {
            stack.rib_handle->add_route(download_route(i, "192.0.2.1"));
            if (i % kChunk == kChunk - 1)
                stack.run_until(
                    [&] {
                        return stack.fea.fib().size() + 8 * kChunk >=
                               base_fib + i;
                    },
                    60s);
        }
    }
    if (!stack.run_until(
            [&] { return stack.fea.fib().size() >= base_fib + n_routes; },
            1200s)) {
        std::fprintf(stderr, "[download %s] timed out (fib=%zu)\n", mode,
                     stack.fea.fib().size());
        return 0;
    }
    const double dl_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double rps = static_cast<double>(n_routes) / dl_secs;
    std::printf("%-12s %10zu routes %10.2f s %12.0f routes/s\n", mode,
                n_routes, dl_secs, rps);
    json::Value& row = report.add_row();
    row.set("figure", json::Value("download_1m"));
    row.set("mode", json::Value(mode));
    row.set("routes", json::Value(static_cast<int64_t>(n_routes)));
    row.set("seconds", json::Value(dl_secs));
    row.set("routes_per_sec", json::Value(rps));

    // Churn replay on the loaded table: each burst re-advertises
    // `burst_size` random prefixes with a flipped nexthop, then a fresh
    // sentinel route; the sample is push-to-FIB latency for the burst.
    sim::LatencyStats churn;
    std::mt19937 rng(0xc4u);
    for (size_t burst = 0; burst < churn_bursts; ++burst) {
        const char* nh = burst % 2 == 0 ? "192.0.2.2" : "192.0.2.1";
        const IPv4Net sentinel = IPv4Net(
            IPv4(0xac100000u + (static_cast<uint32_t>(burst) << 8)), 24);
        stage::Route4 sent_r;
        sent_r.net = sentinel;
        sent_r.nexthop = IPv4::must_parse("192.0.2.1");
        sent_r.protocol = "ebgp";
        sent_r.igp_metric = 1;

        const auto tb = std::chrono::steady_clock::now();
        if (batched) {
            stage::RouteBatch4 b;
            b.reserve(burst_size + 1);
            for (size_t k = 0; k < burst_size; ++k)
                b.add(download_route(rng() % n_routes, nh));
            b.add(sent_r);
            stack.rib_handle->push_batch(std::move(b));
        } else {
            for (size_t k = 0; k < burst_size; ++k)
                stack.rib_handle->add_route(download_route(rng() % n_routes,
                                                           nh));
            stack.rib_handle->add_route(sent_r);
        }
        if (!stack.run_until(
                [&] {
                    return stack.fea.fib().find_exact(sentinel) != nullptr;
                },
                30s)) {
            std::fprintf(stderr, "[churn %s] burst %zu timed out\n", mode,
                         burst);
            continue;
        }
        churn.add(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - tb)
                      .count());
    }

    std::printf("%-12s churn (%zu bursts x %zu): p50 %.3f ms  p95 %.3f ms  "
                "p99 %.3f ms\n",
                mode, churn_bursts, burst_size, churn.percentile(50),
                churn.percentile(95), churn.percentile(99));
    json::Value& crow = report.add_row();
    crow.set("figure", json::Value("churn"));
    crow.set("mode", json::Value(mode));
    crow.set("bursts", json::Value(static_cast<int64_t>(churn_bursts)));
    crow.set("burst_size", json::Value(static_cast<int64_t>(burst_size)));
    crow.set("avg_ms", json::Value(churn.mean()));
    crow.set("p50_ms", json::Value(churn.percentile(50)));
    crow.set("p95_ms", json::Value(churn.percentile(95)));
    crow.set("p99_ms", json::Value(churn.percentile(99)));
    crow.set("max_ms", json::Value(churn.max()));
    for (double pct : kCdfPcts) {
        json::Value& cdf = report.add_row();
        cdf.set("figure", json::Value("churn_cdf"));
        cdf.set("mode", json::Value(mode));
        cdf.set("pct", json::Value(pct));
        cdf.set("ms", json::Value(churn.percentile(pct)));
    }
    return rps;
}

// The parallel-control-plane download: BGP, RIB, and FEA each on their
// own thread (ThreadedRouter), batches posted onto the BGP thread, every
// hop over xring. The main thread only builds batches and polls the
// atomic FIB mirror.
double run_download_threaded(bench::Report& report, size_t n_routes,
                             size_t churn_bursts, size_t burst_size) {
    const char* mode = "threaded";
    ev::RealClock clock;
    rtrmgr::ThreadedRouter router(clock);
    router.rib().add_route("static", IPv4Net::must_parse("192.0.2.0/24"),
                           IPv4::must_parse("192.0.2.250"), 1);
    router.start();

    auto wait_for = [](const std::function<bool()>& pred,
                       std::chrono::seconds limit) {
        const auto deadline = std::chrono::steady_clock::now() + limit;
        while (!pred()) {
            if (std::chrono::steady_clock::now() >= deadline) return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    };
    // The static covering route must land before timing starts.
    wait_for([&] { return router.fib_size() >= 1; }, 30s);
    const size_t base_fib = router.fib_size();

    std::fprintf(stderr, "[download %s] pushing %zu routes...\n", mode,
                 n_routes);
    constexpr size_t kChunk = 1024;
    const auto t0 = std::chrono::steady_clock::now();
    stage::RouteBatch4 b;
    b.reserve(kChunk);
    for (size_t i = 0; i < n_routes; ++i) {
        b.add(download_route(i, "192.0.2.1"));
        if (b.size() == kChunk) {
            auto bp = std::make_shared<stage::RouteBatch4>(std::move(b));
            router.post_bgp([&router, bp] {
                router.rib_handle()->push_batch(std::move(*bp));
            });
            b.clear();
            b.reserve(kChunk);
            // Flow control from the producer side: cap the number of
            // chunks in flight so the rings and stage queues stay bounded.
            wait_for(
                [&] { return router.fib_size() + 8 * kChunk >= base_fib + i; },
                60s);
        }
    }
    if (!b.empty()) {
        auto bp = std::make_shared<stage::RouteBatch4>(std::move(b));
        router.post_bgp(
            [&router, bp] { router.rib_handle()->push_batch(std::move(*bp)); });
    }
    if (!wait_for(
            [&] { return router.fib_size() >= base_fib + n_routes; }, 1200s)) {
        std::fprintf(stderr, "[download %s] timed out (fib=%zu)\n", mode,
                     router.fib_size());
        return 0;
    }
    const double dl_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double rps = static_cast<double>(n_routes) / dl_secs;
    std::printf("%-12s %10zu routes %10.2f s %12.0f routes/s\n", mode,
                n_routes, dl_secs, rps);
    json::Value& row = report.add_row();
    row.set("figure", json::Value("download_1m"));
    row.set("mode", json::Value(mode));
    row.set("routes", json::Value(static_cast<int64_t>(n_routes)));
    row.set("seconds", json::Value(dl_secs));
    row.set("routes_per_sec", json::Value(rps));

    // Churn replay, cross-thread: each burst's fresh sentinel bumps the
    // FIB mirror by exactly one — that edge is the completion signal.
    sim::LatencyStats churn;
    std::mt19937 rng(0xc4u);
    for (size_t burst = 0; burst < churn_bursts; ++burst) {
        const char* nh = burst % 2 == 0 ? "192.0.2.2" : "192.0.2.1";
        stage::Route4 sent_r;
        sent_r.net = IPv4Net(
            IPv4(0xac100000u + (static_cast<uint32_t>(burst) << 8)), 24);
        sent_r.nexthop = IPv4::must_parse("192.0.2.1");
        sent_r.protocol = "ebgp";
        sent_r.igp_metric = 1;

        stage::RouteBatch4 cb;
        cb.reserve(burst_size + 1);
        for (size_t k = 0; k < burst_size; ++k)
            cb.add(download_route(rng() % n_routes, nh));
        cb.add(sent_r);
        const size_t want = router.fib_size() + 1;
        const auto tb = std::chrono::steady_clock::now();
        auto bp = std::make_shared<stage::RouteBatch4>(std::move(cb));
        router.post_bgp(
            [&router, bp] { router.rib_handle()->push_batch(std::move(*bp)); });
        if (!wait_for([&] { return router.fib_size() >= want; }, 30s)) {
            std::fprintf(stderr, "[churn %s] burst %zu timed out\n", mode,
                         burst);
            continue;
        }
        churn.add(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - tb)
                      .count());
    }
    router.stop();

    std::printf("%-12s churn (%zu bursts x %zu): p50 %.3f ms  p95 %.3f ms  "
                "p99 %.3f ms\n",
                mode, churn_bursts, burst_size, churn.percentile(50),
                churn.percentile(95), churn.percentile(99));
    json::Value& crow = report.add_row();
    crow.set("figure", json::Value("churn"));
    crow.set("mode", json::Value(mode));
    crow.set("bursts", json::Value(static_cast<int64_t>(churn_bursts)));
    crow.set("burst_size", json::Value(static_cast<int64_t>(burst_size)));
    crow.set("avg_ms", json::Value(churn.mean()));
    crow.set("p50_ms", json::Value(churn.percentile(50)));
    crow.set("p95_ms", json::Value(churn.percentile(95)));
    crow.set("p99_ms", json::Value(churn.percentile(99)));
    crow.set("max_ms", json::Value(churn.max()));
    for (double pct : kCdfPcts) {
        json::Value& cdf = report.add_row();
        cdf.set("figure", json::Value("churn_cdf"));
        cdf.set("mode", json::Value(mode));
        cdf.set("pct", json::Value(pct));
        cdf.set("ms", json::Value(churn.percentile(pct)));
    }
    return rps;
}

void run_bulk_experiments(bench::Report& report, const std::string& modes,
                          size_t n_routes, size_t churn_bursts,
                          size_t burst_size) {
    std::printf("\n## Million-route download + churn replay "
                "(bulk stage API vs per-route XRLs vs threaded)\n");
    const bool want_scalar = modes.find("per_route") != std::string::npos;
    const bool want_batch = modes.find("batch") != std::string::npos;
    const bool want_threaded = modes.find("threaded") != std::string::npos;
    const double scalar_rps =
        want_scalar ? run_download_mode(report, false, n_routes, churn_bursts,
                                        burst_size)
                    : 0;
    const double batch_rps =
        want_batch ? run_download_mode(report, true, n_routes, churn_bursts,
                                       burst_size)
                   : 0;
    const double threaded_rps =
        want_threaded ? run_download_threaded(report, n_routes, churn_bursts,
                                              burst_size)
                      : 0;
    if (scalar_rps > 0) {
        const double speedup = batch_rps / scalar_rps;
        std::printf("batch download speedup: %.1fx\n", speedup);
        report.set_meta("batch_speedup", json::Value(speedup));
    }
    if (batch_rps > 0 && threaded_rps > 0) {
        const double tspeed = threaded_rps / batch_rps;
        std::printf("threaded download vs batch-over-TCP: %.2fx\n", tspeed);
        report.set_meta("threaded_vs_batch", json::Value(tspeed));
    }
    report.set_meta("download_routes",
                    json::Value(static_cast<int64_t>(n_routes)));
    report.set_meta("churn_bursts",
                    json::Value(static_cast<int64_t>(churn_bursts)));
    report.set_meta("burst_size",
                    json::Value(static_cast<int64_t>(burst_size)));
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
    // The threaded download pipeline allocates route batches on the BGP
    // thread and frees them on the RIB/FEA threads. With glibc's default
    // per-thread arenas that cross-thread churn grows remote arenas
    // without reuse and throttles the pipeline 3-4x on long runs; one
    // shared arena keeps freed blocks warm and is the fastest setting
    // for every mode here (measured: threaded 1M-route download ~3x
    // faster after a preceding mode in the same process).
    mallopt(M_ARENA_MAX, 1);
#endif
    size_t table_size = 146515;  // the paper's backbone feed
    int test_routes = 255;
    size_t download_routes = 1000000;
    size_t churn_bursts = 200;
    size_t burst_size = 64;
    bool figures = true, download = true;
    std::string modes = "per_route,batch,threaded";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            table_size = 20000;
            test_routes = 50;
            download_routes = 100000;
            churn_bursts = 50;
        } else if (std::strncmp(argv[i], "--benchmark_min_time", 20) == 0) {
            // The CI bench-smoke loop passes google-benchmark's flag to
            // every binary; treat it as "token run, just prove liveness".
            table_size = 2000;
            test_routes = 8;
            download_routes = 20000;
            churn_bursts = 8;
        } else if (std::strncmp(argv[i], "--table-size=", 13) == 0) {
            table_size = static_cast<size_t>(std::atol(argv[i] + 13));
        } else if (std::strncmp(argv[i], "--test-routes=", 14) == 0) {
            test_routes = std::atoi(argv[i] + 14);
        } else if (std::strncmp(argv[i], "--download-routes=", 18) == 0) {
            download_routes = static_cast<size_t>(std::atol(argv[i] + 18));
        } else if (std::strncmp(argv[i], "--churn-bursts=", 15) == 0) {
            churn_bursts = static_cast<size_t>(std::atol(argv[i] + 15));
        } else if (std::strncmp(argv[i], "--burst-size=", 13) == 0) {
            burst_size = static_cast<size_t>(std::atol(argv[i] + 13));
        } else if (std::strcmp(argv[i], "--download-only") == 0) {
            figures = false;
        } else if (std::strcmp(argv[i], "--figures-only") == 0) {
            download = false;
        } else if (std::strncmp(argv[i], "--modes=", 8) == 0) {
            modes = argv[i] + 8;  // subset of per_route,batch,threaded
        } else if (std::strcmp(argv[i], "--inproc") == 0) {
            g_inproc = true;  // intra-process XRLs (debug/comparison)
        }
    }

    // Measure the propagation path itself; the cost of turning telemetry
    // on is bench_telemetry_overhead's subject.
    xrp::telemetry::set_enabled(false);

    bench::Report report("route_latency");
    report.set_meta("table_size", json::Value(static_cast<int64_t>(table_size)));
    report.set_meta("test_routes", json::Value(test_routes));
    report.set_meta("inproc", json::Value(g_inproc));

    bool all_measured = true;
    if (figures) {
        std::printf("# Figures 10-12: route propagation latency (ms)\n");
        std::printf("# BGP -> RIB -> FEA coupled by XRLs over loopback TCP\n");
        all_measured &=
            run_experiment(report, "fig10", "Figure 10: empty routing table",
                           false, true, 0, test_routes);
        all_measured &= run_experiment(
            report, "fig11",
            ("Figure 11: " + std::to_string(table_size) +
             " routes, test routes on the SAME peering")
                .c_str(),
            true, true, table_size, test_routes);
        all_measured &= run_experiment(
            report, "fig12",
            ("Figure 12: " + std::to_string(table_size) +
             " routes, test routes on a DIFFERENT peering")
                .c_str(),
            true, false, table_size, test_routes);
        std::printf("\n# paper shape: ~3.4/3.6/4.4 ms avg to kernel; full "
                    "table barely\n"
                    "# slower than empty; different peering slightly slower "
                    "than same\n");
    }
    if (download)
        run_bulk_experiments(report, modes, download_routes, churn_bursts,
                             burst_size);
    return all_measured ? 0 : 1;
}
