// Graceful-restart ablation: what a component restart costs with and
// without generation-stamp preservation.
//
// Naive restart deletes the dead component's table and re-adds it when
// the component resyncs: every route is unavailable for the whole
// window and downstream hears 2N messages. Graceful restart marks the
// table stale in O(1), lets identical re-adds refresh stamps silently,
// and sweeps only the unrefreshed tail in background slices — zero
// downstream traffic for unchanged routes, zero unavailability.
//
// For each table size this prints: the naive blackhole window (delete ->
// fully re-added) and message count; the graceful mass-stale cost,
// resync time, and message count (0); and the background sweep of a 10%
// stale tail with the worst observed lateness of a 1 ms heartbeat timer.
//
// --mode=upgrade exercises the real thing instead of the stage model: a
// 3-process router (fea / rib / bgp as forked xrp_component binaries),
// the bgp component feeding N routes, then a hitless binary upgrade of
// bgp (Supervisor::upgrade: stale-stamp, spawn replacement, resync,
// sweep, retire). Gates — enforced by exit status, so CI fails loudly:
// 0 routes lost (rib count identical before/after) and 0 FIB flinch
// (fea's monotonic delete counter did not move; a delete+add pair
// cannot hide from it the way it could from a size snapshot).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "ev/eventloop.hpp"
#include "report.hpp"
#include "rtrmgr/process.hpp"
#include "sim/routefeed.hpp"
#include "stage/origin.hpp"
#include "stage/sink.hpp"
#include "stage/stale_sweeper.hpp"

using namespace xrp;
using namespace xrp::stage;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;

namespace {

Route<IPv4> make_route(const IPv4Net& net) {
    Route<IPv4> r;
    r.net = net;
    r.nexthop = IPv4::must_parse("192.0.2.1");
    r.protocol = "bench";
    return r;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void run_size(bench::Report& report, size_t n) {
    auto prefixes = sim::generate_prefixes(n, 23);

    // ---- naive restart: delete everything, re-add everything ------------
    {
        OriginStage<IPv4> origin("peer-in");
        size_t msgs = 0;
        SinkStage<IPv4> sink("sink",
                             [&](bool, const Route<IPv4>&) { ++msgs; });
        origin.set_downstream(&sink);
        sink.set_upstream(&origin);
        for (const auto& net : prefixes) origin.add_route(make_route(net));
        msgs = 0;

        auto t0 = std::chrono::steady_clock::now();
        for (const auto& net : prefixes)
            origin.delete_route(make_route(net));
        double torn_down = ms_since(t0);
        for (const auto& net : prefixes) origin.add_route(make_route(net));
        double window = ms_since(t0);
        std::printf(
            "%8zu routes | naive    : blackhole window %8.1f ms "
            "(all gone for %7.1f ms), %7zu downstream msgs\n",
            n, window, torn_down, msgs);
        json::Value& row = report.add_row();
        row.set("routes", json::Value(static_cast<int64_t>(n)));
        row.set("mode", json::Value("naive"));
        row.set("blackhole_window_ms", json::Value(window));
        row.set("downstream_msgs", json::Value(static_cast<int64_t>(msgs)));
    }

    // ---- graceful restart: mass-stale + silent stamp refreshes ----------
    {
        OriginStage<IPv4> origin("peer-in");
        size_t msgs = 0;
        SinkStage<IPv4> sink("sink",
                             [&](bool, const Route<IPv4>&) { ++msgs; });
        origin.set_downstream(&sink);
        sink.set_upstream(&origin);
        for (const auto& net : prefixes) origin.add_route(make_route(net));
        msgs = 0;

        auto t0 = std::chrono::steady_clock::now();
        origin.begin_refresh();
        double stale_us = ms_since(t0) * 1000.0;
        for (const auto& net : prefixes) origin.add_route(make_route(net));
        double resync = ms_since(t0);
        std::printf(
            "%8zu routes | graceful : blackhole window      0.0 ms "
            "(mass-stale %5.1f us, resync %7.1f ms), %zu downstream msgs\n",
            n, stale_us, resync, msgs);
        json::Value& row = report.add_row();
        row.set("routes", json::Value(static_cast<int64_t>(n)));
        row.set("mode", json::Value("graceful"));
        row.set("blackhole_window_ms", json::Value(0.0));
        row.set("mass_stale_us", json::Value(stale_us));
        row.set("resync_ms", json::Value(resync));
        row.set("downstream_msgs", json::Value(static_cast<int64_t>(msgs)));
    }

    // ---- background sweep of the unrefreshed tail -----------------------
    {
        ev::RealClock clock;
        ev::EventLoop loop(clock);
        OriginStage<IPv4> origin("peer-in");
        SinkStage<IPv4> sink("sink");
        origin.set_downstream(&sink);
        sink.set_upstream(&origin);
        for (const auto& net : prefixes) origin.add_route(make_route(net));
        origin.begin_refresh();
        // The restarted protocol re-learns 90%; the tail must be reaped
        // without blocking the loop.
        for (size_t i = 0; i < prefixes.size(); ++i)
            if (i % 10 != 0) origin.add_route(make_route(prefixes[i]));

        double worst_jitter = 0;
        auto expected = loop.now() + 1ms;
        ev::Timer heartbeat = loop.set_periodic(1ms, [&] {
            auto now = loop.now();
            worst_jitter = std::max(
                worst_jitter,
                std::chrono::duration<double, std::milli>(now - expected)
                    .count());
            expected = now + 1ms;
            return true;
        });

        bool completed = false;
        auto sweeper = std::make_unique<StaleSweeperStage<IPv4>>(
            "sweeper", origin, loop,
            [&](StaleSweeperStage<IPv4>*) { completed = true; }, 100);
        plumb_between<IPv4>(origin, *sweeper, sink);
        auto t0 = std::chrono::steady_clock::now();
        loop.run_until([&] { return completed; }, 120s);
        double reaped_ms = ms_since(t0);
        std::printf(
            "%8zu routes | sweep    : 10%% stale tail reaped in %7.1f ms, "
            "worst heartbeat delay %5.2f ms\n",
            n, reaped_ms, worst_jitter);
        json::Value& row = report.add_row();
        row.set("routes", json::Value(static_cast<int64_t>(n)));
        row.set("mode", json::Value("sweep"));
        row.set("reaped_ms", json::Value(reaped_ms));
        row.set("worst_heartbeat_delay_ms", json::Value(worst_jitter));
    }
}

// ---- process-level hitless binary upgrade -------------------------------
// Returns true iff the gates held: 0 routes lost, 0 FIB deletes, and the
// active bgp pid actually changed (it really is a new process).
bool run_upgrade(bench::Report& report, size_t n) {
    ev::RealClock clock;
    ev::EventLoop loop(clock);
    rtrmgr::ProcessRouter::Options opts;
    opts.node = "bench-upgrade";
    opts.capture_output = false;  // keep bench stdout machine-parsable
    rtrmgr::ProcessRouter router(loop, opts);

    std::vector<rtrmgr::ProcessRouter::ComponentSpec> specs(3);
    specs[0].cls = "fea";
    specs[1].cls = "rib";
    specs[2].cls = "bgp";
    specs[2].extra_args.push_back("--feed-routes=" + std::to_string(n));
    if (!router.start(specs)) {
        std::fprintf(stderr, "upgrade bench: cannot start components "
                             "(xrp_component binary not found?)\n");
        return false;
    }
    if (!router.wait_all_ready(120s)) {
        std::fprintf(stderr, "upgrade bench: components never ready\n");
        return false;
    }

    const uint32_t rib_before =
        router.query_u32("rib", "rib", "1.0", "get_route_count", "count")
            .value_or(0);
    // READY means the RIB acknowledged the feed; its one-way FIB pushes
    // may still be in flight, so let the FIB catch up before sampling it.
    const auto settle = std::chrono::steady_clock::now();
    while (router.fib_size() < rib_before && ms_since(settle) < 60000)
        loop.run_for(50ms);
    const uint64_t deletes_before =
        router.query_u64("fea", "fea", "1.0", "get_fib_churn", "deletes")
            .value_or(0);
    const uint32_t fib_before = router.fib_size();
    const pid_t old_pid = router.active_pid("bgp");

    auto t0 = std::chrono::steady_clock::now();
    if (!router.upgrade("bgp")) {
        std::fprintf(stderr, "upgrade bench: upgrade refused\n");
        return false;
    }
    // Sample the FIB while the upgrade runs: any transient dip is a
    // blackhole the "hitless" claim cannot survive.
    uint32_t fib_min = fib_before;
    while (router.supervisor().upgrading("bgp") && ms_since(t0) < 120000) {
        loop.run_for(50ms);
        fib_min = std::min(fib_min, router.fib_size());
    }
    const double upgrade_ms = ms_since(t0);
    // Let the retired process's SIGTERM grace run out and its exit be
    // reaped before taking the post counts.
    loop.run_for(500ms);

    const uint32_t rib_after =
        router.query_u32("rib", "rib", "1.0", "get_route_count", "count")
            .value_or(0);
    const uint64_t deletes_after =
        router.query_u64("fea", "fea", "1.0", "get_fib_churn", "deletes")
            .value_or(deletes_before + 1);
    const uint32_t fib_after = router.fib_size();
    const pid_t new_pid = router.active_pid("bgp");

    const int64_t routes_lost =
        static_cast<int64_t>(rib_before) - static_cast<int64_t>(rib_after);
    const int64_t fib_flinch =
        static_cast<int64_t>(deletes_after - deletes_before);
    const bool hitless = routes_lost == 0 && fib_flinch == 0 &&
                         fib_min == fib_before && new_pid != old_pid &&
                         !router.supervisor().upgrading("bgp");

    std::printf(
        "%8zu routes | upgrade  : binary swapped in %8.1f ms, "
        "%lld routes lost, %lld fib deletes, fib %u -> min %u -> %u  [%s]\n",
        n, upgrade_ms, static_cast<long long>(routes_lost),
        static_cast<long long>(fib_flinch), fib_before, fib_min, fib_after,
        hitless ? "HITLESS" : "FLINCHED");
    json::Value& row = report.add_row();
    row.set("routes", json::Value(static_cast<int64_t>(n)));
    row.set("mode", json::Value("upgrade"));
    row.set("upgrade_ms", json::Value(upgrade_ms));
    row.set("routes_lost", json::Value(routes_lost));
    row.set("fib_flinch_deletes", json::Value(fib_flinch));
    row.set("fib_size_min", json::Value(static_cast<int64_t>(fib_min)));
    row.set("fib_size_after", json::Value(static_cast<int64_t>(fib_after)));
    row.set("hitless", json::Value(hitless));
    return hitless;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::string mode = "stages";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
        else if (std::strncmp(argv[i], "--mode=", 7) == 0) mode = argv[i] + 7;
    }

    bench::Report report("restart");
    report.set_meta("quick", json::Value(quick));

    bool ok = true;
    if (mode == "stages" || mode == "all") {
        std::printf("# Graceful restart vs naive delete-all/re-add\n");
        std::vector<size_t> sizes =
            quick ? std::vector<size_t>{1000, 10000}
                  : std::vector<size_t>{1000, 10000, 100000};
        for (size_t n : sizes) run_size(report, n);
        std::printf(
            "# the graceful path never blackholes: unchanged routes are "
            "refreshed in place and the\n"
            "# unrefreshed tail drains in background slices like §5.1.2's "
            "deletion stage\n");
    }
    if (mode == "upgrade" || mode == "all") {
        std::printf("# Hitless binary upgrade (real processes)\n");
        std::vector<size_t> sizes = quick ? std::vector<size_t>{10000}
                                          : std::vector<size_t>{100000};
        for (size_t n : sizes) ok = run_upgrade(report, n) && ok;
        std::printf(
            "# upgrade choreography: stale-stamp -> spawn replacement -> "
            "re-feed refreshes in place -> sweep\n"
            "# unrefreshed tail -> retire old process; the FIB never hears "
            "a delete\n");
    }
    return ok ? 0 : 1;
}
