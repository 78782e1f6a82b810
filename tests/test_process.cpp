// Multi-process deployment tests: real fork/exec components, real
// SIGKILL, real sockets. Everything here runs against the xrp_component
// multi-call binary (built in this tree; resolved relative to the test
// executable), so these tests cover the kernel-enforced boundary the
// in-process and threaded deployments cannot: process death with no
// cleanup code, cross-process XRL transport, orphan reaping.
#include <gtest/gtest.h>
#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ev/clock.hpp"
#include "ev/eventloop.hpp"
#include "ipc/router.hpp"
#include "rtrmgr/process.hpp"
#include "telemetry/journal.hpp"

using namespace xrp;
using namespace std::chrono_literals;
using rtrmgr::ProcessHost;
using rtrmgr::ProcessRouter;
using rtrmgr::Supervisor;

namespace {

// Drive `loop` until `pred` or `limit` wall time; true if pred held.
bool drive_until(ev::EventLoop& loop, std::function<bool()> pred,
                 std::chrono::milliseconds limit) {
    auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 < limit) {
        if (pred()) return true;
        loop.run_for(50ms);
    }
    return pred();
}

// Pids of live processes whose /proc/<pid>/cmdline contains `needle`.
std::vector<pid_t> pids_with_cmdline(const std::string& needle) {
    std::vector<pid_t> out;
    DIR* d = opendir("/proc");
    if (d == nullptr) return out;
    while (dirent* e = readdir(d)) {
        char* end = nullptr;
        long pid = strtol(e->d_name, &end, 10);
        if (end == e->d_name || *end != '\0') continue;
        std::ifstream f("/proc/" + std::string(e->d_name) + "/cmdline");
        std::string cmd((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
        for (char& c : cmd)
            if (c == '\0') c = ' ';
        if (cmd.find(needle) != std::string::npos)
            out.push_back(static_cast<pid_t>(pid));
    }
    closedir(d);
    return out;
}

struct Exit {
    bool fired = false;
    ProcessHost::ExitStatus st;
};

}  // namespace

// ---- ProcessHost ---------------------------------------------------------

TEST(ProcessHost, ClassifiesCleanExitNonzeroExitAndSignal) {
    ev::RealClock clock;
    ev::EventLoop loop(clock);
    ProcessHost host(loop);

    Exit clean, failed, killed;
    ProcessHost::Spec sh;
    sh.name = "sh";
    sh.binary = "/bin/sh";
    sh.capture_output = false;

    sh.args = {"-c", "exit 0"};
    ASSERT_GT(host.spawn(sh, [&](pid_t, const ProcessHost::ExitStatus& s) {
        clean = {true, s};
    }), 0);
    sh.args = {"-c", "exit 3"};
    ASSERT_GT(host.spawn(sh, [&](pid_t, const ProcessHost::ExitStatus& s) {
        failed = {true, s};
    }), 0);
    sh.args = {"-c", "sleep 30"};
    pid_t victim =
        host.spawn(sh, [&](pid_t, const ProcessHost::ExitStatus& s) {
            killed = {true, s};
        });
    ASSERT_GT(victim, 0);

    ASSERT_TRUE(drive_until(
        loop, [&] { return clean.fired && failed.fired; }, 10000ms));
    EXPECT_TRUE(clean.st.clean());
    EXPECT_EQ(clean.st.code, 0);
    EXPECT_FALSE(failed.st.clean());
    EXPECT_EQ(failed.st.code, 3);

    ASSERT_TRUE(host.kill(victim, SIGKILL));
    ASSERT_TRUE(drive_until(loop, [&] { return killed.fired; }, 10000ms));
    EXPECT_FALSE(killed.st.clean());
    EXPECT_EQ(killed.st.signo, SIGKILL);
    EXPECT_EQ(host.live_count(), 0u);
}

TEST(ProcessHost, CapturesChildOutputLines) {
    ev::RealClock clock;
    ev::EventLoop loop(clock);
    ProcessHost host(loop);

    Exit done;
    ProcessHost::Spec sh;
    sh.name = "echoer";
    sh.binary = "/bin/sh";
    sh.args = {"-c", "echo captured-line-marker"};
    sh.capture_output = true;
    // The line lands on our stderr prefixed "[echoer]" and, when a journal
    // is enabled, as a kProcessOutput event; here just check the child is
    // reaped after EOF with its output drained (no hang on the pipes).
    ASSERT_GT(host.spawn(sh, [&](pid_t, const ProcessHost::ExitStatus& s) {
        done = {true, s};
    }), 0);
    ASSERT_TRUE(drive_until(loop, [&] { return done.fired; }, 10000ms));
    EXPECT_TRUE(done.st.clean());
}

// ---- the multi-process router -------------------------------------------

namespace {

struct ProcRouterFixture {
    ev::RealClock clock;
    ev::EventLoop loop;
    ProcessRouter router;

    explicit ProcRouterFixture(size_t feed_routes,
                               ProcessRouter::Options opts = {})
        : loop(clock), router(loop, std::move(opts)) {
        std::vector<ProcessRouter::ComponentSpec> specs(3);
        specs[0].cls = "fea";
        specs[1].cls = "rib";
        specs[2].cls = "bgp";
        if (feed_routes > 0)
            specs[2].extra_args.push_back("--feed-routes=" +
                                          std::to_string(feed_routes));
        ok = router.start(specs) && router.wait_all_ready(60s);
        // READY means the RIB acknowledged the whole feed; its one-way
        // FIB pushes may still be in flight, so let the FIB catch up
        // before a test reads it.
        if (ok && feed_routes > 0)
            ok = drive_until(
                loop,
                [&] { return router.fib_size() == feed_routes + 1; },
                10000ms);
    }
    bool ok = false;

    uint32_t rib_count() {
        return router
            .query_u32("rib", "rib", "1.0", "get_route_count", "count")
            .value_or(0);
    }
    uint64_t fib_deletes() {
        return router
            .query_u64("fea", "fea", "1.0", "get_fib_churn", "deletes")
            .value_or(~0ull);
    }
};

}  // namespace

TEST(KillChaos, RealSigkillPreservesForwardingAndReconverges) {
    const size_t kRoutes = 2000;
    ProcRouterFixture f(kRoutes);
    ASSERT_TRUE(f.ok) << "3-process router failed to boot";
    const uint32_t expected = kRoutes + 1;  // feed + static nexthop cover
    ASSERT_EQ(f.rib_count(), expected);
    ASSERT_EQ(f.router.fib_size(), expected);
    const uint64_t deletes0 = f.fib_deletes();
    ASSERT_NE(deletes0, ~0ull);

    for (int round = 0; round < 2; ++round) {
        const pid_t victim = f.router.active_pid("bgp");
        ASSERT_GT(victim, 0);
        ASSERT_TRUE(f.router.kill("bgp", SIGKILL));
        // Reconvergence: a NEW process owns the class, supervision is
        // back to kAlive (restart + resync + sweep done), full table.
        ASSERT_TRUE(drive_until(
            f.loop,
            [&] {
                return f.router.active_pid("bgp") != victim &&
                       f.router.active_pid("bgp") > 0 &&
                       f.router.supervisor().state("bgp") ==
                           Supervisor::State::kAlive &&
                       f.rib_count() == expected;
            },
            60000ms))
            << "round " << round << " never reconverged";
    }
    // The graceful-restart payoff, now across real process death: stale
    // preservation + identical re-feed means the forwarding plane never
    // heard a single delete.
    EXPECT_EQ(f.fib_deletes(), deletes0);
    EXPECT_EQ(f.router.fib_size(), expected);
    EXPECT_EQ(f.router.supervisor().restart_count("bgp"), 2u);
}

TEST(KillChaos, DeadPeerFailsInFlightCallPromptly) {
    ProcRouterFixture f(0);
    ASSERT_TRUE(f.ok);
    // A reliable call with a deliberately huge per-attempt timer: if the
    // error only arrives when that timer fires, dead-peer detection is
    // broken — a SIGKILLed peer must surface through the transport
    // (ECONNRESET/EPIPE) or the Finder's death report, not a 30s clock.
    ipc::XrlRouter probe(f.router.plexus(), "probe", true);
    ASSERT_TRUE(probe.finalize());
    const std::string bgp = f.router.active_instance("bgp");
    ASSERT_FALSE(bgp.empty());

    bool done = false;
    xrl::XrlError result = xrl::XrlError::okay();
    auto opts = ipc::CallOptions::reliable()
                    .with_deadline(30s)
                    .with_attempt_timeout(30s);
    probe.call(xrl::Xrl::generic(bgp, "common", "0.1", "get_status"), opts,
               [&](const xrl::XrlError& err, const xrl::XrlArgs&) {
                   done = true;
                   result = err;
               });
    ASSERT_TRUE(f.router.kill("bgp", SIGKILL));
    auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(drive_until(f.loop, [&] { return done; }, 10000ms));
    auto elapsed = std::chrono::steady_clock::now() - t0;
    // Generous bound, still far under the 30s attempt timer.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                  .count(),
              5000);
    EXPECT_FALSE(result.ok());
}

TEST(Upgrade, HitlessBinaryUpgradePreservesEveryRoute) {
    const size_t kRoutes = 2000;
    ProcRouterFixture f(kRoutes);
    ASSERT_TRUE(f.ok);
    const uint32_t expected = kRoutes + 1;
    ASSERT_EQ(f.rib_count(), expected);
    const uint64_t deletes0 = f.fib_deletes();
    const pid_t old_pid = f.router.active_pid("bgp");

    ASSERT_TRUE(f.router.upgrade("bgp"));
    ASSERT_TRUE(drive_until(
        f.loop,
        [&] {
            return !f.router.supervisor().upgrading("bgp") &&
                   f.router.supervisor().state("bgp") ==
                       Supervisor::State::kAlive;
        },
        60000ms));
    // Let the retired process finish exiting and be reaped.
    drive_until(
        f.loop, [&] { return f.router.host().live_count() == 3; }, 10000ms);

    EXPECT_NE(f.router.active_pid("bgp"), old_pid);
    EXPECT_EQ(f.router.supervisor().upgrade_count("bgp"), 1u);
    // 0 routes lost, 0 FIB flinch: the binary swap is invisible downstream.
    EXPECT_EQ(f.rib_count(), expected);
    EXPECT_EQ(f.router.fib_size(), expected);
    EXPECT_EQ(f.fib_deletes(), deletes0);
    // The upgrade is not a death: no restart counted, breaker untouched.
    EXPECT_EQ(f.router.supervisor().restart_count("bgp"), 0u);
}

TEST(Supervisor, CleanExitsNeverTripTheCrashLoopBreaker) {
    ProcessRouter::Options opts;
    opts.breaker_threshold = 4;  // 4 CRASHES in the window trip it
    ProcRouterFixture f(0, opts);
    ASSERT_TRUE(f.ok);

    // More clean exits than the breaker threshold, back to back: SIGTERM
    // asks the component to leave voluntarily (exit 0), which must
    // restart it but never count as a crash.
    for (int round = 0; round < 5; ++round) {
        const pid_t victim = f.router.active_pid("bgp");
        ASSERT_GT(victim, 0);
        ASSERT_TRUE(f.router.kill("bgp", SIGTERM));
        ASSERT_TRUE(drive_until(
            f.loop,
            [&] {
                return f.router.active_pid("bgp") != victim &&
                       f.router.active_pid("bgp") > 0 &&
                       f.router.supervisor().state("bgp") ==
                           Supervisor::State::kAlive;
            },
            60000ms))
            << "restart " << round << " never completed";
        ASSERT_NE(f.router.supervisor().state("bgp"),
                  Supervisor::State::kFailed)
            << "clean exit " << round << " tripped the breaker";
    }
    EXPECT_EQ(f.router.supervisor().restart_count("bgp"), 5u);
    EXPECT_FALSE(f.router.supervisor().any_failed());
}

namespace {

// A ProcessRouter whose components, and the manager itself, have the
// journal and tracing switched on over telemetry/1.0.
struct TracedRouter {
    ev::RealClock clock;
    ev::EventLoop loop{clock};
    ProcessRouter router{loop};
    std::unique_ptr<ipc::XrlRouter> mgr;
    bool ok = false;

    explicit TracedRouter(const std::vector<std::string>& classes) {
        std::vector<ProcessRouter::ComponentSpec> specs(classes.size());
        for (size_t i = 0; i < classes.size(); ++i) specs[i].cls = classes[i];
        if (!router.start(specs) || !router.wait_all_ready(60s)) return;
        mgr = std::make_unique<ipc::XrlRouter>(router.plexus(), "probe", true);
        if (!mgr->finalize()) return;
        xrl::XrlArgs on;
        on.add("on", true);
        for (const std::string& cls : classes)
            for (const char* verb :
                 {"journal_enable", "journal_clear", "trace_enable"})
                if (!call(cls, "telemetry", verb,
                          std::string(verb) == "journal_clear"
                              ? xrl::XrlArgs{}
                              : on))
                    return;
        auto& journal = telemetry::Journal::global();
        journal.clear();
        journal.set_enabled(true);
        telemetry::set_tracing_enabled(true);
        ok = true;
    }
    ~TracedRouter() {
        telemetry::set_tracing_enabled(false);
        telemetry::Journal::global().set_enabled(false);
        telemetry::Journal::global().clear();
    }

    bool call(const std::string& target, const std::string& iface,
              const std::string& method, const xrl::XrlArgs& args) {
        bool done = false;
        bool good = false;
        mgr->call(xrl::Xrl::generic(target, iface, "1.0", method, args),
                  ipc::CallOptions::reliable(),
                  [&](const xrl::XrlError& err, const xrl::XrlArgs&) {
                      good = err.ok();
                      done = true;
                  });
        EXPECT_TRUE(drive_until(loop, [&] { return done; }, 10000ms));
        return good;
    }
    bool add_static(const char* net, const char* nexthop) {
        xrl::XrlArgs route;
        route.add("protocol", std::string("static"))
            .add("net", net::IPv4Net::must_parse(net))
            .add("nexthop", net::IPv4::must_parse(nexthop))
            .add("metric", uint32_t{1});
        return call("rib", "rib", "add_route", route);
    }
    bool wait_fib(size_t n) {
        return drive_until(
            loop, [&] { return router.fib_size() == n; }, 10000ms);
    }

    // The trace rooted by the hop-0 xrl_send `source` made of `subject`.
    static uint64_t root_of(const ProcessRouter::Timeline& timeline,
                            const std::string& source,
                            const std::string& subject) {
        for (const auto& te : timeline.events)
            if (te.source == source && te.event.hop == 0 &&
                te.event.kind == telemetry::JournalKind::kXrlSend &&
                te.event.subject == subject)
                return te.event.trace;
        return 0;
    }
    // "<source> <hop> <kind>" for every event of one trace, in time order.
    static std::vector<std::string> trip(
        const ProcessRouter::Timeline& timeline, uint64_t trace) {
        std::vector<std::string> out;
        for (size_t i = 0; i < timeline.events.size(); ++i) {
            const auto& te = timeline.events[i];
            if (i > 0) {
                EXPECT_LE(timeline.events[i - 1].event.t, te.event.t);
            }
            if (te.event.trace != trace) continue;
            out.push_back(te.source + " " + std::to_string(te.event.hop) +
                          " " + telemetry::journal_kind_name(te.event.kind));
        }
        return out;
    }
};

}  // namespace

TEST(Timeline, OneRouteAddReadsAcrossThreeProcesses) {
    // Manager, RIB and FEA as three processes: one rib/1.0/add_route from
    // the manager must read off the merged timeline as one trace, hop by
    // hop.
    TracedRouter f({"fea", "rib"});
    ASSERT_TRUE(f.ok);
    ASSERT_TRUE(f.add_static("10.77.0.0/16", "192.0.2.9"));
    ASSERT_TRUE(f.wait_fib(1));
    telemetry::set_tracing_enabled(false);

    const ProcessRouter::Timeline timeline = f.router.journal_timeline();
    EXPECT_EQ(timeline.malformed, 0u);
    const uint64_t trace =
        TracedRouter::root_of(timeline, "rtrmgr", "rib/rib/1.0/add_route");
    ASSERT_NE(trace, 0u);
    EXPECT_EQ(TracedRouter::trip(timeline, trace),
              (std::vector<std::string>{
                  "rtrmgr 0 xrl_send",
                  "rib 1 xrl_dispatch",
                  "rib 1 route_install",
                  "rib 1 rib_fea_queued",
                  "rib 1 rib_fea_sent",
                  "rib 1 xrl_send",
                  "fea 2 xrl_dispatch",
                  "fea 2 fea_in",
                  "fea 2 fib_add",
              }));
}

TEST(Timeline, TracesRootedInDifferentProcessesStaySeparate) {
    // The manager roots a trace for each of its calls. The RIB roots one
    // when its stale sweep, run off a timer rather than a dispatch, sends
    // the FEA a delete. Each trace id must have one root, and the RIB's
    // trip must read rib → fea without manager events.
    TracedRouter f({"fea", "rib"});
    ASSERT_TRUE(f.ok);
    xrl::XrlArgs no_grace;
    no_grace.add("protocol", std::string("static")).add("seconds", uint32_t{0});
    ASSERT_TRUE(f.call("rib", "rib", "set_grace_period", no_grace));
    ASSERT_TRUE(f.add_static("10.77.0.0/16", "192.0.2.9"));
    ASSERT_TRUE(f.wait_fib(1));
    xrl::XrlArgs dead;
    dead.add("protocol", std::string("static"));
    ASSERT_TRUE(f.call("rib", "rib", "origin_dead", dead));
    ASSERT_TRUE(f.wait_fib(0));
    telemetry::set_tracing_enabled(false);

    const ProcessRouter::Timeline timeline = f.router.journal_timeline();
    EXPECT_EQ(timeline.malformed, 0u);
    std::map<uint64_t, std::set<std::string>> roots;
    uint64_t rib_trace = 0;
    for (const auto& te : timeline.events) {
        if (te.event.trace == 0 || te.event.hop != 0) continue;
        roots[te.event.trace].insert(te.source);
        if (te.source == "rib" &&
            te.event.kind == telemetry::JournalKind::kXrlSend)
            rib_trace = te.event.trace;
    }
    EXPECT_GE(roots.size(), 4u);  // three manager calls and the sweep
    for (const auto& [trace, sources] : roots)
        EXPECT_EQ(sources.size(), 1u) << "trace " << trace;
    ASSERT_NE(rib_trace, 0u);
    EXPECT_EQ(TracedRouter::trip(timeline, rib_trace),
              (std::vector<std::string>{
                  "rib 0 xrl_send",
                  "fea 1 xrl_dispatch",
                  "fea 1 fea_in",
                  "fea 1 fib_delete",
              }));
}

TEST(OrphanCleanup, SigkilledManagerTakesItsComponentsWithIt) {
    // The no-orphans invariant must hold even when the manager gets
    // SIGKILL — no destructors, no atexit, nothing. PR_SET_PDEATHSIG in
    // each child is what enforces it; this test drives the real
    // xrp_router binary and scans /proc for survivors.
    const std::string dir = ProcessHost::self_exe_dir();
    ASSERT_FALSE(dir.empty());
    std::string router_bin;
    for (const char* rel : {"/xrp_router", "/../src/xrp_router"}) {
        std::string cand = dir + rel;
        if (access(cand.c_str(), X_OK) == 0) {
            router_bin = cand;
            break;
        }
    }
    ASSERT_FALSE(router_bin.empty()) << "xrp_router binary not found";

    const std::string node =
        "orphan-test-" + std::to_string(static_cast<int>(getpid()));
    const std::string node_arg = "--node=" + node;
    const pid_t mgr = fork();
    ASSERT_GE(mgr, 0);
    if (mgr == 0) {
        // Quiet the manager; its children's pipes go with it anyway.
        int devnull = open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            dup2(devnull, STDOUT_FILENO);
            dup2(devnull, STDERR_FILENO);
        }
        execl(router_bin.c_str(), router_bin.c_str(), "--components=fea,rib",
              node_arg.c_str(), static_cast<char*>(nullptr));
        _exit(127);
    }

    // Wait for both component processes to exist.
    auto t0 = std::chrono::steady_clock::now();
    while (pids_with_cmdline(node).size() < 2 &&
           std::chrono::steady_clock::now() - t0 < 30s)
        usleep(100 * 1000);
    ASSERT_GE(pids_with_cmdline(node).size(), 2u)
        << "components never appeared";

    // SIGKILL the manager: no userspace cleanup runs.
    ASSERT_EQ(::kill(mgr, SIGKILL), 0);
    int st = 0;
    ASSERT_EQ(waitpid(mgr, &st, 0), mgr);

    // PDEATHSIG is delivered by the kernel at parent death; give the
    // children a moment to be reaped by init.
    t0 = std::chrono::steady_clock::now();
    while (!pids_with_cmdline(node).empty() &&
           std::chrono::steady_clock::now() - t0 < 10s)
        usleep(100 * 1000);
    EXPECT_TRUE(pids_with_cmdline(node).empty())
        << "orphaned components survived the manager's SIGKILL";
}
