// xrp_component: the multi-call component binary of the multi-process
// router. One executable boots any of fea/rib/bgp/ospf/rip on its own
// event loop in its own process, registers with the Router Manager's
// Finder over stcp (--finder=host:port is the single bootstrap datum),
// and speaks the ordinary XRL contract from there — the same reliable
// calls, graceful restart, and supervision as the in-process and
// threaded deployments, now across a kernel-enforced boundary.
//
//   xrp_component --class=rib --finder=127.0.0.1:40000 [--node=r1]
//                 [--feed-routes=N] [--feed-seed=S]
//
// --feed-routes=N (bgp, or any RIB-feeding class) pushes N synthetic
// "ebgp" routes into the RIB in bulk batches after boot and reports
// common/0.1 READY only once every batch is acknowledged — which is what
// makes restart and hitless-upgrade resync detection honest: READY means
// the table is genuinely re-fed, not merely that the process answers.
// The feed is deterministic (same seed => same prefixes), so a restarted
// or upgraded instance re-advertises the identical table and the RIB's
// origin stamps refresh without downstream churn.
//
// rip and ospf run against a private in-process FEA (their constructors
// take a direct Fea reference for interface I/O); their routes still
// flow to the shared RIB over XRLs. This mirrors the simulator's
// substitution — packet I/O is simulated — while everything above the
// interface layer is real multi-process.
//
// SIGTERM/SIGINT request a clean exit (status 0): XrlRouter destructors
// unregister from the master Finder, so the manager sees an orderly
// departure, not a crash. Anything that kills the process harder is, by
// definition, a crash — exactly the classification the Supervisor's
// breaker wants.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bgp/bgp_xrl.hpp"
#include "bgp/process.hpp"
#include "ev/clock.hpp"
#include "ev/eventloop.hpp"
#include "fea/fea.hpp"
#include "fea/fea_xrl.hpp"
#include "ipc/common_xrl.hpp"
#include "ipc/router.hpp"
#include "ospf/ospf.hpp"
#include "ospf/ospf_xrl.hpp"
#include "rib/rib.hpp"
#include "rib/rib_client.hpp"
#include "rib/rib_xrl.hpp"
#include "rip/rip.hpp"
#include "sim/routefeed.hpp"
#include "stage/batch.hpp"

namespace {

volatile sig_atomic_t g_stop = 0;
int g_wake_pipe[2] = {-1, -1};

void on_signal(int) {
    g_stop = 1;
    // Self-pipe: wake a loop blocked in poll(2). Write errors (full pipe)
    // are fine — one byte is enough.
    ssize_t ignored = write(g_wake_pipe[1], "x", 1);
    (void)ignored;
}

struct FeedState {
    size_t batches_total = 0;
    size_t batches_acked = 0;
    bool done() const {
        return batches_total > 0 && batches_acked >= batches_total;
    }
};

// Pushes `count` deterministic "ebgp" routes into the RIB as bulk
// batches through `xr`'s reliable call contract.
void start_feed(xrp::ipc::XrlRouter& xr, size_t count, uint32_t seed,
                std::shared_ptr<FeedState> state) {
    using namespace xrp;
    constexpr size_t kChunk = 8192;
    auto prefixes = sim::generate_prefixes(count, seed);
    const net::IPv4 nexthop((192u << 24) | (2 << 8) | 1);  // 192.0.2.1
    // Components boot concurrently, so the RIB may register with the
    // Finder after this process starts feeding. An unresolvable target is
    // retried, but the default 3 attempts span ~30 ms; allow enough that
    // the 60 s deadline is what ends the wait.
    const auto opts = ipc::CallOptions::reliable()
                          .with_deadline(std::chrono::seconds(60))
                          .with_attempt_timeout(std::chrono::seconds(5))
                          .with_attempts(64);
    rib::XrlRibClient to_rib(xr);

    // The ebgp routes all name 192.0.2.1 as their nexthop, and the RIB's
    // ExtInt stage parks external routes until an internal route covers
    // that nexthop — so seed the covering static first, exactly as the
    // in-process harnesses do. An identical re-add after restart/upgrade
    // is an idempotent refresh.
    {
        stage::RouteBatch4 cover;
        cover.add(net::IPv4Net(net::IPv4((192u << 24) | (2 << 8)), 24),
                  net::NexthopSet4::single(nexthop), 1);
        state->batches_total += to_rib.push_batch(
            "static", std::move(cover), opts,
            [state](const xrl::XrlError& err, const xrl::XrlArgs&) {
                if (!err.ok())
                    fprintf(stderr, "feed: static cover failed: %s\n",
                            err.str().c_str());
                ++state->batches_acked;
            });
    }

    for (size_t base = 0; base < prefixes.size(); base += kChunk) {
        stage::RouteBatch4 batch;
        const size_t end = std::min(base + kChunk, prefixes.size());
        batch.reserve(end - base);
        for (size_t i = base; i < end; ++i)
            batch.add(prefixes[i], net::NexthopSet4::single(nexthop), 10);
        state->batches_total += to_rib.push_batch(
            "ebgp", std::move(batch), opts,
            [state](const xrl::XrlError& err, const xrl::XrlArgs&) {
                if (!err.ok())
                    fprintf(stderr, "feed batch failed: %s\n",
                            err.str().c_str());
                ++state->batches_acked;
                if (state->done())
                    fprintf(stderr, "feed complete: %zu batches\n",
                            state->batches_total);
            });
    }
}

}  // namespace

int main(int argc, char** argv) {
    using namespace xrp;

    std::string cls, finder, node;
    size_t feed_routes = 0;
    uint32_t feed_seed = 42;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto val = [&arg](const char* key) -> const char* {
            size_t n = strlen(key);
            return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
        };
        if (const char* v = val("--class=")) cls = v;
        else if (const char* v = val("--finder=")) finder = v;
        else if (const char* v = val("--node=")) node = v;
        else if (const char* v = val("--feed-routes=")) feed_routes = strtoul(v, nullptr, 10);
        else if (const char* v = val("--feed-seed=")) feed_seed = strtoul(v, nullptr, 10);
        else {
            fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return 2;
        }
    }
    if (cls.empty() || finder.empty()) {
        fprintf(stderr,
                "usage: xrp_component --class=<fea|rib|bgp|ospf|rip> "
                "--finder=host:port [--node=NAME] [--feed-routes=N]\n");
        return 2;
    }

    // A SIGKILLed peer's socket must surface as a failed call, never as a
    // process-fatal signal.
    signal(SIGPIPE, SIG_IGN);
    if (pipe(g_wake_pipe) != 0) return 1;
    struct sigaction sa = {};
    sa.sa_handler = on_signal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    setvbuf(stdout, nullptr, _IOLBF, 0);
    setvbuf(stderr, nullptr, _IOLBF, 0);

    ev::RealClock clock;
    ev::EventLoop loop(clock);
    loop.add_reader(g_wake_pipe[0], [&loop] {
        char buf[16];
        ssize_t ignored = read(g_wake_pipe[0], buf, sizeof(buf));
        (void)ignored;
        loop.stop();
    });

    ipc::Plexus plexus(loop);
    plexus.node = node;
    plexus.finder_address = finder;

    ipc::XrlRouter xr(plexus, cls);
    xr.enable_tcp();

    // The component objects; only the selected class is constructed.
    std::unique_ptr<fea::Fea> fea;
    std::unique_ptr<rib::Rib> rib;
    std::unique_ptr<bgp::BgpProcess> bgp;
    std::unique_ptr<fea::Fea> private_fea;  // rip/ospf interface backend
    std::unique_ptr<rip::RipProcess> rip;
    std::unique_ptr<ospf::OspfProcess> ospf;
    auto feed = std::make_shared<FeedState>();

    if (feed_routes > 0) {
        // READY gates on the feed being fully acknowledged: the
        // Supervisor's resync detection (restart and hitless upgrade)
        // polls get_status and must not see READY while the table push
        // is still in flight.
        ipc::bind_common_xrls(
            xr.dispatcher(), cls,
            [feed](uint32_t& status, std::string& reason) {
                if (feed->done()) {
                    status = ipc::kProcessReady;
                } else {
                    status = 1;
                    reason = "feeding";
                }
            });
    }

    if (cls == "fea") {
        fea = std::make_unique<fea::Fea>(loop);
        fea->set_node(node);
        fea::bind_fea_xrl(*fea, xr);
    } else if (cls == "rib") {
        rib = std::make_unique<rib::Rib>(
            loop, std::make_unique<rib::XrlFeaHandle>(xr));
        rib->set_node(node);
        rib::bind_rib_xrl(*rib, xr);
    } else if (cls == "bgp") {
        bgp::BgpProcess::Config cfg;
        cfg.local_as = 65000;
        cfg.bgp_id = net::IPv4((10u << 24) | 1);
        bgp = std::make_unique<bgp::BgpProcess>(
            loop, cfg, std::make_unique<bgp::XrlRibHandle>(xr));
        bgp::bind_bgp_xrl(*bgp, xr);
    } else if (cls == "rip") {
        private_fea = std::make_unique<fea::Fea>(loop);
        rip = std::make_unique<rip::RipProcess>(
            loop, *private_fea, rip::RipProcess::Config{},
            std::make_unique<rib::XrlRibClient>(xr));
    } else if (cls == "ospf") {
        private_fea = std::make_unique<fea::Fea>(loop);
        ospf = std::make_unique<ospf::OspfProcess>(
            loop, *private_fea, ospf::OspfProcess::Config{},
            std::make_unique<rib::XrlRibClient>(xr));
        ospf->set_node(node);
        ospf::bind_ospf_xrl(*ospf, xr);
    } else {
        fprintf(stderr, "unknown component class: %s\n", cls.c_str());
        return 2;
    }

    if (!xr.finalize()) {
        fprintf(stderr, "%s: cannot register with finder at %s\n",
                cls.c_str(), finder.c_str());
        return 1;
    }
    fprintf(stdout, "%s up as %s (pid %d)\n", cls.c_str(),
            xr.instance().c_str(), static_cast<int>(getpid()));

    if (feed_routes > 0) start_feed(xr, feed_routes, feed_seed, feed);

    // Park until a signal asks us to leave. hold_open keeps the loop in
    // poll(2) even when no timers are pending.
    loop.hold_open(true);
    while (!g_stop) {
        loop.run_once(true);
        if (g_stop) break;
    }
    loop.remove_reader(g_wake_pipe[0]);

    // Clean teardown: destructors unregister from the master Finder (an
    // orderly departure, not a death) before the process exits 0.
    return 0;
}
