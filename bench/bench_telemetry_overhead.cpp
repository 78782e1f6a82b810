// Telemetry overhead ablation: the §8.2 requirement that observation be
// near-free when off, quantified. Two measurements:
//
//   1. Instrument microbenchmark — ns/op for a counter inc and a
//      histogram observe, with the registry enabled and disabled. The
//      disabled path must be a load + branch, i.e. ~1ns.
//   2. End-to-end — intra-process XRL round-trip throughput (the
//      bench_xrl_throughput methodology, one method, 2 args) in three
//      modes: telemetry disabled, metrics on, metrics + tracing on.
//      "Disabled" here still runs every instrumentation site; the delta
//      against metrics-on is what turning the registry on costs, and the
//      disabled figure should sit within noise (<5%) of what
//      bench_xrl_throughput reports for the same transport.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>

#include "ipc/router.hpp"
#include "report.hpp"
#include "rib/rib.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"

using namespace xrp;
using namespace std::chrono_literals;

namespace {

constexpr int kTransaction = 10000;
constexpr int kPipeline = 100;

double ns_per_op(const std::function<void()>& op, int iters) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) op();
    auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::nano>(elapsed).count() / iters;
}

double run_transaction(ipc::Plexus& plexus, ipc::XrlRouter& client) {
    xrl::XrlArgs args;
    args.add("a", uint32_t{1}).add("b", uint32_t{2});
    xrl::Xrl call = xrl::Xrl::generic("echo", "echo", "1.0", "m", args);

    int completed = 0;
    int sent = 0;
    bool pumping = false;
    auto start = std::chrono::steady_clock::now();
    std::function<void()> pump;
    std::function<void(const xrl::XrlError&, const xrl::XrlArgs&)> on_done =
        [&](const xrl::XrlError& err, const xrl::XrlArgs&) {
            if (!err.ok())
                std::fprintf(stderr, "XRL failed: %s\n", err.str().c_str());
            ++completed;
            pump();
        };
    pump = [&] {
        if (pumping) return;
        pumping = true;
        while (sent - completed < kPipeline && sent < kTransaction) {
            ++sent;
            client.send(call, on_done);
        }
        pumping = false;
    };
    pump();
    plexus.loop.run_until([&] { return completed >= kTransaction; },
                          std::chrono::seconds(120));
    auto elapsed = std::chrono::steady_clock::now() - start;
    return static_cast<double>(completed) /
           std::chrono::duration<double>(elapsed).count();
}

}  // namespace

int main(int argc, char** argv) {
    int reps = 3;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0) reps = 1;

    std::printf("# Telemetry overhead ablation\n\n");

    // ---- 1. instrument microbenchmark ----------------------------------
    auto& reg = telemetry::Registry::global();
    telemetry::Counter* c = reg.counter("bench_counter");
    telemetry::Histogram* h = reg.histogram("bench_hist_ns");
    constexpr int kOps = 10000000;
    reg.set_enabled(true);
    double c_on = ns_per_op([&] { c->inc(); }, kOps);
    double h_on =
        ns_per_op([&] { h->observe(ev::Duration(1234)); }, kOps);
    reg.set_enabled(false);
    double c_off = ns_per_op([&] { c->inc(); }, kOps);
    double h_off =
        ns_per_op([&] { h->observe(ev::Duration(1234)); }, kOps);
    std::printf("%-28s %10s %10s\n", "instrument (ns/op)", "enabled",
                "disabled");
    std::printf("%-28s %10.2f %10.2f\n", "counter inc", c_on, c_off);
    std::printf("%-28s %10.2f %10.2f\n\n", "histogram observe", h_on, h_off);

    bench::Report report("telemetry_overhead");
    report.set_meta("transaction", json::Value(kTransaction));
    report.set_meta("pipeline", json::Value(kPipeline));
    report.set_meta("reps", json::Value(reps));
    auto instrument_row = [&](const char* what, double on, double off) {
        json::Value& row = report.add_row();
        row.set("section", json::Value("instrument"));
        row.set("what", json::Value(what));
        row.set("enabled_ns", json::Value(on));
        row.set("disabled_ns", json::Value(off));
    };
    instrument_row("counter_inc", c_on, c_off);
    instrument_row("histogram_observe", h_on, h_off);

    // ---- 1b. journal ablation ------------------------------------------
    // The journal hook sites (RIB install/withdraw here) must be free
    // when the journal is off: one relaxed load + branch per site. The
    // acceptance bar is <=2% route-churn overhead with the journal
    // disabled vs the hookless baseline approximation (journal cleared,
    // capacity minimal) — and the enabled figure quantifies what turning
    // the observatory on costs.
    {
        ev::VirtualClock vclock;
        ev::EventLoop vloop(vclock);
        rib::Rib rib(vloop);
        auto churn = [&](int iters) {
            const net::IPv4 nh = net::IPv4::must_parse("192.0.2.1");
            auto start = std::chrono::steady_clock::now();
            for (int i = 0; i < iters; ++i) {
                net::IPv4Net n(
                    net::IPv4((10u << 24) |
                              (static_cast<uint32_t>(i % 60000) << 8)),
                    24);
                rib.add_route("static", n, nh, 1);
                rib.delete_route("static", n);
            }
            auto elapsed = std::chrono::steady_clock::now() - start;
            return std::chrono::duration<double, std::nano>(elapsed).count() /
                   iters;
        };
        const int kChurn = 200000;
        churn(kChurn / 10);  // warm-up
        telemetry::Journal::global().set_enabled(false);
        double j_off = churn(kChurn);
        telemetry::Journal::global().set_enabled(true);
        double j_on = churn(kChurn);
        telemetry::Journal::global().set_enabled(false);
        telemetry::Journal::global().clear();
        // The <=2% acceptance bar is about hooks that are compiled in but
        // OFF: measure the guard itself (one relaxed load + branch) and
        // scale by the two hook sites a churn iteration crosses.
        static volatile bool sink;
        double guard_ns =
            ns_per_op([&] { sink = telemetry::journal_enabled(); }, kOps);
        double off_pct = 100.0 * 2.0 * guard_ns / j_off;
        std::printf("%-28s %10s %10s %10s\n", "journal (ns/route-churn)",
                    "enabled", "disabled", "on-cost");
        std::printf("%-28s %10.1f %10.1f %9.1f%%\n", "rib add+delete",
                    j_on, j_off, 100.0 * (j_on - j_off) / j_off);
        std::printf("%-28s %10.2f %9.2f%% of disabled churn "
                    "(bar: <=2%%)\n\n",
                    "disabled hook (2 sites)", 2.0 * guard_ns, off_pct);
        json::Value& row = report.add_row();
        row.set("section", json::Value("journal"));
        row.set("what", json::Value("rib_add_delete"));
        row.set("enabled_ns", json::Value(j_on));
        row.set("disabled_ns", json::Value(j_off));
        row.set("guard_ns", json::Value(guard_ns));
        row.set("disabled_overhead_pct", json::Value(off_pct));
    }

    // ---- 2. end-to-end XRL round trips ---------------------------------
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ipc::XrlRouter server(plexus, "echo", true);
    server.add_handler("echo/1.0/m", [](const xrl::XrlArgs&, xrl::XrlArgs&) {
        return xrl::XrlError::okay();
    });
    server.finalize();
    ipc::XrlRouter client(plexus, "bench-client");
    client.finalize();
    client.set_preferred_family("inproc");

    auto best_of = [&](int n) {
        double best = 0;
        for (int i = 0; i < n; ++i) {
            double r = run_transaction(plexus, client);
            if (r > best) best = r;
        }
        return best;
    };
    run_transaction(plexus, client);  // warm-up

    telemetry::set_enabled(false);
    telemetry::set_tracing_enabled(false);
    double off = best_of(reps);

    telemetry::set_enabled(true);
    double metrics = best_of(reps);

    // Tracing records its XRL hops in the journal, so both go on.
    telemetry::set_tracing_enabled(true);
    telemetry::Journal::global().set_enabled(true);
    double tracing = best_of(reps);
    telemetry::set_tracing_enabled(false);
    telemetry::Journal::global().set_enabled(false);
    telemetry::Journal::global().clear();

    std::printf("%-28s %12s %10s\n", "inproc XRL round trips", "XRLs/s",
                "vs off");
    std::printf("%-28s %12.0f %9.1f%%\n", "telemetry off", off, 0.0);
    std::printf("%-28s %12.0f %9.1f%%\n", "metrics on", metrics,
                100.0 * (off - metrics) / off);
    std::printf("%-28s %12.0f %9.1f%%\n", "metrics + tracing", tracing,
                100.0 * (off - tracing) / off);
    auto e2e_row = [&](const char* mode, double xrls) {
        json::Value& row = report.add_row();
        row.set("section", json::Value("e2e"));
        row.set("what", json::Value(mode));
        row.set("xrls_per_s", json::Value(xrls));
        row.set("overhead_pct", json::Value(100.0 * (off - xrls) / off));
    };
    e2e_row("telemetry_off", off);
    e2e_row("metrics_on", metrics);
    e2e_row("metrics_tracing", tracing);
    std::printf("\n# expectation: the disabled path (instrumented sites, "
                "registry off) costs <5%% vs bench_xrl_throughput's "
                "uninstrumented-equivalent inproc figure\n");
    return 0;
}
