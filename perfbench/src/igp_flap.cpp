// igp_flap: a seeded ISP-like topology of about 200 full routers (FEA,
// RIB, OSPF) run as a sim::ScenarioFleet on a virtual clock. After OSPF
// converges, seeded single links go down and come back up; each down and
// each up is one event. A down runs until every router reaches every
// beacon the link-state oracle says is reachable, an up until every FIB
// is back to its converged state. Timed in wall milliseconds per event:
// the clock is virtual, so timers cost nothing and the wall time is
// control-plane CPU. The topology is fixed; the seed picks the flapped
// links.
#include <algorithm>
#include <numeric>
#include <random>

#include "ospf/spf.hpp"
#include "sim/topogen.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace xrp;
using net::IPv4Net;
using sim::ConvergenceAnalyzer;

namespace {

constexpr auto kStep = std::chrono::milliseconds(100);
// Each event runs at least this long in virtual time, so the
// protocol's whole reaction (flooding, SPF hold-down, FIB writes) lands
// in the event that caused it, then until its check passes.
constexpr auto kMinWindow = std::chrono::seconds(2);
constexpr auto kBound = std::chrono::seconds(120);  // virtual, per event
// Every seed flaps links of the same topology: per-event cost depends on
// the fleet's shape, so a topology drawn per seed made runs of different
// seeds measure different fleets.
constexpr uint64_t kTopologySeed = 1;

struct Counters {
    uint64_t fib_ops = 0, spf_full = 0, spf_incr = 0, floods = 0;
};

class Flapper {
public:
    explicit Flapper(const sim::TopoSpec& spec)
        : network_(std::chrono::milliseconds(1)),
          fleet_(spec, loop_, network_) {}

    // Runs until OSPF has converged and settled; snapshots the FIBs.
    bool converge() {
        bool ok = false;
        for (auto t = ev::Duration::zero(); t < std::chrono::seconds(600);
             t += std::chrono::seconds(1)) {
            loop_.run_for(std::chrono::seconds(1));
            if (undelivered() == 0) {
                ok = true;
                break;
            }
        }
        loop_.run_for(std::chrono::seconds(30));
        baseline_ = fleet_.live_fibs();
        return ok && undelivered() == 0;
    }

    // One event: `link` goes down (or comes back up). A down converges
    // when every router reaches every beacon the oracle says it can; an
    // up when every FIB is back to its converged state. Returns false if
    // the event missed its virtual-time bound; adds the loop's wall and
    // CPU time (the checks are not timed).
    bool event(size_t link, bool up, double& wall_s, double& cpu_s) {
        fleet_.set_link_up(link, up);
        // A failed check is repeated only once some FIB has changed.
        uint64_t checked_ops = ~uint64_t{0};
        for (auto vt = ev::Duration::zero(); vt < kBound;) {
            const double cpu0 = process_cpu_s();
            const auto t0 = Clock::now();
            loop_.run_for(kStep);
            wall_s += seconds_since(t0);
            cpu_s += process_cpu_s() - cpu0;
            vt += kStep;
            if (vt < kMinWindow) continue;
            const uint64_t ops = counters().fib_ops;
            if (ops == checked_ops) continue;
            checked_ops = ops;
            if (up ? routers_off_baseline() == 0 : undelivered() == 0)
                return true;
        }
        return false;
    }

    Counters counters() {
        Counters c;
        for (size_t i = 0; i < fleet_.size(); ++i) {
            auto& r = fleet_.router(i);
            c.fib_ops += r.fea().fib_adds() + r.fea().fib_deletes();
            c.spf_full += r.ospf().spf().stats().full_runs;
            c.spf_incr += r.ospf().spf().stats().incremental_runs;
            c.floods += r.ospf().stats().floods_sent;
        }
        return c;
    }

    // Routers whose FIB differs from the converged snapshot.
    size_t routers_off_baseline() {
        size_t n = 0;
        for (size_t i = 0; i < fleet_.size(); ++i) {
            const auto& fib = fleet_.router(i).fea().fib();
            const auto& want = baseline_[i];
            bool same = fib.size() == want.size();
            if (same)
                fib.for_each([&](const IPv4Net& net, const fea::FibEntry& e) {
                    auto it = want.find(net);
                    same = same && it != want.end() &&
                           it->second == (e.is_multipath()
                                              ? e.nexthops
                                              : net::NexthopSet4::single(
                                                    e.nexthop));
                });
            n += !same;
        }
        return n;
    }

    sim::ScenarioFleet& fleet() { return fleet_; }

private:
    // (router, beacon) pairs the oracle says are reachable now but whose
    // live forwarding walk does not deliver.
    size_t undelivered() {
        const auto fibs = fleet_.live_fibs();
        const auto t = loop_.now();
        const auto& oracle = fleet_.oracle();
        auto edge_up = [&](size_t a, size_t b) {
            return oracle.edge_up_at(t, a, b);
        };
        size_t bad = 0;
        for (size_t src = 0; src < fleet_.size(); ++src)
            for (const auto& b : fleet_.beacons()) {
                if (src == b.owner ||
                    !oracle.reachable(t, src, b.owner, fleet_.size()))
                    continue;
                bad += ConvergenceAnalyzer::walk(fleet_.topo(), fibs, src,
                                                 b.dst, edge_up) !=
                       ConvergenceAnalyzer::WalkResult::kDelivered;
            }
        return bad;
    }

    ev::VirtualClock clock_;
    ev::EventLoop loop_{clock_};
    fea::VirtualNetwork network_;
    sim::ScenarioFleet fleet_;
    std::vector<sim::AnalyzerFib> baseline_;
};

struct FlapRun {
    std::vector<double> event_ms;  // a down and its up are two events
    double setup_s = 0;
    double wall_s = 0;
    double cpu_s = 0;
    Counters delta;
    double spf_full_us = 0;
    double counter_read_s = 0;  // the traced run's only extra work
};

FlapRun run_flaps(size_t routers, uint64_t seed, double seconds,
                  size_t min_events, Result* r, bool inject) {
    FlapRun out;
    const sim::TopoSpec spec = sim::make_isp(routers, kTopologySeed);
    const auto ts = Clock::now();
    Flapper f(spec);
    if (!f.converge() && r != nullptr)
        r->fail("igp_flap: initial OSPF convergence");
    out.setup_s = seconds_since(ts);

    // The link list runs ring, chords, then access links. Flap k draws its
    // link from one of `strata` equal slices of that list, the slices
    // taken in a seeded order, so every run flaps the same mix of backbone
    // and access links and the seed picks only which ones (drawn from the
    // whole list, the share of backbone links, and with it the tail,
    // varied from seed to seed).
    std::mt19937_64 rng(seed ^ 0xf1a9ULL);
    const size_t links = spec.links.size();
    const size_t strata = std::clamp<size_t>(min_events / 2, 1, links);
    std::vector<size_t> order(strata);
    std::iota(order.begin(), order.end(), size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    auto tr = Clock::now();
    const Counters c0 = f.counters();
    out.counter_read_s = seconds_since(tr);
    for (size_t k = 0;
         (out.event_ms.size() < min_events || out.wall_s < seconds) &&
         out.event_ms.size() < 1000;
         ++k) {
        const size_t s = order[k % strata];
        const size_t lo = s * links / strata, hi = (s + 1) * links / strata;
        const size_t link = lo + rng() % (hi - lo);
        for (bool up : {false, true}) {
            double wall = 0;
            const bool ok = f.event(link, up, wall, out.cpu_s);
            out.wall_s += wall;
            out.event_ms.push_back(wall * 1e3);
            if (r == nullptr) continue;
            r->attempted += 1;
            if (!ok) r->fail("igp_flap: event missed its virtual-time bound");
        }
    }
    std::fprintf(stderr, "igp_flap: %zu events in %.3f s of loop time\n",
                 out.event_ms.size(), out.wall_s);
    tr = Clock::now();
    const Counters c1 = f.counters();
    out.counter_read_s += seconds_since(tr);
    out.delta = {c1.fib_ops - c0.fib_ops, c1.spf_full - c0.spf_full,
                 c1.spf_incr - c0.spf_incr, c1.floods - c0.floods};

    // Full SPF replayed on router 0's converged link-state database.
    auto& ospf = f.fleet().router(0).ospf();
    std::vector<double> us;
    for (int i = 0; i < 20; ++i) {
        ospf::SpfEngine engine;
        engine.set_root(ospf.router_id());
        const auto t0 = Clock::now();
        engine.run_full(ospf.lsdb());
        us.push_back(seconds_since(t0) * 1e6);
    }
    out.spf_full_us = median(us);

    if (r != nullptr) {
        // Every FIB must equal its converged state once more.
        if (inject) {
            auto& fib = f.fleet().router(routers / 2).fea().fib();
            IPv4Net victim;
            fib.for_each([&](const IPv4Net& net, const fea::FibEntry&) {
                victim = net;
            });
            fib.delete_route(victim);
        }
        r->attempted += routers;
        if (const size_t off = f.routers_off_baseline())
            r->fail("igp_flap: routers whose final FIB is not the converged one",
                    off);
    }
    return out;
}

void fill_ospf(const FlapRun& run, LayerTable& t) {
    const double flaps = static_cast<double>(run.event_ms.size()) / 2;
    t.fea_fib_ops_per_flap = static_cast<double>(run.delta.fib_ops) / flaps;
    t.ospf_spf_full_per_flap = static_cast<double>(run.delta.spf_full) / flaps;
    t.ospf_spf_incr_per_flap = static_cast<double>(run.delta.spf_incr) / flaps;
    t.ospf_floods_per_flap = static_cast<double>(run.delta.floods) / flaps;
    t.ospf_spf_full_us = run.spf_full_us;
}

}  // namespace

Result run_igp_flap(const Options& o) {
    const size_t routers =
        std::max<size_t>(20, static_cast<size_t>(200 * o.scale));
    const size_t min_events = o.scale < 1 ? 10 : 100;
    Result r;
    const FlapRun run = run_flaps(routers, o.seed, o.seconds, min_events, &r,
                                  o.inject_fib_delete);
    if (!o.trace) {
        EndToEnd e;
        e.throughput_per_s =
            static_cast<double>(run.event_ms.size()) / run.wall_s;
        e.latency_p50_ms = median(run.event_ms);
        e.latency_tail_ms = percentile(run.event_ms, 90);
        e.setup_s = run.setup_s;
        e.cpu_s = run.cpu_s;
        e.rss_mb = peak_rss_mb();
        add_end_to_end(r, e);
        return r;
    }
    LayerTable t;
    probe_standin_route_path(o.seed, t);
    probe_standin_spans(o.seed, t);
    probe_standin_threads(o.seed, t);
    fill_ospf(run, t);
    // Counters are read once before and once after the flaps; the run
    // itself carries no trace hooks.
    t.trace_overhead_share = run.counter_read_s / run.wall_s;
    add_layer_table(r, t);
    return r;
}

void probe_standin_ospf(uint64_t seed, LayerTable& t) {
    fill_ospf(run_flaps(20, seed, 0, 8, nullptr, false), t);
}

}  // namespace perfbench
