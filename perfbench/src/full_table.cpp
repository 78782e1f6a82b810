// full_table: the paper's 146,515-route synthetic feed entering over one
// zero-latency BGP session and flowing BGP -> RIB -> FEA over loopback
// stcp. Timed from the first UPDATE until the last prefix is in the FIB.
// The seed picks the prefixes and AS paths (sim::generate_feed).
#include "stack.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace xrp;

namespace {

struct Load {
    double wall_s = 0;
    double half_s = 0;  // until half the table was installed
    double p99_s = 0;   // until 99% of it was installed
    double cpu_s = 0;
    // Per-prefix FIB install times (traced runs only).
    NetTimes installed;
    Clock::time_point t0;
};

// One complete load on a fresh stack; checks the resulting FIB.
Load load_once(const std::vector<bgp::UpdateMessage>& feed,
               const std::vector<IPv4Net>& expected, Result& r,
               bool inject_delete, SpanLog* spans) {
    Load ld;
    Stack stack(spans);
    sim::FeedPeer& peer = stack.attach_peer(kPeerA, kAsA);

    const size_t base = stack.fea.fib().size();
    const size_t n = expected.size();
    const size_t half = base + (n + 1) / 2;
    const size_t p99 = base + (n * 99 + 99) / 100;
    stack.fea.fib().set_change_callback([&](bool add, const fea::FibEntry& e) {
        if (!add) return;
        const size_t sz = stack.fea.fib().size();
        if (sz == half) ld.half_s = seconds_since(ld.t0);
        if (sz == p99) ld.p99_s = seconds_since(ld.t0);
        if (spans != nullptr) ld.installed[e.net] = Clock::now();
    });

    const double cpu0 = process_cpu_s();
    ld.t0 = Clock::now();
    for (const auto& u : feed) peer.send(u);
    stack.run_until([&] { return stack.fea.fib().size() >= base + n; }, 120);
    ld.wall_s = seconds_since(ld.t0);
    ld.cpu_s = process_cpu_s() - cpu0;
    std::fprintf(stderr, "full_table: %zu routes in %.3f s\n", n, ld.wall_s);
    stack.fea.fib().set_change_callback(nullptr);

    if (inject_delete) stack.fea.fib().delete_route(expected[n / 2]);
    check_fib(stack.fea.fib(), expected, r, "full_table");
    return ld;
}

}  // namespace

Result run_full_table(const Options& o) {
    const size_t routes =
        std::max<size_t>(2000, static_cast<size_t>(146515 * o.scale));
    const auto feed = make_feed(o.seed, routes);
    std::vector<IPv4Net> expected;
    for (const auto& u : feed)
        expected.insert(expected.end(), u.nlri.begin(), u.nlri.end());

    Result r;
    std::vector<double> setup, rate, half, p99;
    double cpu = 0, timed = 0, rss = 0;
    // Set-up: generating the feed, building the stack and bringing up the
    // session, a few times so its median is steady. (The stack alone takes
    // under a millisecond, which host jitter swamps.)
    for (int k = 0; k < 5; ++k) {
        const auto ts = Clock::now();
        const auto generated = make_feed(o.seed, routes);
        Stack stack;
        stack.attach_peer(kPeerA, kAsA);
        setup.push_back(seconds_since(ts));
    }
    // Repeat whole loads, each on a fresh stack, until the timed phase
    // has run for the requested seconds; report medians.
    for (int rep = 0; rep < 15 && timed < o.seconds; ++rep) {
        Load ld = load_once(feed, expected, r,
                            o.inject_fib_delete && rep == 0, nullptr);
        rate.push_back(static_cast<double>(expected.size()) / ld.wall_s);
        half.push_back(ld.half_s * 1e3);
        p99.push_back(ld.p99_s * 1e3);
        cpu += ld.cpu_s;
        timed += ld.wall_s;
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

    // Traced: one more load with the span decorators installed, then the
    // layer probes on the same feed.
    LayerTable t;
    // Generator lateness, thread shares and OSPF come from stand-ins;
    // the span rows are overwritten below with this feed's own spans.
    probe_standin_spans(o.seed, t);
    probe_standin_threads(o.seed, t);
    probe_standin_ospf(o.seed, t);
    SpanLog spans;
    Load ld = load_once(feed, expected, r, false, &spans);
    std::vector<double> untraced_wall;
    for (double x : rate)
        untraced_wall.push_back(static_cast<double>(expected.size()) / x);
    t.trace_overhead_share = ld.wall_s / median(untraced_wall) - 1.0;

    std::vector<double> bgp_us, rib_us, fib_us;
    for (const auto& [net, t_fib] : ld.installed) {
        auto b = spans.bgp_emit.find(net);
        auto rb = spans.rib_emit.find(net);
        if (b == spans.bgp_emit.end() || rb == spans.rib_emit.end()) continue;
        bgp_us.push_back(ms_between(ld.t0, b->second) * 1e3);
        rib_us.push_back(ms_between(b->second, rb->second) * 1e3);
        fib_us.push_back(ms_between(rb->second, t_fib) * 1e3);
    }
    t.span_bgp_emit_p50_us = percentile(bgp_us, 50);
    t.span_bgp_emit_p99_us = percentile(bgp_us, 99);
    t.span_rib_emit_p50_us = percentile(rib_us, 50);
    t.span_rib_emit_p99_us = percentile(rib_us, 99);
    t.span_fib_p50_us = percentile(fib_us, 50);
    t.span_fib_p99_us = percentile(fib_us, 99);

    t.span_residual_share =
        1.0 - probe_route_path({}, tagged(feed), "stcp", t) / ld.wall_s;
    add_layer_table(r, t);
    return r;
}

void probe_standin_route_path(uint64_t seed, LayerTable& t) {
    const auto feed = make_feed(seed, 20000);
    std::vector<IPv4Net> expected;
    for (const auto& u : feed)
        expected.insert(expected.end(), u.nlri.begin(), u.nlri.end());
    Result unchecked;
    const Load ld = load_once(feed, expected, unchecked, false, nullptr);
    t.span_residual_share =
        1.0 - probe_route_path({}, tagged(feed), "stcp", t) / ld.wall_s;
}

}  // namespace perfbench
