// churn: single-prefix UPDATEs sent open loop at a fixed rate onto a
// loaded table. Peer A carries the full_table feed (set-up); peer B then
// sends, in equal parts: announce a new prefix, withdraw it, override a
// table prefix with a shorter AS path (best path flips to B), withdraw
// the override. Each update is timed from its scheduled send time until
// its effect shows in the FIB. The seed picks the table, the new
// prefixes and the overridden table prefixes.
#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <thread>

#include "stack.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace xrp;

namespace {

constexpr double kRatePerS = 500;
// Slots between an announcement and its withdrawal: far longer than an
// update's latency, so each update's effect is seen on its own.
constexpr size_t kLagCycles = 25;
constexpr double kTimeoutMs = 1000;

enum class Op { kAnnounce, kWithdraw, kOverride, kUnoverride };

struct Update {
    Op op;
    IPv4Net net;
    size_t slot = 0;
};

struct Plan {
    std::vector<bgp::UpdateMessage> table;
    std::vector<IPv4Net> table_nets;
    std::vector<Update> updates;  // in slot order
};

bgp::UpdateMessage announce(const IPv4Net& net, IPv4 nexthop, bgp::As as) {
    bgp::UpdateMessage u;
    bgp::PathAttributes pa;
    pa.origin = bgp::Origin::kIgp;
    pa.as_path = bgp::AsPath(std::vector<bgp::As>{as});
    pa.nexthop = nexthop;
    u.attributes = std::move(pa);
    u.nlri.push_back(net);
    return u;
}

bgp::UpdateMessage to_message(const Update& up) {
    if (up.op == Op::kAnnounce || up.op == Op::kOverride)
        return announce(up.net, kPeerB, kAsB);
    bgp::UpdateMessage u;
    u.withdrawn.push_back(up.net);
    return u;
}

Plan make_plan(uint64_t seed, size_t table_routes, size_t n_updates) {
    Plan p;
    p.table = make_feed(seed, table_routes);
    for (const auto& u : p.table)
        p.table_nets.insert(p.table_nets.end(), u.nlri.begin(), u.nlri.end());
    const std::set<IPv4Net> in_table(p.table_nets.begin(), p.table_nets.end());

    std::mt19937_64 rng(seed ^ 0xc0ffeeULL);
    const size_t cycles = (n_updates + 3) / 4;
    // New prefixes: distinct /24s in 100.64.0.0/10 that the table lacks.
    std::set<IPv4Net> fresh;
    while (fresh.size() < cycles) {
        const IPv4Net net(IPv4(0x64400000u | ((rng() & 0x3fffu) << 8)), 24);
        if (in_table.count(net) == 0) fresh.insert(net);
    }
    std::vector<IPv4Net> news(fresh.begin(), fresh.end());
    std::shuffle(news.begin(), news.end(), rng);
    // Overridden prefixes: distinct table entries. Every feed path has at
    // least two hops, so B's one-hop path always wins.
    std::vector<IPv4Net> olds = p.table_nets;
    std::shuffle(olds.begin(), olds.end(), rng);
    olds.resize(std::min(cycles, olds.size()));

    for (size_t k = 0; k < cycles; ++k) {
        p.updates.push_back({Op::kAnnounce, news[k], 4 * k});
        p.updates.push_back({Op::kWithdraw, news[k], 4 * (k + kLagCycles) + 1});
        p.updates.push_back({Op::kOverride, olds[k], 4 * k + 2});
        p.updates.push_back(
            {Op::kUnoverride, olds[k], 4 * (k + kLagCycles) + 3});
    }
    std::sort(p.updates.begin(), p.updates.end(),
              [](const Update& a, const Update& b) { return a.slot < b.slot; });
    return p;
}

struct Phase {
    std::vector<double> latency_ms;
    std::vector<double> late_ms;
    std::vector<double> bgp_us, rib_us, fib_us;  // traced phases only
    double wall_s = 0;
    double cpu_s = 0;
    size_t timeouts = 0;
};

// Runs updates [begin, end) of the plan open loop on a loaded stack.
Phase run_phase(Stack& stack, const Plan& plan, size_t begin, size_t end,
                SpanLog* spans) {
    Phase ph;
    sim::FeedPeer& peer_b = *stack.peers[1];
    struct Pending {
        size_t idx;
        Clock::time_point sent;
        bool present;
        IPv4 nexthop;
    };
    std::map<IPv4Net, Pending> pending;
    const auto period = std::chrono::duration<double>(1.0 / kRatePerS);
    const size_t slot0 = plan.updates[begin].slot;
    const auto t0 = Clock::now();
    auto due = [&](size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        period * static_cast<double>(plan.updates[i].slot -
                                                     slot0));
    };
    auto settle = [&](const IPv4Net& net, bool timed_out) {
        auto it = pending.find(net);
        if (it == pending.end()) return;
        const auto now = Clock::now();
        const double ms = ms_between(due(it->second.idx), now);
        if (timed_out || ms > kTimeoutMs) {
            ++ph.timeouts;
        } else {
            ph.latency_ms.push_back(ms);
            if (spans != nullptr) {
                auto b = spans->bgp_emit.find(net);
                auto r = spans->rib_emit.find(net);
                if (b != spans->bgp_emit.end() &&
                    r != spans->rib_emit.end() &&
                    b->second >= it->second.sent && r->second >= b->second) {
                    ph.bgp_us.push_back(
                        ms_between(it->second.sent, b->second) * 1e3);
                    ph.rib_us.push_back(ms_between(b->second, r->second) * 1e3);
                    ph.fib_us.push_back(ms_between(r->second, now) * 1e3);
                }
            }
        }
        pending.erase(it);
    };
    stack.fea.fib().set_change_callback([&](bool, const fea::FibEntry& e) {
        auto it = pending.find(e.net);
        if (it == pending.end()) return;
        const fea::FibEntry* cur = stack.fea.fib().find_exact(e.net);
        if ((cur != nullptr) == it->second.present &&
            (cur == nullptr || cur->nexthop == it->second.nexthop))
            settle(e.net, false);
    });

    // The generator runs on its own thread: it sleeps until each update
    // is due and posts the send onto the router's loop, which wakes at
    // once, like a socket becoming readable. The loop's own timers are
    // millisecond-granular and would add up to 1 ms of lateness.
    size_t sent = begin;
    auto send = [&](size_t i) {
        const Update& up = plan.updates[i];
        const auto now = Clock::now();
        ph.late_ms.push_back(ms_between(due(i), now));
        if (pending.count(up.net)) settle(up.net, true);
        const bool present = up.op != Op::kWithdraw;
        const IPv4 nh = (up.op == Op::kAnnounce || up.op == Op::kOverride)
                            ? kPeerB
                            : kPeerA;
        pending[up.net] = Pending{i, now, present, nh};
        peer_b.send(to_message(up));
        ++sent;
    };
    const double cpu0 = process_cpu_s();
    std::thread generator([&] {
        for (size_t i = begin; i < end; ++i) {
            std::this_thread::sleep_until(due(i));
            stack.plexus.loop.post([&send, i] { send(i); });
        }
    });
    const double span_s = static_cast<double>(plan.updates[end - 1].slot -
                                              slot0) / kRatePerS;
    stack.run_until([&] { return sent >= end && pending.empty(); },
                    span_s + 5);
    generator.join();
    // Posted sends must not outlive this frame.
    stack.run_until([&] { return sent >= end; }, 5);
    ph.wall_s = seconds_since(t0);
    ph.cpu_s = process_cpu_s() - cpu0;
    ph.timeouts += pending.size();
    stack.fea.fib().set_change_callback(nullptr);
    std::fprintf(stderr,
                 "churn: %zu updates, latency ms p50 %.3f p90 %.3f p99 %.3f "
                 "p99.9 %.3f, generator late ms p50 %.3f p99 %.3f\n",
                 ph.latency_ms.size(), percentile(ph.latency_ms, 50),
                 percentile(ph.latency_ms, 90), percentile(ph.latency_ms, 99),
                 percentile(ph.latency_ms, 99.9), percentile(ph.late_ms, 50),
                 percentile(ph.late_ms, 99));
    return ph;
}

// Set-up: a stack with peers A and B and the table loaded on A.
double load_table(Stack& stack, const Plan& plan) {
    const auto ts = Clock::now();
    sim::FeedPeer& a = stack.attach_peer(kPeerA, kAsA);
    stack.attach_peer(kPeerB, kAsB);
    const size_t want = stack.fea.fib().size() + plan.table_nets.size();
    for (const auto& u : plan.table) a.send(u);
    stack.run_until([&] { return stack.fea.fib().size() >= want; }, 120);
    return seconds_since(ts);
}

// The FIB must hold exactly the table again, every prefix via A.
void check_final(Stack& stack, const Plan& plan, Result& r, bool inject) {
    if (inject)
        stack.fea.fib().delete_route(
            plan.table_nets[plan.table_nets.size() / 3]);
    check_fib(stack.fea.fib(), plan.table_nets, r, "churn");
}

void fill_spans(const Phase& ph, LayerTable& t) {
    t.span_bgp_emit_p50_us = percentile(ph.bgp_us, 50);
    t.span_bgp_emit_p99_us = percentile(ph.bgp_us, 99);
    t.span_rib_emit_p50_us = percentile(ph.rib_us, 50);
    t.span_rib_emit_p99_us = percentile(ph.rib_us, 99);
    t.span_fib_p50_us = percentile(ph.fib_us, 50);
    t.span_fib_p99_us = percentile(ph.fib_us, 99);
    t.gen_late_p99_ms = percentile(ph.late_ms, 99);
}

}  // namespace

Result run_churn(const Options& o) {
    const size_t table =
        std::max<size_t>(2000, static_cast<size_t>(146515 * o.scale));
    const size_t n = std::max<size_t>(
        o.scale < 1 ? 200 : 2000,
        static_cast<size_t>(o.seconds * kRatePerS * std::min(o.scale, 1.0)));
    const Plan plan = make_plan(o.seed, table, n);
    const size_t total = plan.updates.size();

    Result r;
    SpanLog spans;
    Stack stack(o.trace ? &spans : nullptr);
    const double setup_s = load_table(stack, plan);

    if (!o.trace) {
        Phase ph = run_phase(stack, plan, 0, total, nullptr);
        r.attempted += total;
        if (ph.timeouts)
            r.fail("churn: updates without effect within 1 s", ph.timeouts);
        check_final(stack, plan, r, o.inject_fib_delete);
        EndToEnd e;
        e.throughput_per_s =
            static_cast<double>(ph.latency_ms.size()) / ph.wall_s;
        e.latency_p50_ms = median(ph.latency_ms);
        // p90: run-to-run, p99 swung by a third on a 4-vCPU VM.
        e.latency_tail_ms = percentile(ph.latency_ms, 90);
        e.setup_s = setup_s;
        e.cpu_s = ph.cpu_s;
        e.rss_mb = peak_rss_mb();
        add_end_to_end(r, e);
        return r;
    }

    // Traced: the first half untraced, the second half with spans on.
    spans.on = false;
    const size_t mid = total / 2;
    Phase plain = run_phase(stack, plan, 0, mid, nullptr);
    spans.on = true;
    Phase traced = run_phase(stack, plan, mid, total, &spans);
    r.attempted += total;
    if (plain.timeouts + traced.timeouts)
        r.fail("churn: updates without effect within 1 s",
               plain.timeouts + traced.timeouts);
    check_final(stack, plan, r, false);

    LayerTable t;
    probe_standin_threads(o.seed, t);
    probe_standin_ospf(o.seed, t);
    fill_spans(traced, t);
    t.trace_overhead_share =
        median(traced.latency_ms) / median(plain.latency_ms) - 1.0;

    // All updates, so every withdrawal follows its announcement.
    TaggedUpdates measured;
    for (const auto& up : plan.updates)
        measured.emplace_back(1, to_message(up));
    const double self_s =
        probe_route_path(tagged(plan.table), measured, "stcp", t);
    double lat_s = 0;
    for (const Phase* ph : {&plain, &traced})
        for (double ms : ph->latency_ms) lat_s += ms / 1e3;
    t.span_residual_share = 1.0 - self_s / lat_s;
    add_layer_table(r, t);
    return r;
}

void probe_standin_spans(uint64_t seed, LayerTable& t) {
    const Plan plan = make_plan(seed, 5000, 400);
    SpanLog spans;
    Stack stack(&spans);
    load_table(stack, plan);
    fill_spans(run_phase(stack, plan, 0, plan.updates.size(), &spans), t);
}

}  // namespace perfbench
