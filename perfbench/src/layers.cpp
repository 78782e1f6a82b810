// Layer probes: the same inputs a workload feeds the router, replayed
// through one layer's public entry point at a time, with capturing
// handles standing in for the next layer. Each layer's time is measured
// around the calls into it; nothing inside the program is instrumented.
#include <condition_variable>
#include <mutex>

#include "bgp/process.hpp"
#include "fea/fea.hpp"
#include "ipc/router.hpp"
#include "rib/rib.hpp"
#include "rtrmgr/component_thread.hpp"
#include "sim/harness.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace xrp;
using stage::BatchOp;
using stage::RouteBatch4;

namespace {

// Stands in for the RIB: keeps every delta BGP emits.
class CaptureRibHandle final : public bgp::RibHandle {
public:
    void add_route(const bgp::BgpRoute& r) override {
        RouteBatch4 b;
        b.add(r);
        push_batch(std::move(b));
    }
    void delete_route(const bgp::BgpRoute& r) override {
        RouteBatch4 b;
        b.del(r);
        push_batch(std::move(b));
    }
    void push_batch(RouteBatch4&& batch) override {
        entries += batch.size();
        batches.push_back(std::move(batch));
    }
    void register_interest(
        IPv4, bgp::NexthopResolverStage::AnswerCallback answer) override {
        answer(1, kCovering);
    }
    std::vector<RouteBatch4> batches;
    size_t entries = 0;
};

// Stands in for the FEA: keeps every delta the RIB emits.
class CaptureFeaHandle final : public rib::FeaHandle {
public:
    void add_route(const IPv4Net& net, IPv4 nexthop) override {
        add_route(net, net::NexthopSet4::single(nexthop));
    }
    void add_route(const IPv4Net& net,
                   const net::NexthopSet4& nexthops) override {
        RouteBatch4 b;
        stage::Route4 r;
        r.net = net;
        r.set_nexthops(nexthops);
        b.add(std::move(r));
        push_batch(std::move(b));
    }
    void delete_route(const IPv4Net& net) override {
        RouteBatch4 b;
        stage::Route4 r;
        r.net = net;
        b.del(std::move(r));
        push_batch(std::move(b));
    }
    void push_batch(RouteBatch4&& batch) override {
        entries += batch.size();
        batches.push_back(std::move(batch));
    }
    std::vector<RouteBatch4> batches;
    size_t entries = 0;
};

// One XRL as the Xrl*Handle classes would send it: a scalar verb for a
// lone add or delete, otherwise an encoded chunk of at most 8192 entries.
struct WireCall {
    RouteBatch4 scalar;  // one entry, or empty for a bulk chunk
    std::string text;    // encoded chunk
    size_t entries = 0;
};

constexpr size_t kChunk = 8192;

// Mirrors the handles' framing (coalesce, singleton shortcut, chunking)
// and times the encode calls.
std::vector<WireCall> frame(std::vector<RouteBatch4> batches,
                            double& encode_s) {
    std::vector<WireCall> calls;
    for (auto& b : batches) {
        b.coalesce();
        if (b.empty()) continue;
        if (b.size() == 1 && b.entries()[0].op != BatchOp::kReplace) {
            WireCall c;
            c.scalar = std::move(b);
            c.entries = 1;
            calls.push_back(std::move(c));
            continue;
        }
        RouteBatch4 chunk;
        auto flush = [&] {
            if (chunk.empty()) return;
            WireCall c;
            c.entries = chunk.size();
            const auto t0 = Clock::now();
            c.text = chunk.encode();
            encode_s += seconds_since(t0);
            calls.push_back(std::move(c));
            chunk.clear();
        };
        for (auto& e : b.entries()) {
            chunk.push(std::move(e));
            if (chunk.size() >= kChunk) flush();
        }
        flush();
    }
    return calls;
}

// Decodes every bulk chunk (timed) back into the batch the receiver sees.
std::vector<RouteBatch4> unframe(const std::vector<WireCall>& calls,
                                 double& decode_s) {
    std::vector<RouteBatch4> out;
    out.reserve(calls.size());
    for (const auto& c : calls) {
        if (c.text.empty()) {
            out.push_back(c.scalar);
            continue;
        }
        const auto t0 = Clock::now();
        auto b = RouteBatch4::decode(c.text);
        decode_s += seconds_since(t0);
        out.push_back(b ? std::move(*b) : RouteBatch4{});
    }
    return out;
}

xrl::XrlArgs wire_args(const WireCall& c) {
    xrl::XrlArgs args;
    if (!c.text.empty()) {
        args.add("protocol", std::string("ebgp")).add("routes", c.text);
        return args;
    }
    const auto& e = c.scalar.entries()[0];
    args.add("protocol", std::string("ebgp")).add("net", e.route.net);
    if (e.op == BatchOp::kAdd)
        args.add("nexthops", e.route.nexthop_set().str()).add("metric",
                                                              e.route.metric);
    return args;
}

void drain(ev::EventLoop& loop) {
    while (loop.run_once(false)) {
    }
}

// Replays the payloads as one-way XRLs to a no-op handler; returns the
// seconds from the first send until the last handler ran.
double replay_oneway(const std::vector<xrl::XrlArgs>& payloads,
                     const std::string& family) {
    if (payloads.empty()) return 0;
    const size_t n = payloads.size();
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    auto call_of = [](const xrl::XrlArgs& a) {
        return xrl::Xrl::generic("sink", "sink", "1.0", "push", a);
    };
    if (family == "xring") {
        rtrmgr::ComponentThread sink_ct(clock), src_ct(clock);
        std::mutex mu;
        std::condition_variable cv;
        size_t done = 0;
        ipc::XrlRouter sink(plexus, sink_ct.loop(), "sink", true);
        sink.add_handler("sink/1.0/push",
                         [&](const xrl::XrlArgs&, xrl::XrlArgs&) {
                             std::lock_guard<std::mutex> lk(mu);
                             if (++done == n) cv.notify_one();
                             return xrl::XrlError::okay();
                         });
        sink.finalize();
        ipc::XrlRouter src(plexus, src_ct.loop(), "source", true);
        src.finalize();
        sink_ct.start();
        src_ct.start();
        const auto t0 = Clock::now();
        src_ct.post([&] {
            for (const auto& a : payloads)
                src.call_oneway(call_of(a), ipc::CallOptions::reliable());
        });
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait_for(lk, std::chrono::seconds(60),
                        [&] { return done == n; });
        }
        const double s = seconds_since(t0);
        src_ct.stop_and_join();
        sink_ct.stop_and_join();
        return s;
    }
    size_t done = 0;
    ipc::XrlRouter sink(plexus, "sink", true);
    sink.add_handler("sink/1.0/push", [&](const xrl::XrlArgs&, xrl::XrlArgs&) {
        ++done;
        return xrl::XrlError::okay();
    });
    sink.enable_tcp();
    sink.finalize();
    ipc::XrlRouter src(plexus, "source", true);
    src.enable_tcp();
    src.finalize();
    src.set_preferred_family(family);
    const auto t0 = Clock::now();
    for (const auto& a : payloads)
        src.call_oneway(call_of(a), ipc::CallOptions::reliable());
    plexus.loop.run_until([&] { return done == n; }, std::chrono::seconds(60));
    return seconds_since(t0);
}

size_t route_count(const std::vector<WireCall>& calls) {
    size_t n = 0;
    for (const auto& c : calls) n += c.entries;
    return n;
}

// Applies one received delta to the RIB through its public verbs.
void rib_apply(rib::Rib& rib, RouteBatch4&& b) {
    if (b.size() == 1 && b.entries()[0].op != BatchOp::kReplace) {
        const auto& e = b.entries()[0];
        if (e.op == BatchOp::kAdd)
            rib.add_route("ebgp", e.route.net, e.route.nexthop_set(),
                          e.route.metric);
        else
            rib.delete_route("ebgp", e.route.net);
        return;
    }
    rib.push_batch("ebgp", std::move(b));
}

void fea_apply(fea::Fea& fea, const RouteBatch4& b) {
    if (b.size() == 1 && b.entries()[0].op != BatchOp::kReplace) {
        const auto& e = b.entries()[0];
        if (e.op == BatchOp::kAdd)
            fea.add_route(e.route.net, e.route.nexthop_set());
        else
            fea.delete_route(e.route.net);
        return;
    }
    fea.apply_batch(b);
}

// Everything downstream of BGP: codec, RIB, FEA and transport, for the
// hop-1 batches `measured` after `preload` was applied untimed.
double downstream(std::vector<RouteBatch4> preload,
                  std::vector<RouteBatch4> measured,
                  const std::string& family, LayerTable& t) {
    double enc_s = 0, dec_s = 0, untimed = 0;
    const auto pre_calls = frame(std::move(preload), untimed);
    const auto hop1 = frame(std::move(measured), enc_s);
    const size_t routes = route_count(hop1);

    ev::RealClock clock;
    ev::EventLoop loop(clock);
    auto cap = std::make_unique<CaptureFeaHandle>();
    CaptureFeaHandle& fea_cap = *cap;
    rib::Rib rib(loop, std::move(cap));
    rib.add_route("static", kCovering, IPv4::must_parse("192.0.2.250"), 1);
    for (auto& b : unframe(pre_calls, untimed)) rib_apply(rib, std::move(b));
    drain(loop);
    const size_t pre_fea_batches = fea_cap.batches.size();

    auto received = unframe(hop1, dec_s);
    auto t0 = Clock::now();
    for (auto& b : received) rib_apply(rib, std::move(b));
    drain(loop);
    const double rib_s = seconds_since(t0);

    // Scalar updates on the loaded table: add then delete fresh /32s.
    constexpr int kScalar = 500;
    const size_t fea_batches = fea_cap.batches.size();
    t0 = Clock::now();
    for (int i = 0; i < kScalar; ++i) {
        const IPv4Net net(IPv4(0xc6336400u + static_cast<uint32_t>(i)), 32);
        rib.add_route("ebgp", net, kPeerA, 0);
        drain(loop);
        rib.delete_route("ebgp", net);
        drain(loop);
    }
    t.rib_update_us = seconds_since(t0) / (2.0 * kScalar) * 1e6;
    fea_cap.batches.resize(fea_batches);

    std::vector<RouteBatch4> fea_pre(fea_cap.batches.begin(),
                                     fea_cap.batches.begin() +
                                         static_cast<long>(pre_fea_batches));
    std::vector<RouteBatch4> fea_measured(
        fea_cap.batches.begin() + static_cast<long>(pre_fea_batches),
        fea_cap.batches.end());
    const auto hop2 = frame(std::move(fea_measured), enc_s);
    const auto fea_in = unframe(hop2, dec_s);

    fea::Fea fea(loop);
    for (const auto& b : fea_pre) fea_apply(fea, b);
    t0 = Clock::now();
    for (const auto& b : fea_in) fea_apply(fea, b);
    const double fea_s = seconds_since(t0);

    std::vector<xrl::XrlArgs> payloads;
    size_t codec_routes = 0, wire_bytes = 0;
    for (const auto* hop : {&hop1, &hop2})
        for (const auto& c : *hop) {
            payloads.push_back(wire_args(c));
            if (!c.text.empty()) {
                codec_routes += c.entries;
                wire_bytes += c.text.size();
            }
        }
    const double ipc_s = replay_oneway(payloads, family);

    const double per_route = routes > 0 ? static_cast<double>(routes) : 1;
    const double per_coded = codec_routes > 0 ? codec_routes : 1;
    t.stage_encode_ns_per_route = enc_s / per_coded * 1e9;
    t.stage_decode_ns_per_route = dec_s / per_coded * 1e9;
    t.stage_wire_bytes_per_route =
        static_cast<double>(wire_bytes) / per_coded;
    t.ipc_xrls_per_kroute =
        static_cast<double>(payloads.size()) / 2.0 / per_route * 1000.0;
    t.ipc_oneway_us_per_xrl =
        ipc_s / static_cast<double>(payloads.size() ? payloads.size() : 1) *
        1e6;
    t.rib_push_us_per_route = rib_s / per_route * 1e6;
    t.fea_apply_ns_per_route =
        fea_s / static_cast<double>(route_count(hop2) ? route_count(hop2) : 1) *
        1e9;
    return enc_s + dec_s + rib_s + fea_s + ipc_s;
}

size_t prefix_count(const TaggedUpdates& ups) {
    size_t n = 0;
    for (const auto& [peer, u] : ups) n += u.nlri.size() + u.withdrawn.size();
    return n;
}

}  // namespace

TaggedUpdates tagged(const std::vector<bgp::UpdateMessage>& feed) {
    TaggedUpdates out;
    for (const auto& u : feed) out.emplace_back(0, u);
    return out;
}

double probe_route_path(const TaggedUpdates& preload,
                        const TaggedUpdates& measured,
                        const std::string& family, LayerTable& t) {
    ev::RealClock clock;
    ev::EventLoop loop(clock);
    auto cap = std::make_unique<CaptureRibHandle>();
    CaptureRibHandle& rib_cap = *cap;
    bgp::BgpProcess::Config cfg;
    cfg.local_as = 1777;
    cfg.bgp_id = IPv4::must_parse("192.0.2.250");
    bgp::BgpProcess bgp(loop, cfg, std::move(cap));
    auto [feed_a, id_a] =
        sim::attach_feed_peer(loop, bgp, kPeerA, kAsA, ev::Duration::zero());
    auto [feed_b, id_b] =
        sim::attach_feed_peer(loop, bgp, kPeerB, kAsB, ev::Duration::zero());
    (void)id_a;
    (void)id_b;
    sim::FeedPeer* feeds[2] = {feed_a.get(), feed_b.get()};
    const auto limit = std::chrono::seconds(120);
    loop.run_until(
        [&] { return feed_a->established() && feed_b->established(); },
        limit);

    for (const auto& [peer, u] : preload) feeds[peer]->send(u);
    const size_t pre_entries = prefix_count(preload);
    loop.run_until([&] { return rib_cap.entries >= pre_entries; }, limit);
    const size_t pre_batches = rib_cap.batches.size();

    // A feed of full UPDATEs goes in back to back; single-prefix churn
    // goes in one at a time, as the open-loop generator spaces it.
    bool singles = true;
    for (const auto& [peer, u] : measured)
        singles &= u.nlri.size() + u.withdrawn.size() == 1;
    const size_t measured_entries = prefix_count(measured);
    const auto t0 = Clock::now();
    if (singles) {
        for (const auto& [peer, u] : measured) {
            const size_t want = rib_cap.entries + 1;
            feeds[peer]->send(u);
            loop.run_until([&] { return rib_cap.entries >= want; },
                           std::chrono::seconds(1));
        }
    } else {
        for (const auto& [peer, u] : measured) feeds[peer]->send(u);
        loop.run_until(
            [&] { return rib_cap.entries >= pre_entries + measured_entries; },
            limit);
    }
    const double bgp_s = seconds_since(t0);

    std::vector<RouteBatch4> pre(rib_cap.batches.begin(),
                                 rib_cap.batches.begin() +
                                     static_cast<long>(pre_batches));
    std::vector<RouteBatch4> out(rib_cap.batches.begin() +
                                     static_cast<long>(pre_batches),
                                 rib_cap.batches.end());
    const size_t emitted = rib_cap.entries - pre_entries;
    t.bgp_ingest_us_per_route =
        bgp_s / static_cast<double>(measured_entries ? measured_entries : 1) *
        1e6;
    t.bgp_routes_per_batch =
        static_cast<double>(emitted) /
        static_cast<double>(out.empty() ? 1 : out.size());
    return bgp_s + downstream(std::move(pre), std::move(out), family, t);
}

double probe_batch_path(const std::vector<RouteBatch4>& batches,
                        const std::string& family, LayerTable& t) {
    return downstream({}, batches, family, t);
}

}  // namespace perfbench
