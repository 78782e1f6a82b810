#include "stack.hpp"

#include "sim/routefeed.hpp"

namespace perfbench {

using namespace xrp;

namespace {

void stamp(SpanLog& log, NetTimes& when,
           const IPv4Net& net) {
    if (log.on) when[net] = Clock::now();
}

void stamp_batch(SpanLog& log, NetTimes& when,
                 const stage::RouteBatch4& batch) {
    if (!log.on) return;
    const auto now = Clock::now();
    for (const auto& e : batch.entries()) when[e.route.net] = now;
}

}  // namespace

void SpanRibHandle::add_route(const bgp::BgpRoute& r) {
    stamp(log_, log_.bgp_emit, r.net);
    inner_->add_route(r);
}

void SpanRibHandle::delete_route(const bgp::BgpRoute& r) {
    stamp(log_, log_.bgp_emit, r.net);
    inner_->delete_route(r);
}

void SpanRibHandle::push_batch(stage::RouteBatch4&& batch) {
    stamp_batch(log_, log_.bgp_emit, batch);
    inner_->push_batch(std::move(batch));
}

void SpanFeaHandle::add_route(const IPv4Net& net, IPv4 nexthop) {
    stamp(log_, log_.rib_emit, net);
    inner_->add_route(net, nexthop);
}

void SpanFeaHandle::add_route(const IPv4Net& net,
                              const net::NexthopSet4& nexthops) {
    stamp(log_, log_.rib_emit, net);
    inner_->add_route(net, nexthops);
}

void SpanFeaHandle::delete_route(const IPv4Net& net) {
    stamp(log_, log_.rib_emit, net);
    inner_->delete_route(net);
}

void SpanFeaHandle::push_batch(stage::RouteBatch4&& batch) {
    stamp_batch(log_, log_.rib_emit, batch);
    inner_->push_batch(std::move(batch));
}

std::vector<bgp::UpdateMessage> make_feed(uint64_t seed, size_t routes) {
    sim::RouteFeedConfig cfg;
    cfg.route_count = routes;
    cfg.seed = static_cast<uint32_t>(seed);
    cfg.first_hop_as = kAsA;
    cfg.nexthop = kPeerA;
    return sim::generate_feed(cfg);
}

void check_fib(const fea::SimForwardingPlane& fib,
               const std::vector<IPv4Net>& expected, Result& r,
               const std::string& workload) {
    r.attempted += expected.size();
    size_t missing = 0, wrong = 0;
    for (const auto& net : expected) {
        const fea::FibEntry* e = fib.find_exact(net);
        if (e == nullptr)
            ++missing;
        else if (e->nexthop != kPeerA)
            ++wrong;
    }
    const NetSet want(expected.begin(), expected.end());
    size_t extra = 0;
    fib.for_each([&](const IPv4Net& net, const fea::FibEntry&) {
        if (net != kCovering && want.count(net) == 0) ++extra;
    });
    if (missing) r.fail(workload + ": prefixes missing from the FIB", missing);
    if (wrong) r.fail(workload + ": prefixes not via peer A", wrong);
    if (extra) r.fail(workload + ": unexpected FIB entries", extra);
}

Stack::Stack(SpanLog* spans) {
    // Every component listens on TCP and prefers it outbound, so each
    // inter-component XRL crosses a real loopback socket.
    fea::bind_fea_xrl(fea, fea_xr);
    fea_xr.enable_tcp();
    fea_xr.finalize();

    std::unique_ptr<rib::FeaHandle> fh =
        std::make_unique<rib::XrlFeaHandle>(rib_xr);
    if (spans != nullptr)
        fh = std::make_unique<SpanFeaHandle>(std::move(fh), *spans);
    rib = std::make_unique<rib::Rib>(plexus.loop, std::move(fh));
    rib::bind_rib_xrl(*rib, rib_xr);
    rib_xr.enable_tcp();
    rib_xr.finalize();
    rib_xr.set_preferred_family("stcp");

    std::unique_ptr<bgp::RibHandle> rh =
        std::make_unique<bgp::XrlRibHandle>(bgp_xr);
    if (spans != nullptr)
        rh = std::make_unique<SpanRibHandle>(std::move(rh), *spans);
    bgp::BgpProcess::Config cfg;
    cfg.local_as = 1777;
    cfg.bgp_id = IPv4::must_parse("192.0.2.250");
    bgp = std::make_unique<bgp::BgpProcess>(plexus.loop, cfg, std::move(rh));
    bgp::bind_bgp_xrl(*bgp, bgp_xr);
    bgp_xr.enable_tcp();
    bgp_xr.finalize();
    bgp_xr.set_preferred_family("stcp");

    // The IGP route that makes the feed peers' nexthops resolvable.
    rib->add_route("static", kCovering, IPv4::must_parse("192.0.2.250"), 1);
}

sim::FeedPeer& Stack::attach_peer(IPv4 addr, bgp::As as) {
    auto [feed, id] = sim::attach_feed_peer(plexus.loop, *bgp, addr, as,
                                            ev::Duration::zero());
    (void)id;
    peers.push_back(std::move(feed));
    sim::FeedPeer& p = *peers.back();
    run_until(
        [&] {
            return p.established() &&
                   fea.fib().find_exact(kCovering) != nullptr;
        },
        30);
    return p;
}

bool Stack::run_until(const std::function<bool()>& pred, double limit_s) {
    return plexus.loop.run_until(
        pred, std::chrono::duration_cast<ev::Duration>(
                  std::chrono::duration<double>(limit_s)));
}

}  // namespace perfbench
