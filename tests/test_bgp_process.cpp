// End-to-end BgpProcess tests: two (and three) BGP speakers wired over
// pipe transports, exercising the full Figure-5 pipeline — origination,
// propagation, decision among peers, withdrawal, peer-failure background
// deletion, policy, damping, and the nexthop-resolver stage.
#include <gtest/gtest.h>

#include "bgp/process.hpp"
#include "ev/eventloop.hpp"
#include "policy/compiler.hpp"

using namespace xrp;
using namespace xrp::bgp;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;

namespace {

// A small AS topology harness: routers indexed 0..n-1, each in the same
// event loop (one address space), peered explicitly.
struct Net {
    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    std::vector<std::unique_ptr<BgpProcess>> routers;
    // peer ids: peers[{i,j}] = peer id of j on router i.
    std::map<std::pair<int, int>, int> peers;

    int add_router(As as, const char* id,
                   BgpProcess::Config extra = {}) {
        BgpProcess::Config c = extra;
        c.local_as = as;
        c.bgp_id = IPv4::must_parse(id);
        routers.push_back(std::make_unique<BgpProcess>(loop, c));
        return static_cast<int>(routers.size()) - 1;
    }

    void connect(int i, int j) {
        auto [ti, tj] = PipeTransport::make_pair(loop, loop, 1ms);
        BgpPeer::Config ci;
        ci.local_id = routers[i]->config().bgp_id;
        ci.peer_addr = routers[j]->config().bgp_id;
        ci.local_as = routers[i]->config().local_as;
        ci.peer_as = routers[j]->config().local_as;
        BgpPeer::Config cj;
        cj.local_id = routers[j]->config().bgp_id;
        cj.peer_addr = routers[i]->config().bgp_id;
        cj.local_as = routers[j]->config().local_as;
        cj.peer_as = routers[i]->config().local_as;
        peers[{i, j}] = routers[i]->add_peer(ci, std::move(ti));
        peers[{j, i}] = routers[j]->add_peer(cj, std::move(tj));
    }

    bool run_until(std::function<bool()> pred, ev::Duration limit = 30s) {
        return loop.run_until(pred, limit);
    }

    bool all_established() {
        for (const auto& [key, id] : peers) {
            BgpPeer* s = routers[static_cast<size_t>(key.first)]
                             ->peer_session(id);
            if (s == nullptr || !s->established()) return false;
        }
        return true;
    }
};

}  // namespace

TEST(BgpProcess, OriginateAndPropagate) {
    Net net;
    int r0 = net.add_router(1777, "192.0.2.1");
    int r1 = net.add_router(3561, "192.0.2.2");
    net.connect(r0, r1);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    net.routers[r0]->originate(IPv4Net::must_parse("10.0.0.0/8"),
                               IPv4::must_parse("192.0.2.1"));
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 1; }));

    auto best = net.routers[r1]->best_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->protocol, "ebgp");
    const PathAttributes* pa = route_attrs(*best);
    ASSERT_NE(pa, nullptr);
    EXPECT_EQ(pa->as_path.str(), "1777");  // prepended on the EBGP hop
    EXPECT_EQ(best->nexthop.str(), "192.0.2.1");
}

TEST(BgpProcess, WithdrawPropagates) {
    Net net;
    int r0 = net.add_router(1777, "192.0.2.1");
    int r1 = net.add_router(3561, "192.0.2.2");
    net.connect(r0, r1);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    net.routers[r0]->originate(IPv4Net::must_parse("10.0.0.0/8"),
                               IPv4::must_parse("192.0.2.1"));
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 1; }));
    net.routers[r0]->withdraw(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 0; }));
}

TEST(BgpProcess, TransitPropagationThreeAses) {
    // r0 (AS 1) -- r1 (AS 2) -- r2 (AS 3): r2 must learn r0's route with
    // AS path "2 1".
    Net net;
    int r0 = net.add_router(1, "192.0.2.1");
    int r1 = net.add_router(2, "192.0.2.2");
    int r2 = net.add_router(3, "192.0.2.3");
    net.connect(r0, r1);
    net.connect(r1, r2);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    net.routers[r0]->originate(IPv4Net::must_parse("10.0.0.0/8"),
                               IPv4::must_parse("192.0.2.1"));
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r2]->loc_rib_count() == 1; }));
    auto best = net.routers[r2]->best_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(route_attrs(*best)->as_path.str(), "2 1");
}

TEST(BgpProcess, LoopPreventionStopsOwnAs) {
    // Triangle: r0(1) - r1(2) - r2(3) - r0. r0's route must not come back
    // to r0 with its own AS in the path.
    Net net;
    int r0 = net.add_router(1, "192.0.2.1");
    int r1 = net.add_router(2, "192.0.2.2");
    int r2 = net.add_router(3, "192.0.2.3");
    net.connect(r0, r1);
    net.connect(r1, r2);
    net.connect(r2, r0);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    net.routers[r0]->originate(IPv4Net::must_parse("10.0.0.0/8"),
                               IPv4::must_parse("192.0.2.1"));
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r2]->loc_rib_count() == 1; }));
    net.loop.run_for(5s);  // give any loop time to happen
    // r0's own tables see only its local route (protocol "local"), never
    // an ebgp copy of it.
    auto best = net.routers[r0]->best_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->protocol, "local");
    EXPECT_EQ(net.routers[r0]->peer_route_count(net.peers[{r0, r2}]), 0u);
}

TEST(BgpProcess, DecisionPicksShortestPathAcrossPeers) {
    // r3 hears 10/8 via r1 (path "2 1") and directly from r0 (path "1").
    //   r0 --- r1 --- r3
    //     \----------/
    Net net;
    int r0 = net.add_router(1, "192.0.2.1");
    int r1 = net.add_router(2, "192.0.2.2");
    int r3 = net.add_router(4, "192.0.2.4");
    net.connect(r0, r1);
    net.connect(r1, r3);
    net.connect(r0, r3);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    net.routers[r0]->originate(IPv4Net::must_parse("10.0.0.0/8"),
                               IPv4::must_parse("192.0.2.1"));
    ASSERT_TRUE(net.run_until([&] {
        return net.routers[r3]->peer_route_count(net.peers[{r3, r0}]) == 1 &&
               net.routers[r3]->peer_route_count(net.peers[{r3, r1}]) == 1;
    }));
    auto best = net.routers[r3]->best_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(route_attrs(*best)->as_path.str(), "1");  // direct path wins
}

TEST(BgpProcess, IbgpRoutesNotReflected) {
    // r0 and r1 and r2 in the same AS (IBGP full mesh of 2 + external):
    // a route learned via IBGP must not be re-advertised to another IBGP
    // peer.
    Net net;
    int e = net.add_router(9, "192.0.2.9");   // external
    int r0 = net.add_router(1, "192.0.2.1");  // AS 1
    int r1 = net.add_router(1, "192.0.2.2");  // AS 1
    int r2 = net.add_router(1, "192.0.2.3");  // AS 1
    net.connect(e, r0);
    net.connect(r0, r1);
    net.connect(r1, r2);  // r2 only peers with r1
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    net.routers[e]->originate(IPv4Net::must_parse("10.0.0.0/8"),
                              IPv4::must_parse("192.0.2.9"));
    // r1 learns it via IBGP from r0.
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 1; }));
    net.loop.run_for(5s);
    // r2 must NOT have it: r1 won't reflect an IBGP-learned route.
    EXPECT_EQ(net.routers[r2]->loc_rib_count(), 0u);
}

TEST(BgpProcess, PeerFailureTriggersBackgroundDeletion) {
    Net net;
    int r0 = net.add_router(1, "192.0.2.1");
    int r1 = net.add_router(2, "192.0.2.2");
    net.connect(r0, r1);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    for (uint32_t i = 1; i <= 300; ++i)
        net.routers[r0]->originate(
            IPv4Net(IPv4((10u << 24) | (i << 8)), 24),
            IPv4::must_parse("192.0.2.1"));
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 300; }));

    // Kill the session from r0's side; r1 sees the peer drop and hands the
    // 300 routes to a dynamic deletion stage.
    net.routers[r0]->peer_session(net.peers[{r0, r1}])->stop();
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->active_deletion_stages() > 0; }, 10s));
    // Background slices empty the loc rib without a single big event.
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 0; }, 60s));
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->active_deletion_stages() == 0; }, 60s));
}

TEST(BgpProcess, NewPeerGetsFullTableDump) {
    Net net;
    int r0 = net.add_router(1, "192.0.2.1");
    int r1 = net.add_router(2, "192.0.2.2");
    net.connect(r0, r1);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));
    for (uint32_t i = 1; i <= 100; ++i)
        net.routers[r0]->originate(
            IPv4Net(IPv4((10u << 24) | (i << 8)), 24),
            IPv4::must_parse("192.0.2.1"));
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 100; }));

    // A third router joins later and must receive the full table.
    int r2 = net.add_router(3, "192.0.2.3");
    net.connect(r1, r2);
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r2]->loc_rib_count() == 100; }, 60s));
}

TEST(BgpProcess, ImportPolicyFiltersAndReFilters) {
    Net net;
    int r0 = net.add_router(1, "192.0.2.1");
    int r1 = net.add_router(2, "192.0.2.2");
    net.connect(r0, r1);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    net.routers[r0]->originate(IPv4Net::must_parse("10.0.0.0/8"),
                               IPv4::must_parse("192.0.2.1"));
    net.routers[r0]->originate(IPv4Net::must_parse("80.0.0.0/8"),
                               IPv4::must_parse("192.0.2.1"));
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 2; }));

    // Install an import policy on r1 rejecting 10/8; the origin re-pumps
    // and the loc rib drops to 1 without any wire traffic.
    auto prog = std::make_shared<policy::Program>(*policy::compile(R"(
        term no-ten {
            push ipv4net 10.0.0.0/8; load prefix; contains; onfalse next;
            reject;
        }
    )"));
    net.routers[r1]->set_import_policy(net.peers[{r1, r0}], prog);
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 1; }));
    EXPECT_TRUE(net.routers[r1]
                    ->best_route(IPv4Net::must_parse("80.0.0.0/8"))
                    .has_value());

    // Removing the policy restores the route.
    net.routers[r1]->set_import_policy(net.peers[{r1, r0}], nullptr);
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 2; }));
}

TEST(BgpProcess, ExportPolicySetsAttributes) {
    Net net;
    int r0 = net.add_router(1, "192.0.2.1");
    int r1 = net.add_router(1, "192.0.2.2");  // IBGP so localpref survives
    net.connect(r0, r1);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    auto prog = std::make_shared<policy::Program>(*policy::compile(R"(
        term lp { push u32 777; store localpref; accept; }
    )"));
    net.routers[r0]->set_export_policy(net.peers[{r0, r1}], prog);

    net.routers[r0]->originate(IPv4Net::must_parse("10.0.0.0/8"),
                               IPv4::must_parse("192.0.2.1"));
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 1; }));
    auto best = net.routers[r1]->best_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(route_attrs(*best)->local_pref, 777u);
}

TEST(BgpProcess, DampingSuppressesFlappingPrefix) {
    Net net;
    BgpProcess::Config dampcfg;
    dampcfg.enable_damping = true;
    dampcfg.damping.penalty_per_flap = 1000;
    dampcfg.damping.suppress_threshold = 2500;
    dampcfg.damping.reuse_threshold = 800;
    dampcfg.damping.half_life = 10s;
    int r0 = net.add_router(1, "192.0.2.1");
    int r1 = net.add_router(2, "192.0.2.2", dampcfg);
    net.connect(r0, r1);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    auto flap_net = IPv4Net::must_parse("10.0.0.0/8");
    // Flap three times: penalties 1000, 2000, 3000 -> suppressed.
    for (int i = 0; i < 3; ++i) {
        net.routers[r0]->originate(flap_net, IPv4::must_parse("192.0.2.1"));
        ASSERT_TRUE(net.run_until(
            [&] { return net.routers[r1]->peer_route_count(
                       net.peers[{r1, r0}]) == 1; }));
        net.routers[r0]->withdraw(flap_net);
        ASSERT_TRUE(net.run_until(
            [&] { return net.routers[r1]->peer_route_count(
                       net.peers[{r1, r0}]) == 0; }));
    }
    DampingStage* damp = net.routers[r1]->damping_stage(net.peers[{r1, r0}]);
    ASSERT_NE(damp, nullptr);
    EXPECT_TRUE(damp->is_suppressed(flap_net));

    // Re-announce: held by the damping stage, not visible downstream.
    net.routers[r0]->originate(flap_net, IPv4::must_parse("192.0.2.1"));
    net.loop.run_for(2s);
    EXPECT_EQ(net.routers[r1]->loc_rib_count(), 0u);

    // After a couple of half-lives the penalty decays below reuse and the
    // held announcement is released.
    ASSERT_TRUE(net.run_until(
        [&] { return net.routers[r1]->loc_rib_count() == 1; }, 120s));
    EXPECT_FALSE(damp->is_suppressed(flap_net));
}

TEST(BgpProcess, NexthopResolverAnnotatesIgpMetric) {
    // A fake RIB that resolves 192.0.2.0/24 with metric 42 and refuses
    // everything else.
    class FakeRib final : public RibHandle {
    public:
        void push_batch(stage::RouteBatch4&&) override {}
        void register_interest(
            IPv4 nexthop,
            NexthopResolverStage::AnswerCallback answer) override {
            auto subnet = IPv4Net::must_parse("192.0.2.0/24");
            if (subnet.contains(nexthop))
                answer(42, subnet);
            else
                answer(std::nullopt, IPv4Net(nexthop, 32));
        }
    };

    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    BgpProcess::Config cfg;
    cfg.local_as = 1;
    cfg.bgp_id = IPv4::must_parse("192.0.2.1");
    BgpProcess bgp(loop, cfg, std::make_unique<FakeRib>());

    bgp.originate(IPv4Net::must_parse("10.0.0.0/8"),
                  IPv4::must_parse("192.0.2.7"));  // resolvable
    bgp.originate(IPv4Net::must_parse("20.0.0.0/8"),
                  IPv4::must_parse("7.7.7.7"));  // unreachable
    loop.run_for(1s);

    EXPECT_EQ(bgp.loc_rib_count(), 1u);
    auto best = bgp.best_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->igp_metric, 42u);
    EXPECT_FALSE(bgp.best_route(IPv4Net::must_parse("20.0.0.0/8")).has_value());
}

TEST(BgpProcess, HotPotatoPrefersNearerExit) {
    // One router, two IBGP peers announcing the same prefix with
    // different nexthops; the RIB reports different IGP metrics. The
    // decision must pick the nearer exit, and switch when metrics change.
    class MeteredRib final : public RibHandle {
    public:
        std::map<uint32_t, uint32_t> metric_by_nexthop;
        std::function<void(const net::IPv4Net&)>* invalidate_hook = nullptr;
        void push_batch(stage::RouteBatch4&&) override {}
        void register_interest(
            IPv4 nexthop,
            NexthopResolverStage::AnswerCallback answer) override {
            answer(metric_by_nexthop[nexthop.to_host()],
                   IPv4Net(nexthop, 32));
        }
    };

    Net net;
    auto rib = std::make_unique<MeteredRib>();
    MeteredRib* ribp = rib.get();
    ribp->metric_by_nexthop[IPv4::must_parse("192.0.2.2").to_host()] = 100;
    ribp->metric_by_nexthop[IPv4::must_parse("192.0.2.3").to_host()] = 5;

    BgpProcess::Config c;
    c.local_as = 1;
    c.bgp_id = IPv4::must_parse("192.0.2.1");
    auto under_test =
        std::make_unique<BgpProcess>(net.loop, c, std::move(rib));
    net.routers.push_back(std::move(under_test));
    int r0 = 0;
    int far = net.add_router(1, "192.0.2.2");   // IBGP, far exit
    int near = net.add_router(1, "192.0.2.3");  // IBGP, near exit
    net.connect(r0, far);
    net.connect(r0, near);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    net.routers[far]->originate(IPv4Net::must_parse("10.0.0.0/8"),
                                IPv4::must_parse("192.0.2.2"));
    net.routers[near]->originate(IPv4Net::must_parse("10.0.0.0/8"),
                                 IPv4::must_parse("192.0.2.3"));
    ASSERT_TRUE(net.run_until([&] {
        return net.routers[r0]->peer_route_count(net.peers[{r0, far}]) == 1 &&
               net.routers[r0]->peer_route_count(net.peers[{r0, near}]) == 1;
    }));
    auto best = net.routers[r0]->best_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->nexthop.str(), "192.0.2.3");  // nearest exit
    EXPECT_EQ(best->igp_metric, 5u);

    // IGP metric to the near exit degrades; invalidate the registration —
    // BGP re-queries and flips to the other exit (the Teixeira et al
    // hot-potato interaction, done event-driven).
    ribp->metric_by_nexthop[IPv4::must_parse("192.0.2.3").to_host()] = 500;
    net.routers[r0]->nexthop_invalid(
        IPv4Net(IPv4::must_parse("192.0.2.3"), 32));
    ASSERT_TRUE(net.run_until([&] {
        auto b = net.routers[r0]->best_route(IPv4Net::must_parse("10.0.0.0/8"));
        return b.has_value() && b->nexthop.str() == "192.0.2.2";
    }));
}

TEST(BgpProcess, MultipathMergesEqualRankedPaths) {
    // r3 (multipath on) hears 10/8 via r1 (path "2 1") and r2 (path
    // "3 1") — equal through step 6 of the ranking (same length, origin,
    // ebgp, metric; MED not comparable across neighbour ASes). The
    // decision must merge both exits into one 2-member NexthopSet, and
    // shrink back to one member when a contributing session dies.
    //   r0 --- r1 --- r3
    //     \--- r2 ---/
    Net net;
    int r0 = net.add_router(1, "192.0.2.1");
    int r1 = net.add_router(2, "192.0.2.2");
    int r2 = net.add_router(3, "192.0.2.3");
    BgpProcess::Config mp;
    mp.multipath = true;
    mp.max_paths = 4;
    int r3 = net.add_router(4, "192.0.2.4", mp);
    net.connect(r0, r1);
    net.connect(r0, r2);
    net.connect(r1, r3);
    net.connect(r2, r3);
    ASSERT_TRUE(net.run_until([&] { return net.all_established(); }));

    net.routers[r0]->originate(IPv4Net::must_parse("10.0.0.0/8"),
                               IPv4::must_parse("192.0.2.1"));
    ASSERT_TRUE(net.run_until([&] {
        auto b = net.routers[r3]->best_route(IPv4Net::must_parse("10.0.0.0/8"));
        return b.has_value() && b->is_multipath();
    }));
    auto best = net.routers[r3]->best_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->nexthops.size(), 2u);
    EXPECT_TRUE(best->nexthops.contains(IPv4::must_parse("192.0.2.2")));
    EXPECT_TRUE(best->nexthops.contains(IPv4::must_parse("192.0.2.3")));
    // The scalar nexthop stays the canonical primary (lowest member), so
    // multipath-unaware consumers keep seeing a coherent single path.
    EXPECT_EQ(best->nexthop, best->nexthops.primary());
    EXPECT_EQ(net.routers[r3]->loc_rib_count(), 1u);

    // Kill the r1-r3 session: only the dead member leaves the set.
    net.routers[r1]->peer_session(net.peers[{r1, r3}])->stop();
    ASSERT_TRUE(net.run_until([&] {
        auto b = net.routers[r3]->best_route(IPv4Net::must_parse("10.0.0.0/8"));
        return b.has_value() && !b->is_multipath();
    }, 60s));
    best = net.routers[r3]->best_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->nexthop.str(), "192.0.2.3");
}
