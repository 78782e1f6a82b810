// Focused tests for the BGP pipeline stages: DecisionStage consistency
// under random multi-peer churn (checked by the §5.1 CacheStage),
// NexthopResolver queueing/invalidation behaviour (including that an
// answer releases its parked routes as one batch), and DampingStage unit
// behaviour (decay math, suppression state machine).
#include <gtest/gtest.h>

#include <random>

#include "bgp/damping.hpp"
#include "bgp/stages.hpp"
#include "stage/cache.hpp"
#include "stage/origin.hpp"
#include "stage/sink.hpp"
#include "stream_probe.hpp"

using namespace xrp;
using namespace xrp::bgp;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;
using stage::CacheStage;
using stage::OriginStage;
using stage::SinkStage;
using tests::StreamProbe;

namespace {

BgpRoute mkroute(const IPv4Net& net, uint32_t localpref, uint32_t source,
                 const char* proto = "ebgp", uint32_t igp = 0) {
    auto pa = std::make_shared<PathAttributes>();
    pa->origin = Origin::kIgp;
    pa->as_path = AsPath({static_cast<As>(source)});
    pa->nexthop = IPv4((192u << 24) | source);
    pa->local_pref = localpref;
    BgpRoute r;
    r.net = net;
    r.nexthop = pa->nexthop;
    r.protocol = proto;
    r.source_id = source;
    r.igp_metric = igp;
    r.attrs = std::move(pa);
    return r;
}

}  // namespace

TEST(DecisionStage, PicksBestAcrossParentsAndPromotesOnLoss) {
    OriginStage<IPv4> p1("p1"), p2("p2"), p3("p3");
    DecisionStage decision("decision");
    decision.add_parent(&p1);
    decision.add_parent(&p2);
    decision.add_parent(&p3);
    CacheStage<IPv4> check("check");
    SinkStage<IPv4> sink("sink");
    decision.set_downstream(&check);
    check.set_upstream(&decision);
    check.set_downstream(&sink);
    sink.set_upstream(&check);

    auto net = IPv4Net::must_parse("10.0.0.0/8");
    p1.add_route(mkroute(net, 100, 1));
    p2.add_route(mkroute(net, 300, 2));  // best
    p3.add_route(mkroute(net, 200, 3));
    EXPECT_TRUE(check.consistent()) << check.violations().front();
    ASSERT_EQ(sink.route_count(), 1u);
    EXPECT_EQ(sink.lookup_route(net)->source_id, 2u);

    // Best withdraws: next-best promoted, downstream stays consistent.
    p2.delete_route(mkroute(net, 300, 2));
    EXPECT_TRUE(check.consistent()) << check.violations().front();
    EXPECT_EQ(sink.lookup_route(net)->source_id, 3u);
    // Loser withdraws: no downstream change.
    p1.delete_route(mkroute(net, 100, 1));
    EXPECT_TRUE(check.consistent());
    EXPECT_EQ(sink.lookup_route(net)->source_id, 3u);
    p3.delete_route(mkroute(net, 200, 3));
    EXPECT_EQ(sink.route_count(), 0u);
    EXPECT_TRUE(check.consistent());
}

TEST(DecisionStage, PropertyRandomChurnStaysConsistent) {
    // The §5.1 consistency rules must hold through arbitrary interleaved
    // adds/deletes from many peers; the CacheStage is the oracle, and the
    // final sink must equal a brute-force recomputation.
    std::mt19937 rng(77);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<std::unique_ptr<OriginStage<IPv4>>> peers;
        DecisionStage decision("decision");
        for (int i = 0; i < 4; ++i) {
            peers.push_back(std::make_unique<OriginStage<IPv4>>(
                "p" + std::to_string(i)));
            decision.add_parent(peers.back().get());
        }
        CacheStage<IPv4> check("check");
        SinkStage<IPv4> sink("sink");
        decision.set_downstream(&check);
        check.set_upstream(&decision);
        check.set_downstream(&sink);
        sink.set_upstream(&check);

        for (int step = 0; step < 1500; ++step) {
            size_t p = rng() % peers.size();
            IPv4Net net(IPv4((rng() % 40) << 24), 8);
            uint32_t lp = 100 + rng() % 5;
            if (rng() % 3 != 0)
                peers[p]->add_route(
                    mkroute(net, lp, static_cast<uint32_t>(p + 1)));
            else
                peers[p]->delete_route(
                    mkroute(net, lp, static_cast<uint32_t>(p + 1)));
            ASSERT_TRUE(check.consistent())
                << check.violations().front() << " at step " << step;
        }
        // Cross-check winners against brute force over peer tables.
        for (uint32_t n = 0; n < 40; ++n) {
            IPv4Net net(IPv4(n << 24), 8);
            std::optional<BgpRoute> best;
            for (auto& p : peers) {
                auto r = p->lookup_route(net);
                if (r && (!best || bgp_route_preferred(*r, *best)))
                    best = r;
            }
            auto got = sink.lookup_route(net);
            ASSERT_EQ(got.has_value(), best.has_value()) << net.str();
            if (best) EXPECT_EQ(got->source_id, best->source_id) << net.str();
        }
    }
}

TEST(NexthopResolver, QueuesUntilAnswerArrives) {
    // The §5.1.1 contract: the Decision Process never waits — routes are
    // held in the resolver until the RIB answers.
    std::vector<std::pair<IPv4, NexthopResolverStage::AnswerCallback>> asked;
    NexthopResolverStage resolver("nh", [&](IPv4 nexthop,
                                            NexthopResolverStage::
                                                AnswerCallback answer) {
        asked.emplace_back(nexthop, std::move(answer));
    });
    SinkStage<IPv4> sink("sink");
    resolver.set_downstream(&sink);
    sink.set_upstream(&resolver);

    auto net1 = IPv4Net::must_parse("10.0.0.0/8");
    auto net2 = IPv4Net::must_parse("20.0.0.0/8");
    resolver.add_route(mkroute(net1, 100, 7), nullptr);
    resolver.add_route(mkroute(net2, 100, 7), nullptr);  // same nexthop
    EXPECT_EQ(sink.route_count(), 0u);          // parked
    ASSERT_EQ(asked.size(), 1u);                // one query per nexthop
    EXPECT_EQ(resolver.pending_count(), 2u);

    // The answer releases both, annotated.
    asked[0].second(42, IPv4Net(asked[0].first, 24));
    EXPECT_EQ(sink.route_count(), 2u);
    EXPECT_EQ(sink.lookup_route(net1)->igp_metric, 42u);

    // Cache hit: a third route with the same nexthop resolves instantly.
    auto net3 = IPv4Net::must_parse("30.0.0.0/8");
    resolver.add_route(mkroute(net3, 100, 7), nullptr);
    EXPECT_EQ(asked.size(), 1u);
    EXPECT_EQ(sink.route_count(), 3u);
}

TEST(NexthopResolver, DeleteWhilePendingNeverReachesDownstream) {
    std::vector<std::pair<IPv4, NexthopResolverStage::AnswerCallback>> asked;
    NexthopResolverStage resolver(
        "nh", [&](IPv4 nh, NexthopResolverStage::AnswerCallback answer) {
            asked.emplace_back(nh, std::move(answer));
        });
    CacheStage<IPv4> check("check");
    resolver.set_downstream(&check);
    check.set_upstream(&resolver);

    auto net = IPv4Net::must_parse("10.0.0.0/8");
    resolver.add_route(mkroute(net, 100, 7), nullptr);
    resolver.delete_route(mkroute(net, 100, 7), nullptr);
    asked[0].second(5, IPv4Net(asked[0].first, 24));
    EXPECT_TRUE(check.consistent());
    EXPECT_EQ(check.route_count(), 0u);
}

TEST(NexthopResolver, UnreachableRoutesReleasedByInvalidation) {
    std::map<uint32_t, std::optional<uint32_t>> metric;
    NexthopResolverStage resolver(
        "nh", [&](IPv4 nh, NexthopResolverStage::AnswerCallback answer) {
            answer(metric[nh.to_host()], IPv4Net(nh, 24));
        });
    SinkStage<IPv4> sink("sink");
    resolver.set_downstream(&sink);
    sink.set_upstream(&resolver);

    auto net = IPv4Net::must_parse("10.0.0.0/8");
    BgpRoute r = mkroute(net, 100, 7);
    metric[r.nexthop.to_host()] = std::nullopt;  // unreachable
    resolver.add_route(r, nullptr);
    EXPECT_EQ(sink.route_count(), 0u);
    EXPECT_EQ(resolver.unreachable_count(), 1u);

    // The nexthop becomes reachable; the RIB invalidates the old answer.
    metric[r.nexthop.to_host()] = 9;
    resolver.invalidate(IPv4Net(r.nexthop, 24));
    EXPECT_EQ(sink.route_count(), 1u);
    EXPECT_EQ(sink.lookup_route(net)->igp_metric, 9u);
    EXPECT_EQ(resolver.unreachable_count(), 0u);
}

namespace {

// A resolver whose RIB queries the test answers by hand.
struct ManualResolver {
    std::vector<std::pair<IPv4, NexthopResolverStage::AnswerCallback>> asked;
    NexthopResolverStage resolver{
        "nh", [this](IPv4 nh, NexthopResolverStage::AnswerCallback answer) {
            asked.emplace_back(nh, std::move(answer));
        }};

    void answer(size_t i, std::optional<uint32_t> metric) {
        asked.at(i).second(metric, IPv4Net(asked.at(i).first, 24));
    }
};

IPv4Net nth_net(uint32_t i) { return IPv4Net(IPv4((10u << 24) | (i << 8)), 24); }

BgpRoute resolved(BgpRoute r, uint32_t metric) {
    r.igp_metric = metric;
    return r;
}

}  // namespace

TEST(NexthopResolver, AnswerReleasesParkedRoutesAsOneBatch) {
    ManualResolver m;
    CacheStage<IPv4> check("check");
    StreamProbe<IPv4> probe;
    m.resolver.set_downstream(&check);
    check.set_upstream(&m.resolver);
    check.set_downstream(&probe.sink);
    probe.sink.set_upstream(&check);

    // Park 1000 routes on one nexthop. While they wait, withdraw every
    // tenth and implicitly replace every seventh (delete(old) then
    // add(new), as the origin says it). `expected` models the per-route
    // release: the survivors in the order they were last parked.
    const uint32_t n = 1000;
    std::vector<BgpRoute> expected;
    auto drop = [&](const IPv4Net& net) {
        std::erase_if(expected, [&](const BgpRoute& r) { return r.net == net; });
    };
    for (uint32_t i = 0; i < n; ++i) {
        expected.push_back(mkroute(nth_net(i), 100, 7));
        m.resolver.add_route(expected.back(), nullptr);
    }
    for (uint32_t i = 0; i < n; i += 10) {
        m.resolver.delete_route(mkroute(nth_net(i), 100, 7), nullptr);
        drop(nth_net(i));
    }
    for (uint32_t i = 3; i < n; i += 7) {
        if (i % 10 == 0) continue;
        m.resolver.delete_route(mkroute(nth_net(i), 100, 7), nullptr);
        drop(nth_net(i));
        expected.push_back(mkroute(nth_net(i), 200, 7));
        m.resolver.add_route(expected.back(), nullptr);
    }
    ASSERT_EQ(m.asked.size(), 1u);
    EXPECT_EQ(m.resolver.pending_count(), expected.size());
    EXPECT_TRUE(probe.stream.empty());

    m.answer(0, 42);
    EXPECT_EQ(probe.batches, 1u);
    EXPECT_EQ(probe.scalars, 0u);
    ASSERT_EQ(probe.stream.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(probe.stream[i].first) << i;
        ASSERT_EQ(probe.stream[i].second, resolved(expected[i], 42))
            << "entry " << i << " " << expected[i].net.str();
    }
    EXPECT_EQ(m.resolver.pending_count(), 0u);
    EXPECT_TRUE(check.consistent()) << check.violations().front();
}

TEST(NexthopResolver, SynchronousAnswerInsidePushBatchRidesTheOuterBatch) {
    // The RIB may answer before register_interest returns. Inside
    // push_batch that answer must append to the batch being collected,
    // not start a second downstream message.
    int queries = 0;
    NexthopResolverStage resolver(
        "nh", [&](IPv4 nh, NexthopResolverStage::AnswerCallback answer) {
            ++queries;
            answer(5, IPv4Net(nh, 32));
        });
    StreamProbe<IPv4> probe;
    resolver.set_downstream(&probe.sink);
    probe.sink.set_upstream(&resolver);

    stage::RouteBatch<IPv4> batch;
    std::vector<BgpRoute> sent;
    for (uint32_t i = 0; i < 30; ++i) {
        sent.push_back(mkroute(nth_net(i), 100, 1 + i % 3));  // 3 nexthops
        batch.add(sent.back());
    }
    resolver.push_batch(std::move(batch), nullptr);
    EXPECT_EQ(queries, 3);
    EXPECT_EQ(probe.batches, 1u);
    EXPECT_EQ(probe.scalars, 0u);
    ASSERT_EQ(probe.stream.size(), sent.size());
    for (size_t i = 0; i < sent.size(); ++i) {
        EXPECT_TRUE(probe.stream[i].first);
        EXPECT_EQ(probe.stream[i].second, resolved(sent[i], 5)) << i;
    }
    EXPECT_EQ(resolver.pending_count(), 0u);
}

TEST(NexthopResolver, WithdrawingHalfOfManyParkedRoutes) {
    // Parking is the normal full-table path, so withdrawing a parked
    // route goes through the prefix index rather than scanning the
    // nexthop's queue.
    ManualResolver m;
    CacheStage<IPv4> check("check");
    SinkStage<IPv4> sink("sink");
    m.resolver.set_downstream(&check);
    check.set_upstream(&m.resolver);
    check.set_downstream(&sink);
    sink.set_upstream(&check);

    const uint32_t n = 50000;
    for (uint32_t i = 0; i < n; ++i)
        m.resolver.add_route(mkroute(nth_net(i), 100, 7), nullptr);
    for (uint32_t i = 0; i < n; i += 2)
        m.resolver.delete_route(mkroute(nth_net(i), 100, 7), nullptr);
    EXPECT_EQ(m.resolver.pending_count(), n / 2);
    EXPECT_EQ(sink.route_count(), 0u);

    m.answer(0, 9);
    EXPECT_EQ(sink.route_count(), n / 2);
    EXPECT_EQ(m.resolver.pending_count(), 0u);
    for (uint32_t i = 0; i < n; ++i) {
        auto got = sink.lookup_route(nth_net(i));
        ASSERT_EQ(got.has_value(), i % 2 == 1) << nth_net(i).str();
        if (got) EXPECT_EQ(got->igp_metric, 9u);
    }
    EXPECT_TRUE(check.consistent()) << check.violations().front();
}

TEST(NexthopResolver, InvalidatedRouteLeavesDownstreamWhenWithdrawnOrUnreachable) {
    // invalidate() re-parks forwarded routes while their earlier version
    // stays downstream. Withdrawing such a route, or learning that its
    // nexthop is now unreachable, must retract that version.
    ManualResolver m;
    CacheStage<IPv4> check("check");
    SinkStage<IPv4> sink("sink");
    m.resolver.set_downstream(&check);
    check.set_upstream(&m.resolver);
    check.set_downstream(&sink);
    sink.set_upstream(&check);

    BgpRoute r = mkroute(IPv4Net::must_parse("10.0.0.0/8"), 100, 7);
    m.resolver.add_route(r, nullptr);
    m.answer(0, 3);
    ASSERT_EQ(sink.route_count(), 1u);

    m.resolver.invalidate(IPv4Net(r.nexthop, 24));
    ASSERT_EQ(m.asked.size(), 2u);
    EXPECT_EQ(m.resolver.pending_count(), 1u);
    EXPECT_EQ(sink.route_count(), 1u);  // the old answer still stands
    m.resolver.delete_route(r, nullptr);
    EXPECT_EQ(sink.route_count(), 0u);
    m.answer(1, 3);
    EXPECT_EQ(sink.route_count(), 0u);

    m.resolver.add_route(r, nullptr);  // cached: forwarded at once
    ASSERT_EQ(sink.route_count(), 1u);
    m.resolver.invalidate(IPv4Net(r.nexthop, 24));
    m.answer(2, std::nullopt);
    EXPECT_EQ(sink.route_count(), 0u);
    EXPECT_EQ(m.resolver.unreachable_count(), 1u);
    EXPECT_TRUE(check.consistent()) << check.violations().front();
}

// ---- DampingStage unit behaviour ---------------------------------------

struct DampingFixture {
    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    DampingConfig config;
    std::unique_ptr<DampingStage> damp;
    CacheStage<IPv4> check{"check"};
    SinkStage<IPv4> sink{"sink"};
    IPv4Net net = IPv4Net::must_parse("10.0.0.0/8");

    DampingFixture() {
        config.penalty_per_flap = 1000;
        config.suppress_threshold = 2500;
        config.reuse_threshold = 800;
        config.half_life = 8s;
        damp = std::make_unique<DampingStage>("damp", loop, config);
        damp->set_downstream(&check);
        check.set_upstream(damp.get());
        check.set_downstream(&sink);
        sink.set_upstream(&check);
    }
    void flap() {
        damp->add_route(mkroute(net, 100, 1), nullptr);
        loop.run_for(100ms);
        damp->delete_route(mkroute(net, 100, 1), nullptr);
        loop.run_for(100ms);
    }
};

TEST(DampingStage, PenaltyAccumulatesAndDecays) {
    DampingFixture f;
    f.flap();
    EXPECT_NEAR(f.damp->penalty(f.net), 1000, 50);
    f.flap();
    EXPECT_NEAR(f.damp->penalty(f.net), 1975, 80);
    // One half-life: roughly halved.
    f.loop.run_for(8s);
    EXPECT_NEAR(f.damp->penalty(f.net), 990, 80);
}

TEST(DampingStage, SuppressionAndReuse) {
    DampingFixture f;
    f.flap();
    f.flap();
    EXPECT_FALSE(f.damp->is_suppressed(f.net));
    f.flap();  // ~2960 > 2500
    EXPECT_TRUE(f.damp->is_suppressed(f.net));
    EXPECT_TRUE(f.check.consistent());
    EXPECT_EQ(f.sink.route_count(), 0u);

    // Announce while suppressed: held, not forwarded.
    f.damp->add_route(mkroute(f.net, 100, 1), nullptr);
    EXPECT_EQ(f.sink.route_count(), 0u);

    // Decay under reuse (~2 half-lives from ~2960 to ~740): released.
    f.loop.run_for(17s);
    EXPECT_FALSE(f.damp->is_suppressed(f.net));
    EXPECT_EQ(f.sink.route_count(), 1u);
    EXPECT_TRUE(f.check.consistent()) << f.check.violations().front();
}

TEST(DampingStage, WithdrawalWhileSuppressedIsSwallowed) {
    DampingFixture f;
    f.flap();
    f.flap();
    f.flap();
    ASSERT_TRUE(f.damp->is_suppressed(f.net));
    // Announce then withdraw while suppressed: downstream must see nothing.
    f.damp->add_route(mkroute(f.net, 100, 1), nullptr);
    f.damp->delete_route(mkroute(f.net, 100, 1), nullptr);
    f.loop.run_for(30s);  // decays below reuse with no held route
    EXPECT_EQ(f.sink.route_count(), 0u);
    EXPECT_TRUE(f.check.consistent());
}

TEST(DampingStage, StablePrefixUnaffected) {
    DampingFixture f;
    f.damp->add_route(mkroute(f.net, 100, 1), nullptr);
    f.loop.run_for(60s);
    EXPECT_EQ(f.sink.route_count(), 1u);
    EXPECT_FALSE(f.damp->is_suppressed(f.net));
    EXPECT_TRUE(f.check.consistent());
}
