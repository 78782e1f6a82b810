// Tests for the staged routing-table framework (§5) — the paper's core
// contribution. Covers the stage API consistency rules, origin storage,
// stateless filter banks, the debug cache/consistency stage, dynamic
// background deletion (Figure 6), the fanout queue with slow readers,
// merge stages, ext/int nexthop resolution, redistribution taps, and
// interest registration (Figure 8).
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "ev/eventloop.hpp"
#include "stage/cache.hpp"
#include "stage/deletion.hpp"
#include "stage/extint.hpp"
#include "stage/fanout.hpp"
#include "stage/filter.hpp"
#include "stage/merge.hpp"
#include "stage/origin.hpp"
#include "stage/redist.hpp"
#include "stage/register.hpp"
#include "stage/sink.hpp"
#include "stage/stale_sweeper.hpp"

using namespace xrp;
using namespace xrp::stage;
using net::IPv4;
using net::IPv4Net;

namespace {

Route4 mkroute(const char* net_s, const char* nh = "192.0.2.1",
               uint32_t metric = 1, const char* proto = "test",
               uint32_t admin = 100) {
    Route4 r;
    r.net = IPv4Net::must_parse(net_s);
    r.nexthop = IPv4::must_parse(nh);
    r.metric = metric;
    r.protocol = proto;
    r.admin_distance = admin;
    return r;
}

}  // namespace

TEST(OriginStage, StoresAndForwards) {
    OriginStage<IPv4> origin("peer0");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&sink);
    sink.set_upstream(&origin);

    origin.add_route(mkroute("10.0.0.0/8"));
    EXPECT_EQ(origin.route_count(), 1u);
    EXPECT_EQ(sink.route_count(), 1u);
    ASSERT_TRUE(origin.lookup_route(IPv4Net::must_parse("10.0.0.0/8")));
    EXPECT_FALSE(origin.lookup_route(IPv4Net::must_parse("11.0.0.0/8")));

    origin.delete_route(mkroute("10.0.0.0/8"));
    EXPECT_EQ(origin.route_count(), 0u);
    EXPECT_EQ(sink.route_count(), 0u);
}

TEST(OriginStage, ReplacementBecomesDeleteThenAdd) {
    OriginStage<IPv4> origin("peer0");
    CacheStage<IPv4> checker("check");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&checker);
    checker.set_upstream(&origin);
    checker.set_downstream(&sink);

    origin.add_route(mkroute("10.0.0.0/8", "192.0.2.1", 5));
    origin.add_route(mkroute("10.0.0.0/8", "192.0.2.2", 7));  // replacement
    EXPECT_TRUE(checker.consistent())
        << (checker.violations().empty() ? "" : checker.violations()[0]);
    auto got = sink.lookup_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->nexthop.str(), "192.0.2.2");
}

TEST(OriginStage, DeleteOfUnknownPrefixIsDropped) {
    OriginStage<IPv4> origin("peer0");
    CacheStage<IPv4> checker("check");
    origin.set_downstream(&checker);
    checker.set_upstream(&origin);
    origin.delete_route(mkroute("10.0.0.0/8"));
    EXPECT_TRUE(checker.consistent());
    EXPECT_EQ(checker.route_count(), 0u);
}

TEST(OriginStage, RepumpReannouncesEverything) {
    OriginStage<IPv4> origin("peer0");
    int adds = 0, dels = 0;
    SinkStage<IPv4> sink("sink", [&](bool is_add, const Route4&) {
        (is_add ? adds : dels) += 1;
    });
    origin.set_downstream(&sink);
    origin.add_route(mkroute("10.0.0.0/8"));
    origin.add_route(mkroute("20.0.0.0/8"));
    adds = dels = 0;
    origin.repump();
    EXPECT_EQ(adds, 2);
    EXPECT_EQ(dels, 2);
}

TEST(FilterStage, DropAndModify) {
    OriginStage<IPv4> origin("peer0");
    FilterStage<IPv4> filter("in-filter");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&filter);
    filter.set_upstream(&origin);
    filter.set_downstream(&sink);
    sink.set_upstream(&filter);

    // Drop 10/8 and friends; bump everyone else's metric.
    filter.add_filter([](Route4& r) {
        return !IPv4Net::must_parse("10.0.0.0/8").contains(r.net);
    });
    filter.add_filter([](Route4& r) {
        r.metric += 100;
        return true;
    });

    origin.add_route(mkroute("10.1.0.0/16", "192.0.2.1", 1));
    origin.add_route(mkroute("20.1.0.0/16", "192.0.2.1", 1));
    EXPECT_EQ(sink.route_count(), 1u);
    auto got = sink.lookup_route(IPv4Net::must_parse("20.1.0.0/16"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->metric, 101u);

    // Deletes mirror the adds exactly: the dropped route's delete is
    // dropped, the modified route's delete carries the modification.
    origin.delete_route(mkroute("10.1.0.0/16", "192.0.2.1", 1));
    origin.delete_route(mkroute("20.1.0.0/16", "192.0.2.1", 1));
    EXPECT_EQ(sink.route_count(), 0u);
}

TEST(FilterStage, LookupAppliesFilters) {
    OriginStage<IPv4> origin("peer0");
    FilterStage<IPv4> filter("f");
    origin.set_downstream(&filter);
    filter.set_upstream(&origin);
    filter.add_filter([](Route4& r) { return r.metric < 10; });

    origin.add_route(mkroute("10.0.0.0/8", "192.0.2.1", 50));
    // The origin stores it, but through the filter it's invisible —
    // consistent with the fact that no add was sent downstream.
    EXPECT_TRUE(origin.lookup_route(IPv4Net::must_parse("10.0.0.0/8")));
    EXPECT_FALSE(filter.lookup_route(IPv4Net::must_parse("10.0.0.0/8")));
}

TEST(FilterStage, ConsistencyUnderChurnWithChecker) {
    // Property: any sequence of origin add/delete through a deterministic
    // filter bank keeps the downstream checker happy.
    OriginStage<IPv4> origin("peer0");
    FilterStage<IPv4> filter("f");
    CacheStage<IPv4> checker("check");
    origin.set_downstream(&filter);
    filter.set_upstream(&origin);
    filter.set_downstream(&checker);
    checker.set_upstream(&filter);

    filter.add_filter([](Route4& r) { return r.net.prefix_len() <= 20; });
    filter.add_filter([](Route4& r) {
        r.tags.push_back("seen");
        return true;
    });

    std::mt19937 rng(7);
    for (int i = 0; i < 2000; ++i) {
        Route4 r;
        r.net = IPv4Net(IPv4(rng() & 0xffff0000), 12 + rng() % 12);
        r.nexthop = IPv4(rng());
        r.metric = rng() % 3;  // ensures replacements with different bodies
        r.protocol = "test";
        if (rng() % 3 != 0)
            origin.add_route(r);
        else
            origin.delete_route(r);
        ASSERT_TRUE(checker.consistent())
            << checker.violations().front() << " at step " << i;
    }
}

TEST(CacheStage, DetectsViolations) {
    CacheStage<IPv4> checker("check");
    // Delete with no matching add.
    checker.delete_route(mkroute("10.0.0.0/8"), nullptr);
    EXPECT_FALSE(checker.consistent());

    CacheStage<IPv4> checker2("check2");
    checker2.add_route(mkroute("10.0.0.0/8"), nullptr);
    checker2.add_route(mkroute("10.0.0.0/8", "192.0.2.9"), nullptr);
    EXPECT_FALSE(checker2.consistent());  // replace without delete

    CacheStage<IPv4> checker3("check3");
    checker3.add_route(mkroute("10.0.0.0/8", "192.0.2.1", 5), nullptr);
    checker3.delete_route(mkroute("10.0.0.0/8", "192.0.2.1", 6), nullptr);
    EXPECT_FALSE(checker3.consistent());  // delete doesn't match add
}

// ---- Dynamic deletion stage (Figure 6) --------------------------------

TEST(DeletionStage, BackgroundDeletionDrains) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    OriginStage<IPv4> origin("peer0");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&sink);
    sink.set_upstream(&origin);

    for (uint32_t i = 0; i < 1000; ++i)
        origin.add_route(mkroute((std::to_string(i % 250 + 1) + "." +
                                  std::to_string(i / 250) + ".0.0/16")
                                     .c_str()));
    ASSERT_EQ(sink.route_count(), 1000u);

    // Peer goes down: detach the table into a deletion stage.
    bool completed = false;
    auto del = std::make_unique<DeletionStage<IPv4>>(
        "del0", origin.detach_table(), loop,
        [&](DeletionStage<IPv4>*) { completed = true; }, 50);
    plumb_between<IPv4>(origin, *del, sink);
    EXPECT_EQ(origin.route_count(), 0u);

    // Background slices drain the table without any new events.
    loop.run_until([&] { return completed; }, std::chrono::seconds(10));
    EXPECT_TRUE(completed);
    EXPECT_EQ(sink.route_count(), 0u);
    // The stage unplumbed itself.
    EXPECT_EQ(origin.downstream(), &sink);
}

TEST(DeletionStage, ReaddDuringDeletionStaysConsistent) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    OriginStage<IPv4> origin("peer0");
    CacheStage<IPv4> checker("check");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&checker);
    checker.set_upstream(&origin);
    checker.set_downstream(&sink);
    sink.set_upstream(&checker);

    for (uint32_t i = 1; i <= 200; ++i)
        origin.add_route(
            mkroute((std::to_string(i) + ".0.0.0/8").c_str(), "192.0.2.1", i));

    bool completed = false;
    auto del = std::make_unique<DeletionStage<IPv4>>(
        "del0", origin.detach_table(), loop,
        [&](DeletionStage<IPv4>*) { completed = true; }, 10);
    plumb_between<IPv4>(origin, *del, checker);

    // Peer comes back immediately and re-announces half the routes with
    // new metrics, interleaved with background deletion.
    for (uint32_t i = 1; i <= 100; ++i) {
        origin.add_route(mkroute((std::to_string(i) + ".0.0.0/8").c_str(),
                                 "192.0.2.2", 1000 + i));
        loop.run_once(false);  // let deletion slices interleave
        ASSERT_TRUE(checker.consistent()) << checker.violations().front();
    }
    loop.run_until([&] { return completed; }, std::chrono::seconds(10));
    ASSERT_TRUE(completed);
    EXPECT_TRUE(checker.consistent());
    // Exactly the re-announced routes survive.
    EXPECT_EQ(sink.route_count(), 100u);
    auto got = sink.lookup_route(IPv4Net::must_parse("50.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->nexthop.str(), "192.0.2.2");
    EXPECT_FALSE(sink.lookup_route(IPv4Net::must_parse("150.0.0.0/8")));
}

TEST(DeletionStage, LookupSeesNotYetDeletedRoutes) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    OriginStage<IPv4> origin("peer0");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&sink);
    sink.set_upstream(&origin);
    origin.add_route(mkroute("10.0.0.0/8"));

    auto del = std::make_unique<DeletionStage<IPv4>>(
        "del0", origin.detach_table(), loop, nullptr, 10);
    plumb_between<IPv4>(origin, *del, sink);

    // Not yet deleted: a downstream lookup still finds it (§5.1.2).
    EXPECT_TRUE(del->lookup_route(IPv4Net::must_parse("10.0.0.0/8")));
    // Fresh upstream routes win over the stale copy.
    origin.add_route(mkroute("10.0.0.0/8", "192.0.2.7"));
    auto got = del->lookup_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->nexthop.str(), "192.0.2.7");
}

TEST(DeletionStage, FlappingPeerChainssMultipleStages) {
    // Each flap creates a fresh deletion stage; each route lives in at
    // most one of them; everything drains to a consistent end state.
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    OriginStage<IPv4> origin("peer0");
    CacheStage<IPv4> checker("check");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&checker);
    checker.set_upstream(&origin);
    checker.set_downstream(&sink);
    sink.set_upstream(&checker);

    int completed = 0;
    std::vector<std::unique_ptr<DeletionStage<IPv4>>> stages;
    for (int flap = 0; flap < 5; ++flap) {
        for (uint32_t i = 1; i <= 50; ++i)
            origin.add_route(mkroute(
                (std::to_string(i) + ".0.0.0/8").c_str(), "192.0.2.1",
                static_cast<uint32_t>(flap * 1000) + i));
        // Down: plumb a deletion stage right after the origin.
        auto del = std::make_unique<DeletionStage<IPv4>>(
            "del" + std::to_string(flap), origin.detach_table(), loop,
            [&](DeletionStage<IPv4>*) { ++completed; }, 7);
        plumb_between<IPv4>(origin, *del, *origin.downstream());
        stages.push_back(std::move(del));
        for (int k = 0; k < 3; ++k) loop.run_once(false);
        ASSERT_TRUE(checker.consistent()) << checker.violations().front();
    }
    loop.run_until([&] { return completed == 5; }, std::chrono::seconds(10));
    EXPECT_EQ(completed, 5);
    EXPECT_TRUE(checker.consistent());
    EXPECT_EQ(sink.route_count(), 0u);
}

// ---- Graceful restart: generation stamps + stale sweeper ----------------

TEST(OriginStage, BeginRefreshMarksStaleWithoutDownstreamTraffic) {
    OriginStage<IPv4> origin("peer0");
    int adds = 0, dels = 0;
    SinkStage<IPv4> sink("sink", [&](bool is_add, const Route4&) {
        (is_add ? adds : dels) += 1;
    });
    origin.set_downstream(&sink);
    sink.set_upstream(&origin);

    origin.add_route(mkroute("10.0.0.0/8"));
    origin.add_route(mkroute("20.0.0.0/8"));
    origin.add_route(mkroute("30.0.0.0/8"));
    adds = dels = 0;

    // O(1) mass-staling: nothing moves, nothing is sent.
    origin.begin_refresh();
    EXPECT_EQ(origin.stale_count(), 3u);
    EXPECT_EQ(origin.route_count(), 3u);
    EXPECT_EQ(adds + dels, 0);

    // Identical re-advertisement: stamp refresh only — the no-blackhole
    // property. Downstream hears NOTHING.
    origin.add_route(mkroute("10.0.0.0/8"));
    EXPECT_EQ(origin.stale_count(), 2u);
    EXPECT_EQ(adds + dels, 0);
    auto got = origin.lookup_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(origin.route_is_stale(*got));

    // Changed re-advertisement: the usual delete(old)+add(new), and the
    // route is fresh afterwards.
    origin.add_route(mkroute("20.0.0.0/8", "192.0.2.9"));
    EXPECT_EQ(origin.stale_count(), 1u);
    EXPECT_EQ(adds, 1);
    EXPECT_EQ(dels, 1);

    // Deleting a still-stale route keeps the accounting straight.
    origin.delete_route(mkroute("30.0.0.0/8"));
    EXPECT_EQ(origin.stale_count(), 0u);
    EXPECT_EQ(origin.route_count(), 2u);
}

TEST(OriginStage, SecondRefreshRestalesRefreshedRoutes) {
    OriginStage<IPv4> origin("peer0");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&sink);
    sink.set_upstream(&origin);
    origin.add_route(mkroute("10.0.0.0/8"));
    origin.begin_refresh();
    origin.add_route(mkroute("10.0.0.0/8"));  // re-confirmed
    EXPECT_EQ(origin.stale_count(), 0u);
    // The protocol dies again before anything else happens: a fresh
    // generation bump re-marks everything, including the re-confirmed
    // route.
    origin.begin_refresh();
    EXPECT_EQ(origin.stale_count(), 1u);
    auto got = origin.lookup_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(origin.route_is_stale(*got));
}

TEST(StaleSweeperStage, ReapsOnlyUnrefreshedRoutes) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    OriginStage<IPv4> origin("peer0");
    CacheStage<IPv4> checker("check");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&checker);
    checker.set_upstream(&origin);
    checker.set_downstream(&sink);
    sink.set_upstream(&checker);

    for (uint32_t i = 1; i <= 200; ++i)
        origin.add_route(mkroute((std::to_string(i) + ".0.0.0/8").c_str()));

    // Restart: everything goes stale, then the revived protocol
    // re-confirms the odd half (identical re-adds — zero traffic).
    origin.begin_refresh();
    for (uint32_t i = 1; i <= 200; i += 2)
        origin.add_route(mkroute((std::to_string(i) + ".0.0.0/8").c_str()));
    EXPECT_EQ(origin.stale_count(), 100u);
    EXPECT_EQ(sink.route_count(), 200u);  // forwarding never flinched

    bool completed = false;
    auto sweeper = std::make_unique<StaleSweeperStage<IPv4>>(
        "sweep0", origin, loop,
        [&](StaleSweeperStage<IPv4>*) { completed = true; }, 10);
    plumb_between<IPv4>(origin, *sweeper, checker);

    ASSERT_TRUE(
        loop.run_until([&] { return completed; }, std::chrono::seconds(10)));
    EXPECT_EQ(sweeper->swept(), 100u);
    EXPECT_EQ(origin.route_count(), 100u);
    EXPECT_EQ(origin.stale_count(), 0u);
    EXPECT_EQ(sink.route_count(), 100u);
    EXPECT_TRUE(checker.consistent())
        << (checker.violations().empty() ? "" : checker.violations()[0]);
    EXPECT_TRUE(sink.lookup_route(IPv4Net::must_parse("51.0.0.0/8")));
    EXPECT_FALSE(sink.lookup_route(IPv4Net::must_parse("52.0.0.0/8")));
    // The stage unplumbed itself.
    EXPECT_EQ(origin.downstream(), &checker);
}

TEST(StaleSweeperStage, ChurnDuringSweepStaysConsistent) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    OriginStage<IPv4> origin("peer0");
    CacheStage<IPv4> checker("check");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&checker);
    checker.set_upstream(&origin);
    checker.set_downstream(&sink);
    sink.set_upstream(&checker);

    for (uint32_t i = 1; i <= 100; ++i)
        origin.add_route(mkroute((std::to_string(i) + ".0.0.0/8").c_str()));
    origin.begin_refresh();

    bool completed = false;
    auto sweeper = std::make_unique<StaleSweeperStage<IPv4>>(
        "sweep0", origin, loop,
        [&](StaleSweeperStage<IPv4>*) { completed = true; }, 5);
    plumb_between<IPv4>(origin, *sweeper, checker);

    // The resync races the sweep: re-confirms, metric changes, and
    // brand-new routes interleave with the background slices.
    for (uint32_t i = 1; i <= 60; ++i) {
        if (i % 3 == 0)
            origin.add_route(  // changed: delete+add through the sweeper
                mkroute((std::to_string(i) + ".0.0.0/8").c_str(), "192.0.2.2"));
        else
            origin.add_route(  // identical: silent stamp refresh
                mkroute((std::to_string(i) + ".0.0.0/8").c_str()));
        origin.add_route(mkroute(
            ("200." + std::to_string(i) + ".0.0/16").c_str()));  // brand new
        loop.run_once(false);
        ASSERT_TRUE(checker.consistent()) << checker.violations().front();
    }
    ASSERT_TRUE(
        loop.run_until([&] { return completed; }, std::chrono::seconds(10)));
    EXPECT_TRUE(checker.consistent());
    // The 60 re-confirmed + 60 new survive; 40 never-refreshed are gone.
    EXPECT_EQ(origin.route_count(), 120u);
    EXPECT_EQ(sink.route_count(), 120u);
    EXPECT_EQ(origin.stale_count(), 0u);
}

TEST(StaleSweeperStage, AbortLeavesUnsweptRoutesInPlace) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    OriginStage<IPv4> origin("peer0");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&sink);
    sink.set_upstream(&origin);

    for (uint32_t i = 1; i <= 100; ++i)
        origin.add_route(mkroute((std::to_string(i) + ".0.0.0/8").c_str()));
    origin.begin_refresh();

    bool completed = false;
    auto sweeper = std::make_unique<StaleSweeperStage<IPv4>>(
        "sweep0", origin, loop,
        [&](StaleSweeperStage<IPv4>*) { completed = true; }, 5);
    plumb_between<IPv4>(origin, *sweeper, sink);

    // A few slices run, then the origin dies again mid-sweep.
    for (int k = 0; k < 4; ++k) loop.run_once(false);
    EXPECT_GT(sweeper->swept(), 0u);
    EXPECT_LT(sweeper->swept(), 100u);
    sweeper->abort();
    EXPECT_TRUE(sweeper->finished());
    // Unplumbed immediately; completion arrives via the loop.
    EXPECT_EQ(origin.downstream(), &sink);
    ASSERT_TRUE(
        loop.run_until([&] { return completed; }, std::chrono::seconds(1)));
    // Whatever was not yet swept is still there, still stale — ready for
    // the next generation bump to take over.
    EXPECT_EQ(origin.route_count(), 100u - sweeper->swept());
    EXPECT_EQ(origin.stale_count(), origin.route_count());
    EXPECT_EQ(sink.route_count(), origin.route_count());
}

TEST(StaleSweeperStage, LookupPassesThroughToOrigin) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    OriginStage<IPv4> origin("peer0");
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&sink);
    sink.set_upstream(&origin);
    origin.add_route(mkroute("10.0.0.0/8"));
    origin.begin_refresh();

    auto sweeper = std::make_unique<StaleSweeperStage<IPv4>>(
        "sweep0", origin, loop, nullptr, 10);
    plumb_between<IPv4>(origin, *sweeper, sink);
    // The origin keeps the truth; the sweeper holds no table of its own.
    auto got = sweeper->lookup_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->nexthop.str(), "192.0.2.1");
}

// ---- Fanout (§5.1.1) ----------------------------------------------------

TEST(FanoutStage, DuplicatesToAllBranches) {
    OriginStage<IPv4> origin("peer0");
    FanoutStage<IPv4> fanout("fanout");
    SinkStage<IPv4> a("a"), b("b"), c("c");
    origin.set_downstream(&fanout);
    fanout.set_upstream(&origin);
    fanout.add_branch(&a);
    fanout.add_branch(&b);
    fanout.add_branch(&c);

    origin.add_route(mkroute("10.0.0.0/8"));
    EXPECT_EQ(a.route_count(), 1u);
    EXPECT_EQ(b.route_count(), 1u);
    EXPECT_EQ(c.route_count(), 1u);
    origin.delete_route(mkroute("10.0.0.0/8"));
    EXPECT_EQ(a.route_count(), 0u);
    EXPECT_EQ(c.route_count(), 0u);
    // All caught up: nothing queued.
    EXPECT_EQ(fanout.queue_size(), 0u);
}

TEST(FanoutStage, SlowReaderQueuesAndResumes) {
    // §5.1.1: one change queue with n readers. Whatever the peer count,
    // the queue holds the slow peer's lag exactly once, and it drains to
    // empty once that peer catches up.
    constexpr uint32_t kLag = 100;
    for (int npeers : {2, 4, 8, 16, 32}) {
        SCOPED_TRACE(npeers);
        OriginStage<IPv4> origin("peer0");
        FanoutStage<IPv4> fanout("fanout");
        origin.set_downstream(&fanout);
        fanout.set_upstream(&origin);
        std::vector<std::unique_ptr<SinkStage<IPv4>>> sinks;
        int slow_id = -1;
        for (int i = 0; i < npeers; ++i) {
            sinks.push_back(
                std::make_unique<SinkStage<IPv4>>("peer" + std::to_string(i)));
            slow_id = fanout.add_branch(sinks.back().get());
        }
        SinkStage<IPv4>& slow = *sinks.back();

        fanout.set_branch_ready(slow_id, false);  // backpressure
        for (uint32_t i = 1; i <= kLag; ++i)
            origin.add_route(
                mkroute((std::to_string(i) + ".0.0.0/8").c_str()));

        for (int i = 0; i + 1 < npeers; ++i)
            EXPECT_EQ(sinks[i]->route_count(), kLag);
        EXPECT_EQ(slow.route_count(), 0u);
        EXPECT_EQ(fanout.queue_size(), kLag);
        EXPECT_EQ(fanout.max_lag(), kLag);

        fanout.set_branch_ready(slow_id, true);  // peer drained
        EXPECT_EQ(slow.route_count(), kLag);
        EXPECT_EQ(fanout.queue_size(), 0u);  // GC'd once everyone consumed
    }
}

TEST(FanoutStage, LateBranchJoinsAtTail) {
    OriginStage<IPv4> origin("peer0");
    FanoutStage<IPv4> fanout("fanout");
    SinkStage<IPv4> early("early");
    origin.set_downstream(&fanout);
    fanout.set_upstream(&origin);
    fanout.add_branch(&early);
    origin.add_route(mkroute("10.0.0.0/8"));

    SinkStage<IPv4> late("late");
    fanout.add_branch(&late);
    origin.add_route(mkroute("20.0.0.0/8"));
    // The late joiner sees only changes after it joined (a real peer gets
    // a full dump separately, which is BGP machinery, not fanout's).
    EXPECT_EQ(early.route_count(), 2u);
    EXPECT_EQ(late.route_count(), 1u);
}

TEST(FanoutStage, RemovedBranchFreesQueue) {
    OriginStage<IPv4> origin("peer0");
    FanoutStage<IPv4> fanout("fanout");
    SinkStage<IPv4> fast("fast"), dead("dead");
    origin.set_downstream(&fanout);
    fanout.set_upstream(&origin);
    fanout.add_branch(&fast);
    int dead_id = fanout.add_branch(&dead);
    fanout.set_branch_ready(dead_id, false);
    for (uint32_t i = 1; i <= 50; ++i)
        origin.add_route(mkroute((std::to_string(i) + ".0.0.0/8").c_str()));
    EXPECT_EQ(fanout.queue_size(), 50u);
    fanout.remove_branch(dead_id);  // peer died
    EXPECT_EQ(fanout.queue_size(), 0u);
}

// ---- Merge (RIB §5.2) ---------------------------------------------------

struct MergeFixture {
    OriginStage<IPv4> rip{"rip-origin"};
    OriginStage<IPv4> bgp{"bgp-origin"};
    MergeStage<IPv4> merge{"merge"};
    CacheStage<IPv4> checker{"check"};
    SinkStage<IPv4> sink{"sink"};
    MergeFixture() {
        merge.set_parents(&rip, &bgp);
        merge.set_downstream(&checker);
        checker.set_upstream(&merge);
        checker.set_downstream(&sink);
        sink.set_upstream(&checker);
    }
};

TEST(MergeStage, LowerAdminDistanceWins) {
    MergeFixture f;
    f.rip.add_route(mkroute("10.0.0.0/8", "192.0.2.1", 1, "rip", 120));
    f.bgp.add_route(mkroute("10.0.0.0/8", "192.0.2.2", 1, "ebgp", 20));
    EXPECT_TRUE(f.checker.consistent()) << f.checker.violations().front();
    auto got = f.sink.lookup_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->protocol, "ebgp");
}

TEST(MergeStage, LoserPromotedWhenWinnerWithdrawn) {
    MergeFixture f;
    f.bgp.add_route(mkroute("10.0.0.0/8", "192.0.2.2", 1, "ebgp", 20));
    f.rip.add_route(mkroute("10.0.0.0/8", "192.0.2.1", 1, "rip", 120));
    f.bgp.delete_route(mkroute("10.0.0.0/8", "192.0.2.2", 1, "ebgp", 20));
    EXPECT_TRUE(f.checker.consistent()) << f.checker.violations().front();
    auto got = f.sink.lookup_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->protocol, "rip");
}

TEST(MergeStage, LoserDeleteIsInvisible) {
    MergeFixture f;
    f.bgp.add_route(mkroute("10.0.0.0/8", "192.0.2.2", 1, "ebgp", 20));
    f.rip.add_route(mkroute("10.0.0.0/8", "192.0.2.1", 1, "rip", 120));
    f.rip.delete_route(mkroute("10.0.0.0/8", "192.0.2.1", 1, "rip", 120));
    EXPECT_TRUE(f.checker.consistent());
    auto got = f.sink.lookup_route(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->protocol, "ebgp");
}

TEST(MergeStage, DisjointPrefixesPassThrough) {
    MergeFixture f;
    f.rip.add_route(mkroute("10.0.0.0/8", "192.0.2.1", 1, "rip", 120));
    f.bgp.add_route(mkroute("20.0.0.0/8", "192.0.2.2", 1, "ebgp", 20));
    EXPECT_EQ(f.sink.route_count(), 2u);
    EXPECT_TRUE(f.checker.consistent());
}

TEST(MergeStage, RandomChurnStaysConsistent) {
    MergeFixture f;
    std::mt19937 rng(21);
    for (int i = 0; i < 3000; ++i) {
        bool use_rip = rng() & 1;
        Route4 r;
        r.net = IPv4Net(IPv4((rng() % 50) << 24), 8);
        r.nexthop = IPv4(0xc0000201);
        r.metric = rng() % 4;
        r.protocol = use_rip ? "rip" : "ebgp";
        r.admin_distance = use_rip ? 120 : 20;
        OriginStage<IPv4>& o = use_rip ? f.rip : f.bgp;
        if (rng() % 3 != 0)
            o.add_route(r);
        else
            o.delete_route(r);
        ASSERT_TRUE(f.checker.consistent())
            << f.checker.violations().front() << " at step " << i;
    }
    // Final sink contents = per-prefix best of the two origins.
    f.rip.table().for_each([&](const IPv4Net& n, const Route4& r) {
        auto got = f.sink.lookup_route(n);
        ASSERT_TRUE(got.has_value());
        if (f.bgp.table().find(n) == nullptr) EXPECT_EQ(got->protocol, "rip");
        (void)r;
    });
    f.bgp.table().for_each([&](const IPv4Net& n, const Route4&) {
        auto got = f.sink.lookup_route(n);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->protocol, "ebgp");  // bgp always beats rip here
    });
}

// ---- ExtInt (nexthop resolution) ---------------------------------------

struct ExtIntFixture {
    OriginStage<IPv4> egp{"egp-origin"};
    OriginStage<IPv4> igp{"igp-origin"};
    ExtIntStage<IPv4> extint{"extint"};
    CacheStage<IPv4> checker{"check"};
    SinkStage<IPv4> sink{"sink"};
    ExtIntFixture() {
        extint.set_parents(&egp, &igp);
        extint.set_downstream(&checker);
        checker.set_upstream(&extint);
        checker.set_downstream(&sink);
        sink.set_upstream(&checker);
    }
    Route4 ext(const char* net, const char* nh) {
        return mkroute(net, nh, 0, "ebgp", 20);
    }
    Route4 internal(const char* net, uint32_t metric = 10) {
        return mkroute(net, "10.0.0.1", metric, "rip", 120);
    }
};

TEST(ExtIntStage, ExternalRouteWaitsForResolver) {
    ExtIntFixture f;
    f.egp.add_route(f.ext("80.0.0.0/8", "10.1.1.1"));
    EXPECT_EQ(f.sink.route_count(), 0u);  // nexthop unresolvable: parked
    EXPECT_EQ(f.extint.unresolved_count(), 1u);

    f.igp.add_route(f.internal("10.1.0.0/16", 7));
    EXPECT_TRUE(f.checker.consistent()) << f.checker.violations().front();
    EXPECT_EQ(f.sink.route_count(), 2u);
    auto got = f.sink.lookup_route(IPv4Net::must_parse("80.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->igp_metric, 7u);  // annotated with the IGP metric
}

TEST(ExtIntStage, InternalWithdrawalUnresolvesDependents) {
    ExtIntFixture f;
    f.igp.add_route(f.internal("10.1.0.0/16", 7));
    f.egp.add_route(f.ext("80.0.0.0/8", "10.1.1.1"));
    EXPECT_EQ(f.sink.route_count(), 2u);

    f.igp.delete_route(f.internal("10.1.0.0/16", 7));
    EXPECT_TRUE(f.checker.consistent()) << f.checker.violations().front();
    EXPECT_EQ(f.sink.route_count(), 0u);
    EXPECT_EQ(f.extint.unresolved_count(), 1u);
}

TEST(ExtIntStage, ReResolvesViaRemainingCover) {
    ExtIntFixture f;
    f.igp.add_route(f.internal("10.0.0.0/8", 20));
    f.igp.add_route(f.internal("10.1.0.0/16", 7));
    f.egp.add_route(f.ext("80.0.0.0/8", "10.1.1.1"));
    auto got = f.sink.lookup_route(IPv4Net::must_parse("80.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->igp_metric, 7u);  // resolved via the /16

    // The /16 goes away; the /8 still covers the nexthop.
    f.igp.delete_route(f.internal("10.1.0.0/16", 7));
    EXPECT_TRUE(f.checker.consistent()) << f.checker.violations().front();
    got = f.sink.lookup_route(IPv4Net::must_parse("80.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->igp_metric, 20u);  // re-resolved via the /8
}

TEST(ExtIntStage, MoreSpecificCoverUpgradesResolution) {
    ExtIntFixture f;
    f.igp.add_route(f.internal("10.0.0.0/8", 20));
    f.egp.add_route(f.ext("80.0.0.0/8", "10.1.1.1"));
    auto got = f.sink.lookup_route(IPv4Net::must_parse("80.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->igp_metric, 20u);

    f.igp.add_route(f.internal("10.1.0.0/16", 7));  // better cover appears
    EXPECT_TRUE(f.checker.consistent()) << f.checker.violations().front();
    got = f.sink.lookup_route(IPv4Net::must_parse("80.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->igp_metric, 7u);
}

TEST(ExtIntStage, SamePrefixConflictSettledByPreference) {
    ExtIntFixture f;
    f.igp.add_route(f.internal("10.0.0.0/8", 20));  // also the resolver
    f.igp.add_route(f.internal("30.0.0.0/8", 5));
    f.egp.add_route(f.ext("30.0.0.0/8", "10.1.1.1"));  // ebgp(20) beats rip(120)
    EXPECT_TRUE(f.checker.consistent()) << f.checker.violations().front();
    auto got = f.sink.lookup_route(IPv4Net::must_parse("30.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->protocol, "ebgp");

    // External withdrawn: the internal route surfaces again.
    f.egp.delete_route(f.ext("30.0.0.0/8", "10.1.1.1"));
    EXPECT_TRUE(f.checker.consistent()) << f.checker.violations().front();
    got = f.sink.lookup_route(IPv4Net::must_parse("30.0.0.0/8"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->protocol, "rip");
}

// ---- Redist ------------------------------------------------------------

TEST(RedistStage, TapsMatchingRoutes) {
    OriginStage<IPv4> origin("o");
    std::vector<std::pair<bool, std::string>> tapped;
    RedistStage<IPv4> redist(
        "redist",
        [](const Route4& r) { return r.protocol == "rip"; },
        [&](bool add, const Route4& r) {
            tapped.emplace_back(add, r.net.str());
        });
    SinkStage<IPv4> sink("sink");
    origin.set_downstream(&redist);
    redist.set_upstream(&origin);
    redist.set_downstream(&sink);
    sink.set_upstream(&redist);

    origin.add_route(mkroute("10.0.0.0/8", "192.0.2.1", 1, "rip"));
    origin.add_route(mkroute("20.0.0.0/8", "192.0.2.1", 1, "ebgp"));
    origin.delete_route(mkroute("10.0.0.0/8", "192.0.2.1", 1, "rip"));

    // Main stream unaffected.
    EXPECT_EQ(sink.route_count(), 1u);
    // Tap saw only the rip route's add and delete.
    ASSERT_EQ(tapped.size(), 2u);
    EXPECT_EQ(tapped[0], std::make_pair(true, std::string("10.0.0.0/8")));
    EXPECT_EQ(tapped[1], std::make_pair(false, std::string("10.0.0.0/8")));
}

// ---- Register (Figure 8) -------------------------------------------------

struct RegisterFixture {
    OriginStage<IPv4> origin{"o"};
    RegisterStage<IPv4> reg{"register"};
    SinkStage<IPv4> sink{"sink"};
    RegisterFixture() {
        origin.set_downstream(&reg);
        reg.set_upstream(&origin);
        reg.set_downstream(&sink);
        sink.set_upstream(&reg);
    }
};

TEST(RegisterStage, Figure8Answers) {
    RegisterFixture f;
    f.origin.add_route(mkroute("128.16.0.0/16"));
    f.origin.add_route(mkroute("128.16.0.0/18"));
    f.origin.add_route(mkroute("128.16.128.0/17"));
    f.origin.add_route(mkroute("128.16.192.0/18"));

    auto a = f.reg.register_interest(IPv4::must_parse("128.16.32.1"), 1,
                                     [](const IPv4Net&) {});
    ASSERT_TRUE(a.has_route);
    EXPECT_EQ(a.route.net.str(), "128.16.0.0/18");
    EXPECT_EQ(a.valid_subnet.str(), "128.16.0.0/18");

    auto b = f.reg.register_interest(IPv4::must_parse("128.16.160.1"), 1,
                                     [](const IPv4Net&) {});
    ASSERT_TRUE(b.has_route);
    EXPECT_EQ(b.route.net.str(), "128.16.128.0/17");
    EXPECT_EQ(b.valid_subnet.str(), "128.16.128.0/18");
}

TEST(RegisterStage, InvalidationOnOverlappingChange) {
    RegisterFixture f;
    f.origin.add_route(mkroute("128.16.0.0/16"));
    std::vector<std::string> invalidated;
    auto a = f.reg.register_interest(
        IPv4::must_parse("128.16.32.1"), 1,
        [&](const IPv4Net& n) { invalidated.push_back(n.str()); });
    ASSERT_TRUE(a.has_route);
    EXPECT_EQ(a.valid_subnet.str(), "128.16.0.0/16");

    // A more specific route appears inside the registered subnet: the
    // cached answer is no longer valid for the whole /16.
    f.origin.add_route(mkroute("128.16.64.0/18"));
    ASSERT_EQ(invalidated.size(), 1u);
    EXPECT_EQ(invalidated[0], "128.16.0.0/16");
    EXPECT_EQ(f.reg.registration_count(), 0u);

    // Re-query: the answer now reflects the overlay.
    auto b = f.reg.register_interest(IPv4::must_parse("128.16.32.1"), 1,
                                     [](const IPv4Net&) {});
    ASSERT_TRUE(b.has_route);
    EXPECT_EQ(b.route.net.str(), "128.16.0.0/16");
    EXPECT_EQ(b.valid_subnet.str(), "128.16.0.0/18");
}

TEST(RegisterStage, UnrelatedChangeDoesNotInvalidate) {
    RegisterFixture f;
    f.origin.add_route(mkroute("128.16.0.0/16"));
    int invalidations = 0;
    f.reg.register_interest(IPv4::must_parse("128.16.32.1"), 1,
                            [&](const IPv4Net&) { ++invalidations; });
    f.origin.add_route(mkroute("10.0.0.0/8"));
    f.origin.delete_route(mkroute("10.0.0.0/8"));
    EXPECT_EQ(invalidations, 0);
    EXPECT_EQ(f.reg.registration_count(), 1u);
}

TEST(RegisterStage, CoveringRouteDeletionInvalidates) {
    RegisterFixture f;
    f.origin.add_route(mkroute("128.16.0.0/16"));
    int invalidations = 0;
    f.reg.register_interest(IPv4::must_parse("128.16.32.1"), 1,
                            [&](const IPv4Net&) { ++invalidations; });
    f.origin.delete_route(mkroute("128.16.0.0/16"));
    EXPECT_EQ(invalidations, 1);
}

TEST(RegisterStage, MultipleClientsShareARegistration) {
    RegisterFixture f;
    f.origin.add_route(mkroute("128.16.0.0/16"));
    int inv1 = 0, inv2 = 0;
    f.reg.register_interest(IPv4::must_parse("128.16.32.1"), 1,
                            [&](const IPv4Net&) { ++inv1; });
    f.reg.register_interest(IPv4::must_parse("128.16.32.99"), 2,
                            [&](const IPv4Net&) { ++inv2; });
    EXPECT_EQ(f.reg.registration_count(), 1u);  // same validity subnet
    f.origin.add_route(mkroute("128.16.0.0/24"));
    EXPECT_EQ(inv1, 1);
    EXPECT_EQ(inv2, 1);
}

TEST(RegisterStage, PropertyInvalidationIsSound) {
    // Property: after any route change, every registration whose answer
    // would now differ has been invalidated (no stale caches).
    std::mt19937 rng(4242);
    RegisterFixture f;
    struct Client {
        IPv4 addr;
        bool has_route;
        IPv4Net matched;
        bool invalidated = false;
    };
    std::vector<Client> clients;
    uint64_t next_id = 1;

    for (int step = 0; step < 1500; ++step) {
        int action = static_cast<int>(rng() % 4);
        if (action == 0 || clients.size() < 5) {
            IPv4 addr(rng() & 0x0fffffff);
            Client c;
            c.addr = addr;
            size_t idx = clients.size();
            auto ans = f.reg.register_interest(
                addr, next_id++, [&clients, idx](const IPv4Net&) {
                    clients[idx].invalidated = true;
                });
            c.has_route = ans.has_route;
            if (ans.has_route) c.matched = ans.route.net;
            clients.push_back(c);
        } else {
            Route4 r;
            r.net = IPv4Net(IPv4(rng() & 0x0fff0000), 8 + rng() % 17);
            r.nexthop = IPv4(0xc0000201);
            r.protocol = "test";
            if (action == 1)
                f.origin.add_route(r);
            else
                f.origin.delete_route(r);
        }
        // Soundness check: any non-invalidated client's cached answer
        // still matches a fresh lookup.
        for (const Client& c : clients) {
            if (c.invalidated) continue;
            auto fresh = f.reg.lookup_route_lpm(c.addr);
            if (c.has_route) {
                ASSERT_TRUE(fresh.has_value())
                    << "stale cache for " << c.addr.str();
                ASSERT_EQ(fresh->net, c.matched)
                    << "stale cache for " << c.addr.str();
            } else {
                ASSERT_FALSE(fresh.has_value())
                    << "stale cache for " << c.addr.str();
            }
        }
    }
}
