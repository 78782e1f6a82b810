// Tests for the RIB process: admin-distance arbitration through the
// merge tree, ExtInt nexthop gating, redistribution, Figure-8 interest
// registration with invalidation, the FEA feed, and the graceful-restart
// state machine (origin death / revival / resync / grace expiry).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "ev/eventloop.hpp"
#include "rib/rib.hpp"
#include "stage/cache.hpp"
#include "telemetry/journal.hpp"

using namespace xrp;
using namespace xrp::rib;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;

namespace {

struct RibFixture {
    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    fea::Fea fea{loop};
    Rib rib{loop, std::make_unique<DirectFeaHandle>(fea)};

    RibFixture() {
        fea.interfaces().add_interface("eth0", IPv4::must_parse("192.0.2.1"),
                                       24);
    }
};

}  // namespace

TEST(Rib, UnknownProtocolRefused) {
    RibFixture f;
    EXPECT_FALSE(f.rib.add_route("carrier-pigeon",
                                 IPv4Net::must_parse("10.0.0.0/8"),
                                 IPv4::must_parse("192.0.2.9")));
}

TEST(Rib, SingleProtocolFlowsToFea) {
    RibFixture f;
    ASSERT_TRUE(f.rib.add_route("static", IPv4Net::must_parse("10.0.0.0/8"),
                                IPv4::must_parse("192.0.2.9"), 1));
    EXPECT_EQ(f.rib.route_count(), 1u);
    const fea::FibEntry* e = f.fea.lookup(IPv4::must_parse("10.1.1.1"));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->nexthop.str(), "192.0.2.9");
    ASSERT_TRUE(f.rib.delete_route("static", IPv4Net::must_parse("10.0.0.0/8")));
    EXPECT_EQ(f.fea.fib().size(), 0u);
}

TEST(Rib, AdminDistanceArbitration) {
    RibFixture f;
    // Same prefix from rip (120) and ospf (110): ospf must win, both in
    // the RIB and in the FIB.
    f.rib.add_route("rip", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"), 3);
    f.rib.add_route("ospf", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.110"), 10);
    auto win = f.rib.lookup_exact(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(win.has_value());
    EXPECT_EQ(win->protocol, "ospf");
    EXPECT_EQ(f.fea.lookup(IPv4::must_parse("10.1.1.1"))->nexthop.str(),
              "192.0.2.110");

    // OSPF withdraws: RIP takes over.
    f.rib.delete_route("ospf", IPv4Net::must_parse("10.0.0.0/8"));
    win = f.rib.lookup_exact(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(win.has_value());
    EXPECT_EQ(win->protocol, "rip");
}

TEST(Rib, ConnectedAlwaysBeatsEverything) {
    RibFixture f;
    f.rib.add_route("ebgp", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.20"));
    f.rib.add_route("connected", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.1"));
    auto win = f.rib.lookup_exact(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(win.has_value());
    EXPECT_EQ(win->protocol, "connected");
}

TEST(Rib, CustomAdminDistance) {
    RibFixture f;
    f.rib.set_admin_distance("rip", 5);  // operator prefers RIP today
    f.rib.add_route("rip", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"));
    f.rib.add_route("ospf", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.110"));
    auto win = f.rib.lookup_exact(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(win.has_value());
    EXPECT_EQ(win->protocol, "rip");
}

TEST(Rib, BgpRouteGatedOnIgpReachability) {
    RibFixture f;
    // A BGP route whose nexthop has no IGP cover is not usable.
    f.rib.add_route("ebgp", IPv4Net::must_parse("80.0.0.0/8"),
                    IPv4::must_parse("10.9.9.9"));
    EXPECT_EQ(f.rib.route_count(), 0u);
    EXPECT_EQ(f.fea.fib().size(), 0u);

    // An IGP route to the nexthop appears; the BGP route becomes usable.
    f.rib.add_route("rip", IPv4Net::must_parse("10.9.0.0/16"),
                    IPv4::must_parse("192.0.2.120"), 4);
    EXPECT_EQ(f.rib.route_count(), 2u);
    auto win = f.rib.lookup_exact(IPv4Net::must_parse("80.0.0.0/8"));
    ASSERT_TRUE(win.has_value());
    EXPECT_EQ(win->igp_metric, 4u);

    // IGP cover goes away again: BGP route withdraws from the FIB.
    f.rib.delete_route("rip", IPv4Net::must_parse("10.9.0.0/16"));
    EXPECT_EQ(f.rib.route_count(), 0u);
    EXPECT_EQ(f.fea.fib().size(), 0u);
}

TEST(Rib, IbgpVsEbgpPreference) {
    RibFixture f;
    f.rib.add_route("connected", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.1"));
    f.rib.add_route("ibgp", IPv4Net::must_parse("80.0.0.0/8"),
                    IPv4::must_parse("10.0.0.200"));
    f.rib.add_route("ebgp", IPv4Net::must_parse("80.0.0.0/8"),
                    IPv4::must_parse("10.0.0.100"));
    auto win = f.rib.lookup_exact(IPv4Net::must_parse("80.0.0.0/8"));
    ASSERT_TRUE(win.has_value());
    EXPECT_EQ(win->protocol, "ebgp");  // distance 20 < 200
}

TEST(Rib, LpmAcrossProtocols) {
    RibFixture f;
    f.rib.add_route("static", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.8"));
    f.rib.add_route("rip", IPv4Net::must_parse("10.1.0.0/16"),
                    IPv4::must_parse("192.0.2.16"));
    auto r = f.rib.lookup(IPv4::must_parse("10.1.2.3"));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->protocol, "rip");  // more specific wins over distance
    r = f.rib.lookup(IPv4::must_parse("10.2.2.3"));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->protocol, "static");
}

TEST(Rib, RedistributionTap) {
    RibFixture f;
    std::vector<std::string> tapped;
    uint64_t id = f.rib.add_redist(
        [](const Route4& r) { return r.protocol == "rip"; },
        [&](bool add, const Route4& r) {
            tapped.push_back((add ? "add " : "del ") + r.net.str());
        });
    f.rib.add_route("rip", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"));
    f.rib.add_route("static", IPv4Net::must_parse("20.0.0.0/8"),
                    IPv4::must_parse("192.0.2.8"));
    f.rib.delete_route("rip", IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_EQ(tapped.size(), 2u);
    EXPECT_EQ(tapped[0], "add 10.0.0.0/8");
    EXPECT_EQ(tapped[1], "del 10.0.0.0/8");

    // The tap can be removed; traffic continues unaffected.
    f.rib.remove_redist(id);
    f.rib.add_route("rip", IPv4Net::must_parse("30.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"));
    EXPECT_EQ(tapped.size(), 2u);
    EXPECT_EQ(f.rib.route_count(), 2u);
}

TEST(Rib, RegisterInterestAnswersAndInvalidates) {
    RibFixture f;
    f.rib.add_route("rip", IPv4Net::must_parse("128.16.0.0/16"),
                    IPv4::must_parse("192.0.2.120"), 7);

    std::vector<std::string> invalidated;
    auto ans = f.rib.register_interest(
        IPv4::must_parse("128.16.32.1"), 1,
        [&](const IPv4Net& n) { invalidated.push_back(n.str()); });
    ASSERT_TRUE(ans.resolves);
    EXPECT_EQ(ans.matched_net.str(), "128.16.0.0/16");
    EXPECT_EQ(ans.metric, 7u);
    EXPECT_EQ(ans.valid_subnet.str(), "128.16.0.0/16");
    EXPECT_EQ(f.rib.registration_count(), 1u);

    // A more specific route appears: the registration is invalidated.
    f.rib.add_route("rip", IPv4Net::must_parse("128.16.64.0/18"),
                    IPv4::must_parse("192.0.2.121"), 9);
    ASSERT_EQ(invalidated.size(), 1u);
    EXPECT_EQ(invalidated[0], "128.16.0.0/16");
    EXPECT_EQ(f.rib.registration_count(), 0u);

    // Re-query: now the answer is scoped to avoid the overlay (Figure 8).
    auto ans2 = f.rib.register_interest(IPv4::must_parse("128.16.32.1"), 1,
                                        [](const IPv4Net&) {});
    ASSERT_TRUE(ans2.resolves);
    EXPECT_EQ(ans2.matched_net.str(), "128.16.0.0/16");
    EXPECT_TRUE(ans2.valid_subnet.contains(IPv4::must_parse("128.16.32.1")));
    EXPECT_FALSE(
        ans2.valid_subnet.overlaps(IPv4Net::must_parse("128.16.64.0/18")));
}

TEST(Rib, RegisterInterestNoRoute) {
    RibFixture f;
    auto ans = f.rib.register_interest(IPv4::must_parse("7.7.7.7"), 1,
                                       [](const IPv4Net&) {});
    EXPECT_FALSE(ans.resolves);
    EXPECT_TRUE(ans.valid_subnet.contains(IPv4::must_parse("7.7.7.7")));
    // Unregister by subnet is idempotent.
    f.rib.unregister_interest(ans.valid_subnet, 1);
    f.rib.unregister_interest(ans.valid_subnet, 1);
    EXPECT_EQ(f.rib.registration_count(), 0u);
}

TEST(Rib, ProfilerPointsFire) {
    // The paper's "Arriving at the RIB" is the journal's route_install;
    // "Queued for transmission to the FEA" is a trace point that needs
    // tracing on as well.
    RibFixture f;
    telemetry::Journal j;
    telemetry::Journal* prev = telemetry::Journal::set_thread_override(&j);
    j.set_enabled(true);
    f.rib.add_route("static", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.9"));
    telemetry::set_tracing_enabled(true);
    f.rib.add_route("static", IPv4Net::must_parse("10.1.0.0/16"),
                    IPv4::must_parse("192.0.2.9"));
    telemetry::set_tracing_enabled(false);
    j.set_enabled(false);
    telemetry::Journal::set_thread_override(prev);

    std::vector<std::string> seen;
    for (const auto& e : j.events())
        seen.push_back(std::string(telemetry::journal_kind_name(e.kind)) +
                       " " + e.subject + " " + e.detail);
    // The fixture's FEA is direct, so its events follow in line.
    EXPECT_EQ(seen, (std::vector<std::string>{
                        "route_install 10.0.0.0/8 static:192.0.2.9",
                        "fib_add 10.0.0.0/8 192.0.2.9:eth0",
                        "route_install 10.1.0.0/16 static:192.0.2.9",
                        "rib_fea_queued 10.1.0.0/16 add",
                        "fea_in 10.1.0.0/16 add",
                        "fib_add 10.1.0.0/16 192.0.2.9:eth0",
                    }));
}

TEST(Rib, RedistStagesAreDynamicAndIndependent) {
    RibFixture f;
    // A route installed before any tap exists is not replayed: a Redist
    // stage spliced in mid-stream sees only future updates.
    f.rib.add_route("rip", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"));
    std::vector<std::string> rip_tap, all_tap;
    uint64_t rip_id = f.rib.add_redist(
        [](const Route4& r) { return r.protocol == "rip"; },
        [&](bool add, const Route4& r) {
            rip_tap.push_back((add ? "add " : "del ") + r.net.str());
        });
    uint64_t all_id = f.rib.add_redist(
        [](const Route4&) { return true; },
        [&](bool add, const Route4& r) {
            all_tap.push_back((add ? "add " : "del ") + r.net.str());
        });
    EXPECT_TRUE(rip_tap.empty());
    EXPECT_TRUE(all_tap.empty());

    // Each stage filters with its own predicate on the same winner stream.
    f.rib.add_route("rip", IPv4Net::must_parse("20.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"));
    f.rib.add_route("static", IPv4Net::must_parse("30.0.0.0/8"),
                    IPv4::must_parse("192.0.2.8"));
    EXPECT_EQ(rip_tap, (std::vector<std::string>{"add 20.0.0.0/8"}));
    EXPECT_EQ(all_tap, (std::vector<std::string>{"add 20.0.0.0/8",
                                                 "add 30.0.0.0/8"}));

    // Removing one stage (idempotently; unknown ids are ignored) leaves
    // the other wired in.
    f.rib.remove_redist(rip_id);
    f.rib.remove_redist(rip_id);
    f.rib.remove_redist(424242);
    f.rib.delete_route("rip", IPv4Net::must_parse("20.0.0.0/8"));
    EXPECT_EQ(rip_tap.size(), 1u);
    ASSERT_EQ(all_tap.size(), 3u);
    EXPECT_EQ(all_tap[2], "del 20.0.0.0/8");

    f.rib.remove_redist(all_id);
    f.rib.add_route("rip", IPv4Net::must_parse("40.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"));
    EXPECT_EQ(all_tap.size(), 3u);
    // The routes themselves were never disturbed by tap churn.
    EXPECT_EQ(f.rib.route_count(), 3u);
}

TEST(Rib, RedistTapsWinnersNotOrigins) {
    RibFixture f;
    std::vector<std::string> tapped;
    f.rib.add_redist(
        [](const Route4&) { return true; },
        [&](bool add, const Route4& r) {
            tapped.push_back((add ? "add " : "del ") + r.net.str() + " " +
                             r.protocol);
        });
    IPv4Net net = IPv4Net::must_parse("10.0.0.0/8");
    f.rib.add_route("static", net, IPv4::must_parse("192.0.2.8"));
    ASSERT_EQ(tapped.size(), 1u);
    EXPECT_EQ(tapped[0], "add 10.0.0.0/8 static");

    // A losing route (rip, distance 120 > static's 1) never reaches the
    // redist stage: it taps the arbitrated winner stream, not the origins.
    f.rib.add_route("rip", net, IPv4::must_parse("192.0.2.120"));
    EXPECT_EQ(tapped.size(), 1u);

    // When the winner is withdrawn the runner-up takes over, and the tap
    // sees the handover.
    f.rib.delete_route("static", net);
    ASSERT_FALSE(tapped.empty());
    EXPECT_EQ(tapped.back(), "add 10.0.0.0/8 rip");
    EXPECT_EQ(std::count(tapped.begin(), tapped.end(),
                         "del 10.0.0.0/8 static"),
              1);
}

// ---- Graceful restart: the origin_dead/revived/resynced machine ---------

TEST(RibRestart, OriginDeathPreservesRoutesAndFib) {
    RibFixture f;
    f.rib.add_route("rip", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"), 3);
    f.rib.add_route("rip", IPv4Net::must_parse("20.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"), 3);

    f.rib.origin_dead("rip");
    EXPECT_EQ(f.rib.origin_state("rip"), Rib::OriginState::kStale);
    EXPECT_EQ(f.rib.stale_route_count("rip"), 2u);
    // Nothing deleted, nothing re-sent: RIB and FIB keep forwarding.
    EXPECT_EQ(f.rib.route_count(), 2u);
    EXPECT_NE(f.fea.lookup(IPv4::must_parse("10.1.1.1")), nullptr);
    EXPECT_NE(f.fea.lookup(IPv4::must_parse("20.1.1.1")), nullptr);

    // Adds are always welcome while stale — a restarted instance may
    // start announcing before the supervisor declares it revived.
    f.rib.add_route("rip", IPv4Net::must_parse("30.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"), 3);
    EXPECT_EQ(f.rib.stale_route_count("rip"), 2u);  // the new add is fresh
    EXPECT_EQ(f.rib.route_count(), 3u);
}

TEST(RibRestart, ResyncSweepsOnlyUnrefreshedRoutes) {
    RibFixture f;
    f.rib.add_route("rip", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"), 3);
    f.rib.add_route("rip", IPv4Net::must_parse("20.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"), 3);
    const uint64_t swept0 = f.rib.swept_route_count("rip");

    f.rib.origin_dead("rip");
    f.rib.origin_revived("rip");
    // The restarted protocol re-advertises 10/8 identically (stamp
    // refresh, silent) but never re-learns 20/8.
    f.rib.add_route("rip", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"), 3);
    EXPECT_EQ(f.rib.stale_route_count("rip"), 1u);

    f.rib.origin_resynced("rip");
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.rib.origin_state("rip") == Rib::OriginState::kFresh; },
        10s));
    EXPECT_EQ(f.rib.swept_route_count("rip") - swept0, 1u);
    EXPECT_EQ(f.rib.stale_route_count("rip"), 0u);
    EXPECT_TRUE(
        f.rib.lookup_exact(IPv4Net::must_parse("10.0.0.0/8")).has_value());
    EXPECT_FALSE(
        f.rib.lookup_exact(IPv4Net::must_parse("20.0.0.0/8")).has_value());
    EXPECT_NE(f.fea.lookup(IPv4::must_parse("10.1.1.1")), nullptr);
    EXPECT_EQ(f.fea.lookup(IPv4::must_parse("20.1.1.1")), nullptr);
}

TEST(RibRestart, GraceExpiryFlushesWholeTable) {
    RibFixture f;
    f.rib.set_grace_period("rip", 5s);
    for (uint32_t i = 1; i <= 50; ++i)
        f.rib.add_route("rip",
                        IPv4Net::must_parse(std::to_string(i) + ".0.0.0/8"),
                        IPv4::must_parse("192.0.2.120"), 3);
    auto* expiries = telemetry::Registry::global().counter(
        telemetry::metric_key("rib_grace_expiries_total",
                              {{"protocol", "rip"}}));
    const uint64_t exp0 = expiries->value();

    f.rib.origin_dead("rip");
    // The restart never happens. After the grace period the whole table
    // detaches into a DeletionStage and drains in the background.
    ASSERT_TRUE(f.loop.run_until([&] { return f.rib.route_count() == 0; },
                                 60s));
    EXPECT_EQ(expiries->value() - exp0, 1u);
    EXPECT_EQ(f.rib.origin_state("rip"), Rib::OriginState::kFresh);
    EXPECT_EQ(f.rib.stale_route_count("rip"), 0u);
    EXPECT_EQ(f.rib.origin_route_count("rip"), 0u);
    EXPECT_EQ(f.fea.lookup(IPv4::must_parse("25.1.1.1")), nullptr);
}

TEST(RibRestart, RevivalCancelsGraceTimer) {
    RibFixture f;
    f.rib.set_grace_period("rip", 5s);
    f.rib.add_route("rip", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"), 3);
    f.rib.origin_dead("rip");
    f.loop.run_for(3s);
    f.rib.origin_revived("rip");
    // Well past the old deadline: the route must still be there.
    f.loop.run_for(30s);
    EXPECT_EQ(f.rib.route_count(), 1u);
    EXPECT_EQ(f.rib.origin_state("rip"), Rib::OriginState::kStale);
    // Resync completes with the route re-confirmed: back to fresh, with
    // the route never having left RIB or FIB.
    f.rib.add_route("rip", IPv4Net::must_parse("10.0.0.0/8"),
                    IPv4::must_parse("192.0.2.120"), 3);
    f.rib.origin_resynced("rip");
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.rib.origin_state("rip") == Rib::OriginState::kFresh; },
        10s));
    EXPECT_EQ(f.rib.route_count(), 1u);
    EXPECT_NE(f.fea.lookup(IPv4::must_parse("10.1.1.1")), nullptr);
}

TEST(RibRestart, RedeathDuringSweepGoesBackToStale) {
    RibFixture f;
    for (uint32_t i = 1; i <= 100; ++i)
        f.rib.add_route("rip",
                        IPv4Net::must_parse(std::to_string(i) + ".0.0.0/8"),
                        IPv4::must_parse("192.0.2.120"), 3);
    f.rib.origin_dead("rip");
    f.rib.origin_revived("rip");
    f.rib.origin_resynced("rip");  // nothing was refreshed: 100 to sweep
    EXPECT_EQ(f.rib.origin_state("rip"), Rib::OriginState::kSweeping);

    // The protocol dies AGAIN mid-sweep. The sweeper aborts; whatever it
    // had not reaped yet is preserved (stale) for the new incarnation.
    f.rib.origin_dead("rip");
    EXPECT_EQ(f.rib.origin_state("rip"), Rib::OriginState::kStale);
    EXPECT_EQ(f.rib.stale_route_count("rip"), f.rib.origin_route_count("rip"));

    // Second restart succeeds and re-confirms everything still present.
    f.rib.origin_revived("rip");
    size_t remaining = 0;
    for (uint32_t i = 1; i <= 100; ++i) {
        IPv4Net net = IPv4Net::must_parse(std::to_string(i) + ".0.0.0/8");
        if (f.rib.lookup_exact(net).has_value()) {
            f.rib.add_route("rip", net, IPv4::must_parse("192.0.2.120"), 3);
            ++remaining;
        }
    }
    f.rib.origin_resynced("rip");
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.rib.origin_state("rip") == Rib::OriginState::kFresh; },
        10s));
    EXPECT_EQ(f.rib.route_count(), remaining);
    EXPECT_EQ(f.rib.stale_route_count("rip"), 0u);
}

TEST(RibRestart, UnknownProtocolIsIgnored) {
    RibFixture f;
    // None of these may crash or disturb anything.
    f.rib.origin_dead("carrier-pigeon");
    f.rib.origin_revived("carrier-pigeon");
    f.rib.origin_resynced("carrier-pigeon");
    f.rib.set_grace_period("carrier-pigeon", 1s);
    EXPECT_EQ(f.rib.origin_state("carrier-pigeon"), Rib::OriginState::kFresh);
    EXPECT_EQ(f.rib.stale_route_count("carrier-pigeon"), 0u);
    EXPECT_EQ(f.rib.route_count(), 0u);
}

// ---- the whole-RIB reference model --------------------------------------
//
// A seeded random walk feeds one Rib adds, deletes and replaces from all
// six origins, scalar and bulk, over prefixes nested from /8 to /32, with
// BGP nexthops that resolve only through IGP routes, and registers
// interest clients as it goes. It also changes admin distances and puts
// origins through graceful restart: death, revival, identical re-adds,
// resync with its stale sweep, and grace expiry with its background
// deletion (each drained before the step's checks). After every step the
// Rib is compared with
// a model computed from the origin inputs alone: per-prefix winner by
// admin distance, external routes resolved by LPM over the internal
// winners (igp_metric included), the query API, the FEA stream replayed
// through a CacheStage (every delete matches an earlier add), and every
// live registration's answer still holding over its whole valid_subnet.

namespace {

class CapturingFea final : public FeaHandle {
public:
    std::vector<stage::RouteBatch4> batches;
    void push_batch(stage::RouteBatch4&& batch) override {
        batches.push_back(std::move(batch));
    }
};

bool is_external(const std::string& proto) {
    return proto == "ebgp" || proto == "ibgp";
}

uint32_t distance_of(const std::string& proto) {
    if (proto == "connected") return Rib::kDistanceConnected;
    if (proto == "static") return Rib::kDistanceStatic;
    if (proto == "ospf") return Rib::kDistanceOspf;
    if (proto == "rip") return Rib::kDistanceRip;
    if (proto == "ebgp") return Rib::kDistanceEbgp;
    return Rib::kDistanceIbgp;
}

// The longest prefix in `table` holding `addr`, by brute force.
const Route4* brute_lpm(const std::map<IPv4Net, Route4>& table, IPv4 addr) {
    const Route4* best = nullptr;
    for (const auto& [net, r] : table)
        if (net.contains(addr) &&
            (best == nullptr || net.prefix_len() > best->net.prefix_len()))
            best = &r;
    return best;
}

// The forwarding table the origin inputs call for.
std::map<IPv4Net, Route4> model_winners(
    const std::map<std::string, std::map<IPv4Net, Route4>>& origins) {
    std::map<IPv4Net, Route4> internal, external;
    for (const auto& [proto, table] : origins) {
        auto& side = is_external(proto) ? external : internal;
        for (const auto& [net, r] : table) {
            auto it = side.find(net);
            if (it == side.end() || stage::route_preferred(r, it->second))
                side[net] = r;
        }
    }
    std::map<IPv4Net, Route4> winners = internal;
    for (const auto& [net, e] : external) {
        const Route4* resolver = brute_lpm(internal, e.nexthop);
        if (resolver == nullptr) continue;
        auto it = winners.find(net);
        if (it != winners.end() && stage::route_preferred(it->second, e))
            continue;
        Route4 r = e;
        r.igp_metric = resolver->metric;
        winners[net] = r;
    }
    return winners;
}

std::string describe(const Route4& r) {
    return r.net.str() + " via " + r.nexthop_set().str() + " metric " +
           std::to_string(r.metric) + " " + r.protocol + "/" +
           std::to_string(r.admin_distance) + " igp " +
           std::to_string(r.igp_metric);
}

IPv4 random_addr_in(const IPv4Net& net, std::mt19937& rng) {
    const uint32_t len = net.prefix_len();
    const uint32_t host_mask = len == 32 ? 0 : (0xffffffffu >> len);
    return IPv4(net.masked_addr().to_host() | (rng() & host_mask));
}

void run_rib_oracle(uint32_t seed) {
    std::mt19937 rng(seed);
    const char* protocols[] = {"connected", "static", "ospf",
                               "rip",       "ebgp",   "ibgp"};

    // Prefixes nested from /8 to /32 under two roots, plus a default route.
    std::vector<IPv4Net> pool = {IPv4Net::must_parse("10.0.0.0/8"),
                                 IPv4Net::must_parse("172.16.0.0/12")};
    while (pool.size() < 28) {
        const IPv4Net& parent = pool[rng() % pool.size()];
        if (parent.prefix_len() == 32) continue;
        const uint32_t len = std::min<uint32_t>(
            32, parent.prefix_len() + 1 + rng() % 8);
        const IPv4Net child(random_addr_in(parent, rng).masked(len), len);
        if (std::find(pool.begin(), pool.end(), child) == pool.end())
            pool.push_back(child);
    }
    pool.push_back(IPv4Net::must_parse("0.0.0.0/0"));

    // Per origin: its routes as pushed, which of them are stale, whether
    // it is dead (routes preserved stale) and whether its grace clock runs.
    std::map<std::string, std::map<IPv4Net, Route4>> origins;
    std::map<std::string, std::set<IPv4Net>> stale;
    std::map<std::string, bool> dead, grace_running;
    std::map<std::string, uint32_t> distance;
    for (const char* p : protocols) distance[p] = distance_of(p);

    auto make_route = [&](const std::string& proto, const IPv4Net& net) {
        Route4 r;
        r.net = net;
        r.metric = 1 + rng() % 20;
        r.admin_distance = distance[proto];
        r.protocol = proto;
        net::NexthopSet4 set;
        const size_t members = rng() % 6 == 0 ? 2 + rng() % 2 : 1;
        for (size_t i = 0; i < members; ++i) {
            IPv4 nh;
            if (!is_external(proto))
                nh = IPv4(0xc0000200u | (1 + rng() % 200));  // 192.0.2.x
            else if (rng() % 5 == 0)
                nh = IPv4(0xcb007100u | (1 + rng() % 200));  // 203.0.113.x
            else
                nh = random_addr_in(pool[rng() % (pool.size() - 1)], rng);
            set.insert(nh, 1 + rng() % 3);
        }
        r.set_nexthops(set);
        return r;
    };

    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    auto fea_owner = std::make_unique<CapturingFea>();
    CapturingFea& fea = *fea_owner;
    Rib rib{loop, std::move(fea_owner)};
    constexpr auto kGrace = std::chrono::seconds(30);
    for (const char* p : protocols) {
        origins[p];
        rib.set_grace_period(p, kGrace);
    }
    // Runs background sweeps and deletions to completion.
    auto drain = [&] {
        return loop.run_until(
            [&] {
                if (loop.background_task_count() != 0) return false;
                for (const char* p : protocols)
                    if (rib.origin_state(p) == Rib::OriginState::kSweeping)
                        return false;
                return true;
            },
            std::chrono::seconds(1));
    };
    auto drop_stale = [&](const std::string& proto) {
        for (const IPv4Net& net : stale[proto]) origins[proto].erase(net);
        stale[proto].clear();
        dead[proto] = false;
        grace_running[proto] = false;
    };

    // The FEA stream, replayed: the checker flags any delete without a
    // matching add; the sink behind it holds the resulting FIB.
    stage::CacheStage<IPv4> replay_check{"fea-replay"};
    stage::SinkStage<IPv4> fib{"fea-fib"};
    replay_check.set_downstream(&fib);
    fib.set_upstream(&replay_check);

    // Live registrations by (client, valid_subnet), with their answers.
    std::map<std::pair<uint64_t, IPv4Net>, Rib::Answer> live;
    uint64_t next_client = 1;

    for (int step = 0; step < 400; ++step) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                     std::to_string(step));
        const uint32_t dice = rng() % 100;
        if (dice < 12) {
            // A new interest client.
            const IPv4 addr =
                rng() % 4 == 0 ? IPv4(rng())
                               : random_addr_in(pool[rng() % pool.size()], rng);
            const uint64_t id = next_client++;
            auto ans = rib.register_interest(
                addr, id, [&live, id](const IPv4Net& subnet) {
                    live.erase({id, subnet});
                });
            ASSERT_TRUE(ans.valid_subnet.contains(addr));
            live[{id, ans.valid_subnet}] = ans;
        } else if (dice < 15 && !live.empty()) {
            auto it = live.begin();
            std::advance(it, rng() % live.size());
            rib.unregister_interest(it->first.second, it->first.first);
            live.erase(it);
        } else if (dice < 17) {
            // Applies to the protocol's routes pushed from now on.
            const uint32_t choices[] = {0, 1, 20, 60, 110, 120, 200};
            const std::string proto = protocols[rng() % 6];
            distance[proto] = choices[rng() % 7];
            rib.set_admin_distance(proto, distance[proto]);
        } else if (dice < 20) {
            const std::string proto = protocols[rng() % 6];
            rib.origin_dead(proto);
            stale[proto].clear();
            for (const auto& [net, r] : origins[proto]) stale[proto].insert(net);
            dead[proto] = true;
            grace_running[proto] = true;
        } else if (dice < 22) {
            const std::string proto = protocols[rng() % 6];
            rib.origin_revived(proto);
            if (dead[proto]) grace_running[proto] = false;
        } else if (dice < 25) {
            const std::string proto = protocols[rng() % 6];
            rib.origin_resynced(proto);
            ASSERT_TRUE(drain());
            if (dead[proto]) drop_stale(proto);
        } else if (dice < 28) {
            // A restarted protocol re-announcing part of its table: an
            // identical route only refreshes its stamp.
            const std::string proto = protocols[rng() % 6];
            stage::RouteBatch4 batch;
            for (auto& [net, r] : origins[proto]) {
                if (rng() % 2 == 0) continue;
                batch.add(net, r.nexthop_set(), r.metric);
                r.admin_distance = distance[proto];
                stale[proto].erase(net);
            }
            ASSERT_TRUE(rib.push_batch(proto, std::move(batch)));
        } else if (dice < 30) {
            // Every running grace clock expires.
            loop.run_for(kGrace + std::chrono::seconds(1));
            ASSERT_TRUE(drain());
            for (const char* p : protocols)
                if (dead[p] && grace_running[p]) drop_stale(p);
        } else {
            const std::string proto = protocols[rng() % 6];
            auto& table = origins[proto];
            const bool bulk = rng() % 2 == 0;
            const size_t n = bulk ? 1 + rng() % 8 : 1;
            stage::RouteBatch4 batch;
            for (size_t i = 0; i < n; ++i) {
                const IPv4Net& net = pool[rng() % pool.size()];
                const uint32_t op = rng() % 10;
                stale[proto].erase(net);
                if (op < 6) {
                    Route4 r = make_route(proto, net);
                    table[net] = r;
                    if (bulk) {
                        batch.add(net, r.nexthop_set(), r.metric);
                    } else {
                        ASSERT_TRUE(rib.add_route(proto, net, r.nexthop_set(),
                                                  r.metric));
                    }
                } else if (op < 8 || !bulk) {
                    table.erase(net);
                    if (bulk) {
                        batch.del(net);
                    } else {
                        ASSERT_TRUE(rib.delete_route(proto, net));
                    }
                } else {
                    Route4 old_route;
                    old_route.net = net;
                    Route4 r = make_route(proto, net);
                    table[net] = r;
                    Route4 wire;
                    wire.net = net;
                    wire.set_nexthops(r.nexthop_set());
                    wire.metric = r.metric;
                    batch.replace(std::move(old_route), std::move(wire));
                }
            }
            if (bulk) {
                ASSERT_TRUE(rib.push_batch(proto, std::move(batch)));
            }
        }

        const auto winners = model_winners(origins);
        for (const char* p : protocols) {
            ASSERT_EQ(rib.origin_route_count(p), origins[p].size()) << p;
            ASSERT_EQ(rib.stale_route_count(p), stale[p].size()) << p;
        }

        // The FEA stream.
        for (auto& b : fea.batches)
            replay_check.push_batch(std::move(b), nullptr);
        fea.batches.clear();
        ASSERT_TRUE(replay_check.consistent())
            << replay_check.violations().front();
        ASSERT_EQ(fib.route_count(), winners.size());
        for (const auto& [net, r] : winners) {
            const Route4* got = fib.table().find(net);
            ASSERT_NE(got, nullptr) << net.str();
            ASSERT_TRUE(*got == r) << describe(*got) << " != " << describe(r);
        }

        // The query API.
        ASSERT_EQ(rib.route_count(), winners.size());
        for (const IPv4Net& net : pool) {
            auto got = rib.lookup_exact(net);
            auto want = winners.find(net);
            ASSERT_EQ(got.has_value(), want != winners.end()) << net.str();
            if (got) {
                ASSERT_TRUE(*got == want->second)
                    << describe(*got) << " != " << describe(want->second);
            }
            for (int k = 0; k < 2; ++k) {
                const IPv4 addr = random_addr_in(net, rng);
                auto hit = rib.lookup(addr);
                const Route4* model = brute_lpm(winners, addr);
                ASSERT_EQ(hit.has_value(), model != nullptr) << addr.str();
                if (hit) {
                    ASSERT_TRUE(*hit == *model)
                        << addr.str() << ": " << describe(*hit)
                        << " != " << describe(*model);
                }
            }
        }

        // Every live registration still holds over its whole subnet: no
        // winner inside it, and the covering winner is the one answered.
        for (const auto& [key, answer] : live) {
            const IPv4Net& subnet = key.second;
            for (const auto& [net, r] : winners)
                ASSERT_FALSE(subnet.contains(net) &&
                             net.prefix_len() > subnet.prefix_len())
                    << net.str() << " changed inside " << subnet.str()
                    << " without an invalidation";
            const Route4* cover = brute_lpm(winners, subnet.masked_addr());
            if (cover != nullptr && !cover->net.contains(subnet))
                cover = nullptr;
            ASSERT_EQ(answer.resolves, cover != nullptr)
                << subnet.str() << " answer went stale";
            if (cover != nullptr) {
                ASSERT_EQ(answer.matched_net, cover->net);
                ASSERT_EQ(answer.nexthop, cover->nexthop);
                ASSERT_EQ(answer.metric, cover->metric);
            }
        }
        ASSERT_EQ(rib.registration_count() >= 1, !live.empty());
    }
}

}  // namespace

TEST(RibOracle, MatchesBruteForceModelSeed1) { run_rib_oracle(1); }
TEST(RibOracle, MatchesBruteForceModelSeed2) { run_rib_oracle(2); }
TEST(RibOracle, MatchesBruteForceModelSeed3) { run_rib_oracle(3); }
TEST(RibOracle, MatchesBruteForceModelSeed4) { run_rib_oracle(4); }
