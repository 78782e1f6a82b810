// Tests for the RIB process: admin-distance arbitration through the
// merge tree, ExtInt nexthop gating, redistribution, Figure-8 interest
// registration with invalidation, the FEA feed, and the graceful-restart
// state machine (origin death / revival / resync / grace expiry).
#include <gtest/gtest.h>

#include <algorithm>

#include "ev/eventloop.hpp"
#include "rib/rib.hpp"
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
