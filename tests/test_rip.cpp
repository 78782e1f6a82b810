// Tests for RIP: packet codec, route database timer dance, and full
// multi-router convergence over the virtual network — including the
// event-driven link-failure reaction the paper contrasts with scanners.
#include <gtest/gtest.h>

#include "rip/rip.hpp"

using namespace xrp;
using namespace xrp::rip;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;

TEST(RipPacket, ResponseRoundTrip) {
    RipPacket p;
    p.command = Command::kResponse;
    p.entries.push_back(
        {2, 7, IPv4Net::must_parse("10.0.0.0/8"), IPv4::any(), 3});
    p.entries.push_back({2, 0, IPv4Net::must_parse("192.168.1.0/24"),
                         IPv4::must_parse("10.0.0.9"), 16});
    auto bytes = encode_packet(p);
    EXPECT_EQ(bytes.size(), 4u + 2 * 20);
    auto back = decode_packet(bytes.data(), bytes.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
}

TEST(RipPacket, WholeTableRequest) {
    RipPacket req = RipPacket::whole_table_request();
    EXPECT_TRUE(req.is_whole_table_request());
    auto bytes = encode_packet(req);
    auto back = decode_packet(bytes.data(), bytes.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->is_whole_table_request());
}

TEST(RipPacket, DecodeRejectsMalformed) {
    std::vector<uint8_t> tiny = {2, 2, 0};
    EXPECT_FALSE(decode_packet(tiny.data(), tiny.size()).has_value());
    RipPacket p;
    p.entries.push_back({2, 0, IPv4Net::must_parse("10.0.0.0/8"),
                         IPv4::any(), 1});
    auto bytes = encode_packet(p);
    bytes[1] = 1;  // RIPv1
    EXPECT_FALSE(decode_packet(bytes.data(), bytes.size()).has_value());
    bytes[1] = 2;
    bytes.pop_back();  // truncated entry
    EXPECT_FALSE(decode_packet(bytes.data(), bytes.size()).has_value());
    // Non-contiguous mask.
    auto bytes2 = encode_packet(p);
    bytes2[4 + 8 + 3] = 0x01;
    EXPECT_FALSE(decode_packet(bytes2.data(), bytes2.size()).has_value());
}

namespace {

struct DbFixture {
    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    std::vector<std::pair<bool, std::string>> events;
    RouteDb db{loop,
               RouteDb::Timers{10s, 5s},
               [this](bool add, const RipRoute& r) {
                   events.emplace_back(add, r.net.str());
               }};
    IPv4Net net10 = IPv4Net::must_parse("10.0.0.0/8");
    IPv4 n1 = IPv4::must_parse("192.168.1.1");
    IPv4 n2 = IPv4::must_parse("192.168.1.2");
};

}  // namespace

TEST(RipRouteDb, LearnRefreshTimeout) {
    DbFixture f;
    EXPECT_TRUE(f.db.update(f.net10, f.n1, "eth0", 2, 0));
    EXPECT_EQ(f.db.live_count(), 1u);
    // Refresh keeps it alive past the original timeout.
    f.loop.run_for(6s);
    EXPECT_TRUE(f.db.update(f.net10, f.n1, "eth0", 2, 0) == false);
    f.loop.run_for(6s);
    EXPECT_EQ(f.db.live_count(), 1u);  // refreshed at t=6, expires at t=16
    // Now let it expire.
    f.loop.run_for(11s);
    EXPECT_EQ(f.db.live_count(), 0u);
    ASSERT_GE(f.events.size(), 2u);
    EXPECT_FALSE(f.events.back().first);  // withdrawal
    // After GC the entry disappears entirely.
    f.loop.run_for(6s);
    EXPECT_EQ(f.db.size(), 0u);
}

TEST(RipRouteDb, BetterMetricFromOtherNeighborWins) {
    DbFixture f;
    f.db.update(f.net10, f.n1, "eth0", 5, 0);
    EXPECT_FALSE(f.db.update(f.net10, f.n2, "eth1", 7, 0));  // worse: ignore
    EXPECT_EQ(f.db.find(f.net10)->nexthop, f.n1);
    EXPECT_TRUE(f.db.update(f.net10, f.n2, "eth1", 3, 0));  // better: adopt
    EXPECT_EQ(f.db.find(f.net10)->nexthop, f.n2);
    EXPECT_EQ(f.db.find(f.net10)->metric, 3u);
}

TEST(RipRouteDb, SameSourceWorseMetricBelieved) {
    DbFixture f;
    f.db.update(f.net10, f.n1, "eth0", 3, 0);
    EXPECT_TRUE(f.db.update(f.net10, f.n1, "eth0", 9, 0));
    EXPECT_EQ(f.db.find(f.net10)->metric, 9u);
}

TEST(RipRouteDb, InfinityFromSourceExpiresRoute) {
    DbFixture f;
    f.db.update(f.net10, f.n1, "eth0", 3, 0);
    EXPECT_TRUE(f.db.update(f.net10, f.n1, "eth0", kInfinity, 0));
    EXPECT_EQ(f.db.live_count(), 0u);
    // A different neighbour can rescue the dying route.
    EXPECT_TRUE(f.db.update(f.net10, f.n2, "eth1", 4, 0));
    EXPECT_EQ(f.db.live_count(), 1u);
}

TEST(RipRouteDb, PermanentRoutesNeverExpire) {
    DbFixture f;
    f.db.originate(f.net10, 1);
    f.loop.run_for(60s);
    EXPECT_EQ(f.db.live_count(), 1u);
    // Learned updates don't displace our own route.
    EXPECT_FALSE(f.db.update(f.net10, f.n1, "eth0", 1, 0));
    EXPECT_TRUE(f.db.withdraw(f.net10));
    EXPECT_EQ(f.db.live_count(), 0u);
}

TEST(RipRouteDb, InterfaceExpiry) {
    DbFixture f;
    f.db.update(f.net10, f.n1, "eth0", 3, 0);
    f.db.update(IPv4Net::must_parse("20.0.0.0/8"), f.n2, "eth1", 3, 0);
    f.db.expire_interface_routes("eth0");
    EXPECT_EQ(f.db.live_count(), 1u);
    EXPECT_NE(f.db.find(IPv4Net::must_parse("20.0.0.0/8")), nullptr);
}

// ---- full protocol over the virtual network ----------------------------

namespace {

// A row of RIP routers on a chain of links:
//   r0 --(10.0.1.0/24)-- r1 --(10.0.2.0/24)-- r2 ...
struct RipChain {
    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    fea::VirtualNetwork network{1ms};
    std::vector<std::unique_ptr<fea::Fea>> feas;
    std::vector<std::unique_ptr<rib::Rib>> ribs;
    std::vector<std::unique_ptr<RipProcess>> rips;
    std::vector<int> links;

    explicit RipChain(int n) {
        RipProcess::Config cfg;
        cfg.update_interval = 30s;
        cfg.timeout = 180s;
        cfg.gc = 120s;
        for (int i = 0; i < n; ++i) {
            feas.push_back(std::make_unique<fea::Fea>(loop));
            ribs.push_back(std::make_unique<rib::Rib>(
                loop, std::make_unique<rib::DirectFeaHandle>(*feas.back())));
            rips.push_back(std::make_unique<RipProcess>(
                loop, *feas[static_cast<size_t>(i)], cfg,
                std::make_unique<rib::DirectRibClient>(*ribs.back())));
        }
        for (int l = 0; l < n - 1; ++l) {
            int link = network.add_link();
            links.push_back(link);
            // Left router gets .1, right router .2 on subnet 10.0.<l+1>/24.
            uint32_t subnet = (10u << 24) | (static_cast<uint32_t>(l + 1) << 8);
            feas[static_cast<size_t>(l)]->interfaces().add_interface(
                "right", IPv4(subnet | 1), 24);
            feas[static_cast<size_t>(l) + 1]->interfaces().add_interface(
                "left", IPv4(subnet | 2), 24);
            feas[static_cast<size_t>(l)]->attach_to_network(&network, link,
                                                            "right");
            feas[static_cast<size_t>(l) + 1]->attach_to_network(&network,
                                                                link, "left");
            rips[static_cast<size_t>(l)]->enable_interface("right");
            rips[static_cast<size_t>(l) + 1]->enable_interface("left");
        }
    }
};

}  // namespace

TEST(RipProtocol, TwoRoutersExchangeTables) {
    RipChain chain(2);
    chain.rips[0]->originate(IPv4Net::must_parse("172.16.0.0/16"), 1);
    ASSERT_TRUE(chain.loop.run_until(
        [&] {
            return chain.rips[1]->find_route(
                       IPv4Net::must_parse("172.16.0.0/16")) != nullptr;
        },
        60s));
    const RipRoute* r =
        chain.rips[1]->find_route(IPv4Net::must_parse("172.16.0.0/16"));
    EXPECT_EQ(r->metric, 2u);
    // And it made it into r1's RIB and FIB.
    auto rib_route =
        chain.ribs[1]->lookup_exact(IPv4Net::must_parse("172.16.0.0/16"));
    ASSERT_TRUE(rib_route.has_value());
    EXPECT_EQ(rib_route->protocol, "rip");
    EXPECT_NE(chain.feas[1]->lookup(IPv4::must_parse("172.16.5.5")), nullptr);
}

TEST(RipProtocol, MetricsAccumulateAlongChain) {
    RipChain chain(4);
    chain.rips[0]->originate(IPv4Net::must_parse("172.16.0.0/16"), 1);
    ASSERT_TRUE(chain.loop.run_until(
        [&] {
            return chain.rips[3]->find_route(
                       IPv4Net::must_parse("172.16.0.0/16")) != nullptr;
        },
        120s));
    EXPECT_EQ(
        chain.rips[3]->find_route(IPv4Net::must_parse("172.16.0.0/16"))->metric,
        4u);
}

TEST(RipProtocol, ConvergenceIsTriggeredNotPeriodic) {
    // With a 30s periodic timer, end-to-end convergence across 3 hops via
    // periodic updates alone would take tens of (virtual) seconds; with
    // whole-table requests at enable time and triggered updates it
    // happens in well under one update interval.
    RipChain chain(4);
    auto start = chain.loop.now();
    chain.rips[0]->originate(IPv4Net::must_parse("172.16.0.0/16"), 1);
    ASSERT_TRUE(chain.loop.run_until(
        [&] {
            return chain.rips[3]->find_route(
                       IPv4Net::must_parse("172.16.0.0/16")) != nullptr;
        },
        120s));
    auto elapsed = chain.loop.now() - start;
    EXPECT_LT(elapsed, 5s) << "convergence leaned on the periodic timer";
}

TEST(RipProtocol, LinkFailureWithdrawsRoutes) {
    RipChain chain(3);
    chain.rips[0]->originate(IPv4Net::must_parse("172.16.0.0/16"), 1);
    ASSERT_TRUE(chain.loop.run_until(
        [&] {
            return chain.rips[2]->find_route(
                       IPv4Net::must_parse("172.16.0.0/16")) != nullptr;
        },
        120s));

    // Cut the r0-r1 link: r1 must expire the route immediately (event-
    // driven) and poison it to r2.
    chain.network.set_link_up(chain.links[0], false);
    ASSERT_TRUE(chain.loop.run_until(
        [&] {
            const RipRoute* r = chain.rips[2]->find_route(
                IPv4Net::must_parse("172.16.0.0/16"));
            return r == nullptr || r->deleting;
        },
        30s));
    // The RIB entries follow.
    EXPECT_FALSE(chain.ribs[2]
                     ->lookup_exact(IPv4Net::must_parse("172.16.0.0/16"))
                     .has_value());
}

TEST(RipProtocol, LinkRecoveryRelearns) {
    RipChain chain(2);
    chain.rips[0]->originate(IPv4Net::must_parse("172.16.0.0/16"), 1);
    ASSERT_TRUE(chain.loop.run_until(
        [&] {
            return chain.rips[1]->route_count() >= 2;
        },
        60s));
    chain.network.set_link_up(chain.links[0], false);
    ASSERT_TRUE(chain.loop.run_until(
        [&] {
            return chain.rips[1]->find_route(
                       IPv4Net::must_parse("172.16.0.0/16")) == nullptr ||
                   chain.rips[1]
                       ->find_route(IPv4Net::must_parse("172.16.0.0/16"))
                       ->deleting;
        },
        30s));
    chain.network.set_link_up(chain.links[0], true);
    ASSERT_TRUE(chain.loop.run_until(
        [&] {
            const RipRoute* r = chain.rips[1]->find_route(
                IPv4Net::must_parse("172.16.0.0/16"));
            return r != nullptr && !r->deleting;
        },
        60s));
}

TEST(RipProtocol, SplitHorizonPoisonsReverse) {
    RipChain chain(2);
    chain.rips[0]->originate(IPv4Net::must_parse("172.16.0.0/16"), 1);
    ASSERT_TRUE(chain.loop.run_until(
        [&] {
            return chain.rips[1]->find_route(
                       IPv4Net::must_parse("172.16.0.0/16")) != nullptr;
        },
        60s));
    // Run several periodic cycles: r0 must never learn its own route back
    // from r1 with a higher metric (count-to-infinity guard).
    chain.loop.run_for(120s);
    const RipRoute* r =
        chain.rips[0]->find_route(IPv4Net::must_parse("172.16.0.0/16"));
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->permanent);
    EXPECT_EQ(r->metric, 1u);
}
