// Integration tests: the whole control plane assembled the way the paper
// deploys it — FEA, RIB, RIP, BGP as separate components coupled ONLY by
// XRLs through a Finder — plus the Router Manager's config/commit logic.
#include <gtest/gtest.h>

#include "harness.hpp"
#include "rtrmgr/rtrmgr.hpp"

using namespace xrp;
using namespace xrp::rtrmgr;
using namespace std::chrono_literals;
using harness::converge_fib;
using harness::converge_no_route;
using harness::converge_route;
using net::IPv4;
using net::IPv4Net;

TEST(ConfigTree, ParseAndRoundTrip) {
    const char* text = R"(
        # full router config
        interfaces {
            eth0 { address 192.0.2.1/24; }
            eth1 { address 10.0.1.1/24; }
        }
        protocols {
            static {
                route 172.16.0.0/16 { nexthop 192.0.2.254; }
            }
            rip { interface eth1; }
            bgp {
                local-as 1777;
                bgp-id 192.0.2.1;
            }
        }
    )";
    std::string err;
    auto tree = ConfigTree::parse(text, &err);
    ASSERT_TRUE(tree.has_value()) << err;

    const ConfigNode* bgp = tree->find("protocols/bgp");
    ASSERT_NE(bgp, nullptr);
    EXPECT_EQ(bgp->leaf_value("local-as"), "1777");
    const ConfigNode* eth0 = tree->find("interfaces/eth0");
    ASSERT_NE(eth0, nullptr);
    EXPECT_EQ(eth0->leaf_value("address"), "192.0.2.1/24");
    const ConfigNode* rt =
        tree->find("protocols/static")->find("route", "172.16.0.0/16");
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->leaf_value("nexthop"), "192.0.2.254");

    // Round-trip: parse(str(tree)) == tree.
    auto again = ConfigTree::parse(tree->str(), &err);
    ASSERT_TRUE(again.has_value()) << err;
    EXPECT_EQ(*again, *tree);
}

TEST(ConfigTree, ParseErrors) {
    std::string err;
    EXPECT_FALSE(ConfigTree::parse("a { b", &err).has_value());
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(ConfigTree::parse("a { b; ", &err).has_value());
    EXPECT_NE(err.find("missing '}'"), std::string::npos);
    EXPECT_FALSE(ConfigTree::parse("}", &err).has_value());
    EXPECT_FALSE(ConfigTree::parse("a b c", &err).has_value());
    EXPECT_FALSE(ConfigTree::parse("{ a; }", &err).has_value());
    EXPECT_TRUE(ConfigTree::parse("", &err).has_value());
}

// Hostile input: 200k unclosed blocks, one per line. The parser recurses
// once per '{', so without a depth cap this overflows the stack.
TEST(ConfigTree, DeepNestingIsALineNumberedError) {
    std::string text;
    for (int i = 0; i < 200000; ++i) text += "a{\n";
    std::string err;
    EXPECT_FALSE(ConfigTree::parse(text, &err).has_value());
    EXPECT_NE(err.find("nested deeper than"), std::string::npos) << err;
    EXPECT_EQ(err.rfind("line 65:", 0), 0u) << err;
    // The same on one line (400 KB of "a{").
    std::string flat;
    for (int i = 0; i < 200000; ++i) flat += "a{";
    EXPECT_FALSE(ConfigTree::parse(flat, &err).has_value());
    EXPECT_EQ(err.rfind("line 1:", 0), 0u) << err;

    // The cap itself still parses.
    std::string ok;
    for (int i = 0; i < 64; ++i) ok += "a{";
    ok += "b;";
    for (int i = 0; i < 64; ++i) ok += "}";
    EXPECT_TRUE(ConfigTree::parse(ok, &err).has_value()) << err;
}

TEST(RouterManager, ConfigureBuildsWorkingRouter) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Router router("r1", loop);
    ASSERT_TRUE(harness::configure(router, R"(
        interfaces {
            eth0 { address 192.0.2.1/24; }
        }
        protocols {
            static { route 10.0.0.0/8 { nexthop 192.0.2.254; } }
        }
    )"));
    // The static route travels rtrmgr -> RIB -> FEA entirely over XRLs
    // (plus eth0's connected route). run_until, not run_for: under the CI
    // chaos pass those XRLs may be dropped and re-sent on a retry timer.
    ASSERT_TRUE(loop.run_until(
        [&] {
            return router.rib().route_count() == 2u &&
                   router.fea().lookup(IPv4::must_parse("10.1.2.3")) !=
                       nullptr;
        },
        60s));
    EXPECT_TRUE(router.rib()
                    .lookup_exact(IPv4Net::must_parse("192.0.2.0/24"))
                    .has_value());
    const fea::FibEntry* e = router.fea().lookup(IPv4::must_parse("10.1.2.3"));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->nexthop.str(), "192.0.2.254");
}

TEST(RouterManager, ValidationRejectsWithoutSideEffects) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Router router("r1", loop);
    std::string err;
    EXPECT_FALSE(router.configure("bananas { }", &err));
    EXPECT_NE(err.find("unknown section"), std::string::npos);
    EXPECT_FALSE(router.configure(
        "protocols { static { route 10.0.0.0/8 { } } }", &err));
    EXPECT_NE(err.find("nexthop"), std::string::npos);
    EXPECT_FALSE(router.configure(
        "interfaces { eth0 { address banana; } }", &err));
    loop.run_for(50ms);
    EXPECT_EQ(router.rib().route_count(), 0u);
    EXPECT_EQ(router.fea().interfaces().size(), 0u);
}

TEST(RouterManager, ReconfigureDiffsStaticRoutes) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Router router("r1", loop);
    ASSERT_TRUE(harness::configure(router, R"(
        interfaces { eth0 { address 192.0.2.1/24; } }
        protocols { static {
            route 10.0.0.0/8 { nexthop 192.0.2.254; }
            route 20.0.0.0/8 { nexthop 192.0.2.254; }
        } }
    )"));
    ASSERT_TRUE(loop.run_until(  // chaos-safe: see above
        [&] { return router.rib().route_count() == 3u; }, 60s));

    // New config drops one route, adds another, keeps one.
    ASSERT_TRUE(harness::configure(router, R"(
        interfaces { eth0 { address 192.0.2.1/24; } }
        protocols { static {
            route 20.0.0.0/8 { nexthop 192.0.2.254; }
            route 30.0.0.0/8 { nexthop 192.0.2.254; }
        } }
    )"));
    ASSERT_TRUE(loop.run_until(
        [&] {
            return router.rib().route_count() == 3u &&
                   !router.rib().lookup_exact(
                       IPv4Net::must_parse("10.0.0.0/8")) &&
                   router.rib()
                       .lookup_exact(IPv4Net::must_parse("30.0.0.0/8"))
                       .has_value();
        },
        60s));
}

TEST(RouterManager, RollbackRestoresPreviousConfig) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Router router("r1", loop);
    std::string err;
    ASSERT_TRUE(harness::configure(router, R"(
        interfaces { eth0 { address 192.0.2.1/24; } }
        protocols { static { route 10.0.0.0/8 { nexthop 192.0.2.254; } } }
    )"));
    // chaos-safe: see above
    ASSERT_TRUE(converge_route(loop, router, IPv4Net::must_parse("10.0.0.0/8")));
    ASSERT_TRUE(harness::configure(router, R"(
        interfaces { eth0 { address 192.0.2.1/24; } }
        protocols { static { route 20.0.0.0/8 { nexthop 192.0.2.254; } } }
    )"));
    // Wait for the FULL second config to land, not just the deletion:
    // rolling back while the 20/8 add is still in flight (dropped and
    // awaiting a retry under the chaos pass) would let it land after the
    // rollback's delete and resurrect the route.
    ASSERT_TRUE(loop.run_until(
        [&] {
            return !router.rib().lookup_exact(
                       IPv4Net::must_parse("10.0.0.0/8")) &&
                   router.rib()
                       .lookup_exact(IPv4Net::must_parse("20.0.0.0/8"))
                       .has_value();
        },
        60s));

    ASSERT_TRUE(router.rollback(&err)) << err;
    ASSERT_TRUE(loop.run_until(
        [&] {
            return router.rib()
                       .lookup_exact(IPv4Net::must_parse("10.0.0.0/8"))
                       .has_value() &&
                   !router.rib().lookup_exact(
                       IPv4Net::must_parse("20.0.0.0/8"));
        },
        60s));
}

TEST(RouterManager, TwoRoutersRunRipOverVirtualNetwork) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    fea::VirtualNetwork network(1ms);
    Router r1("r1", loop), r2("r2", loop);
    // Bring the base config up first, install the redistribution tap,
    // then commit the static route so it flows through the tap.
    ASSERT_TRUE(harness::configure(r1, R"(
        interfaces { eth0 { address 10.0.1.1/24; } }
        protocols { rip { interface eth0; } }
    )"));
    ASSERT_TRUE(harness::configure(r2, R"(
        interfaces { eth0 { address 10.0.1.2/24; } }
        protocols { rip { interface eth0; } }
    )"));
    int link = network.add_link();
    r1.attach_link(network, link, "eth0");
    r2.attach_link(network, link, "eth0");
    // Redistribute r1's static routes into RIP via the RIB's redist tap.
    r1.rib().add_redist(
        [](const rib::Route4& r) { return r.protocol == "static"; },
        [&](bool add, const rib::Route4& r) {
            if (add)
                r1.rip().originate(r.net, 1);
            else
                r1.rip().withdraw(r.net);
        });
    ASSERT_TRUE(harness::configure(r1, R"(
        interfaces { eth0 { address 10.0.1.1/24; } }
        protocols {
            static { route 172.16.0.0/16 { nexthop 10.0.1.99; } }
            rip { interface eth0; }
        }
    )"));

    ASSERT_TRUE(
        converge_route(loop, r2, IPv4Net::must_parse("172.16.0.0/16")));
    ASSERT_TRUE(converge_fib(loop, r2, IPv4::must_parse("172.16.1.1")));
    auto got = r2.rib().lookup_exact(IPv4Net::must_parse("172.16.0.0/16"));
    EXPECT_EQ(got->protocol, "rip");
    // All the way into r2's forwarding plane.
    EXPECT_NE(r2.fea().lookup(IPv4::must_parse("172.16.1.1")), nullptr);
}

TEST(RouterManager, TwoRoutersRunBgpWithXrlCoupledRibs) {
    // Full stack: BGP session between two managed routers; learned routes
    // flow BGP --XRL--> RIB --XRL--> FEA on the receiving side, with
    // nexthop resolution bouncing through the Figure-8 registration.
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Router r1("r1", loop), r2("r2", loop);
    ASSERT_TRUE(harness::configure(r1, R"(
        interfaces { eth0 { address 192.0.2.1/24; } }
        protocols {
            bgp {
                local-as 1777;
                bgp-id 192.0.2.1;
                network 10.0.0.0/8;
            }
        }
    )"));
    ASSERT_TRUE(harness::configure(r2, R"(
        interfaces { eth0 { address 192.0.2.2/24; } }
        protocols {
            static { route 192.0.2.0/24 { nexthop 192.0.2.2; } }
            bgp {
                local-as 3561;
                bgp-id 192.0.2.2;
            }
        }
    )"));
    Router::connect_bgp(r1, r2);

    ASSERT_TRUE(converge_route(loop, r2, IPv4Net::must_parse("10.0.0.0/8")));
    auto got = r2.rib().lookup_exact(IPv4Net::must_parse("10.0.0.0/8"));
    EXPECT_EQ(got->protocol, "ebgp");
    EXPECT_EQ(got->nexthop.str(), "192.0.2.1");
    // And into r2's FIB.
    ASSERT_TRUE(converge_fib(loop, r2, IPv4::must_parse("10.1.1.1"), 10s));

    // Withdrawal propagates all the way back out of the FIB.
    r1.bgp()->withdraw(IPv4Net::must_parse("10.0.0.0/8"));
    ASSERT_TRUE(loop.run_until(
        [&] { return r2.fea().lookup(IPv4::must_parse("10.1.1.1")) == nullptr; },
        60s));
}

TEST(RouterManager, OspfConfigValidationRejectsBadInput) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Router router("r1", loop);
    std::string err;
    EXPECT_FALSE(router.configure(
        "protocols { ospf { router-id banana; } }", &err));
    EXPECT_NE(err.find("router-id"), std::string::npos);
    EXPECT_FALSE(router.configure(
        "protocols { ospf { flood-rate 5; } }", &err));
    EXPECT_NE(err.find("unknown statement"), std::string::npos);
    EXPECT_FALSE(router.configure(
        "protocols { ospf { interface eth0 { cost 0; } } }", &err));
    EXPECT_NE(err.find("ospf"), std::string::npos);
    // Nothing was applied.
    EXPECT_EQ(router.ospf().neighbor_count(), 0u);
    EXPECT_EQ(router.fea().interfaces().size(), 0u);
}

TEST(RouterManager, OspfRouterIdChangeRejectedWhileInterfacesRun) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Router router("r1", loop);
    std::string err;
    const char* base = R"(
        interfaces { eth0 { address 10.0.1.1/24; } }
        protocols { ospf { router-id 1.1.1.1; interface eth0; } }
    )";
    ASSERT_TRUE(router.configure(base, &err)) << err;
    // Re-committing the same id is a no-op.
    EXPECT_TRUE(router.configure(base, &err)) << err;
    // The identity cannot change while interfaces are running — LSAs
    // already flooded under the old id can't be recalled. The commit must
    // fail loudly, not report success while keeping the old id.
    EXPECT_FALSE(router.configure(R"(
        interfaces { eth0 { address 10.0.1.1/24; } }
        protocols { ospf { router-id 9.9.9.9; interface eth0; } }
    )",
                                  &err));
    EXPECT_NE(err.find("router-id"), std::string::npos);
    EXPECT_EQ(router.ospf().router_id().str(), "1.1.1.1");
}

TEST(RouterManager, EveryInTreeRouteSenderUsesTheBulkVerbs) {
    // Connected, static, OSPF and BGP routes, and one static re-commit,
    // all reach the RIB and the FEA as add_routes_bulk /
    // add_routes4_bulk. The text pair is for scripts only: no in-tree
    // sender may move its call counters.
    auto calls = [](const char* method) {
        return harness::ctr(
            telemetry::metric_key("xrl_calls_total", {{"method", method}}));
    };
    auto text_calls = [&] {
        return calls("rib/1.0/add_route") + calls("rib/1.0/delete_route") +
               calls("fea/1.0/add_route4") + calls("fea/1.0/delete_route4");
    };
    const uint64_t text0 = text_calls();
    const uint64_t rib0 = calls("rib/1.0/add_routes_bulk");
    const uint64_t fea0 = calls("fea/1.0/add_routes4_bulk");

    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    fea::VirtualNetwork network(1ms);
    Router r1("r1", loop), r2("r2", loop);
    ASSERT_TRUE(harness::configure(r1, R"(
        interfaces {
            eth0 { address 10.0.1.1/24; }
            eth1 { address 172.16.1.1/24; }
        }
        protocols {
            static { route 10.9.0.0/16 { nexthop 10.0.1.2; } }
            ospf { router-id 1.1.1.1; interface eth0; interface eth1; }
            bgp { local-as 1777; bgp-id 10.0.1.1; network 10.50.0.0/16; }
        }
    )"));
    ASSERT_TRUE(harness::configure(r2, R"(
        interfaces { eth0 { address 10.0.1.2/24; } }
        protocols {
            ospf { router-id 2.2.2.2; interface eth0; }
            bgp { local-as 3561; bgp-id 10.0.1.2; }
        }
    )"));
    int link = network.add_link();
    r1.attach_link(network, link, "eth0");
    r2.attach_link(network, link, "eth0");
    Router::connect_bgp(r1, r2);

    ASSERT_TRUE(converge_fib(loop, r1, IPv4::must_parse("10.9.1.1")));
    ASSERT_TRUE(converge_fib(loop, r2, IPv4::must_parse("172.16.1.9"), 120s));
    ASSERT_TRUE(converge_fib(loop, r2, IPv4::must_parse("10.50.1.1")));
    EXPECT_EQ(r2.rib().lookup_exact(IPv4Net::must_parse("172.16.1.0/24"))
                  ->protocol,
              "ospf");
    EXPECT_EQ(
        r2.rib().lookup_exact(IPv4Net::must_parse("10.50.0.0/16"))->protocol,
        "ebgp");

    // Re-commit: one static route moves to a new nexthop, one is added.
    ASSERT_TRUE(harness::configure(r1, R"(
        interfaces {
            eth0 { address 10.0.1.1/24; }
            eth1 { address 172.16.1.1/24; }
        }
        protocols {
            static {
                route 10.9.0.0/16 { nexthop 10.0.1.3; }
                route 10.8.0.0/16 { nexthop 10.0.1.2; }
            }
            ospf { router-id 1.1.1.1; interface eth0; interface eth1; }
            bgp { local-as 1777; bgp-id 10.0.1.1; network 10.50.0.0/16; }
        }
    )"));
    ASSERT_TRUE(loop.run_until(
        [&] {
            const fea::FibEntry* moved =
                r1.fea().lookup(IPv4::must_parse("10.9.1.1"));
            return moved != nullptr &&
                   moved->nexthop == IPv4::must_parse("10.0.1.3") &&
                   r1.fea().lookup(IPv4::must_parse("10.8.1.1")) != nullptr;
        },
        60s));

    EXPECT_EQ(text_calls() - text0, 0u);
    EXPECT_GT(calls("rib/1.0/add_routes_bulk") - rib0, 0u);
    EXPECT_GT(calls("fea/1.0/add_routes4_bulk") - fea0, 0u);
}

TEST(RouterManager, TwoRoutersRunOspfOverVirtualNetwork) {
    // The whole OSPF path through the Router Manager: config commit
    // enables interfaces on the OspfProcess, adjacencies form over the
    // virtual network, and learned routes flow OSPF --XRL--> RIB --XRL-->
    // FEA (the OSPF process holds no direct reference to the RIB).
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    fea::VirtualNetwork network(1ms);
    Router r1("r1", loop), r2("r2", loop);
    ASSERT_TRUE(harness::configure(r1, R"(
        interfaces {
            eth0 { address 10.0.1.1/24; }
            eth1 { address 172.16.1.1/24; }
        }
        protocols {
            ospf {
                router-id 1.1.1.1;
                interface eth0 { cost 2; }
                interface eth1;
            }
        }
    )"));
    ASSERT_TRUE(harness::configure(r2, R"(
        interfaces { eth0 { address 10.0.1.2/24; } }
        protocols { ospf { router-id 2.2.2.2; interface eth0; } }
    )"));
    EXPECT_EQ(r1.ospf().router_id().str(), "1.1.1.1");
    int link = network.add_link();
    r1.attach_link(network, link, "eth0");
    r2.attach_link(network, link, "eth0");

    // r1's eth1 has no OSPF peers: it is advertised as a stub prefix and
    // shows up in r2's RIB under the ospf origin.
    IPv4Net stub = IPv4Net::must_parse("172.16.1.0/24");
    ASSERT_TRUE(converge_route(loop, r2, stub, 120s));
    auto got = r2.rib().lookup_exact(stub);
    EXPECT_EQ(got->protocol, "ospf");
    EXPECT_EQ(got->nexthop.str(), "10.0.1.1");
    EXPECT_EQ(got->metric, 2u);  // r2's iface cost 1 + eth1's stub cost 1
    // All the way into r2's forwarding plane.
    ASSERT_TRUE(converge_fib(loop, r2, IPv4::must_parse("172.16.1.9"), 10s));

    // The ospf/1.0 XRL face, through r2's Finder like any operator tool.
    // Both queries are read-only, so they ride the idempotent contract —
    // under the CI chaos pass a dropped request is simply re-sent.
    ipc::XrlRouter cli(r2.plexus(), "cli");
    bool replied = false;
    cli.call(xrl::Xrl::generic("ospf", "ospf", "1.0", "get_status",
                               xrl::XrlArgs()),
             ipc::CallOptions::reliable(),
             [&](const xrl::XrlError& e, const xrl::XrlArgs& out) {
                 ASSERT_TRUE(e.ok()) << e.str();
                 EXPECT_EQ(out.get_ipv4("router_id")->str(), "2.2.2.2");
                 EXPECT_EQ(*out.get_u32("full"), 1u);
                 EXPECT_GE(*out.get_u32("lsas"), 2u);
                 EXPECT_GE(*out.get_u32("routes"), 1u);
                 replied = true;
             });
    ASSERT_TRUE(loop.run_until([&] { return replied; }, 5s));
    replied = false;
    cli.call(xrl::Xrl::generic("ospf", "ospf", "1.0", "list_neighbors",
                               xrl::XrlArgs()),
             ipc::CallOptions::reliable(),
             [&](const xrl::XrlError& e, const xrl::XrlArgs& out) {
                 ASSERT_TRUE(e.ok()) << e.str();
                 EXPECT_NE(out.get_text("text")->find("1.1.1.1"),
                           std::string::npos);
                 EXPECT_NE(out.get_text("text")->find("Full"),
                           std::string::npos);
                 replied = true;
             });
    ASSERT_TRUE(loop.run_until([&] { return replied; }, 5s));

    // Reconfigure r1 without the ospf section: the commit diff disables
    // the interfaces, the adjacency dies, and r2 withdraws the route.
    ASSERT_TRUE(harness::configure(r1, R"(
        interfaces {
            eth0 { address 10.0.1.1/24; }
            eth1 { address 172.16.1.1/24; }
        }
    )"));
    ASSERT_TRUE(converge_no_route(loop, r2, stub, 120s));
}
