// Tests for the FEA: interface table, simulated forwarding plane, the
// virtual datagram network, and the §7 UDP relay.
#include <gtest/gtest.h>

#include "ev/eventloop.hpp"
#include "fea/fea.hpp"
#include "telemetry/journal.hpp"

using namespace xrp;
using namespace xrp::fea;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;

TEST(IfTable, AddFindRemove) {
    IfTable t;
    uint32_t idx = t.add_interface("eth0", IPv4::must_parse("10.0.0.1"), 24);
    EXPECT_GT(idx, 0u);
    const Interface* itf = t.find("eth0");
    ASSERT_NE(itf, nullptr);
    EXPECT_EQ(itf->subnet.str(), "10.0.0.0/24");
    EXPECT_EQ(t.find_by_index(idx), itf);
    EXPECT_EQ(t.find_by_subnet(IPv4::must_parse("10.0.0.200")), itf);
    EXPECT_EQ(t.find_by_subnet(IPv4::must_parse("10.0.1.1")), nullptr);
    EXPECT_TRUE(t.remove_interface("eth0"));
    EXPECT_EQ(t.find("eth0"), nullptr);
    EXPECT_FALSE(t.remove_interface("eth0"));
}

TEST(IfTable, ChangeNotifications) {
    IfTable t;
    std::vector<std::pair<std::string, bool>> events;
    t.add_listener([&](const Interface& itf, bool up) {
        events.emplace_back(itf.name, up);
    });
    t.add_interface("eth0", IPv4::must_parse("10.0.0.1"), 24);
    t.set_link_up("eth0", false);
    t.set_link_up("eth0", false);  // no-op: no event
    t.set_link_up("eth0", true);
    t.set_enabled("eth0", false);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0], std::make_pair(std::string("eth0"), true));
    EXPECT_EQ(events[1], std::make_pair(std::string("eth0"), false));
    EXPECT_EQ(events[2], std::make_pair(std::string("eth0"), true));
    EXPECT_EQ(events[3], std::make_pair(std::string("eth0"), false));
}

TEST(SimFib, InstallLookupDelete) {
    SimForwardingPlane fib;
    fib.add_route({IPv4Net::must_parse("10.0.0.0/8"),
                   IPv4::must_parse("192.0.2.1"), "eth0"});
    fib.add_route({IPv4Net::must_parse("10.1.0.0/16"),
                   IPv4::must_parse("192.0.2.2"), "eth1"});
    const FibEntry* e = fib.lookup(IPv4::must_parse("10.1.2.3"));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ifname, "eth1");  // longest prefix wins
    e = fib.lookup(IPv4::must_parse("10.2.0.1"));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ifname, "eth0");
    EXPECT_EQ(fib.lookup(IPv4::must_parse("11.0.0.1")), nullptr);
    EXPECT_TRUE(fib.delete_route(IPv4Net::must_parse("10.1.0.0/16")));
    EXPECT_FALSE(fib.delete_route(IPv4Net::must_parse("10.1.0.0/16")));
    EXPECT_EQ(fib.install_count(), 2u);
    EXPECT_EQ(fib.removal_count(), 1u);
}

TEST(Fea, RouteApiResolvesEgressInterface) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Fea fea(loop);
    fea.interfaces().add_interface("eth0", IPv4::must_parse("192.0.2.1"), 24);
    fea.add_route(IPv4Net::must_parse("10.0.0.0/8"),
                  IPv4::must_parse("192.0.2.254"));
    const FibEntry* e = fea.lookup(IPv4::must_parse("10.1.1.1"));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ifname, "eth0");
    EXPECT_TRUE(fea.delete_route(IPv4Net::must_parse("10.0.0.0/8")));
}

namespace {

struct TwoFeas {
    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    VirtualNetwork network{1ms};
    Fea a{loop, "fea-a"};
    Fea b{loop, "fea-b"};
    int link;

    TwoFeas() {
        a.interfaces().add_interface("eth0", IPv4::must_parse("10.0.0.1"), 24);
        b.interfaces().add_interface("eth0", IPv4::must_parse("10.0.0.2"), 24);
        link = network.add_link();
        a.attach_to_network(&network, link, "eth0");
        b.attach_to_network(&network, link, "eth0");
    }
};

}  // namespace

TEST(VirtualNetwork, UnicastDelivery) {
    TwoFeas f;
    std::vector<Datagram> got;
    int sock_b = f.b.udp_open(520, [&](const std::string&, const Datagram& d) {
        got.push_back(d);
    });
    ASSERT_GT(sock_b, 0);
    int sock_a = f.a.udp_open(520, [](const std::string&, const Datagram&) {});
    ASSERT_TRUE(f.a.udp_send(sock_a, "eth0", IPv4::must_parse("10.0.0.2"),
                             520, {1, 2, 3}));
    f.loop.run_for(10ms);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].src.str(), "10.0.0.1");
    EXPECT_EQ(got[0].payload, (std::vector<uint8_t>{1, 2, 3}));
    // a must not hear its own transmission.
    EXPECT_EQ(f.network.delivered_count(), 1u);
}

TEST(VirtualNetwork, BroadcastReachesAllOthers) {
    TwoFeas f;
    // Add a third endpoint on the same segment.
    Fea c(f.loop, "fea-c");
    c.interfaces().add_interface("eth0", IPv4::must_parse("10.0.0.3"), 24);
    c.attach_to_network(&f.network, f.link, "eth0");

    int got_b = 0, got_c = 0;
    f.b.udp_open(520, [&](const std::string&, const Datagram&) { ++got_b; });
    c.udp_open(520, [&](const std::string&, const Datagram&) { ++got_c; });
    int sock_a = f.a.udp_open(520, [](const std::string&, const Datagram&) {});
    // Subnet broadcast.
    ASSERT_TRUE(f.a.udp_send(sock_a, "eth0", IPv4::must_parse("10.0.0.255"),
                             520, {9}));
    f.loop.run_for(10ms);
    EXPECT_EQ(got_b, 1);
    EXPECT_EQ(got_c, 1);
}

TEST(VirtualNetwork, WrongPortOrAddressIgnored) {
    TwoFeas f;
    int got = 0;
    f.b.udp_open(520, [&](const std::string&, const Datagram&) { ++got; });
    int sock_a = f.a.udp_open(521, [](const std::string&, const Datagram&) {});
    // Unicast to someone else's address.
    f.a.udp_send(sock_a, "eth0", IPv4::must_parse("10.0.0.99"), 520, {1});
    // Right address, wrong port.
    f.a.udp_send(sock_a, "eth0", IPv4::must_parse("10.0.0.2"), 99, {1});
    f.loop.run_for(10ms);
    EXPECT_EQ(got, 0);
}

TEST(VirtualNetwork, LinkDownStopsTrafficAndNotifies) {
    TwoFeas f;
    int got = 0;
    f.b.udp_open(520, [&](const std::string&, const Datagram&) { ++got; });
    int sock_a = f.a.udp_open(520, [](const std::string&, const Datagram&) {});

    std::vector<bool> b_events;
    f.b.interfaces().add_listener(
        [&](const Interface&, bool up) { b_events.push_back(up); });

    f.network.set_link_up(f.link, false);
    ASSERT_EQ(b_events.size(), 1u);
    EXPECT_FALSE(b_events[0]);

    EXPECT_FALSE(f.a.udp_send(sock_a, "eth0", IPv4::must_parse("10.0.0.2"),
                              520, {1}));  // interface is down
    f.loop.run_for(10ms);
    EXPECT_EQ(got, 0);

    f.network.set_link_up(f.link, true);
    EXPECT_TRUE(f.a.udp_send(sock_a, "eth0", IPv4::must_parse("10.0.0.2"),
                             520, {1}));
    f.loop.run_for(10ms);
    EXPECT_EQ(got, 1);
}

TEST(Fea, UdpPortConflictRefused) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Fea fea(loop);
    int s1 = fea.udp_open(520, [](const std::string&, const Datagram&) {});
    EXPECT_GT(s1, 0);
    EXPECT_EQ(fea.udp_open(520, [](const std::string&, const Datagram&) {}),
              0);
    fea.udp_close(s1);
    EXPECT_GT(fea.udp_open(520, [](const std::string&, const Datagram&) {}),
              0);
}

TEST(Fea, ProfilerPointsFire) {
    // "Arriving at FEA" is a trace point; "Entering kernel" is the
    // journal's fib_add/fib_delete.
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Fea fea(loop);
    telemetry::Journal j;
    telemetry::Journal* prev = telemetry::Journal::set_thread_override(&j);
    j.set_enabled(true);
    telemetry::set_tracing_enabled(true);
    fea.add_route(IPv4Net::must_parse("10.0.0.0/8"),
                  IPv4::must_parse("192.0.2.1"));
    fea.delete_route(IPv4Net::must_parse("10.0.0.0/8"));
    telemetry::set_tracing_enabled(false);
    j.set_enabled(false);
    telemetry::Journal::set_thread_override(prev);

    std::vector<std::string> seen;
    for (const auto& e : j.events())
        seen.push_back(std::string(telemetry::journal_kind_name(e.kind)) +
                       " " + e.subject + " " + e.detail);
    EXPECT_EQ(seen, (std::vector<std::string>{
                        "fea_in 10.0.0.0/8 add",
                        "fib_add 10.0.0.0/8 192.0.2.1:",
                        "fea_in 10.0.0.0/8 delete",
                        "fib_delete 10.0.0.0/8 ",
                    }));
}
