// Coverage for the remaining corners: the simulation stats helpers, XRL
// atom fuzz round-trips, the UDP listener's garbage handling, Router
// Manager BGP configuration, and event-loop timing details the rest of
// the system leans on.
#include <gtest/gtest.h>

#include <random>

#include "ipc/router.hpp"
#include "rtrmgr/rtrmgr.hpp"
#include "sim/harness.hpp"

using namespace xrp;
using namespace std::chrono_literals;

TEST(XrlAtomProperty, RandomAtomsSurviveTextAndWire) {
    // Fuzz-ish property: arbitrary atoms round-trip both encodings.
    std::mt19937 rng(2025);
    auto random_string = [&] {
        std::string s;
        size_t len = rng() % 24;
        for (size_t i = 0; i < len; ++i)
            s += static_cast<char>(rng() % 256);
        return s;
    };
    for (int i = 0; i < 2000; ++i) {
        xrl::XrlAtom atom;
        std::string name = "k" + std::to_string(rng() % 100);
        switch (rng() % 7) {
            case 0: atom = {name, static_cast<uint32_t>(rng())}; break;
            case 1: atom = {name, static_cast<int32_t>(rng())}; break;
            case 2:
                atom = {name, (static_cast<uint64_t>(rng()) << 32) | rng()};
                break;
            case 3: atom = {name, (rng() & 1) != 0}; break;
            case 4: atom = {name, random_string()}; break;
            case 5: atom = {name, net::IPv4(rng())}; break;
            default:
                atom = {name, net::IPv4Net(net::IPv4(rng()), rng() % 33)};
        }
        // Text form.
        auto parsed = xrl::XrlAtom::parse(atom.str());
        ASSERT_TRUE(parsed.has_value()) << atom.str();
        EXPECT_EQ(*parsed, atom) << atom.str();
        // Wire form.
        xrl::XrlArgs args;
        args.add(atom);
        std::vector<uint8_t> buf;
        ipc::encode_args(args, buf);
        ipc::WireReader r(buf.data(), buf.size());
        auto back = ipc::decode_args(r);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, args);
    }
}

TEST(UdpListener, GarbageDatagramsIgnored) {
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ipc::XrlRouter server(plexus, "svc", true);
    server.add_handler("svc/1.0/ping",
                       [](const xrl::XrlArgs&, xrl::XrlArgs&) {
                           return xrl::XrlError::okay();
                       });
    server.enable_udp();
    ASSERT_TRUE(server.finalize());

    auto res = plexus.finder.resolve("svc", "svc/1.0/ping");
    ASSERT_TRUE(res.has_value());
    std::string addr;
    for (const auto& r : *res)
        if (r.family == "sudp") addr = r.address;
    ASSERT_FALSE(addr.empty());

    // Throw garbage datagrams at it.
    ipc::Fd sock = ipc::make_udp_socket();
    auto sa = ipc::parse_inet_address(addr);
    std::vector<uint8_t> junk = {9, 9, 9, 9, 9};
    ::sendto(sock.get(), junk.data(), junk.size(), 0,
             reinterpret_cast<sockaddr*>(&*sa), sizeof *sa);
    plexus.loop.run_for(20ms);

    // A real call still succeeds afterwards.
    ipc::XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());
    client.set_preferred_family("sudp");
    bool ok = false, done = false;
    client.send(xrl::Xrl::generic("svc", "svc", "1.0", "ping"),
                [&](const xrl::XrlError& e, const xrl::XrlArgs&) {
                    ok = e.ok();
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 5s);
    EXPECT_TRUE(ok);
}

TEST(RouterManager, BgpSectionBuildsProcessWithDamping) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    rtrmgr::Router router("r1", loop);
    std::string err;
    EXPECT_EQ(router.bgp(), nullptr);
    ASSERT_TRUE(router.configure(R"(
        interfaces { eth0 { address 192.0.2.1/24; } }
        protocols {
            bgp {
                local-as 1777;
                bgp-id 192.0.2.1;
                damping;
                network 10.0.0.0/8;
            }
        }
    )",
                                 &err))
        << err;
    ASSERT_NE(router.bgp(), nullptr);
    EXPECT_EQ(router.bgp()->config().local_as, 1777);
    EXPECT_TRUE(router.bgp()->config().enable_damping);
    loop.run_for(100ms);
    EXPECT_EQ(router.bgp()->loc_rib_count(), 1u);  // the network statement

    // Changing the AS at runtime is refused.
    EXPECT_FALSE(router.configure(R"(
        interfaces { eth0 { address 192.0.2.1/24; } }
        protocols { bgp { local-as 42; bgp-id 192.0.2.1; } }
    )",
                                  &err));
    EXPECT_NE(err.find("cannot change"), std::string::npos);
}

TEST(SimStats, PercentilesAndRow) {
    sim::LatencyStats s;
    for (int i = 1; i <= 100; ++i) s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.5);
    EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
    EXPECT_EQ(s.count(), 100u);
    EXPECT_FALSE(s.row().empty());
}

TEST(EventLoop, DeferAfterPreservesRelativeOrder) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    std::vector<int> order;
    loop.defer_after(2ms, [&] { order.push_back(2); });
    loop.defer_after(1ms, [&] { order.push_back(1); });
    loop.defer_after(1ms, [&] { order.push_back(11); });  // FIFO at same t
    loop.run_for(5ms);
    EXPECT_EQ(order, (std::vector<int>{1, 11, 2}));
}

TEST(EventLoop, RunForStopsExactlyAtDeadlineOnVirtualClock) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    ev::Timer far = loop.set_timer(10s, [] {});
    auto start = loop.now();
    loop.run_for(3s);
    // The pending 10s timer must not have dragged the clock past 3s.
    EXPECT_EQ(loop.now() - start, ev::Duration(3s));
    EXPECT_TRUE(far.scheduled());
}
