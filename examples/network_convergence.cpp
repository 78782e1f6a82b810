// A five-router RIP network on the virtual fabric: build a ring with a
// spur, let it converge, then cut the ring's best path and watch the
// protocol route around the failure — all timestamps in virtual time
// (the whole run takes milliseconds of wall clock).
//
//        r0 ---- r1 ---- r2
//         \              /
//          \---- r4 ----/      r2 also serves stub network 172.20/16
#include <cstdio>

#include "rib/rib.hpp"
#include "rip/rip.hpp"

using namespace xrp;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;

namespace {

struct Node {
    std::unique_ptr<fea::Fea> fea;
    std::unique_ptr<rib::Rib> rib;
    std::unique_ptr<rip::RipProcess> rip;
};

}  // namespace

int main() {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    fea::VirtualNetwork network(2ms);

    std::vector<Node> nodes(5);
    for (auto& n : nodes) {
        n.fea = std::make_unique<fea::Fea>(loop);
        n.rib = std::make_unique<rib::Rib>(
            loop, std::make_unique<rib::DirectFeaHandle>(*n.fea));
        n.rip = std::make_unique<rip::RipProcess>(
            loop, *n.fea, rip::RipProcess::Config{},
            std::make_unique<rib::DirectRibClient>(*n.rib));
    }

    // Links: (a, b, subnet-id). Subnet 10.0.<id>.0/24; a gets .1, b .2.
    struct Link {
        int a, b, id, link_id;
    };
    std::vector<Link> links = {
        {0, 1, 1, 0}, {1, 2, 2, 0}, {0, 4, 3, 0}, {4, 2, 4, 0}};
    for (auto& l : links) {
        l.link_id = network.add_link();
        uint32_t subnet = (10u << 24) | (static_cast<uint32_t>(l.id) << 8);
        std::string ifa = "if" + std::to_string(l.id) + "a";
        std::string ifb = "if" + std::to_string(l.id) + "b";
        nodes[static_cast<size_t>(l.a)].fea->interfaces().add_interface(
            ifa, IPv4(subnet | 1), 24);
        nodes[static_cast<size_t>(l.b)].fea->interfaces().add_interface(
            ifb, IPv4(subnet | 2), 24);
        nodes[static_cast<size_t>(l.a)].fea->attach_to_network(
            &network, l.link_id, ifa);
        nodes[static_cast<size_t>(l.b)].fea->attach_to_network(
            &network, l.link_id, ifb);
        nodes[static_cast<size_t>(l.a)].rip->enable_interface(ifa);
        nodes[static_cast<size_t>(l.b)].rip->enable_interface(ifb);
    }

    // r2 announces the stub network.
    auto stub = IPv4Net::must_parse("172.20.0.0/16");
    nodes[2].rip->originate(stub, 1);

    auto route_at_r0 = [&]() { return nodes[0].rip->find_route(stub); };
    auto t0 = loop.now();
    loop.run_until(
        [&] {
            const rip::RipRoute* r = route_at_r0();
            return r != nullptr && !r->deleting;
        },
        120s);
    auto secs = [&](ev::TimePoint t) {
        return std::chrono::duration<double>(t - t0).count();
    };
    // Copy what we need: the table entry is updated in place as the
    // network changes, so holding the pointer across events would compare
    // the route with itself.
    const rip::RipRoute* r = route_at_r0();
    const std::string old_ifname = r->ifname;
    std::printf("[t=%6.2fs] r0 learned %s: metric %u via %s\n",
                secs(loop.now()), stub.str().c_str(), r->metric,
                r->nexthop.str().c_str());
    std::printf("           (metric 3 = r0-r1-r2; ring gives two equal "
                "paths, first learned wins)\n");

    // Cut whichever link r0 is currently using.
    const Link& used = old_ifname.find("1a") != std::string::npos ||
                               old_ifname.find("1b") != std::string::npos
                           ? links[0]
                           : links[2];
    std::printf("[t=%6.2fs] cutting the r%d-r%d link...\n", secs(loop.now()),
                used.a, used.b);
    network.set_link_up(used.link_id, false);

    loop.run_until(
        [&] {
            const rip::RipRoute* rr = route_at_r0();
            // Converged when r0 has a live route via a different interface.
            return rr != nullptr && !rr->deleting && rr->ifname != old_ifname;
        },
        300s);
    const rip::RipRoute* rr = route_at_r0();
    if (rr != nullptr && !rr->deleting && rr->ifname != old_ifname) {
        std::printf("[t=%6.2fs] re-converged: metric %u via %s (interface "
                    "%s)\n",
                    secs(loop.now()), rr->metric, rr->nexthop.str().c_str(),
                    rr->ifname.c_str());
    } else {
        std::printf("[t=%6.2fs] route lost!\n", secs(loop.now()));
        return 1;
    }
    // The forwarding plane followed.
    const fea::FibEntry* e =
        nodes[0].fea->lookup(IPv4::must_parse("172.20.1.1"));
    std::printf("           FIB at r0: 172.20.1.1 -> %s\n",
                e != nullptr ? e->nexthop.str().c_str() : "(none)");
    std::printf(
        "\nThe event-driven part is the *failure reaction*: the link-down\n"
        "event expired the routes immediately and poisoned them to\n"
        "neighbours in a triggered update. Adopting the alternate path\n"
        "waits for r4's next periodic advertisement (<=30s) because that\n"
        "route never changed from r4's point of view — RFC 2453 behaviour.\n"
        "(Contrast BGP in bench_convergence, where the event-driven router\n"
        "re-announces alternatives immediately.)\n");
    return 0;
}
