// Route redistribution under policy control (§3, §8.3): static routes
// redistribute into RIP, but only those a policy written in the stack
// language accepts — and the policy tags what it passes so downstream
// policies can match on provenance, the exact mechanism §8.3 describes.
#include <cstdio>

#include "policy/compiler.hpp"
#include "policy/vm.hpp"
#include "rib/rib.hpp"
#include "rip/rip.hpp"

using namespace xrp;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;

int main() {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    fea::Fea fea(loop);
    fea.interfaces().add_interface("eth0", IPv4::must_parse("10.0.1.1"), 24);
    rib::Rib rib(loop, std::make_unique<rib::DirectFeaHandle>(fea));
    rip::RipProcess rip(loop, fea, rip::RipProcess::Config{},
                        std::make_unique<rib::DirectRibClient>(rib));
    rip.enable_interface("eth0");

    // The redistribution policy, in the §8.3 stack language: only statics
    // inside 172.16.0.0/12 go to RIP; everything exported gets a tag.
    const char* policy_text = R"(
        default reject;
        term export-private {
            load protocol; push txt static; eq; onfalse next;
            push ipv4net 172.16.0.0/12; load prefix; contains; onfalse next;
            push txt from-static; tag-add;
            accept;
        }
    )";
    std::string perr;
    auto prog = std::make_shared<policy::Program>(
        *policy::compile(policy_text, &perr));

    // Plumb a dynamic Redist stage into the RIB whose predicate runs the
    // policy program.
    rib.add_redist(
        [prog](const rib::Route4& r) {
            rib::Route4 copy = r;
            policy::Vm<IPv4> vm;
            return vm.run(*prog, copy) == policy::Verdict::kAccept;
        },
        [&](bool add, const rib::Route4& r) {
            std::printf("  redist %s %-18s -> RIP\n", add ? "add" : "del",
                        r.net.str().c_str());
            if (add)
                rip.originate(r.net, 1);
            else
                rip.withdraw(r.net);
        });

    std::printf("policy:\n%s\n", policy_text);
    std::printf("adding static routes:\n");
    struct {
        const char* net;
        const char* why;
    } routes[] = {
        {"172.16.10.0/24", "inside 172.16/12: redistributed"},
        {"172.31.0.0/16", "inside 172.16/12: redistributed"},
        {"203.0.113.0/24", "outside: NOT redistributed"},
    };
    for (const auto& r : routes) {
        std::printf("  static %-18s (%s)\n", r.net, r.why);
        rib.add_route("static", IPv4Net::must_parse(r.net),
                      IPv4::must_parse("10.0.1.254"), 1);
    }
    loop.run_for(1s);

    std::printf("\nRIP's table (what neighbours will hear):\n");
    rip.routes().for_each([](const rip::RipRoute& r) {
        std::printf("  %-18s metric %u%s\n", r.net.str().c_str(), r.metric,
                    r.permanent ? " (originated)" : "");
    });

    std::printf("\nwithdrawing 172.16.10.0/24...\n");
    rib.delete_route("static", IPv4Net::must_parse("172.16.10.0/24"));
    loop.run_for(1s);
    std::printf("RIP now holds %zu routes\n", rip.route_count());
    return 0;
}
