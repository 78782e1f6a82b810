// The single-loop router the BGP-ingress workloads drive: BGP -> RIB ->
// FEA, each behind its own XrlRouter on one event loop, coupled by XRLs
// over loopback stcp (the paper's deployment, minus the processes).
// Assembled only from public constructors and the bind_*_xrl functions.
//
// The benchmark owns two decorators, SpanRibHandle and SpanFeaHandle,
// that sit in front of the real XrlRibHandle / XrlFeaHandle. They stamp
// the moment each prefix leaves BGP and leaves the RIB, which splits an
// update's trip at the component boundaries without touching the
// program. They are installed only in traced runs.
#ifndef PERFBENCH_STACK_HPP
#define PERFBENCH_STACK_HPP

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/bgp_xrl.hpp"
#include "common.hpp"
#include "fea/fea_xrl.hpp"
#include "ipc/router.hpp"
#include "rib/rib_xrl.hpp"
#include "sim/harness.hpp"

namespace perfbench {

using xrp::net::IPv4;
using xrp::net::IPv4Net;

struct NetHash {
    size_t operator()(const IPv4Net& n) const {
        return std::hash<uint64_t>()(
            (static_cast<uint64_t>(n.masked_addr().to_host()) << 6) |
            n.prefix_len());
    }
};
using NetSet = std::unordered_set<IPv4Net, NetHash>;
using NetTimes = std::unordered_map<IPv4Net, Clock::time_point, NetHash>;

// When each prefix last crossed a component boundary. Stamping pauses
// while `on` is false, so one stack can run untraced and traced phases.
struct SpanLog {
    bool on = true;
    NetTimes bgp_emit;
    NetTimes rib_emit;
};

class SpanRibHandle final : public xrp::bgp::RibHandle {
public:
    SpanRibHandle(std::unique_ptr<xrp::bgp::RibHandle> inner, SpanLog& log)
        : inner_(std::move(inner)), log_(log) {}
    void add_route(const xrp::bgp::BgpRoute& r) override;
    void delete_route(const xrp::bgp::BgpRoute& r) override;
    void push_batch(xrp::stage::RouteBatch4&& batch) override;
    void register_interest(
        IPv4 nexthop,
        xrp::bgp::NexthopResolverStage::AnswerCallback answer) override {
        inner_->register_interest(nexthop, std::move(answer));
    }

private:
    std::unique_ptr<xrp::bgp::RibHandle> inner_;
    SpanLog& log_;
};

class SpanFeaHandle final : public xrp::rib::FeaHandle {
public:
    SpanFeaHandle(std::unique_ptr<xrp::rib::FeaHandle> inner, SpanLog& log)
        : inner_(std::move(inner)), log_(log) {}
    void add_route(const IPv4Net& net, IPv4 nexthop) override;
    void add_route(const IPv4Net& net,
                   const xrp::net::NexthopSet4& nexthops) override;
    void delete_route(const IPv4Net& net) override;
    void push_batch(xrp::stage::RouteBatch4&& batch) override;

private:
    std::unique_ptr<xrp::rib::FeaHandle> inner_;
    SpanLog& log_;
};

// Addresses shared by every BGP-ingress workload.
inline const IPv4 kPeerA = IPv4::must_parse("192.0.2.1");
inline const IPv4 kPeerB = IPv4::must_parse("192.0.2.2");
inline const IPv4Net kCovering = IPv4Net::must_parse("192.0.2.0/24");
constexpr xrp::bgp::As kAsA = 3561;
constexpr xrp::bgp::As kAsB = 7018;

// The BGP-ingress feed every workload generates from its seed: `routes`
// prefixes from sim::generate_feed, all via peer A.
std::vector<xrp::bgp::UpdateMessage> make_feed(uint64_t seed, size_t routes);

// The final FIB check: every expected prefix via peer A, and nothing else
// besides the covering static route. Counts each bad prefix as one
// failure in `r` (and each expected prefix as one attempt).
void check_fib(const xrp::fea::SimForwardingPlane& fib,
               const std::vector<IPv4Net>& expected, Result& r,
               const std::string& workload);

class Stack {
public:
    // `spans` non-null installs the span decorators.
    explicit Stack(SpanLog* spans = nullptr);
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;

    // Attaches a zero-latency feed peer and waits for the session, and
    // for the static route that makes feed nexthops resolvable.
    xrp::sim::FeedPeer& attach_peer(IPv4 addr, xrp::bgp::As as);
    bool run_until(const std::function<bool()>& pred, double limit_s);

    xrp::ev::RealClock clock;
    xrp::ipc::Plexus plexus{clock};
    xrp::ipc::XrlRouter fea_xr{plexus, "fea", true};
    xrp::fea::Fea fea{plexus.loop};
    xrp::ipc::XrlRouter rib_xr{plexus, "rib", true};
    std::unique_ptr<xrp::rib::Rib> rib;
    xrp::ipc::XrlRouter bgp_xr{plexus, "bgp", true};
    std::unique_ptr<xrp::bgp::BgpProcess> bgp;
    std::vector<std::unique_ptr<xrp::sim::FeedPeer>> peers;
};

}  // namespace perfbench

#endif
