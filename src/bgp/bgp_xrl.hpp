// XRL plumbing for BGP:
//   - bind_bgp_xrl(): exposes bgp/1.0 (origination, introspection) and
//     rib_client/1.0 (registration invalidations from the RIB) on an
//     XrlRouter;
//   - XrlRibHandle: BGP's coupling to the RIB over XRLs — winner deltas
//     flow through a rib::XrlRibClient as rib/1.0/add_routes_bulk, nexthop
//     questions go through the Figure-8 register_interest protocol
//     asynchronously, exactly the coupling the paper's NexthopResolver
//     stage describes (§5.1.1, §5.2.1).
#ifndef XRP_BGP_BGP_XRL_HPP
#define XRP_BGP_BGP_XRL_HPP

#include "bgp/process.hpp"
#include "ipc/router.hpp"
#include "rib/rib_client.hpp"
#include "telemetry/journal.hpp"

namespace xrp::bgp {

inline constexpr const char* kBgpIdl = R"(
interface bgp/1.0 {
    get_local_as -> as:u32;
    originate_route4 ? net:ipv4net & nexthop:ipv4;
    withdraw_route4 ? net:ipv4net;
    get_route_count -> count:u32;
}
)";

void bind_bgp_xrl(BgpProcess& bgp, ipc::XrlRouter& router);

class XrlRibHandle final : public RibHandle {
public:
    XrlRibHandle(ipc::XrlRouter& router, std::string rib_target = "rib")
        : router_(router), target_(rib_target), client_(router, rib_target) {}

    // A whole decision delta as a handful of framed add_routes_bulk XRLs.
    // The bulk verb carries the protocol at batch level, but one decision
    // batch may mix ebgp and ibgp winners, so entries are regrouped per
    // protocol first (a replace whose halves changed protocol splits into
    // its delete and add — they target different RIB origins anyway). The
    // wire's metric slot carries the resolved IGP metric.
    void push_batch(stage::RouteBatch4&& batch) override {
        std::map<std::string, stage::RouteBatch4> by_proto;
        for (auto& e : batch.entries()) {
            e.route.metric = wire_metric(e.route);
            if (e.op == stage::BatchOp::kReplace) {
                e.old_route.metric = wire_metric(e.old_route);
                if (e.old_route.protocol != e.route.protocol) {
                    by_proto[e.old_route.protocol].del(
                        std::move(e.old_route));
                    by_proto[e.route.protocol].add(std::move(e.route));
                    continue;
                }
            }
            by_proto[e.route.protocol].push(std::move(e));
        }
        for (auto& [proto, b] : by_proto) {
            // The paper's "Sent to RIB" trace point.
            if (telemetry::trace_points_enabled())
                telemetry::Journal::current().record_batch(
                    router_.loop().now(), telemetry::JournalKind::kBgpRibSent,
                    {}, "bgp", b);
            client_.push_batch(proto, std::move(b));
        }
    }

    void register_interest(
        net::IPv4 nexthop,
        NexthopResolverStage::AnswerCallback answer) override {
        xrl::XrlArgs args;
        args.add("addr", nexthop).add("client", router_.instance());
        // Interest registration is idempotent (same client + prefix), so
        // the reliable contract may retry it; the error path below still
        // degrades gracefully when the RIB stays unreachable.
        router_.call(
            xrl::Xrl::generic(target_, "rib", "1.0", "register_interest",
                              args),
            ipc::CallOptions::reliable(),
            [answer = std::move(answer), nexthop](
                const xrl::XrlError& err, const xrl::XrlArgs& out) {
                if (!err.ok()) {
                    // Treat an unreachable RIB as an unresolvable nexthop,
                    // valid only for the host route so we retry per-nexthop.
                    answer(std::nullopt, net::IPv4Net(nexthop, 32));
                    return;
                }
                bool resolves = out.get_bool("resolves").value_or(false);
                answer(resolves ? std::optional<uint32_t>(
                                      out.get_u32("metric").value_or(0))
                                : std::nullopt,
                       out.get_ipv4net("valid_subnet")
                           .value_or(net::IPv4Net(nexthop, 32)));
            });
    }

private:
    // The RIB wire carries the IGP metric in the route's metric slot.
    static uint32_t wire_metric(const BgpRoute& r) {
        return r.igp_metric == stage::kUnresolvedMetric ? uint32_t{0}
                                                        : r.igp_metric;
    }

    ipc::XrlRouter& router_;
    std::string target_;
    rib::XrlRibClient client_;
};

}  // namespace xrp::bgp

#endif
