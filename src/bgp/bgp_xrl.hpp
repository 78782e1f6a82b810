// XRL plumbing for BGP:
//   - bind_bgp_xrl(): exposes bgp/1.0 (origination, introspection) and
//     rib_client/1.0 (registration invalidations from the RIB) on an
//     XrlRouter;
//   - XrlRibHandle: BGP's coupling to the RIB over XRLs — winners flow to
//     rib/1.0/add_route, nexthop questions go through the Figure-8
//     register_interest protocol asynchronously, exactly the coupling the
//     paper's NexthopResolver stage describes (§5.1.1, §5.2.1).
#ifndef XRP_BGP_BGP_XRL_HPP
#define XRP_BGP_BGP_XRL_HPP

#include "bgp/process.hpp"
#include "ipc/router.hpp"
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
        : router_(router), target_(std::move(rib_target)) {}

    // One marshalling path for scalar and multipath winners: the
    // 1-member set's text form is byte-identical to the bare address, so
    // every add goes out as rib/1.0/add_route_multipath. Route pushes are
    // idempotent: mark them so the call contract may retry through drops
    // without risking double-execution harm.
    void add_route(const BgpRoute& r) override {
        trace_sent(r, "add");
        xrl::XrlArgs args;
        args.add("protocol", r.protocol)
            .add("net", r.net)
            .add("nexthops", r.nexthop_set().str())
            .add("metric", wire_metric(r));
        router_.call_oneway(
            xrl::Xrl::generic(target_, "rib", "1.0", "add_route_multipath",
                              args),
            ipc::CallOptions::reliable());
    }

    void delete_route(const BgpRoute& r) override {
        xrl::XrlArgs args;
        args.add("protocol", r.protocol).add("net", r.net);
        trace_sent(r, "delete");
        router_.call_oneway(
            xrl::Xrl::generic(target_, "rib", "1.0", "delete_route", args),
            ipc::CallOptions::reliable());
    }

    // A whole decision delta as a handful of framed add_routes_bulk XRLs.
    // The bulk verb carries the protocol at batch level, but one decision
    // batch may mix ebgp and ibgp winners, so entries are regrouped per
    // protocol first (a replace whose halves changed protocol splits into
    // its delete and add — they target different RIB origins anyway).
    void push_batch(stage::RouteBatch4&& batch) override {
        std::map<std::string, stage::RouteBatch4> by_proto;
        for (auto& e : batch.entries()) {
            if (e.op == stage::BatchOp::kReplace &&
                e.old_route.protocol != e.route.protocol) {
                by_proto[e.old_route.protocol].del(std::move(e.old_route));
                by_proto[e.route.protocol].add(std::move(e.route));
            } else {
                by_proto[e.route.protocol].push(std::move(e));
            }
        }
        for (auto& [proto, b] : by_proto) send_bulk(proto, std::move(b));
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

    void send_bulk(const std::string& protocol, stage::RouteBatch4&& b) {
        b.coalesce();
        if (b.empty()) return;
        if (b.size() == 1 &&
            b.entries()[0].op != stage::BatchOp::kReplace) {
            // Singleton leftovers keep the legacy wire shape.
            auto& e = b.entries()[0];
            if (e.op == stage::BatchOp::kAdd)
                add_route(e.route);
            else
                delete_route(e.route);
            return;
        }
        stage::RouteBatch4 chunk;
        auto flush = [&] {
            if (chunk.empty()) return;
            xrl::XrlArgs args;
            args.add("protocol", protocol).add("routes", chunk.encode_bytes());
            router_.call_oneway(
                xrl::Xrl::generic(target_, "rib", "1.0", "add_routes_bulk",
                                  args),
                ipc::CallOptions::reliable());
            chunk.clear();
        };
        if (telemetry::trace_points_enabled())
            telemetry::Journal::current().record_batch(
                router_.loop().now(), telemetry::JournalKind::kBgpRibSent, {},
                "bgp", b);
        for (auto& e : b.entries()) {
            // The wire's metric slot carries the resolved IGP metric,
            // matching what the scalar verbs send.
            e.route.metric = wire_metric(e.route);
            if (e.op == stage::BatchOp::kReplace)
                e.old_route.metric = wire_metric(e.old_route);
            chunk.push(std::move(e));
            if (chunk.size() >= kBulkChunkEntries) flush();
        }
        flush();
    }

    // The paper's "Sent to RIB" trace point.
    void trace_sent(const BgpRoute& r, const char* op) {
        if (telemetry::trace_points_enabled())
            telemetry::Journal::current().record(
                router_.loop().now(), telemetry::JournalKind::kBgpRibSent, {},
                "bgp", r.net.str(), op);
    }

    // Entries per add_routes_bulk message: bounds any one XRL's payload
    // without meaningfully increasing the message count at 1M-route scale.
    static constexpr size_t kBulkChunkEntries = 8192;

    ipc::XrlRouter& router_;
    std::string target_;
};

}  // namespace xrp::bgp

#endif
