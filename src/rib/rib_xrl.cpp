#include "rib/rib_xrl.hpp"

namespace xrp::rib {

using xrl::XrlArgs;
using xrl::XrlError;

namespace {

// Stable small ids for client target names (RegisterStage keys clients by
// integer id).
uint64_t client_id_for(const std::string& name) {
    static std::map<std::string, uint64_t> ids;
    auto [it, inserted] = ids.emplace(name, ids.size() + 1);
    return it->second;
}

}  // namespace

void bind_rib_xrl(Rib& rib, ipc::XrlRouter& router) {
    auto spec = xrl::InterfaceSpec::parse(kRibIdl);
    router.add_interface(*spec);

    // The scripting pair: one route as text atoms, carried into the RIB as
    // a one-entry batch through the same push_batch as add_routes_bulk.
    router.add_handler(
        "rib/1.0/add_route", [&rib](const XrlArgs& in, XrlArgs&) {
            if (!rib.add_route(*in.get_text("protocol"),
                               *in.get_ipv4net("net"), *in.get_ipv4("nexthop"),
                               *in.get_u32("metric")))
                return XrlError::command_failed("unknown protocol");
            return XrlError::okay();
        });
    router.add_handler(
        "rib/1.0/add_routes_bulk", [&rib](const XrlArgs& in, XrlArgs&) {
            const auto& routes =
                in.find("routes")->get<std::vector<uint8_t>>();
            auto batch =
                stage::RouteBatch4::decode(routes.data(), routes.size());
            if (!batch) return XrlError::command_failed("bad routes");
            if (!rib.push_batch(*in.get_text("protocol"), std::move(*batch)))
                return XrlError::command_failed("unknown protocol");
            return XrlError::okay();
        });
    router.add_handler(
        "rib/1.0/delete_route", [&rib](const XrlArgs& in, XrlArgs&) {
            if (!rib.delete_route(*in.get_text("protocol"),
                                  *in.get_ipv4net("net")))
                return XrlError::command_failed("unknown protocol");
            return XrlError::okay();
        });
    router.add_handler(
        "rib/1.0/lookup_route4", [&rib](const XrlArgs& in, XrlArgs& out) {
            auto r = rib.lookup(*in.get_ipv4("addr"));
            out.add("found", r.has_value());
            out.add("net", r ? r->net : net::IPv4Net{});
            out.add("nexthop", r ? r->nexthop : net::IPv4{});
            out.add("metric", r ? r->metric : uint32_t{0});
            out.add("protocol", r ? r->protocol : std::string{});
            return XrlError::okay();
        });
    router.add_handler(
        "rib/1.0/register_interest",
        [&rib, &router](const XrlArgs& in, XrlArgs& out) {
            const std::string client = *in.get_text("client");
            const uint64_t id = client_id_for(client);
            auto ans = rib.register_interest(
                *in.get_ipv4("addr"), id,
                [&router, client](const net::IPv4Net& subnet) {
                    XrlArgs args;
                    args.add("valid_subnet", subnet);
                    // Invalidations must not get lost or the client keeps
                    // routing on stale state; redelivery is harmless.
                    router.call_oneway(
                        xrl::Xrl::generic(client, "rib_client", "1.0",
                                          "route_info_invalid", args),
                        ipc::CallOptions::reliable());
                });
            out.add("resolves", ans.resolves);
            out.add("net", ans.matched_net);
            out.add("nexthop", ans.nexthop);
            out.add("metric", ans.metric);
            out.add("valid_subnet", ans.valid_subnet);
            return XrlError::okay();
        });
    router.add_handler(
        "rib/1.0/unregister_interest", [&rib](const XrlArgs& in, XrlArgs&) {
            rib.unregister_interest(*in.get_ipv4net("valid_subnet"),
                                    client_id_for(*in.get_text("client")));
            return XrlError::okay();
        });
    router.add_handler(
        "rib/1.0/get_route_count", [&rib](const XrlArgs&, XrlArgs& out) {
            out.add("count", static_cast<uint32_t>(rib.route_count()));
            return XrlError::okay();
        });
    // Graceful-restart notifications, sent by the rtrmgr's supervisor.
    // Deliberately tolerant of unknown protocols (okay, not error): the
    // supervisor retries oneways through chaos and a late duplicate after
    // a reconfiguration must not count as a hard failure.
    router.add_handler(
        "rib/1.0/origin_dead", [&rib](const XrlArgs& in, XrlArgs&) {
            rib.origin_dead(*in.get_text("protocol"));
            return XrlError::okay();
        });
    router.add_handler(
        "rib/1.0/origin_revived", [&rib](const XrlArgs& in, XrlArgs&) {
            rib.origin_revived(*in.get_text("protocol"));
            return XrlError::okay();
        });
    router.add_handler(
        "rib/1.0/origin_resynced", [&rib](const XrlArgs& in, XrlArgs&) {
            rib.origin_resynced(*in.get_text("protocol"));
            return XrlError::okay();
        });
    router.add_handler(
        "rib/1.0/set_grace_period", [&rib](const XrlArgs& in, XrlArgs&) {
            rib.set_grace_period(
                *in.get_text("protocol"),
                std::chrono::seconds(*in.get_u32("seconds")));
            return XrlError::okay();
        });
    router.add_handler(
        "rib/1.0/get_origin_status", [&rib](const XrlArgs& in, XrlArgs& out) {
            const std::string proto = *in.get_text("protocol");
            const char* state = "fresh";
            switch (rib.origin_state(proto)) {
                case Rib::OriginState::kFresh: state = "fresh"; break;
                case Rib::OriginState::kStale: state = "stale"; break;
                case Rib::OriginState::kSweeping: state = "sweeping"; break;
            }
            out.add("state", std::string(state));
            out.add("stale",
                    static_cast<uint32_t>(rib.stale_route_count(proto)));
            out.add("swept",
                    static_cast<uint32_t>(rib.swept_route_count(proto)));
            return XrlError::okay();
        });
}

}  // namespace xrp::rib
