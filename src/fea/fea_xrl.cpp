#include "fea/fea_xrl.hpp"

namespace xrp::fea {

using xrl::XrlArgs;
using xrl::XrlError;

void bind_fea_xrl(Fea& fea, ipc::XrlRouter& router) {
    auto spec = xrl::InterfaceSpec::parse(kFeaIdl);
    router.add_interface(*spec);

    // The scripting pair: the same Fea::add_route/delete_route that
    // apply_batch uses for each entry of add_routes4_bulk.
    router.add_handler(
        "fea/1.0/add_route4", [&fea](const XrlArgs& in, XrlArgs&) {
            fea.add_route(*in.get_ipv4net("net"), *in.get_ipv4("nexthop"));
            return XrlError::okay();
        });
    router.add_handler(
        "fea/1.0/add_routes4_bulk", [&fea](const XrlArgs& in, XrlArgs&) {
            const auto& routes =
                in.find("routes")->get<std::vector<uint8_t>>();
            auto batch =
                stage::RouteBatch4::decode(routes.data(), routes.size());
            if (!batch) return XrlError::command_failed("bad routes");
            fea.apply_batch(*batch);
            return XrlError::okay();
        });
    router.add_handler(
        "fea/1.0/delete_route4", [&fea](const XrlArgs& in, XrlArgs&) {
            if (!fea.delete_route(*in.get_ipv4net("net")))
                return XrlError::command_failed("no such route");
            return XrlError::okay();
        });
    router.add_handler(
        "fea/1.0/lookup_route4", [&fea](const XrlArgs& in, XrlArgs& out) {
            const FibEntry* e = fea.lookup(*in.get_ipv4("addr"));
            out.add("found", e != nullptr);
            out.add("net", e != nullptr ? e->net : net::IPv4Net{});
            out.add("nexthop", e != nullptr ? e->nexthop : net::IPv4{});
            return XrlError::okay();
        });
    router.add_handler(
        "fea/1.0/get_fib_size", [&fea](const XrlArgs&, XrlArgs& out) {
            out.add("count", static_cast<uint32_t>(fea.fib().size()));
            return XrlError::okay();
        });
    // The 0-flinch witnesses: monotonic lifetime install/remove counts.
    // bench_restart and the upgrade tests read `deletes` before and after
    // a restart or binary upgrade — hitless means it did not move.
    router.add_handler(
        "fea/1.0/get_fib_churn", [&fea](const XrlArgs&, XrlArgs& out) {
            out.add("adds", fea.fib_adds());
            out.add("deletes", fea.fib_deletes());
            return XrlError::okay();
        });
    router.add_handler(
        "fea/1.0/get_interface_count", [&fea](const XrlArgs&, XrlArgs& out) {
            out.add("count", static_cast<uint32_t>(fea.interfaces().size()));
            return XrlError::okay();
        });
}

}  // namespace xrp::fea
