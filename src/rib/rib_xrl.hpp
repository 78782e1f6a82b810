// XRL plumbing for the RIB:
//   - bind_rib_xrl(): exposes the rib/1.0 interface (route input, winner
//     queries, Figure-8 interest registration) on an XrlRouter;
//   - XrlFeaHandle: the RIB's coupling to a remote FEA over XRLs;
//   - rib-client invalidation: when a registration is invalidated the RIB
//     calls <client>/rib_client/1.0/route_info_invalid, closing the
//     asynchronous loop of §5.2.1.
#ifndef XRP_RIB_RIB_XRL_HPP
#define XRP_RIB_RIB_XRL_HPP

#include "ipc/router.hpp"
#include "rib/rib.hpp"
#include "telemetry/journal.hpp"

namespace xrp::rib {

inline constexpr const char* kRibIdl = R"(
interface rib/1.0 {
    add_route ? protocol:txt & net:ipv4net & nexthop:ipv4 & metric:u32;
    add_route_multipath ? protocol:txt & net:ipv4net & nexthops:txt & metric:u32;
    add_routes_bulk ? protocol:txt & routes:binary;
    delete_route ? protocol:txt & net:ipv4net;
    lookup_route4 ? addr:ipv4
        -> found:bool & net:ipv4net & nexthop:ipv4 & metric:u32 & protocol:txt;
    register_interest ? addr:ipv4 & client:txt
        -> resolves:bool & net:ipv4net & nexthop:ipv4 & metric:u32 & valid_subnet:ipv4net;
    unregister_interest ? valid_subnet:ipv4net & client:txt;
    get_route_count -> count:u32;
    origin_dead ? protocol:txt;
    origin_revived ? protocol:txt;
    origin_resynced ? protocol:txt;
    set_grace_period ? protocol:txt & seconds:u32;
    get_origin_status ? protocol:txt
        -> state:txt & stale:u32 & swept:u32;
}
)";

inline constexpr const char* kRibClientIdl = R"(
interface rib_client/1.0 {
    route_info_invalid ? valid_subnet:ipv4net;
}
)";

// Registers rib/1.0 on `router` backed by `rib`. Interest-registration
// clients are identified by their component target name; invalidations go
// back to them as rib_client/1.0/route_info_invalid XRLs.
void bind_rib_xrl(Rib& rib, ipc::XrlRouter& router);

// FeaHandle that forwards to a (possibly remote) FEA component over XRLs.
class XrlFeaHandle final : public FeaHandle {
public:
    explicit XrlFeaHandle(ipc::XrlRouter& router, std::string fea_target = "fea")
        : router_(router), target_(std::move(fea_target)) {}

    // One marshalling path for scalar and multipath installs: a 1-member
    // set's text form is byte-identical to the bare address, so every add
    // goes out as fea/1.0/add_route4_multipath. FIB pushes are idempotent
    // (re-adding the same route is a no-op), so the reliable contract may
    // retry them through chaos.
    void add_route(const net::IPv4Net& net, net::IPv4 nexthop) override {
        add_route(net, net::NexthopSet4::single(nexthop));
    }
    void add_route(const net::IPv4Net& net,
                   const net::NexthopSet4& nexthops) override {
        xrl::XrlArgs args;
        args.add("net", net).add("nexthops", nexthops.str());
        trace_sent(net, "add");
        router_.call_oneway(
            xrl::Xrl::generic(target_, "fea", "1.0", "add_route4_multipath",
                              args),
            ipc::CallOptions::reliable());
    }
    void delete_route(const net::IPv4Net& net) override {
        xrl::XrlArgs args;
        args.add("net", net);
        trace_sent(net, "delete");
        router_.call_oneway(
            xrl::Xrl::generic(target_, "fea", "1.0", "delete_route4", args),
            ipc::CallOptions::reliable());
    }
    // A whole RIB delta as a handful of framed add_routes4_bulk XRLs.
    // Coalescing is safe at this boundary (the FEA cares about final FIB
    // state, not transients); 1-entry leftovers use the scalar verbs so
    // singleton churn keeps its legacy wire shape.
    void push_batch(stage::RouteBatch4&& batch) override {
        batch.coalesce();
        if (batch.empty()) return;
        if (batch.size() == 1 &&
            batch.entries()[0].op != stage::BatchOp::kReplace) {
            auto& e = batch.entries()[0];
            if (e.op == stage::BatchOp::kAdd)
                add_route(e.route.net, e.route.nexthop_set());
            else
                delete_route(e.route.net);
            return;
        }
        stage::RouteBatch4 chunk;
        auto flush = [&] {
            if (chunk.empty()) return;
            xrl::XrlArgs args;
            args.add("routes", chunk.encode_bytes());
            router_.call_oneway(
                xrl::Xrl::generic(target_, "fea", "1.0", "add_routes4_bulk",
                                  args),
                ipc::CallOptions::reliable());
            chunk.clear();
        };
        if (telemetry::trace_points_enabled())
            telemetry::Journal::current().record_batch(
                router_.loop().now(), telemetry::JournalKind::kRibFeaSent, {},
                "rib", batch);
        for (auto& e : batch.entries()) {
            chunk.push(std::move(e));
            if (chunk.size() >= kBulkChunkEntries) flush();
        }
        flush();
    }

private:
    // The paper's "Sent to the FEA" trace point.
    void trace_sent(const net::IPv4Net& net, const char* op) {
        if (telemetry::trace_points_enabled())
            telemetry::Journal::current().record(
                router_.loop().now(), telemetry::JournalKind::kRibFeaSent, {},
                "rib", net.str(), op);
    }

    // Entries per add_routes4_bulk message: bounds any one XRL's payload
    // (and the receiver's decode allocation) without meaningfully
    // increasing the message count for million-route downloads.
    static constexpr size_t kBulkChunkEntries = 8192;

    ipc::XrlRouter& router_;
    std::string target_;
};

}  // namespace xrp::rib

#endif
