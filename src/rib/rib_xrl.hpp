// XRL plumbing for the RIB:
//   - bind_rib_xrl(): exposes the rib/1.0 interface (route input, winner
//     queries, Figure-8 interest registration) on an XrlRouter. Route
//     input has one verb for programs, add_routes_bulk (the RouteBatch
//     codec; rib_client.hpp's XrlRibClient sends it), and one text pair
//     for scripts, add_route/delete_route, which the handlers turn into a
//     one-entry batch;
//   - XrlFeaHandle: the RIB's coupling to a remote FEA over XRLs, every
//     delta as fea/1.0/add_routes4_bulk;
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

    // A RIB delta as a handful of framed add_routes4_bulk XRLs; a lone
    // change is a one-entry chunk. Coalescing is safe at this boundary
    // (the FEA cares about final FIB state, not transients). FIB pushes
    // are idempotent, so the reliable contract may retry them through
    // chaos.
    void push_batch(stage::RouteBatch4&& batch) override {
        batch.coalesce();
        if (batch.empty()) return;
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
        // The paper's "Sent to the FEA" trace point.
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
    // Entries per add_routes4_bulk message: bounds any one XRL's payload
    // (and the receiver's decode allocation) without meaningfully
    // increasing the message count for million-route downloads.
    static constexpr size_t kBulkChunkEntries = 8192;

    ipc::XrlRouter& router_;
    std::string target_;
};

}  // namespace xrp::rib

#endif
