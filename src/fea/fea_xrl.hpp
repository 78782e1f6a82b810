// XRL interface of the FEA ("fea/1.0"). In the paper's architecture the
// FEA is its own process; here the adapter binds a Fea instance to an
// XrlRouter so the RIB (and anything else) reaches it purely via XRLs.
// FIB changes have one verb for programs, add_routes4_bulk (the RouteBatch
// codec the RIB's XrlFeaHandle sends), and one text pair for scripts,
// add_route4/delete_route4.
#ifndef XRP_FEA_FEA_XRL_HPP
#define XRP_FEA_FEA_XRL_HPP

#include "fea/fea.hpp"
#include "ipc/router.hpp"

namespace xrp::fea {

inline constexpr const char* kFeaIdl = R"(
interface fea/1.0 {
    add_route4 ? net:ipv4net & nexthop:ipv4;
    add_routes4_bulk ? routes:binary;
    delete_route4 ? net:ipv4net;
    lookup_route4 ? addr:ipv4 -> found:bool & net:ipv4net & nexthop:ipv4;
    get_fib_size -> count:u32;
    get_fib_churn -> adds:u64 & deletes:u64;
    get_interface_count -> count:u32;
}
)";

// Registers the fea/1.0 interface on `router` (which must not be
// finalized yet) backed by `fea`.
void bind_fea_xrl(Fea& fea, ipc::XrlRouter& router);

}  // namespace xrp::fea

#endif
