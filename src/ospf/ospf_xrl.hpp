// XRL plumbing for OSPF: bind_ospf_xrl() exposes the ospf/1.0 interface
// (interface control and observability) on an XrlRouter. Routes reach the
// RIB through a rib::XrlRibClient, as every protocol's do.
#ifndef XRP_OSPF_OSPF_XRL_HPP
#define XRP_OSPF_OSPF_XRL_HPP

#include "ipc/router.hpp"
#include "ospf/ospf.hpp"

namespace xrp::ospf {

inline constexpr const char* kOspfIdl = R"(
interface ospf/1.0 {
    enable_interface ? ifname:txt & cost:u32 -> ok:bool;
    disable_interface ? ifname:txt;
    set_interface_cost ? ifname:txt & cost:u32 -> ok:bool;
    get_status -> router_id:ipv4 & neighbors:u32 & full:u32 & lsas:u32 & routes:u32;
    list_neighbors -> text:txt;
    list_lsdb -> count:u32 & text:txt;
    get_spf_stats -> full_runs:u64 & incremental_runs:u64 & last_visited:u32;
}
)";

// Registers ospf/1.0 on `router` backed by `ospf`.
void bind_ospf_xrl(OspfProcess& ospf, ipc::XrlRouter& router);

}  // namespace xrp::ospf

#endif
