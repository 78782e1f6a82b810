// Router: the Router Manager's view of one complete router (§3, Figure 1)
// — the component that "starts, configures, and stops protocols and other
// router functionality" and "hides the router's internal structure from
// the user".
//
// One Router owns one Plexus (event loop shared, Finder, intra-process
// registry) and assembles the full control plane in it: FEA, RIB, RIP,
// static routes, and (when configured) BGP — each behind its own
// XrlRouter, coupled to the others only by XRLs. Configuration follows
// commit semantics: configure() validates the whole tree first and
// applies it only if clean; rollback() restores the previous running
// config.
#ifndef XRP_RTRMGR_RTRMGR_HPP
#define XRP_RTRMGR_RTRMGR_HPP

#include <memory>
#include <set>

#include "bgp/bgp_xrl.hpp"
#include "bgp/process.hpp"
#include "fea/fea.hpp"
#include "fea/fea_xrl.hpp"
#include "ospf/ospf.hpp"
#include "ospf/ospf_xrl.hpp"
#include "rib/rib.hpp"
#include "rib/rib_client.hpp"
#include "rib/rib_xrl.hpp"
#include "rip/rip.hpp"
#include "rtrmgr/configtree.hpp"
#include "rtrmgr/supervisor.hpp"

namespace xrp::rtrmgr {

class Router {
public:
    // All routers in a simulation share `loop` (and thus one clock); each
    // router still has its own Finder and component namespace.
    Router(std::string name, ev::EventLoop& loop);
    ~Router();
    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;

    const std::string& name() const { return name_; }
    ipc::Plexus& plexus() { return plexus_; }
    fea::Fea& fea() { return *fea_; }
    rib::Rib& rib() { return *rib_; }
    rip::RipProcess& rip() { return *rip_; }
    ospf::OspfProcess& ospf() { return *ospf_; }
    // Null until a bgp section is configured.
    bgp::BgpProcess* bgp() { return bgp_.get(); }
    // The component watchdog: health probes, restart-with-backoff,
    // graceful-restart choreography against the RIB, crash-loop breaker.
    Supervisor& supervisor() { return *supervisor_; }

    // ---- configuration (commit semantics) -------------------------------
    bool configure(const std::string& config_text, std::string* error);
    bool configure(const ConfigTree& tree, std::string* error);
    bool rollback(std::string* error);
    const ConfigTree& running_config() const { return running_; }

    // ---- topology helpers ---------------------------------------------
    void attach_link(fea::VirtualNetwork& network, int link_id,
                     const std::string& ifname) {
        fea_->attach_to_network(&network, link_id, ifname);
    }
    // Wires a BGP session between two configured routers.
    static void connect_bgp(
        Router& a, Router& b,
        ev::Duration latency = std::chrono::milliseconds(1));

private:
    bool validate(const ConfigTree& tree, std::string* error) const;
    bool apply(const ConfigTree& tree, std::string* error);

    void supervise_components();
    void supervise_bgp();
    // Component restart hooks for the Supervisor: tear down the dead
    // objects (process first — it references its XrlRouter), build fresh
    // ones, and re-apply the running configuration.
    void restart_rip();
    void restart_ospf();
    void restart_bgp();

    // One configured BGP session to a neighboring Router, remembered so a
    // restarted BgpProcess can be rewired: the peer drops its old session
    // and both sides get fresh transports. Ids are BgpProcess peer ids.
    struct BgpLink {
        Router* peer;
        ev::Duration latency;
        int local_id;
        int remote_id;
    };

    std::string name_;
    ipc::Plexus plexus_;

    std::unique_ptr<ipc::XrlRouter> fea_xr_;
    std::unique_ptr<ipc::XrlRouter> rib_xr_;
    std::unique_ptr<ipc::XrlRouter> rip_xr_;
    std::unique_ptr<ipc::XrlRouter> ospf_xr_;
    std::unique_ptr<ipc::XrlRouter> bgp_xr_;
    std::unique_ptr<ipc::XrlRouter> mgr_xr_;  // the Router Manager's own

    std::unique_ptr<fea::Fea> fea_;
    std::unique_ptr<rib::Rib> rib_;
    std::unique_ptr<rip::RipProcess> rip_;
    std::unique_ptr<ospf::OspfProcess> ospf_;
    std::unique_ptr<bgp::BgpProcess> bgp_;

    ConfigTree running_;
    ConfigTree previous_;

    std::vector<BgpLink> bgp_links_;
    // Declared last: destroyed first, so teardown of the XrlRouters above
    // cannot be mistaken for component deaths.
    std::unique_ptr<Supervisor> supervisor_;
};

}  // namespace xrp::rtrmgr

#endif
