#include "rtrmgr/rtrmgr.hpp"

namespace xrp::rtrmgr {

using net::IPv4;
using net::IPv4Net;
using xrl::Xrl;
using xrl::XrlArgs;

Router::Router(std::string name, ev::EventLoop& loop)
    : name_(std::move(name)), plexus_(loop) {
    // Journal events from every component of this router carry its name.
    plexus_.node = name_;
    plexus_.faults.set_node(name_);
    // Assembly order mirrors a real boot: FEA first (it owns the hardware
    // abstraction), then the RIB (which needs the FEA), then protocols.
    fea_xr_ = std::make_unique<ipc::XrlRouter>(plexus_, "fea", true);
    fea_ = std::make_unique<fea::Fea>(plexus_.loop);
    fea_->set_node(name_);
    fea::bind_fea_xrl(*fea_, *fea_xr_);
    fea_xr_->finalize();

    rib_xr_ = std::make_unique<ipc::XrlRouter>(plexus_, "rib", true);
    rib_ = std::make_unique<rib::Rib>(
        plexus_.loop, std::make_unique<rib::XrlFeaHandle>(*rib_xr_));
    rib_->set_node(name_);
    rib::bind_rib_xrl(*rib_, *rib_xr_);
    rib_xr_->finalize();

    rip_xr_ = std::make_unique<ipc::XrlRouter>(plexus_, "rip", true);
    rip_ = std::make_unique<rip::RipProcess>(
        plexus_.loop, *fea_, rip::RipProcess::Config{},
        std::make_unique<rib::XrlRibClient>(*rip_xr_));
    rip_xr_->finalize();

    ospf_xr_ = std::make_unique<ipc::XrlRouter>(plexus_, "ospf", true);
    ospf_ = std::make_unique<ospf::OspfProcess>(
        plexus_.loop, *fea_, ospf::OspfProcess::Config{},
        std::make_unique<rib::XrlRibClient>(*ospf_xr_));
    ospf_->set_node(name_);
    ospf::bind_ospf_xrl(*ospf_, *ospf_xr_);
    ospf_xr_->finalize();

    mgr_xr_ = std::make_unique<ipc::XrlRouter>(plexus_, "rtrmgr", true);
    mgr_xr_->finalize();

    supervise_components();
}

Router::~Router() = default;

bool Router::configure(const std::string& config_text, std::string* error) {
    auto tree = ConfigTree::parse(config_text, error);
    if (!tree) return false;
    return configure(*tree, error);
}

bool Router::configure(const ConfigTree& tree, std::string* error) {
    if (!validate(tree, error)) return false;
    previous_ = running_;
    if (!apply(tree, error)) return false;
    running_ = tree;
    return true;
}

bool Router::rollback(std::string* error) {
    ConfigTree target = previous_;
    return configure(target, error);
}

namespace {

bool fail(std::string* error, std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
}

bool valid_grace_leaf(const ConfigNode& c) {
    return c.args.size() == 1 && std::atoi(c.args[0].c_str()) > 0;
}

std::set<std::string> rip_interfaces(const ConfigTree& t) {
    std::set<std::string> out;
    if (const ConfigNode* r = t.find("protocols/rip"))
        for (const ConfigNode& c : r->children)
            if (c.name == "interface") out.insert(c.args[0]);
    return out;
}

std::map<std::string, uint32_t> ospf_interfaces(const ConfigTree& t) {
    std::map<std::string, uint32_t> out;
    if (const ConfigNode* o = t.find("protocols/ospf"))
        for (const ConfigNode& c : o->children)
            if (c.name == "interface") {
                uint32_t cost = 1;
                if (auto v = c.leaf_value("cost"))
                    cost = static_cast<uint32_t>(std::atoi(v->c_str()));
                out[c.args[0]] = cost;
            }
    return out;
}

}  // namespace

bool Router::validate(const ConfigTree& tree, std::string* error) const {
    // Crash-loop breaker surfacing: a component the Supervisor gave up on
    // makes the router's state ambiguous, so commits are refused until an
    // operator acknowledges (Supervisor::clear_failed re-arms the breaker
    // and retries the restart).
    if (supervisor_ != nullptr && supervisor_->any_failed()) {
        std::string who;
        for (const std::string& cls : supervisor_->failed())
            who += (who.empty() ? "" : ", ") + cls;
        return fail(error, "component(s) failed (crash-loop breaker): " +
                               who + "; clear_failed() to retry");
    }
    for (const ConfigNode& top : tree.root().children) {
        if (top.name == "interfaces") {
            for (const ConfigNode& itf : top.children) {
                auto addr = itf.leaf_value("address");
                if (!addr || !IPv4Net::parse(*addr))
                    return fail(error, "interface " + itf.name +
                                           ": bad or missing address");
            }
        } else if (top.name == "protocols") {
            for (const ConfigNode& proto : top.children) {
                if (proto.name == "static") {
                    for (const ConfigNode& r : proto.children) {
                        if (r.name != "route" || r.args.size() != 1 ||
                            !IPv4Net::parse(r.args[0]))
                            return fail(error, "static: bad route statement");
                        auto nh = r.leaf_value("nexthop");
                        if (!nh || !IPv4::parse(*nh))
                            return fail(error, "static route " + r.args[0] +
                                                   ": bad nexthop");
                    }
                } else if (proto.name == "rip") {
                    for (const ConfigNode& c : proto.children) {
                        if (c.name == "grace-period") {
                            if (!valid_grace_leaf(c))
                                return fail(error, "rip: bad grace-period");
                        } else if (c.name != "interface" ||
                                   c.args.size() != 1) {
                            return fail(
                                error,
                                "rip: expected 'interface <name>' or "
                                "'grace-period <seconds>'");
                        }
                    }
                } else if (proto.name == "ospf") {
                    for (const ConfigNode& c : proto.children) {
                        if (c.name == "grace-period") {
                            if (!valid_grace_leaf(c))
                                return fail(error, "ospf: bad grace-period");
                        } else if (c.name == "router-id") {
                            if (c.args.size() != 1 || !IPv4::parse(c.args[0]))
                                return fail(error, "ospf: bad router-id");
                        } else if (c.name == "max-paths") {
                            if (c.args.size() != 1 ||
                                std::atoi(c.args[0].c_str()) <= 0)
                                return fail(error, "ospf: bad max-paths");
                        } else if (c.name == "interface") {
                            if (c.args.size() != 1)
                                return fail(error,
                                            "ospf: expected 'interface <name>'");
                            if (auto cost = c.leaf_value("cost");
                                cost && std::atoi(cost->c_str()) <= 0)
                                return fail(error, "ospf: interface " +
                                                       c.args[0] +
                                                       ": bad cost");
                        } else {
                            return fail(error,
                                        "ospf: unknown statement: " + c.name);
                        }
                    }
                } else if (proto.name == "bgp") {
                    if (const ConfigNode* g = proto.find("grace-period"))
                        if (!valid_grace_leaf(*g))
                            return fail(error, "bgp: bad grace-period");
                    auto as = proto.leaf_value("local-as");
                    auto id = proto.leaf_value("bgp-id");
                    if (!as || std::atoi(as->c_str()) <= 0)
                        return fail(error, "bgp: bad or missing local-as");
                    if (!id || !IPv4::parse(*id))
                        return fail(error, "bgp: bad or missing bgp-id");
                    if (bgp_ != nullptr) {
                        // The core BGP identity is fixed at creation.
                        if (static_cast<bgp::As>(std::atoi(as->c_str())) !=
                                bgp_->config().local_as ||
                            IPv4::must_parse(*id) != bgp_->config().bgp_id)
                            return fail(error,
                                        "bgp: local-as/bgp-id cannot change "
                                        "at runtime");
                    }
                } else {
                    return fail(error, "unknown protocol: " + proto.name);
                }
            }
        } else {
            return fail(error, "unknown section: " + top.name);
        }
    }
    // Interface removal is not supported (sessions would dangle).
    if (const ConfigNode* old_ifs = running_.find("interfaces")) {
        const ConfigNode* new_ifs = tree.find("interfaces");
        for (const ConfigNode& itf : old_ifs->children)
            if (new_ifs == nullptr || new_ifs->find(itf.name) == nullptr)
                return fail(error,
                            "interface " + itf.name + " cannot be removed");
    }
    return true;
}

bool Router::apply(const ConfigTree& tree, std::string* error) {
    // Config-driven route pushes go to the RIB as one batch per origin per
    // commit. They are idempotent, so the reliable contract may retry them
    // and one dropped XRL can't desync the RIB from the running config.
    rib::XrlRibClient to_rib(*mgr_xr_);

    // ---- interfaces (additive) ----------------------------------------
    if (const ConfigNode* ifs = tree.find("interfaces")) {
        stage::RouteBatch4 connected;
        for (const ConfigNode& itf : ifs->children) {
            if (fea_->interfaces().find(itf.name) != nullptr) continue;
            IPv4Net addr = IPv4Net::must_parse(*itf.leaf_value("address"));
            // leaf_value validated; address keeps host bits via raw parse.
            size_t slash = itf.leaf_value("address")->find('/');
            IPv4 host = IPv4::must_parse(
                itf.leaf_value("address")->substr(0, slash));
            fea_->interfaces().add_interface(itf.name, host,
                                             addr.prefix_len());
            // A configured interface originates its connected route; this
            // is what makes directly-attached BGP nexthops resolvable.
            connected.add(addr, net::NexthopSet4::single(host), 0);
        }
        if (!connected.empty())
            to_rib.push_batch("connected", std::move(connected));
    }

    // ---- static routes (diffed, one batch to the RIB) -------------------
    auto collect_static = [](const ConfigTree& t) {
        std::map<IPv4Net, IPv4> out;
        if (const ConfigNode* s = t.find("protocols/static"))
            for (const ConfigNode& r : s->children)
                out[IPv4Net::must_parse(r.args[0])] =
                    IPv4::must_parse(*r.leaf_value("nexthop"));
        return out;
    };
    auto old_static = collect_static(running_);
    auto new_static = collect_static(tree);
    stage::RouteBatch4 statics;
    for (const auto& [net, nh] : old_static) {
        auto it = new_static.find(net);
        if (it == new_static.end() || !(it->second == nh)) statics.del(net);
    }
    for (const auto& [net, nh] : new_static) {
        auto it = old_static.find(net);
        if (it == old_static.end() || !(it->second == nh))
            statics.add(net, net::NexthopSet4::single(nh), 1);
    }
    if (!statics.empty()) to_rib.push_batch("static", std::move(statics));

    // ---- RIP interfaces (diffed) ----------------------------------------
    auto old_rip = rip_interfaces(running_);
    auto new_rip = rip_interfaces(tree);
    for (const std::string& ifname : old_rip)
        if (new_rip.count(ifname) == 0) rip_->disable_interface(ifname);
    for (const std::string& ifname : new_rip)
        if (old_rip.count(ifname) == 0) rip_->enable_interface(ifname);

    // ---- OSPF interfaces (diffed; costs applied in place) ----------------
    if (const ConfigNode* o = tree.find("protocols/ospf")) {
        if (auto rid = o->leaf_value("router-id"))
            if (!ospf_->set_router_id(IPv4::must_parse(*rid)))
                return fail(error,
                            "ospf: router-id cannot change while interfaces "
                            "are enabled");
        // ECMP width; changing it reschedules SPF with the new clamp.
        if (auto mp = o->leaf_value("max-paths"))
            ospf_->set_max_paths(
                static_cast<uint32_t>(std::atoi(mp->c_str())));
    }
    auto old_ospf = ospf_interfaces(running_);
    auto new_ospf = ospf_interfaces(tree);
    for (const auto& [ifname, cost] : old_ospf)
        if (new_ospf.find(ifname) == new_ospf.end())
            ospf_->disable_interface(ifname);
    for (const auto& [ifname, cost] : new_ospf) {
        auto it = old_ospf.find(ifname);
        if (it == old_ospf.end())
            ospf_->enable_interface(ifname, cost);
        else if (it->second != cost)
            ospf_->set_interface_cost(ifname, cost);
    }

    // ---- BGP (created once) ----------------------------------------------
    if (const ConfigNode* b = tree.find("protocols/bgp")) {
        if (bgp_ == nullptr) {
            bgp::BgpProcess::Config cfg;
            cfg.local_as = static_cast<bgp::As>(
                std::atoi(b->leaf_value("local-as")->c_str()));
            cfg.bgp_id = IPv4::must_parse(*b->leaf_value("bgp-id"));
            if (b->find("damping") != nullptr) cfg.enable_damping = true;
            if (b->find("multipath") != nullptr) cfg.multipath = true;
            bgp_xr_ = std::make_unique<ipc::XrlRouter>(plexus_, "bgp", true);
            bgp_ = std::make_unique<bgp::BgpProcess>(
                plexus_.loop, cfg,
                std::make_unique<bgp::XrlRibHandle>(*bgp_xr_));
            bgp::bind_bgp_xrl(*bgp_, *bgp_xr_);
            bgp_xr_->finalize();
        }
        // network statements: originate into BGP.
        for (const ConfigNode& c : b->children)
            if (c.name == "network" && c.args.size() == 1) {
                auto net = IPv4Net::parse(c.args[0]);
                if (net) bgp_->originate(*net, bgp_->config().bgp_id);
            }
        supervise_bgp();
    }

    // ---- graceful-restart grace periods ---------------------------------
    // `grace-period <seconds>;` in a protocol section sets how long the
    // RIB preserves that protocol's routes after its component dies.
    auto apply_grace = [&](const char* section,
                           std::initializer_list<const char*> protocols) {
        const ConfigNode* n =
            tree.find(std::string("protocols/") + section);
        if (n == nullptr) return;
        auto g = n->leaf_value("grace-period");
        if (!g) return;
        for (const char* proto : protocols) {
            XrlArgs args;
            args.add("protocol", std::string(proto))
                .add("seconds",
                     static_cast<uint32_t>(std::atoi(g->c_str())));
            mgr_xr_->call_oneway(
                Xrl::generic("rib", "rib", "1.0", "set_grace_period", args),
                ipc::CallOptions::reliable());
        }
    };
    apply_grace("rip", {"rip"});
    apply_grace("ospf", {"ospf"});
    apply_grace("bgp", {"ebgp", "ibgp"});
    return true;
}

void Router::connect_bgp(Router& a, Router& b, ev::Duration latency) {
    if (a.bgp() == nullptr || b.bgp() == nullptr) return;
    auto [ta, tb] = bgp::PipeTransport::make_pair(a.plexus_.loop,
                                                  b.plexus_.loop, latency);
    bgp::BgpPeer::Config ca;
    ca.local_id = a.bgp()->config().bgp_id;
    ca.peer_addr = b.bgp()->config().bgp_id;
    ca.local_as = a.bgp()->config().local_as;
    ca.peer_as = b.bgp()->config().local_as;
    bgp::BgpPeer::Config cb;
    cb.local_id = b.bgp()->config().bgp_id;
    cb.peer_addr = a.bgp()->config().bgp_id;
    cb.local_as = b.bgp()->config().local_as;
    cb.peer_as = a.bgp()->config().local_as;
    int ida = a.bgp()->add_peer(ca, std::move(ta));
    int idb = b.bgp()->add_peer(cb, std::move(tb));
    // Remember the session on both sides so a BgpProcess restart can
    // rewire it (see restart_bgp).
    a.bgp_links_.push_back({&b, latency, ida, idb});
    b.bgp_links_.push_back({&a, latency, idb, ida});
}

// ---- component supervision -----------------------------------------------

void Router::supervise_components() {
    supervisor_ = std::make_unique<Supervisor>(plexus_, *mgr_xr_);

    Supervisor::Spec rip_spec;
    rip_spec.cls = "rip";
    rip_spec.protocols = {"rip"};
    rip_spec.restart = [this] { restart_rip(); };
    rip_spec.resynced = [this] {
        // enable_interface sent a whole-table request on restart; any
        // inbound packet means neighbors answered it. With no interfaces
        // configured there is nothing to relearn.
        return rip_interfaces(running_).empty() ||
               rip_->stats().packets_in > 0;
    };
    supervisor_->supervise(std::move(rip_spec));

    Supervisor::Spec ospf_spec;
    ospf_spec.cls = "ospf";
    ospf_spec.protocols = {"ospf"};
    ospf_spec.restart = [this] { restart_ospf(); };
    ospf_spec.resynced = [this] {
        // Full adjacency means the database exchange completed (we hold
        // the area's LSAs again); a first SPF run means routes flowed.
        return ospf_interfaces(running_).empty() ||
               (ospf_->full_neighbor_count() > 0 &&
                ospf_->stats().spf_runs > 0);
    };
    supervisor_->supervise(std::move(ospf_spec));
}

void Router::supervise_bgp() {
    if (supervisor_ == nullptr || supervisor_->supervising("bgp")) return;
    Supervisor::Spec spec;
    spec.cls = "bgp";
    spec.protocols = {"ebgp", "ibgp"};
    spec.restart = [this] { restart_bgp(); };
    spec.resynced = [this] {
        // Established on every configured session: the peers' table dumps
        // are queued/flowing; the supervisor's settle delay lets them
        // drain before the RIB sweeps.
        for (const BgpLink& l : bgp_links_) {
            bgp::BgpPeer* p = bgp_->peer_session(l.local_id);
            if (p == nullptr || !p->established()) return false;
        }
        return true;
    };
    supervisor_->supervise(std::move(spec));
}

void Router::restart_rip() {
    // The process references its XrlRouter (RIB client): destroy it
    // first. Destroying the XrlRouter unregisters the dead instance so
    // the fresh one can take the sole-class slot.
    rip_.reset();
    rip_xr_.reset();
    rip_xr_ = std::make_unique<ipc::XrlRouter>(plexus_, "rip", true);
    rip_ = std::make_unique<rip::RipProcess>(
        plexus_.loop, *fea_, rip::RipProcess::Config{},
        std::make_unique<rib::XrlRibClient>(*rip_xr_));
    rip_xr_->finalize();
    // Re-apply the running config; each enable sends a whole-table
    // request — RIP's natural resync.
    for (const std::string& ifname : rip_interfaces(running_))
        rip_->enable_interface(ifname);
}

void Router::restart_ospf() {
    ospf_.reset();
    ospf_xr_.reset();
    ospf_xr_ = std::make_unique<ipc::XrlRouter>(plexus_, "ospf", true);
    ospf_ = std::make_unique<ospf::OspfProcess>(
        plexus_.loop, *fea_, ospf::OspfProcess::Config{},
        std::make_unique<rib::XrlRibClient>(*ospf_xr_));
    ospf_->set_node(name_);
    ospf::bind_ospf_xrl(*ospf_, *ospf_xr_);
    ospf_xr_->finalize();
    if (const ConfigNode* o = running_.find("protocols/ospf")) {
        if (auto rid = o->leaf_value("router-id"))
            ospf_->set_router_id(IPv4::must_parse(*rid));
        if (auto mp = o->leaf_value("max-paths"))
            ospf_->set_max_paths(
                static_cast<uint32_t>(std::atoi(mp->c_str())));
    }
    // Re-enabling interfaces restarts hellos; adjacency re-formation and
    // database exchange re-flood the area's LSAs into the fresh Lsdb
    // (receiving our own pre-restart LSAs bumps our sequence numbers).
    for (const auto& [ifname, cost] : ospf_interfaces(running_))
        ospf_->enable_interface(ifname, cost);
}

void Router::restart_bgp() {
    if (bgp_ == nullptr) return;
    bgp::BgpProcess::Config cfg = bgp_->config();
    bgp_.reset();
    bgp_xr_.reset();
    bgp_xr_ = std::make_unique<ipc::XrlRouter>(plexus_, "bgp", true);
    bgp_ = std::make_unique<bgp::BgpProcess>(
        plexus_.loop, cfg, std::make_unique<bgp::XrlRibHandle>(*bgp_xr_));
    bgp::bind_bgp_xrl(*bgp_, *bgp_xr_);
    bgp_xr_->finalize();
    // Re-originate configured networks.
    if (const ConfigNode* b = running_.find("protocols/bgp"))
        for (const ConfigNode& c : b->children)
            if (c.name == "network" && c.args.size() == 1)
                if (auto net = IPv4Net::parse(c.args[0]))
                    bgp_->originate(*net, bgp_->config().bgp_id);
    // Rewire every remembered session: the peer drops its half-dead end,
    // both sides get fresh pipes, and establishment triggers the peer's
    // full table dump — BGP's resync.
    for (BgpLink& l : bgp_links_) {
        l.peer->bgp()->remove_peer(l.remote_id);
        auto [tl, tr] = bgp::PipeTransport::make_pair(
            plexus_.loop, l.peer->plexus_.loop, l.latency);
        bgp::BgpPeer::Config cl;
        cl.local_id = bgp_->config().bgp_id;
        cl.peer_addr = l.peer->bgp()->config().bgp_id;
        cl.local_as = bgp_->config().local_as;
        cl.peer_as = l.peer->bgp()->config().local_as;
        bgp::BgpPeer::Config cr;
        cr.local_id = l.peer->bgp()->config().bgp_id;
        cr.peer_addr = bgp_->config().bgp_id;
        cr.local_as = l.peer->bgp()->config().local_as;
        cr.peer_as = bgp_->config().local_as;
        l.local_id = bgp_->add_peer(cl, std::move(tl));
        l.remote_id = l.peer->bgp()->add_peer(cr, std::move(tr));
        for (BgpLink& rl : l.peer->bgp_links_)
            if (rl.peer == this) {
                rl.local_id = l.remote_id;
                rl.remote_id = l.local_id;
            }
    }
}

}  // namespace xrp::rtrmgr
