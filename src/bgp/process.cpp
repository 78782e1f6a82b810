#include "bgp/process.hpp"

#include "telemetry/journal.hpp"

namespace xrp::bgp {

using net::IPv4;
using net::IPv4Net;

// ---- PeerOutStage -------------------------------------------------------

// Terminal stage of a peer's output branch: turns the route stream into
// UPDATE messages on the session. One route per UPDATE keeps latency
// minimal (the paper's concern); the session layer pipelines on the wire.
class BgpProcess::PeerOutStage : public stage::RouteStage<IPv4> {
public:
    PeerOutStage(std::string name, BgpPeer* session)
        : name_(std::move(name)), session_(session) {}

    void add_route(const BgpRoute& route, RouteStage*) override {
        UpdateMessage u;
        const PathAttributes* pa = route_attrs(route);
        u.attributes = pa != nullptr ? *pa : PathAttributes{};
        if (pa == nullptr) {
            u.attributes->nexthop = route.nexthop;
            u.attributes->origin = Origin::kIgp;
        }
        u.nlri.push_back(route.net);
        session_->send_update(u);
    }

    void delete_route(const BgpRoute& route, RouteStage*) override {
        UpdateMessage u;
        u.withdrawn.push_back(route.net);
        session_->send_update(u);
    }

    std::optional<BgpRoute> lookup_route(const Net& net) const override {
        return this->lookup_upstream(net);
    }

    std::string name() const override { return name_; }

private:
    std::string name_;
    BgpPeer* session_;
};

// ---- PeerPipeline -------------------------------------------------------

struct BgpProcess::PeerPipeline {
    int id = 0;
    std::unique_ptr<BgpPeer> session;
    // Input side.
    std::unique_ptr<stage::OriginStage<IPv4>> peer_in;
    std::unique_ptr<stage::FilterStage<IPv4>> in_filter;
    std::unique_ptr<DampingStage> damping;
    std::unique_ptr<NexthopResolverStage> resolver;
    // Output side.
    std::unique_ptr<stage::FilterStage<IPv4>> out_filter;
    std::unique_ptr<PeerOutStage> peer_out;
    int fanout_branch = -1;
    // Background full-table dump for a newly established session.
    ev::Task dump_task;
    std::shared_ptr<const policy::Program> import_policy;
    std::shared_ptr<const policy::Program> export_policy;
};

// ---- construction --------------------------------------------------------

BgpProcess::BgpProcess(ev::EventLoop& loop, Config config,
                       std::unique_ptr<RibHandle> rib)
    : loop_(loop), config_(config), rib_(std::move(rib)) {
    if (!rib_) rib_ = std::make_unique<NullRibHandle>();

    decision_ = std::make_unique<DecisionStage>("decision");
    if (config_.multipath) decision_->set_multipath(config_.max_paths);
    fanout_ = std::make_unique<stage::FanoutStage<IPv4>>("fanout");
    decision_->set_downstream(fanout_.get());
    fanout_->set_upstream(decision_.get());

    rib_branch_ = std::make_unique<stage::SinkStage<IPv4>>("rib-branch");
    rib_branch_->set_batch_callback([this](stage::RouteBatch<IPv4>&& batch) {
        // Self-originated winners came from the local routing table
        // (network statements); feeding them back would ask the RIB for an
        // origin it doesn't have. A replace whose halves disagree degrades
        // to the surviving half. The filtered delta ships as one RIB call.
        stage::RouteBatch<IPv4> out;
        out.reserve(batch.size());
        for (auto& e : batch.entries()) {
            const bool new_ok = e.route.protocol != "local";
            const bool old_ok = e.op != stage::BatchOp::kReplace ||
                                e.old_route.protocol != "local";
            if (e.op != stage::BatchOp::kReplace) {
                if (new_ok) out.push(std::move(e));
            } else if (new_ok && old_ok) {
                out.push(std::move(e));
            } else if (new_ok) {
                out.add(std::move(e.route));
            } else if (old_ok) {
                out.del(std::move(e.old_route));
            }
        }
        if (out.empty()) return;
        if (telemetry::trace_points_enabled())
            telemetry::Journal::current().record_batch(
                loop_.now(), telemetry::JournalKind::kBgpRibQueued, {}, "bgp",
                out);
        rib_->push_batch(std::move(out));
    });
    fanout_->add_branch(rib_branch_.get());

    loc_rib_ = std::make_unique<stage::SinkStage<IPv4>>("loc-rib");
    fanout_->add_branch(loc_rib_.get());

    // Local origination pipeline: origin -> resolver -> decision.
    local_origin_ = std::make_unique<stage::OriginStage<IPv4>>("local-origin");
    local_resolver_ = std::make_unique<NexthopResolverStage>(
        "local-nexthop",
        [this](IPv4 nexthop, NexthopResolverStage::AnswerCallback answer) {
            rib_->register_interest(nexthop, std::move(answer));
        });
    local_origin_->set_downstream(local_resolver_.get());
    local_resolver_->set_upstream(local_origin_.get());
    decision_->add_parent(local_resolver_.get());
}

BgpProcess::~BgpProcess() = default;

// ---- peers ---------------------------------------------------------------

int BgpProcess::add_peer(const BgpPeer::Config& config,
                         std::unique_ptr<BgpTransport> transport) {
    int id = next_peer_id_++;
    auto p = std::make_unique<PeerPipeline>();
    p->id = id;
    p->session = std::make_unique<BgpPeer>(loop_, config, std::move(transport));

    const std::string tag = "peer" + std::to_string(id);
    p->peer_in = std::make_unique<stage::OriginStage<IPv4>>(tag + "-in");
    p->in_filter = std::make_unique<stage::FilterStage<IPv4>>(tag + "-in-filter");
    p->resolver = std::make_unique<NexthopResolverStage>(
        tag + "-nexthop",
        [this](IPv4 nexthop, NexthopResolverStage::AnswerCallback answer) {
            rib_->register_interest(nexthop, std::move(answer));
        });

    // Input plumbing: peer_in -> in_filter [-> damping] -> resolver -> decision.
    p->peer_in->set_downstream(p->in_filter.get());
    p->in_filter->set_upstream(p->peer_in.get());
    stage::RouteStage<IPv4>* tail = p->in_filter.get();
    if (config_.enable_damping) {
        p->damping = std::make_unique<DampingStage>(tag + "-damping", loop_,
                                                    config_.damping);
        tail->set_downstream(p->damping.get());
        p->damping->set_upstream(tail);
        tail = p->damping.get();
    }
    tail->set_downstream(p->resolver.get());
    p->resolver->set_upstream(tail);
    decision_->add_parent(p->resolver.get());

    // Output plumbing: fanout -> out_filter -> peer_out.
    p->out_filter =
        std::make_unique<stage::FilterStage<IPv4>>(tag + "-out-filter");
    p->peer_out = std::make_unique<PeerOutStage>(tag + "-out", p->session.get());
    p->out_filter->set_downstream(p->peer_out.get());
    p->peer_out->set_upstream(p->out_filter.get());
    install_out_filters(*p);
    p->fanout_branch = fanout_->add_branch(p->out_filter.get());

    // Session callbacks.
    BgpPeer* session = p->session.get();
    session->on_update = [this, id](const UpdateMessage& u) {
        handle_update(id, u);
    };
    session->on_established = [this, id] { handle_peer_established(id); };
    session->on_down = [this, id] { handle_peer_down(id); };

    peers_[id] = std::move(p);
    session->start();
    return id;
}

void BgpProcess::remove_peer(int id) {
    auto it = peers_.find(id);
    if (it == peers_.end()) return;
    PeerPipeline& p = *it->second;
    p.session->on_update = nullptr;
    p.session->on_established = nullptr;
    p.session->on_down = nullptr;
    p.session->stop();
    // Flush its routes out of the pipeline synchronously (remove_peer is
    // an operator action, not a flap; no need for background deletion).
    std::vector<BgpRoute> routes;
    p.peer_in->table().for_each(
        [&](const IPv4Net&, const BgpRoute& r) { routes.push_back(r); });
    for (const BgpRoute& r : routes) p.peer_in->delete_route(r);
    decision_->remove_parent(p.resolver.get());
    fanout_->remove_branch(p.fanout_branch);
    peers_.erase(it);
}

BgpPeer* BgpProcess::peer_session(int id) {
    auto it = peers_.find(id);
    return it == peers_.end() ? nullptr : it->second->session.get();
}

DampingStage* BgpProcess::damping_stage(int peer_id) {
    auto it = peers_.find(peer_id);
    return it == peers_.end() ? nullptr : it->second->damping.get();
}

size_t BgpProcess::peer_route_count(int peer_id) const {
    auto it = peers_.find(peer_id);
    return it == peers_.end() ? 0 : it->second->peer_in->route_count();
}

// ---- update ingestion ------------------------------------------------------

void BgpProcess::handle_update(int peer_id, const UpdateMessage& update) {
    auto it = peers_.find(peer_id);
    if (it == peers_.end()) return;
    PeerPipeline& p = *it->second;

    // One UPDATE becomes one batch into the Peer In: withdrawals then
    // announcements, the announcements sharing a single interned
    // attribute block.
    stage::RouteBatch<IPv4> batch;
    batch.reserve(update.withdrawn.size() + update.nlri.size());
    for (const IPv4Net& net : update.withdrawn) {
        BgpRoute r;
        r.net = net;
        batch.del(std::move(r));
    }

    // Sender-side loop prevention can fail; receiver-side is mandatory.
    // (malformed attributes: session layer notified, announcements dropped)
    if (!update.nlri.empty() && update.attributes &&
        !(update.attributes->as_path.contains(config_.local_as) &&
          !p.session->is_ibgp())) {
        auto attrs = intern_attrs(*update.attributes);
        const bool ibgp = p.session->is_ibgp();
        for (const IPv4Net& net : update.nlri) {
            BgpRoute r;
            r.net = net;
            r.nexthop = attrs->nexthop;
            r.protocol = ibgp ? "ibgp" : "ebgp";
            r.source_id = p.session->config().peer_addr.to_host();
            r.attrs = attrs;
            batch.add(std::move(r));
        }
    }
    if (batch.empty()) return;
    if (telemetry::trace_points_enabled())
        telemetry::Journal::current().record_batch(
            loop_.now(), telemetry::JournalKind::kBgpIn, {}, "bgp", batch);
    p.peer_in->push_batch(std::move(batch));
}

// ---- session lifecycle -----------------------------------------------------

void BgpProcess::handle_peer_established(int peer_id) {
    start_table_dump(peer_id);
}

void BgpProcess::handle_peer_down(int peer_id) {
    auto it = peers_.find(peer_id);
    if (it == peers_.end()) return;
    PeerPipeline& p = *it->second;
    p.dump_task.cancel();
    if (p.peer_in->route_count() == 0) return;

    // §5.1.2: hand the whole table to a dynamic deletion stage plumbed
    // directly after the Peer In; the origin is instantly ready for the
    // peering to come back up.
    auto table = p.peer_in->detach_table();
    auto del = std::make_unique<stage::DeletionStage<IPv4>>(
        "peer" + std::to_string(peer_id) + "-deletion", std::move(table),
        loop_,
        [this](stage::DeletionStage<IPv4>* done) {
            std::erase_if(deleters_, [done](const auto& d) {
                return d.get() == done;
            });
        },
        config_.routes_per_slice);
    stage::plumb_between<IPv4>(*p.peer_in, *del, *p.peer_in->downstream());
    deleters_.push_back(std::move(del));
}

void BgpProcess::start_table_dump(int peer_id) {
    auto it = peers_.find(peer_id);
    if (it == peers_.end()) return;
    PeerPipeline& p = *it->second;
    // Dump the Loc-RIB to the new peer in background slices over a safe
    // iterator; concurrent changes flow via the fanout and may duplicate
    // an announcement, which BGP's implicit-replace semantics absorb.
    auto iter = std::make_shared<net::RouteTrie<IPv4, BgpRoute>::iterator>(
        loc_rib_->mutable_table().begin());
    p.dump_task = loop_.add_background_task([this, peer_id, iter] {
        auto pit = peers_.find(peer_id);
        if (pit == peers_.end()) return false;
        PeerPipeline& pp = *pit->second;
        size_t n = 0;
        while (n < config_.routes_per_slice && !iter->at_end()) {
            if (iter->valid())
                pp.out_filter->add_route(iter->value(), nullptr);
            ++*iter;
            ++n;
        }
        return !iter->at_end();
    });
}

// ---- local origination -----------------------------------------------------

void BgpProcess::originate(const IPv4Net& net, IPv4 nexthop) {
    PathAttributes pa;
    pa.origin = Origin::kIgp;
    pa.nexthop = nexthop;
    auto attrs = intern_attrs(std::move(pa));
    BgpRoute r;
    r.net = net;
    r.nexthop = nexthop;
    r.protocol = "local";
    r.source_id = config_.bgp_id.to_host();
    r.attrs = std::move(attrs);
    local_origin_->add_route(r);
}

void BgpProcess::withdraw(const IPv4Net& net) {
    BgpRoute r;
    r.net = net;
    local_origin_->delete_route(r);
}

// ---- policy -----------------------------------------------------------------

policy::AttributeBinding<IPv4> BgpProcess::policy_binding() {
    policy::AttributeBinding<IPv4> b;
    b.load = [](const BgpRoute& r,
                const std::string& name) -> std::optional<policy::Value> {
        const PathAttributes* pa = route_attrs(r);
        if (pa == nullptr) return std::nullopt;
        if (name == "localpref") return policy::Value(pa->local_pref.value_or(100));
        if (name == "med") return policy::Value(pa->med.value_or(0));
        if (name == "aspath-len") return policy::Value(pa->as_path.path_length());
        if (name == "origin")
            return policy::Value(static_cast<uint32_t>(pa->origin));
        return std::nullopt;
    };
    b.store = [](BgpRoute& r, const std::string& name,
                 const policy::Value& v) {
        const PathAttributes* pa = route_attrs(r);
        if (pa == nullptr) return false;
        auto n = std::get_if<uint32_t>(&v);
        if (n == nullptr) return false;
        PathAttributes copy = *pa;
        if (name == "localpref") copy.local_pref = *n;
        else if (name == "med") copy.med = *n;
        else return false;
        r.attrs = intern_attrs(std::move(copy));
        return true;
    };
    return b;
}

void BgpProcess::set_import_policy(
    int peer_id, std::shared_ptr<const policy::Program> prog) {
    auto it = peers_.find(peer_id);
    if (it == peers_.end()) return;
    PeerPipeline& p = *it->second;
    p.import_policy = std::move(prog);
    // Re-filter (§5.1.2's "routing policy filters are changed by the
    // operator" case): retract through the old bank, swap, re-announce
    // through the new one, so downstream never holds a rejected route.
    p.peer_in->retract_all();
    std::vector<stage::FilterStage<IPv4>::Filter> filters;
    if (p.import_policy)
        filters.push_back(
            policy::make_filter<IPv4>(p.import_policy, policy_binding()));
    p.in_filter->set_filters(std::move(filters));
    p.peer_in->announce_all();
}

void BgpProcess::set_export_policy(
    int peer_id, std::shared_ptr<const policy::Program> prog) {
    auto it = peers_.find(peer_id);
    if (it == peers_.end()) return;
    PeerPipeline& p = *it->second;
    // Retract the Loc-RIB through the old export bank first, so prefixes
    // the new policy rejects are withdrawn on the wire; then swap and
    // re-announce. (Synchronous — export policy swaps are rare operator
    // actions; the dump back out runs in the background.)
    if (p.session->established())
        loc_rib_->table().for_each([&](const IPv4Net&, const BgpRoute& r) {
            p.out_filter->delete_route(r, nullptr);
        });
    p.export_policy = std::move(prog);
    install_out_filters(p);
    if (p.session->established()) start_table_dump(peer_id);
}

void BgpProcess::install_out_filters(PeerPipeline& p) {
    std::vector<stage::FilterStage<IPv4>::Filter> filters;
    const uint32_t peer_source = p.session->config().peer_addr.to_host();
    const bool peer_is_ibgp = p.session->is_ibgp();
    const As local_as = config_.local_as;
    const IPv4 local_addr = p.session->config().local_id;

    // Split horizon: never announce a route back to the peer it came from.
    filters.push_back(
        [peer_source](BgpRoute& r) { return r.source_id != peer_source; });
    if (peer_is_ibgp) {
        // Standard IBGP rule: IBGP-learned routes are not reflected.
        filters.push_back([](BgpRoute& r) { return r.protocol != "ibgp"; });
    }
    // User export policy runs before the wire transforms.
    if (p.export_policy)
        filters.push_back(
            policy::make_filter<IPv4>(p.export_policy, policy_binding()));
    if (peer_is_ibgp) {
        filters.push_back([](BgpRoute& r) {
            const PathAttributes* pa = route_attrs(r);
            if (pa != nullptr && !pa->local_pref)
                r.attrs = with_local_pref(*pa, 100);
            return true;
        });
    } else {
        filters.push_back([local_as, local_addr](BgpRoute& r) {
            const PathAttributes* pa = route_attrs(r);
            PathAttributes base = pa != nullptr ? *pa : PathAttributes{};
            r.attrs = with_prepended_as(base, local_as, local_addr);
            r.nexthop = local_addr;
            return true;
        });
    }
    p.out_filter->set_filters(std::move(filters));
}

void BgpProcess::nexthop_invalid(const IPv4Net& valid_subnet) {
    local_resolver_->invalidate(valid_subnet);
    for (auto& [id, p] : peers_) p->resolver->invalidate(valid_subnet);
}

}  // namespace xrp::bgp
