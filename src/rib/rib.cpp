#include "rib/rib.hpp"

#include "telemetry/journal.hpp"

namespace xrp::rib {

using net::IPv4;
using net::IPv4Net;

Rib::Rib(ev::EventLoop& loop, std::unique_ptr<FeaHandle> fea)
    : loop_(loop), fea_(std::move(fea)) {
    if (!fea_) fea_ = std::make_unique<NullFeaHandle>();

    auto make_origin = [&](const char* proto, uint32_t dist) {
        Origin o;
        o.admin_distance = dist;
        o.stage = std::make_unique<stage::OriginStage<IPv4>>(
            std::string(proto) + "-origin");
        auto& reg = telemetry::Registry::global();
        o.adds = reg.counter(telemetry::metric_key("rib_route_adds_total",
                                                   {{"protocol", proto}}));
        o.deletes = reg.counter(telemetry::metric_key(
            "rib_route_deletes_total", {{"protocol", proto}}));
        o.stale_gauge = reg.gauge(telemetry::metric_key(
            "rib_stale_routes", {{"protocol", proto}}));
        o.swept = reg.counter(telemetry::metric_key(
            "rib_stale_routes_swept_total", {{"protocol", proto}}));
        o.grace_expiries = reg.counter(telemetry::metric_key(
            "rib_grace_expiries_total", {{"protocol", proto}}));
        origins_[proto] = std::move(o);
        return origins_[proto].stage.get();
    };
    auto* connected = make_origin("connected", kDistanceConnected);
    auto* statics = make_origin("static", kDistanceStatic);
    auto* ospf = make_origin("ospf", kDistanceOspf);
    auto* rip = make_origin("rip", kDistanceRip);
    auto* ebgp = make_origin("ebgp", kDistanceEbgp);
    auto* ibgp = make_origin("ibgp", kDistanceIbgp);

    // Internal merge tree (Figure 7's pairwise Merge stages).
    auto merge = [&](const char* name, stage::RouteStage<IPv4>* a,
                     stage::RouteStage<IPv4>* b) {
        merges_.push_back(
            std::make_unique<stage::MergeStage<IPv4>>(name));
        merges_.back()->set_parents(a, b);
        return merges_.back().get();
    };
    auto* m1 = merge("merge-conn-static", connected, statics);
    auto* m2 = merge("merge-igp1", m1, ospf);
    auto* internal = merge("merge-internal", m2, rip);
    auto* external = merge("merge-bgp", ebgp, ibgp);

    extint_ = std::make_unique<stage::ExtIntStage<IPv4>>("extint");
    extint_->set_parents(external, internal);

    register_stage_ =
        std::make_unique<stage::RegisterStage<IPv4>>("register");
    extint_->set_downstream(register_stage_.get());
    register_stage_->set_upstream(extint_.get());

    {
        auto& reg = telemetry::Registry::global();
        m_ecmp_routes_ = reg.gauge("rib_ecmp_routes");
        m_ecmp_members_ = reg.gauge("rib_ecmp_members");
    }
    // Winners ship to the FEA as deltas (a lone change as a one-entry
    // batch). A replace is a delete(old)+add(new) for the ECMP occupancy
    // gauges, so they stay balanced across set membership changes.
    final_ = std::make_unique<stage::SinkStage<IPv4>>("fea-branch");
    final_->set_batch_callback([this](stage::RouteBatch<IPv4>&& batch) {
        if (telemetry::trace_points_enabled())
            telemetry::Journal::current().record_batch(
                loop_.now(), telemetry::JournalKind::kRibFeaQueued, node_,
                "rib", batch);
        for (const auto& e : batch.entries()) {
            const Route4& gone =
                e.op == stage::BatchOp::kReplace ? e.old_route : e.route;
            if (e.op != stage::BatchOp::kAdd && gone.is_multipath()) {
                m_ecmp_routes_->add(-1);
                m_ecmp_members_->add(
                    -static_cast<int64_t>(gone.nexthops.size()));
            }
            if (e.op != stage::BatchOp::kDelete && e.route.is_multipath()) {
                m_ecmp_routes_->add(1);
                m_ecmp_members_->add(
                    static_cast<int64_t>(e.route.nexthops.size()));
            }
        }
        fea_->push_batch(std::move(batch));
    });
    register_stage_->set_downstream(final_.get());
    final_->set_upstream(register_stage_.get());
}

Rib::~Rib() = default;

bool Rib::push_batch(const std::string& protocol,
                     stage::RouteBatch4&& batch) {
    auto it = origins_.find(protocol);
    if (it == origins_.end()) return false;
    Origin& o = it->second;
    if (batch.empty()) return true;
    o.adds->inc(batch.add_count());
    o.deletes->inc(batch.delete_count());
    const bool journal = telemetry::journal_enabled();
    for (auto& e : batch.entries()) {
        if (e.op != stage::BatchOp::kDelete) {
            e.route.admin_distance = o.admin_distance;
            e.route.protocol = protocol;
        }
        if (e.op == stage::BatchOp::kReplace) {
            e.old_route.admin_distance = o.admin_distance;
            e.old_route.protocol = protocol;
        }
        // The journal stays per-route when enabled — the analyzer replays
        // individual events — and costs one branch per entry when not.
        if (journal) {
            auto& j = telemetry::Journal::current();
            if (e.op != stage::BatchOp::kAdd)
                j.record(loop_.now(), telemetry::JournalKind::kRouteWithdraw,
                         node_, "rib",
                         (e.op == stage::BatchOp::kReplace ? e.old_route.net
                                                           : e.route.net)
                             .str(),
                         protocol);
            if (e.op != stage::BatchOp::kDelete)
                j.record(loop_.now(), telemetry::JournalKind::kRouteInstall,
                         node_, "rib", e.route.net.str(),
                         protocol + ":" + e.route.nexthop_set().str(),
                         static_cast<int64_t>(e.route.metric));
        }
    }
    o.stage->push_batch(std::move(batch));
    if (o.state != OriginState::kFresh)
        o.stale_gauge->set(static_cast<int64_t>(o.stage->stale_count()));
    return true;
}

void Rib::set_admin_distance(const std::string& protocol, uint32_t distance) {
    auto it = origins_.find(protocol);
    if (it != origins_.end()) it->second.admin_distance = distance;
}

std::optional<Route4> Rib::lookup(IPv4 addr) const {
    return final_->lookup_route_lpm(addr);
}

std::optional<Route4> Rib::lookup_exact(const IPv4Net& net) const {
    return final_->lookup_route(net);
}

size_t Rib::origin_route_count(const std::string& protocol) const {
    auto it = origins_.find(protocol);
    return it == origins_.end() ? 0 : it->second.stage->route_count();
}

Rib::Answer Rib::register_interest(IPv4 addr, uint64_t client_id,
                                   InvalidateCallback cb) {
    auto ans = register_stage_->register_interest(addr, client_id,
                                                  std::move(cb));
    Answer out;
    out.valid_subnet = ans.valid_subnet;
    if (ans.has_route) {
        out.resolves = true;
        out.matched_net = ans.route.net;
        out.nexthop = ans.route.nexthop;
        out.metric = ans.route.metric;
    }
    return out;
}

void Rib::unregister_interest(const IPv4Net& valid_subnet,
                              uint64_t client_id) {
    register_stage_->unregister_interest(valid_subnet, client_id);
}

uint64_t Rib::add_redist(RedistPredicate pred, RedistSink sink) {
    uint64_t id = next_redist_id_++;
    auto stage = std::make_unique<stage::RedistStage<IPv4>>(
        "redist-" + std::to_string(id), std::move(pred), std::move(sink));
    // Plumb between the ExtInt stage and whatever currently follows it.
    stage::plumb_between<IPv4>(*extint_, *stage, *extint_->downstream());
    redists_[id] = std::move(stage);
    return id;
}

void Rib::remove_redist(uint64_t id) {
    auto it = redists_.find(id);
    if (it == redists_.end()) return;
    stage::unplumb(*it->second);
    redists_.erase(it);
}

void Rib::origin_dead(const std::string& protocol) {
    auto it = origins_.find(protocol);
    if (it == origins_.end()) return;
    Origin& o = it->second;
    // A re-death mid-sweep: stop the sweeper; the generation bump below
    // re-marks everything (including whatever it hadn't reached) stale.
    if (o.sweeper) o.sweeper->abort();
    o.stage->begin_refresh();
    o.state = OriginState::kStale;
    o.stale_gauge->set(static_cast<int64_t>(o.stage->stale_count()));
    o.grace_timer = loop_.set_timer(
        o.grace, [this, protocol] { grace_expired(protocol); });
}

void Rib::origin_revived(const std::string& protocol) {
    auto it = origins_.find(protocol);
    if (it == origins_.end()) return;
    Origin& o = it->second;
    if (o.state != OriginState::kStale) return;
    // The restarted instance is back and resyncing: stop the grace clock.
    // Routes stay stale until re-confirmed; the sweep waits for the
    // explicit resynced signal.
    o.grace_timer.unschedule();
}

void Rib::origin_resynced(const std::string& protocol) {
    auto it = origins_.find(protocol);
    if (it == origins_.end()) return;
    Origin& o = it->second;
    if (o.state != OriginState::kStale) return;
    o.grace_timer.unschedule();
    if (o.stage->stale_count() == 0) {
        o.state = OriginState::kFresh;
        o.stale_gauge->set(0);
        return;
    }
    start_sweep(protocol, o);
}

void Rib::start_sweep(const std::string& protocol, Origin& o) {
    o.state = OriginState::kSweeping;
    o.sweeper = std::make_unique<stage::StaleSweeperStage<IPv4>>(
        protocol + "-sweeper", *o.stage, loop_,
        [this, protocol](stage::StaleSweeperStage<IPv4>* self) {
            auto oit = origins_.find(protocol);
            if (oit == origins_.end()) return;
            Origin& org = oit->second;
            if (org.sweeper.get() != self) return;  // superseded
            org.swept->inc(self->swept());
            org.swept_total += self->swept();
            org.sweeper.reset();
            if (org.state == OriginState::kSweeping)
                org.state = OriginState::kFresh;
            org.stale_gauge->set(
                static_cast<int64_t>(org.stage->stale_count()));
        });
    auto* down = o.stage->downstream();
    stage::plumb_between<IPv4>(*o.stage, *o.sweeper, *down);
}

void Rib::grace_expired(const std::string& protocol) {
    auto it = origins_.find(protocol);
    if (it == origins_.end()) return;
    Origin& o = it->second;
    if (o.state != OriginState::kStale) return;
    o.grace_expiries->inc();
    if (o.stage->stale_count() < o.stage->route_count()) {
        // A partial resync snuck in without the resynced signal: keep the
        // refreshed routes, sweep only the stale remainder.
        start_sweep(protocol, o);
        return;
    }
    // Nothing was refreshed — the restart never really happened. Classic
    // §5.1.2: detach the whole table into a background DeletionStage so
    // the origin starts over empty, instantly ready for a future revival.
    auto table = o.stage->detach_table();
    o.state = OriginState::kFresh;
    o.stale_gauge->set(0);
    if (table->empty()) return;
    auto* down = o.stage->downstream();
    auto del = std::make_unique<stage::DeletionStage<IPv4>>(
        protocol + "-flush", std::move(table), loop_,
        [this](stage::DeletionStage<IPv4>* self) {
            for (auto dit = deleters_.begin(); dit != deleters_.end(); ++dit) {
                if (dit->get() == self) {
                    deleters_.erase(dit);
                    break;
                }
            }
        });
    stage::plumb_between<IPv4>(*o.stage, *del, *down);
    deleters_.push_back(std::move(del));
}

void Rib::set_grace_period(const std::string& protocol, ev::Duration grace) {
    auto it = origins_.find(protocol);
    if (it == origins_.end()) return;
    it->second.grace = grace;
    // An already-running clock keeps its old deadline; the new period
    // applies from the next death.
}

Rib::OriginState Rib::origin_state(const std::string& protocol) const {
    auto it = origins_.find(protocol);
    return it == origins_.end() ? OriginState::kFresh : it->second.state;
}

size_t Rib::stale_route_count(const std::string& protocol) const {
    auto it = origins_.find(protocol);
    return it == origins_.end() ? 0 : it->second.stage->stale_count();
}

uint64_t Rib::swept_route_count(const std::string& protocol) const {
    auto it = origins_.find(protocol);
    return it == origins_.end() ? 0 : it->second.swept_total;
}

}  // namespace xrp::rib
