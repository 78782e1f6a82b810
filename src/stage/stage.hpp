// The stage interface (§5.1) — the paper's core structural idea.
//
// A routing table is not an object but a *network of stages* through which
// routes flow. Every stage implements the same three messages:
//
//   add_route    — flows downstream (toward decision/peers/FIB)
//   delete_route — flows downstream
//   lookup_route — flows upstream (toward the origin tables that store)
//
// with two consistency rules that bound what any stage must handle:
//   (1) every delete_route matches a previous add_route it saw;
//   (2) lookup_route answers agree with the add/delete stream already sent
//       downstream.
// A replacement is always expressed as delete(old) then add(new), so
// stages never need "update" logic.
//
// Stages are indifferent to their neighbours: dynamic stages (deletion,
// re-filtering) splice themselves into a live pipeline and unsplice when
// done, and no neighbour can tell (§5.1.2).
#ifndef XRP_STAGE_STAGE_HPP
#define XRP_STAGE_STAGE_HPP

#include <cassert>
#include <optional>
#include <string>
#include <utility>

#include "stage/batch.hpp"
#include "stage/route.hpp"
#include "telemetry/metrics.hpp"

namespace xrp::stage {

template <class A>
class RouteStage {
public:
    using RouteT = Route<A>;
    using Net = net::IpNet<A>;

    virtual ~RouteStage() = default;

    // ---- the three messages ------------------------------------------
    virtual void add_route(const RouteT& route, RouteStage* caller) = 0;
    virtual void delete_route(const RouteT& route, RouteStage* caller) = 0;
    // Exact-prefix lookup, answered by the nearest stage that can; stages
    // that don't store pass it upstream.
    virtual std::optional<RouteT> lookup_route(const Net& net) const = 0;
    // Longest-prefix-match lookup for a host address (nexthop resolution);
    // flows upstream like lookup_route.
    virtual std::optional<RouteT> lookup_route_lpm(A addr) const {
        return upstream_ != nullptr ? upstream_->lookup_route_lpm(addr)
                                    : std::nullopt;
    }

    // ---- the bulk verb ---------------------------------------------------
    // An ordered delta of adds/deletes/replaces flowing downstream as one
    // message. The default unrolls to the legacy per-route calls, so every
    // stage works unchanged; hot stages override it to amortize dispatch,
    // lookups, telemetry and journaling. Overrides must be message-
    // preserving: processing the entries in order through the override
    // must hand downstream the same add/delete stream the unroll would
    // (replace = delete(old) then add(new)).
    virtual void push_batch(RouteBatch<A>&& batch, RouteStage* caller) {
        for (auto& e : batch.entries()) {
            switch (e.op) {
            case BatchOp::kAdd:
                add_route(e.route, caller);
                break;
            case BatchOp::kDelete:
                delete_route(e.route, caller);
                break;
            case BatchOp::kReplace:
                delete_route(e.old_route, caller);
                add_route(e.route, caller);
                break;
            }
        }
    }

    // ---- plumbing -------------------------------------------------------
    // Simple stages have one upstream and one downstream; stages with
    // fan-in/fan-out (Decision, Fanout, Merge) override what they need.
    virtual void set_downstream(RouteStage* s) { downstream_ = s; }
    virtual void set_upstream(RouteStage* s) { upstream_ = s; }
    RouteStage* downstream() const { return downstream_; }
    RouteStage* upstream() const { return upstream_; }

    // Human-readable name for debugging and the consistency checker.
    virtual std::string name() const = 0;

protected:
    void forward_add(const RouteT& r) {
        if (collect_ != nullptr) {
            collect_->add(r);
            return;
        }
        stage_metrics().adds->inc();
        if (downstream_ != nullptr) downstream_->add_route(r, this);
    }
    void forward_delete(const RouteT& r) {
        if (collect_ != nullptr) {
            collect_->del(r);
            return;
        }
        stage_metrics().deletes->inc();
        if (downstream_ != nullptr) downstream_->delete_route(r, this);
    }
    // The one collector: runs fn() with forward_add/forward_delete
    // redirected into a single output batch, then hands that batch
    // downstream as one message. If a collector is already active (e.g.
    // an asynchronous answer delivered synchronously inside push_batch),
    // fn() appends to it and the outer collector forwards. Per-route
    // *processing* is untouched, so downstream sees the stream the
    // per-route calls would make; only the pipeline traversal (virtual
    // dispatch, telemetry, per-route XRLs at the far end) collapses to
    // once per batch. Stages that emit outside push_batch — a resolver
    // answer, a deletion or stale-sweep slice, a re-filter pass — use it
    // directly.
    template <class F>
    void forward_collected(F&& fn, size_t size_hint = 0) {
        if (collect_ != nullptr) {
            fn();
            return;
        }
        RouteBatch<A> out;
        out.reserve(size_hint);
        collect_ = &out;
        fn();
        collect_ = nullptr;
        forward_batch(std::move(out));
    }
    // The workhorse behind most push_batch overrides: runs the batch
    // through this stage's own per-route handlers (the base unroll calls
    // the virtual add_route/delete_route) inside the collector.
    void collect_and_forward(RouteBatch<A>&& batch, RouteStage* caller) {
        const size_t n = batch.size();
        forward_collected(
            [&] { RouteStage<A>::push_batch(std::move(batch), caller); }, n);
    }
    std::optional<RouteT> lookup_upstream(const Net& net) const {
        stage_metrics().lookups->inc();
        return upstream_ != nullptr ? upstream_->lookup_route(net)
                                    : std::nullopt;
    }
    // Forwards a whole batch downstream with one virtual call, bumping the
    // per-stage counters by the batch's add/delete totals so telemetry
    // stays comparable with the unrolled path.
    void forward_batch(RouteBatch<A>&& batch) {
        if (batch.empty()) return;
        stage_metrics().adds->inc(batch.add_count());
        stage_metrics().deletes->inc(batch.delete_count());
        if (downstream_ != nullptr)
            downstream_->push_batch(std::move(batch), this);
    }
    // Shared LPM-fallback arbitration: the longer prefix wins between two
    // candidate answers; `b` wins ties. DeletionStage (held vs upstream)
    // and ExtIntStage (internal vs forwarded) both reduce to this.
    static std::optional<RouteT> longer_match(std::optional<RouteT> a,
                                              std::optional<RouteT> b) {
        if (!a) return b;
        if (!b) return a;
        return b->net.prefix_len() >= a->net.prefix_len() ? std::move(b)
                                                          : std::move(a);
    }

    // Per-stage telemetry, keyed by name() and bound lazily (name() is
    // virtual and not callable from the base constructor). Stages sharing
    // a name share counters — the exposition aggregates by stage role.
    struct StageMetrics {
        telemetry::Counter* adds = nullptr;
        telemetry::Counter* deletes = nullptr;
        telemetry::Counter* lookups = nullptr;
    };
    const StageMetrics& stage_metrics() const {
        if (metrics_.adds == nullptr) {
            auto& r = telemetry::Registry::global();
            const std::string n = name();
            metrics_.adds = r.counter(
                telemetry::metric_key("stage_adds_total", {{"stage", n}}));
            metrics_.deletes = r.counter(
                telemetry::metric_key("stage_deletes_total", {{"stage", n}}));
            metrics_.lookups = r.counter(
                telemetry::metric_key("stage_lookups_total", {{"stage", n}}));
        }
        return metrics_;
    }
    // Routes-in-flight level for stages that store (origins, sinks,
    // deletion stages).
    telemetry::Gauge* routes_gauge() const {
        if (routes_gauge_ == nullptr)
            routes_gauge_ = telemetry::Registry::global().gauge(
                telemetry::metric_key("stage_routes", {{"stage", name()}}));
        return routes_gauge_;
    }

private:
    mutable StageMetrics metrics_{};
    mutable telemetry::Gauge* routes_gauge_ = nullptr;
    RouteStage* downstream_ = nullptr;
    RouteStage* upstream_ = nullptr;
    RouteBatch<A>* collect_ = nullptr;
};

// Splices `mid` into the pipeline between `up` and `down` (Figure 6).
template <class A>
void plumb_between(RouteStage<A>& up, RouteStage<A>& mid,
                   RouteStage<A>& down) {
    up.set_downstream(&mid);
    mid.set_upstream(&up);
    mid.set_downstream(&down);
    down.set_upstream(&mid);
}

// Removes `mid` from a linear pipeline, reconnecting its neighbours.
template <class A>
void unplumb(RouteStage<A>& mid) {
    RouteStage<A>* up = mid.upstream();
    RouteStage<A>* down = mid.downstream();
    if (up != nullptr) up->set_downstream(down);
    if (down != nullptr) down->set_upstream(up);
    mid.set_upstream(nullptr);
    mid.set_downstream(nullptr);
}

}  // namespace xrp::stage

#endif
