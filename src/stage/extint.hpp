// ExtIntStage: composes external (EGP) routes with internal (IGP) routes
// (§5.2, Figure 7).
//
// Beyond plain merging, this is where recursive nexthop resolution lives:
// an external (BGP-learned) route names a nexthop router that may be
// multiple IGP hops away. The route is only usable — only forwarded
// downstream — while an internal route covers its nexthop. The stage
//   - annotates forwarded external routes with the resolving route's
//     metric (igp_metric), which BGP's hot-potato decision consumes;
//   - parks unresolvable external routes until an internal route appears;
//   - re-resolves dependents when internal routes come and go, including
//     switching to a more specific internal route when one shows up.
// Unlike filter/merge stages this one is stateful: correctness of deletes
// requires remembering exactly which resolved version went downstream.
#ifndef XRP_STAGE_EXTINT_HPP
#define XRP_STAGE_EXTINT_HPP

#include <map>
#include <string>
#include <vector>

#include "net/trie.hpp"
#include "stage/stage.hpp"
#include "stage/merge.hpp"

namespace xrp::stage {

template <class A>
class ExtIntStage : public RouteStage<A> {
public:
    using typename RouteStage<A>::RouteT;
    using typename RouteStage<A>::Net;

    explicit ExtIntStage(std::string name) : name_(std::move(name)) {}

    void set_parents(RouteStage<A>* external, RouteStage<A>* internal) {
        ext_ = external;
        int_ = internal;
        external->set_downstream(this);
        internal->set_downstream(this);
    }

    void add_route(const RouteT& route, RouteStage<A>* caller) override {
        if (caller == int_) {
            add_internal(route);
        } else {
            add_external(route);
        }
    }

    void delete_route(const RouteT& route, RouteStage<A>* caller) override {
        if (caller == int_) {
            delete_internal(route);
        } else {
            delete_external(route);
        }
    }

    // Resolution state updates run per entry exactly as before; only the
    // emitted resolved/retracted stream is batched downstream.
    void push_batch(RouteBatch<A>&& batch, RouteStage<A>* caller) override {
        this->collect_and_forward(std::move(batch), caller);
    }

    std::optional<RouteT> lookup_route(const Net& net) const override {
        // Downstream truth: whatever we forwarded for this prefix.
        if (const RouteT* f = forwarded_.find(net))
            return *f;
        // Internal routes pass through unmodified.
        return int_ != nullptr ? int_->lookup_route(net) : std::nullopt;
    }

    std::optional<RouteT> lookup_route_lpm(A addr) const override {
        const RouteT* f = forwarded_.lookup(addr, nullptr);
        auto i = int_ != nullptr ? int_->lookup_route_lpm(addr) : std::nullopt;
        // Ties go to the forwarded external answer (it carries igp_metric).
        return this->longer_match(
            std::move(i),
            f != nullptr ? std::optional<RouteT>(*f) : std::nullopt);
    }

    std::string name() const override { return name_; }

    size_t unresolved_count() const { return unresolved_.size(); }

private:
    // ---- external side -----------------------------------------------
    void add_external(const RouteT& route) {
        auto resolver = int_->lookup_route_lpm(route.nexthop);
        if (!resolver) {
            unresolved_.insert(route.net, route);
            return;
        }
        // Same-prefix conflict with an internal route: preference decides
        // whether the external route goes downstream or waits shadowed.
        auto i_same = int_->lookup_route(route.net);
        if (i_same && route_preferred(*i_same, route)) {
            shadowed_.insert(route.net, route);
            return;
        }
        if (i_same) this->forward_delete(*i_same);
        emit_resolved(route, *resolver);
    }

    void delete_external(const RouteT& route) {
        if (unresolved_.erase(route.net)) return;  // never forwarded
        if (shadowed_.erase(route.net)) return;    // never forwarded
        bool was_forwarded = forwarded_.find(route.net) != nullptr;
        retract(route.net);
        if (was_forwarded) {
            // Promote a same-prefix internal route the external had beaten.
            auto i = int_->lookup_route(route.net);
            if (i) this->forward_add(*i);
        }
    }

    // ---- internal side -----------------------------------------------
    // A cover coming or going can release or retract every external route
    // parked behind it, so both sides emit through the collector and that
    // stream leaves as one batch instead of one message per route.
    void add_internal(const RouteT& route) {
        this->forward_collected([&] {
            // Same-prefix conflict with a forwarded external route: settle by
            // the standard preference order.
            if (const RouteT* f = forwarded_.find(route.net)) {
                if (route_preferred(*f, route)) {
                    // External keeps winning; the internal route simply is not
                    // forwarded (it can still resolve nexthops, below).
                    reresolve_after_internal_add(route);
                    return;
                }
                // Internal now wins: demote the external to shadowed.
                RouteT original = *f;
                original.igp_metric = kUnresolvedMetric;
                retract(route.net);
                shadowed_.insert(original.net, original);
            }
            this->forward_add(route);
            reresolve_after_internal_add(route);
        });
    }

    void delete_internal(const RouteT& route) {
        this->forward_collected([&] {
            if (forwarded_.find(route.net) == nullptr) {
                this->forward_delete(route);
            }
            // else: the internal route was shadowed by an external winner and
            // was never downstream — drop the delete.

            // An external route this internal one had beaten can now surface.
            if (const RouteT* s = shadowed_.find(route.net)) {
                RouteT ext = *s;
                shadowed_.erase(route.net);
                auto resolver = int_->lookup_route_lpm(ext.nexthop);
                if (resolver)
                    emit_resolved(ext, *resolver);
                else
                    unresolved_.insert(ext.net, ext);
            }

            // Dependents resolved through this prefix must re-resolve.
            std::vector<Net> affected;
            for (const auto& [ext_net, res_net] : resolving_)
                if (res_net == route.net) affected.push_back(ext_net);
            for (const Net& ext_net : affected) {
                const RouteT* f = forwarded_.find(ext_net);
                if (f == nullptr) continue;
                RouteT original = *f;
                original.igp_metric = kUnresolvedMetric;
                retract(ext_net);
                auto resolver = int_->lookup_route_lpm(original.nexthop);
                if (resolver) {
                    emit_resolved(original, *resolver);
                } else {
                    unresolved_.insert(original.net, original);
                }
            }
        });
    }

    void reresolve_after_internal_add(const RouteT& internal) {
        // Parked routes whose nexthop the new internal route covers.
        std::vector<RouteT> newly_resolved;
        unresolved_.for_each([&](const Net&, const RouteT& r) {
            if (internal.net.contains(r.nexthop)) newly_resolved.push_back(r);
        });
        for (const RouteT& r : newly_resolved) {
            unresolved_.erase(r.net);
            // Resolve via LPM (the new route may not even be the best).
            auto resolver = int_->lookup_route_lpm(r.nexthop);
            if (resolver)
                emit_resolved(r, *resolver);
            else
                unresolved_.insert(r.net, r);
        }
        // Forwarded routes that should switch to this more specific cover.
        std::vector<Net> to_upgrade;
        for (const auto& [ext_net, res_net] : resolving_) {
            if (internal.net.contains(res_net)) continue;  // already better
            if (!res_net.contains(internal.net)) continue;
            const RouteT* f = forwarded_.find(ext_net);
            if (f != nullptr && internal.net.contains(f->nexthop))
                to_upgrade.push_back(ext_net);
        }
        for (const Net& ext_net : to_upgrade) {
            RouteT original = *forwarded_.find(ext_net);
            original.igp_metric = kUnresolvedMetric;
            retract(ext_net);
            auto resolver = int_->lookup_route_lpm(original.nexthop);
            if (resolver) emit_resolved(original, *resolver);
        }
    }

    void emit_resolved(const RouteT& route, const RouteT& resolver) {
        RouteT r = route;
        r.igp_metric = resolver.metric;
        forwarded_.insert(r.net, r);
        resolving_[r.net] = resolver.net;
        this->forward_add(r);
    }

    void retract(const Net& ext_net) {
        const RouteT* f = forwarded_.find(ext_net);
        if (f == nullptr) return;
        RouteT old = *f;
        forwarded_.erase(ext_net);
        resolving_.erase(ext_net);
        this->forward_delete(old);
    }

    std::string name_;
    RouteStage<A>* ext_ = nullptr;
    RouteStage<A>* int_ = nullptr;
    // External routes forwarded downstream, as forwarded (resolved).
    net::RouteTrie<A, RouteT> forwarded_;
    // External routes waiting for a usable internal cover.
    net::RouteTrie<A, RouteT> unresolved_;
    // External routes beaten by a same-prefix internal route.
    net::RouteTrie<A, RouteT> shadowed_;
    // external net -> internal net it resolved through.
    std::map<Net, Net> resolving_;
};

}  // namespace xrp::stage

#endif
