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
// Each forwarded route keeps the prefix of the internal route it resolved
// through beside it, so an internal change finds its dependents by
// walking the forwarded table.
//
// The stage also keeps the internal winners as its input stream stated
// them. A batch reaches this stage only after every stage above it has
// applied the whole batch, so a lookup upstream answers with the batch's
// final state, not the state at the entry being processed; resolution and
// same-prefix arbitration read this copy instead, which is exact at every
// entry. Internal tables are IGP-sized, small next to the external table.
#ifndef XRP_STAGE_EXTINT_HPP
#define XRP_STAGE_EXTINT_HPP

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
            place(route);
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

    // Downstream truth: the forwarded external route for this prefix, else
    // the internal one.
    std::optional<RouteT> lookup_route(const Net& net) const override {
        if (const Forwarded* f = forwarded_.find(net)) return f->route;
        const RouteT* i = internal_.find(net);
        return i != nullptr ? std::optional<RouteT>(*i) : std::nullopt;
    }

    std::optional<RouteT> lookup_route_lpm(A addr) const override {
        const Forwarded* f = forwarded_.lookup(addr);
        const RouteT* i = internal_.lookup(addr);
        // Ties go to the forwarded external answer: it beat the internal
        // route for that prefix.
        return this->longer_match(
            i != nullptr ? std::optional<RouteT>(*i) : std::nullopt,
            f != nullptr ? std::optional<RouteT>(f->route) : std::nullopt);
    }

    std::string name() const override { return name_; }

    size_t unresolved_count() const { return unresolved_.size(); }

private:
    // A forwarded external route, as forwarded (igp_metric filled in), and
    // the internal prefix it resolved through.
    struct Forwarded {
        RouteT route;
        Net via;
    };

    // ---- external side -----------------------------------------------
    // Settles an external route that is not downstream: forwarded when an
    // internal route covers its nexthop and it beats any internal route for
    // its own prefix (which then leaves downstream), shadowed when such a
    // route beats it, parked otherwise.
    void place(const RouteT& route) {
        Net via;
        const RouteT* resolver = internal_.lookup(route.nexthop, &via);
        if (resolver == nullptr) {
            unresolved_.insert(route.net, route);
            return;
        }
        const uint32_t igp_metric = resolver->metric;
        if (const RouteT* i_same = internal_.find(route.net)) {
            if (route_preferred(*i_same, route)) {
                shadowed_.insert(route.net, route);
                return;
            }
            this->forward_delete(*i_same);
        }
        forward_resolved(route, igp_metric, via);
    }

    void delete_external(const RouteT& route) {
        if (unresolved_.erase(route.net)) return;  // never forwarded
        if (shadowed_.erase(route.net)) return;    // never forwarded
        if (forwarded_.find(route.net) != nullptr) unforward(route.net);
    }

    // ---- internal side -----------------------------------------------
    // A cover coming or going can release or retract every external route
    // parked behind it, so both sides emit through the collector and that
    // stream leaves as one batch instead of one message per route.
    void add_internal(const RouteT& route) {
        this->forward_collected([&] {
            internal_.insert(route.net, route);
            // Same-prefix conflict with a forwarded external route: settle by
            // the standard preference order.
            if (const Forwarded* f = forwarded_.find(route.net)) {
                if (route_preferred(f->route, route)) {
                    // External keeps winning; the internal route simply is not
                    // forwarded (it can still resolve nexthops, below).
                    reresolve_after_internal_add(route);
                    return;
                }
                // Internal now wins: demote the external to shadowed.
                RouteT original = retract(route.net);
                shadowed_.insert(original.net, std::move(original));
            }
            this->forward_add(route);
            reresolve_after_internal_add(route);
        });
    }

    void delete_internal(const RouteT& route) {
        this->forward_collected([&] {
            internal_.erase(route.net);
            if (forwarded_.find(route.net) == nullptr) {
                this->forward_delete(route);
            }
            // else: the internal route was shadowed by an external winner and
            // was never downstream — drop the delete.

            // An external route this internal one had beaten can now surface.
            if (const RouteT* s = shadowed_.find(route.net)) {
                RouteT ext = *s;
                shadowed_.erase(route.net);
                place(ext);
            }

            // Dependents resolved through this prefix must re-resolve.
            std::vector<Net> affected;
            forwarded_.for_each([&](const Net& ext_net, const Forwarded& f) {
                if (f.via == route.net) affected.push_back(ext_net);
            });
            for (const Net& ext_net : affected) reresolve(ext_net);
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
            place(r);
        }
        // Forwarded routes that should switch to this more specific cover.
        std::vector<Net> to_upgrade;
        forwarded_.for_each([&](const Net& ext_net, const Forwarded& f) {
            if (internal.net.contains(f.via)) return;  // already better
            if (!f.via.contains(internal.net)) return;
            if (internal.net.contains(f.route.nexthop))
                to_upgrade.push_back(ext_net);
        });
        for (const Net& ext_net : to_upgrade) reresolve(ext_net);
    }

    // A forwarded route's cover changed: resolve it again. It still beats
    // any internal route for its own prefix (internal changes at that
    // prefix were settled first), so it either goes back down with its new
    // cover or parks, handing its prefix to that internal route.
    void reresolve(const Net& ext_net) {
        Net via;
        const RouteT* resolver =
            internal_.lookup(forwarded_.find(ext_net)->route.nexthop, &via);
        if (resolver == nullptr) {
            RouteT original = unforward(ext_net);
            unresolved_.insert(original.net, std::move(original));
            return;
        }
        const uint32_t igp_metric = resolver->metric;
        forward_resolved(retract(ext_net), igp_metric, via);
    }

    void forward_resolved(const RouteT& route, uint32_t igp_metric,
                          const Net& via) {
        Forwarded f{route, via};
        f.route.igp_metric = igp_metric;
        this->forward_add(f.route);
        forwarded_.insert(route.net, std::move(f));
    }

    // Takes a forwarded route back from downstream and returns it as it
    // arrived (igp_metric unresolved).
    RouteT retract(const Net& ext_net) {
        Forwarded* f = forwarded_.find(ext_net);
        RouteT old = std::move(f->route);
        forwarded_.erase(ext_net);
        this->forward_delete(old);
        old.igp_metric = kUnresolvedMetric;
        return old;
    }

    // retract() for a route leaving downstream for good: an internal route
    // for the same prefix, which it had beaten, goes down in its place.
    RouteT unforward(const Net& ext_net) {
        RouteT old = retract(ext_net);
        if (const RouteT* i = internal_.find(ext_net)) this->forward_add(*i);
        return old;
    }

    std::string name_;
    RouteStage<A>* ext_ = nullptr;
    RouteStage<A>* int_ = nullptr;
    // External routes forwarded downstream, as forwarded (resolved).
    net::RouteTrie<A, Forwarded> forwarded_;
    // External routes waiting for a usable internal cover.
    net::RouteTrie<A, RouteT> unresolved_;
    // External routes beaten by a same-prefix internal route.
    net::RouteTrie<A, RouteT> shadowed_;
    // Internal winners as this stage's input stated them.
    net::RouteTrie<A, RouteT> internal_;
};

}  // namespace xrp::stage

#endif
