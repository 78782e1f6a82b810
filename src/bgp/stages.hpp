// BGP-specific pipeline stages (Figure 5): the Decision Process and the
// Nexthop Resolver. The generic stage machinery lives in src/stage; these
// add the BGP ranking rules and the asynchronous RIB coupling.
#ifndef XRP_BGP_STAGES_HPP
#define XRP_BGP_STAGES_HPP

#include <algorithm>
#include <functional>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "bgp/attributes.hpp"
#include "net/trie.hpp"
#include "stage/stage.hpp"

namespace xrp::bgp {

using BgpRoute = stage::Route<net::IPv4>;

inline const PathAttributes* route_attrs(const BgpRoute& r) {
    return static_cast<const PathAttributes*>(r.attrs.get());
}

// The RFC 4271 §9.1.2.2 ranking through step 6 — LOCAL_PREF (higher
// wins), AS path length, origin, MED (comparable only between routes from
// the same neighbour AS), EBGP-over-IBGP, IGP metric to nexthop (hot
// potato, §3). Returns >0 when `a` ranks better, <0 when `b` does, 0 when
// the two are equal-ranked — the multipath merge condition.
int bgp_route_compare_rank(const BgpRoute& a, const BgpRoute& b);

// The full ranking: compare_rank, then router id / peer address as
// deterministic tie-breaks. Returns true when `a` is preferred.
bool bgp_route_preferred(const BgpRoute& a, const BgpRoute& b);

// ---- Decision Process (§5.1.1) -----------------------------------------
//
// "In addition to deciding which route wins", the paper's first-cut
// decision stage did nexthop resolution and fan-out too; the revised
// architecture (Fig. 5) strips it down to exactly one job: pick the best
// eligible route per prefix among all peers' pipelines. It stores nothing
// — alternatives are found by calling lookup_route *upstream through each
// parent pipeline*, which works because origins hold original routes and
// every intermediate stage answers lookups consistently (§5.1's rules).
//
// With set_multipath(k>1) the stage additionally merges every candidate
// that ranks equal to the best through step 6 (bgp_route_compare_rank ==
// 0) into one route whose NexthopSet carries up to k members. The merged
// route matches no single parent's stored route, so multipath mode keeps
// a forwarded trie and recomputes the merge per event, diffing against
// what it last emitted.
class DecisionStage : public stage::RouteStage<net::IPv4> {
public:
    explicit DecisionStage(std::string name) : name_(std::move(name)) {}

    // k <= 1 (the default) keeps the stateless single-best behaviour.
    void set_multipath(size_t max_paths) {
        max_paths_ = max_paths == 0 ? 1 : max_paths;
    }
    size_t max_paths() const { return max_paths_; }

    void add_parent(RouteStage* parent) {
        parents_.push_back(parent);
        parent->set_downstream(this);
    }
    void remove_parent(RouteStage* parent) {
        std::erase(parents_, parent);
    }

    void add_route(const BgpRoute& route, RouteStage* caller) override {
        if (max_paths_ > 1) {
            recompute(route.net);
            return;
        }
        auto other = best_other(route.net, caller);
        if (other && bgp_route_preferred(*other, route)) return;
        if (other) {
            // A new route displaced the previous best: a best-path flip,
            // the event BGP operators watch for churn.
            best_flips()->inc();
            this->forward_delete(*other);
        }
        this->forward_add(route);
    }

    void delete_route(const BgpRoute& route, RouteStage* caller) override {
        if (max_paths_ > 1) {
            recompute(route.net);
            return;
        }
        auto other = best_other(route.net, caller);
        if (other && bgp_route_preferred(*other, route))
            return;  // the deleted route had lost; downstream never saw it
        this->forward_delete(route);
        if (other) this->forward_add(*other);
    }

    std::optional<BgpRoute> lookup_route(const Net& net) const override {
        if (max_paths_ > 1) {
            const BgpRoute* f = forwarded_.find(net);
            return f != nullptr ? std::optional<BgpRoute>(*f) : std::nullopt;
        }
        return best_other(net, nullptr);
    }

    // Per-route decision logic is unchanged; the collector turns the
    // resulting add/delete stream into one downstream message. Single-best
    // mode only consults parents *other* than the caller, and multipath
    // recompute diffs against forwarded_, so neither cares that the caller
    // applied the whole batch before pushing it.
    void push_batch(stage::RouteBatch<net::IPv4>&& batch,
                    RouteStage* caller) override {
        this->collect_and_forward(std::move(batch), caller);
    }

    std::string name() const override { return name_; }

private:
    // Multipath path: parents' lookup_route already reflects the event
    // that triggered us (stages update their own state before forwarding),
    // so the merge is recomputed from scratch and diffed against what we
    // last sent downstream.
    void recompute(const Net& net) {
        std::vector<BgpRoute> cands;
        for (RouteStage* p : parents_) {
            auto r = p->lookup_route(net);
            if (r) cands.push_back(std::move(*r));
        }
        const BgpRoute* prev = forwarded_.find(net);
        if (cands.empty()) {
            if (prev != nullptr) {
                BgpRoute old = *prev;
                forwarded_.erase(net);
                this->forward_delete(old);
            }
            return;
        }
        BgpRoute merged = *std::min_element(
            cands.begin(), cands.end(),
            [](const BgpRoute& a, const BgpRoute& b) {
                return bgp_route_preferred(a, b);
            });
        if (merged.igp_metric != stage::kUnresolvedMetric) {
            net::NexthopSet4 set;
            for (const BgpRoute& c : cands)
                if (bgp_route_compare_rank(c, merged) == 0)
                    set.insert(c.nexthop);
            set.clamp(max_paths_);
            merged.set_nexthops(set);
        }
        if (prev != nullptr) {
            if (*prev == merged) return;
            BgpRoute old = *prev;
            if (old.nexthop != merged.nexthop) best_flips()->inc();
            forwarded_.erase(net);
            this->forward_delete(old);
        }
        forwarded_.insert(net, merged);
        this->forward_add(merged);
    }

    std::optional<BgpRoute> best_other(const Net& net,
                                       RouteStage* excluded) const {
        std::optional<BgpRoute> best;
        for (RouteStage* p : parents_) {
            if (p == excluded) continue;
            auto r = p->lookup_route(net);
            if (!r) continue;
            if (!best || bgp_route_preferred(*r, *best)) best = std::move(r);
        }
        return best;
    }

    telemetry::Counter* best_flips() const {
        if (flips_ == nullptr)
            flips_ = telemetry::Registry::global().counter(
                telemetry::metric_key("bgp_best_path_flips_total",
                                      {{"stage", name_}}));
        return flips_;
    }

    std::string name_;
    std::vector<RouteStage*> parents_;
    size_t max_paths_ = 1;
    net::RouteTrie<net::IPv4, BgpRoute> forwarded_;  // multipath mode only
    mutable telemetry::Counter* flips_ = nullptr;
};

// ---- Nexthop Resolver (§5.1.1) -------------------------------------------
//
// "The Nexthop Resolver stages talk asynchronously to the RIB to discover
// metrics to the nexthops in BGP's routes. As replies arrive, it
// annotates routes in add_route and lookup_route messages with the
// relevant IGP metrics. Routes are held in a queue until the relevant
// nexthop metrics are received; this avoids the need for the Decision
// Process to wait on asynchronous operations."
//
// The RIB side of the conversation is the Figure-8 registration protocol:
// an answer comes with a validity subnet; we cache it for every nexthop in
// that subnet until the RIB invalidates it (owner calls invalidate()).
class NexthopResolverStage : public stage::RouteStage<net::IPv4> {
public:
    // answer(metric) — nullopt metric = nexthop unreachable.
    using AnswerCallback =
        std::function<void(std::optional<uint32_t> metric,
                           net::IPv4Net valid_subnet)>;
    // Asks the RIB (asynchronously) how `nexthop` is routed.
    using MetricLookup =
        std::function<void(net::IPv4 nexthop, AnswerCallback answer)>;

    NexthopResolverStage(std::string name, MetricLookup lookup)
        : name_(std::move(name)), lookup_(std::move(lookup)) {}

    void add_route(const BgpRoute& route, RouteStage*) override {
        const Entry* e = cache_.lookup(route.nexthop);
        if (e != nullptr && e->metric) {
            emit(route, *e->metric);
            return;
        }
        // The route will be held; if an older version of this prefix is
        // downstream, retract it first so the stream stays consistent.
        retract_forwarded(route.net);
        if (e != nullptr) {  // known-unreachable nexthop
            unreachable_.insert(route.net, route);
            return;
        }
        park(route);  // cache miss: ask the RIB once per nexthop
    }

    void delete_route(const BgpRoute& route, RouteStage*) override {
        // A held copy never reached downstream. A route that invalidate()
        // re-parked may still have its earlier version downstream, which
        // the retraction below takes back.
        if (!unreachable_.erase(route.net)) unpark(route.net);
        retract_forwarded(route.net);
    }

    std::optional<BgpRoute> lookup_route(const Net& net) const override {
        // Downstream truth is the annotated version we forwarded.
        const BgpRoute* f = forwarded_.find(net);
        return f != nullptr ? std::optional<BgpRoute>(*f) : std::nullopt;
    }

    // The RIB invalidated a previously-answered subnet (§5.2.1 "cache
    // invalidated" message): drop the cache entry and re-query for every
    // forwarded route whose nexthop it covered. Whatever the answers
    // release synchronously leaves as one batch.
    void invalidate(const net::IPv4Net& valid_subnet) {
        cache_.erase(valid_subnet);
        std::vector<BgpRoute> affected;
        forwarded_.for_each([&](const Net&, const BgpRoute& r) {
            if (valid_subnet.contains(r.nexthop)) affected.push_back(r);
        });
        // Parked-unreachable routes under this subnet also get another try.
        unreachable_.for_each([&](const Net&, const BgpRoute& r) {
            if (valid_subnet.contains(r.nexthop)) affected.push_back(r);
        });
        this->forward_collected([&] {
            for (const BgpRoute& r : affected) {
                unreachable_.erase(r.net);
                BgpRoute original = r;
                original.igp_metric = stage::kUnresolvedMetric;
                park(original);
            }
        });
    }

    // Routes whose nexthop metric is cached resolve inline and ride the
    // output batch; cache misses park, and the answer releases each
    // nexthop's whole queue as one batch (see query()).
    void push_batch(stage::RouteBatch<net::IPv4>&& batch,
                    RouteStage* caller) override {
        this->collect_and_forward(std::move(batch), caller);
    }

    std::string name() const override { return name_; }

    size_t pending_count() const { return parked_.size(); }
    size_t unreachable_count() const { return unreachable_.size(); }

private:
    struct Entry {
        std::optional<uint32_t> metric;  // nullopt = unreachable
    };
    // One nexthop's parked routes, in arrival order.
    using ParkedQueue = std::list<BgpRoute>;

    // Parks a route until its nexthop is answered; the first route parked
    // on a nexthop sends the one query for it. A prefix is parked at most
    // once, so a newer version replaces an older one.
    void park(const BgpRoute& route) {
        unpark(route.net);
        auto [q, first] = pending_.try_emplace(route.nexthop);
        parked_[route.net] = q->second.insert(q->second.end(), route);
        if (first) query(route.nexthop);
    }

    // Drops a parked route in O(1) through the prefix index. Its queue
    // stays, even if empty, until the answer arrives, so a later park on
    // the same nexthop does not ask again.
    bool unpark(const Net& net) {
        auto it = parked_.find(net);
        if (it == parked_.end()) return false;
        pending_.find(it->second->nexthop)->second.erase(it->second);
        parked_.erase(it);
        return true;
    }

    // The answer releases the nexthop's whole queue, in arrival order, as
    // one downstream batch (appended to the active collector when the
    // answer comes synchronously inside push_batch).
    void query(net::IPv4 nexthop) {
        lookup_(nexthop, [this, nexthop](std::optional<uint32_t> metric,
                                         net::IPv4Net valid_subnet) {
            cache_.insert(valid_subnet, Entry{metric});
            auto it = pending_.find(nexthop);
            if (it == pending_.end()) return;
            ParkedQueue routes = std::move(it->second);
            pending_.erase(it);
            for (const BgpRoute& r : routes) parked_.erase(r.net);
            this->forward_collected(
                [&] {
                    for (const BgpRoute& r : routes) {
                        if (metric) {
                            emit(r, *metric);
                        } else {
                            retract_forwarded(r.net);
                            unreachable_.insert(r.net, r);
                        }
                    }
                },
                routes.size());
        });
    }

    void retract_forwarded(const Net& net) {
        if (const BgpRoute* f = forwarded_.find(net)) {
            BgpRoute old = *f;
            forwarded_.erase(net);
            this->forward_delete(old);
        }
    }

    void emit(const BgpRoute& route, uint32_t metric) {
        BgpRoute r = route;
        r.igp_metric = metric;
        // A re-announcement while we were resolving may already be
        // downstream; keep the stream consistent. If the downstream copy
        // is identical (common after an invalidation that resolved to the
        // same metric), skip the churn entirely.
        if (const BgpRoute* f = forwarded_.find(r.net)) {
            if (*f == r) return;
            BgpRoute old = *f;
            this->forward_delete(old);
        }
        forwarded_.insert(r.net, r);
        this->forward_add(r);
    }

    std::string name_;
    MetricLookup lookup_;
    net::RouteTrie<net::IPv4, Entry> cache_;     // by validity subnet
    net::RouteTrie<net::IPv4, BgpRoute> forwarded_;
    net::RouteTrie<net::IPv4, BgpRoute> unreachable_;
    std::map<net::IPv4, ParkedQueue> pending_;              // by nexthop
    std::unordered_map<Net, ParkedQueue::iterator> parked_;  // by prefix
};

}  // namespace xrp::bgp

#endif
