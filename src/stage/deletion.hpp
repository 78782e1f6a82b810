// DeletionStage: the dynamic background-deletion stage of §5.1.2 and
// Figure 6 — the paper's showpiece for dynamic stages.
//
// When a peering goes down, deleting its >100k routes in one event handler
// would freeze the router. Instead the origin's whole table is detached
// and handed to a freshly-plumbed DeletionStage directly downstream of the
// origin. A background task then trickles delete_route messages out in
// slices, while:
//   - the origin is immediately empty and ready for the peer to return;
//   - an add_route for a prefix we still hold first emits the old delete,
//     purges our copy, then forwards the add — downstream stays consistent
//     and each route lives in at most one deletion stage;
//   - lookups still see not-yet-deleted routes until their delete is sent.
// Each slice's deletes go downstream as one batch, so a peer-down
// reaches the RIB as one bulk XRL per slice, not one XRL per route.
// When the table drains, the stage unplumbs itself and self-destructs via
// the owner's completion callback. If the peer flaps repeatedly, multiple
// deletion stages simply chain — none knows about the others.
#ifndef XRP_STAGE_DELETION_HPP
#define XRP_STAGE_DELETION_HPP

#include <functional>
#include <memory>
#include <string>

#include "ev/eventloop.hpp"
#include "net/trie.hpp"
#include "stage/stage.hpp"

namespace xrp::stage {

template <class A>
class DeletionStage : public RouteStage<A> {
public:
    using typename RouteStage<A>::RouteT;
    using typename RouteStage<A>::Net;
    using Table = net::RouteTrie<A, RouteT>;
    // Called (via the event loop, never re-entrantly) when the stage has
    // finished and unplumbed itself; the owner destroys the object.
    using CompletionCallback = std::function<void(DeletionStage*)>;

    DeletionStage(std::string name, std::unique_ptr<Table> table,
                  ev::EventLoop& loop, CompletionCallback on_complete,
                  size_t routes_per_slice = 100)
        : name_(std::move(name)),
          table_(std::move(table)),
          loop_(loop),
          on_complete_(std::move(on_complete)),
          per_slice_(routes_per_slice),
          iter_(table_->begin()) {
        task_ = loop_.add_background_task([this] { return slice(); });
    }

    void add_route(const RouteT& route, RouteStage<A>*) override {
        // The peer re-announced a prefix we were still going to delete:
        // retract the stale route first so downstream sees delete+add.
        if (const RouteT* held = table_->find(route.net)) {
            RouteT old = *held;
            table_->erase(route.net);
            this->forward_delete(old);
        }
        this->forward_add(route);
        maybe_finish();
    }

    void delete_route(const RouteT& route, RouteStage<A>*) override {
        // The origin can only delete what it re-learned after we took the
        // old table, so `route.net` cannot be in our table (the add that
        // created it purged our copy). Just forward.
        this->forward_delete(route);
    }

    // A resyncing peer re-announcing its table in bulk hits this: each
    // entry still purges our held copy (stale delete first), batched out.
    void push_batch(RouteBatch<A>&& batch, RouteStage<A>* caller) override {
        this->collect_and_forward(std::move(batch), caller);
    }

    std::optional<RouteT> lookup_route(const Net& net) const override {
        // New routes (upstream) take precedence; otherwise our not-yet-
        // deleted copy is still the truth downstream has.
        if (auto up = this->lookup_upstream(net)) return up;
        const RouteT* held = table_->find(net);
        return held != nullptr ? std::optional<RouteT>(*held) : std::nullopt;
    }

    std::optional<RouteT> lookup_route_lpm(A addr) const override {
        auto up = RouteStage<A>::lookup_route_lpm(addr);
        const RouteT* held = table_->lookup(addr, nullptr);
        // Prefer the more specific answer; ties go upstream (fresher).
        return this->longer_match(
            held != nullptr ? std::optional<RouteT>(*held) : std::nullopt,
            std::move(up));
    }

    std::string name() const override { return name_; }

    size_t remaining() const { return table_->size(); }
    bool finished() const { return finished_; }

private:
    bool slice() {
        this->forward_collected(
            [this] {
                size_t n = 0;
                while (n < per_slice_ && !iter_.at_end()) {
                    if (!iter_.valid()) {  // purged by an add while parked
                        ++iter_;
                        continue;
                    }
                    RouteT r = iter_.value();
                    Net key = iter_.key();
                    ++iter_;  // step off before erasing our own node
                    table_->erase(key);
                    this->forward_delete(r);
                    ++n;
                }
            },
            per_slice_);
        if (iter_.at_end() && table_->empty()) {
            finish();
            return false;  // task complete
        }
        return true;
    }

    void maybe_finish() {
        if (!finished_ && table_->empty() && iter_.at_end()) {
            task_.cancel();
            finish();
        }
    }

    void finish() {
        if (finished_) return;
        finished_ = true;
        unplumb(*this);
        if (on_complete_) {
            // Defer: the owner will likely destroy us, and we may be in
            // the middle of slice() on this object.
            loop_.defer([cb = on_complete_, self = this] { cb(self); });
        }
    }

    std::string name_;
    std::unique_ptr<Table> table_;
    ev::EventLoop& loop_;
    CompletionCallback on_complete_;
    size_t per_slice_;
    typename Table::iterator iter_;
    ev::Task task_;
    bool finished_ = false;
};

}  // namespace xrp::stage

#endif
