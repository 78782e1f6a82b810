// StaleSweeperStage: the graceful-restart companion to DeletionStage.
//
// After a protocol restarts and resyncs, its origin table holds a mix of
// re-confirmed routes (stamp == current generation) and stale ones the
// revived protocol never re-advertised. Deleting the stale tail in one
// pass would freeze the router exactly like the mass-delete DeletionStage
// exists to avoid — so the same dynamic-stage trick applies: splice a
// sweeper directly downstream of the origin, walk the origin's *live*
// table in background slices, and retract only routes whose stamp
// predates the restart. When the walk completes the stage unplumbs itself
// and self-destructs through the owner's completion callback.
//
// Unlike DeletionStage the sweeper owns no table: the origin keeps its
// routes (that is the whole point of graceful restart — forwarding never
// flinched), and the sweeper holds only a parked iterator into the
// origin's trie. The trie's deferred-unlink iterators make concurrent
// erases safe; entries that vanish under us show up as !valid() and are
// skipped. Reaping goes through the origin (one delete batch per slice
// into origin.push_batch) so the origin's stale accounting and downstream
// retraction stay on the one true path — the batch then flows through
// this stage (a pure pass-through) like any other message.
#ifndef XRP_STAGE_STALE_SWEEPER_HPP
#define XRP_STAGE_STALE_SWEEPER_HPP

#include <functional>
#include <string>

#include "ev/eventloop.hpp"
#include "stage/origin.hpp"
#include "stage/stage.hpp"

namespace xrp::stage {

template <class A>
class StaleSweeperStage : public RouteStage<A> {
public:
    using typename RouteStage<A>::RouteT;
    using typename RouteStage<A>::Net;
    using Origin = OriginStage<A>;
    // Called (via the event loop, never re-entrantly) once the stage has
    // unplumbed itself; the owner destroys the object.
    using CompletionCallback = std::function<void(StaleSweeperStage*)>;

    StaleSweeperStage(std::string name, Origin& origin, ev::EventLoop& loop,
                      CompletionCallback on_complete,
                      size_t routes_per_slice = 100)
        : name_(std::move(name)),
          origin_(origin),
          loop_(loop),
          on_complete_(std::move(on_complete)),
          per_slice_(routes_per_slice),
          iter_(origin.sweep_begin()) {
        task_ = loop_.add_background_task([this] { return slice(); });
    }

    // Pure pass-through: the origin upstream already holds the truth, so
    // all three messages just flow. A delete batch we forward may be one
    // we provoked via origin_.push_batch in slice() — same thing.
    void add_route(const RouteT& route, RouteStage<A>*) override {
        this->forward_add(route);
    }
    void delete_route(const RouteT& route, RouteStage<A>*) override {
        this->forward_delete(route);
    }
    void push_batch(RouteBatch<A>&& batch, RouteStage<A>* caller) override {
        // Pure pass-through: hand the batch on whole.
        this->forward_batch(std::move(batch));
        (void)caller;
    }
    std::optional<RouteT> lookup_route(const Net& net) const override {
        return this->lookup_upstream(net);
    }

    std::string name() const override { return name_; }

    bool finished() const { return finished_; }
    size_t swept() const { return swept_; }

    // The origin died again (or grace expired) mid-sweep: stop sweeping,
    // unplumb, and report completion. Stale routes still unswept stay in
    // the origin for whoever handles the new event (a fresh generation
    // bump re-marks everything anyway).
    void abort() {
        task_.cancel();
        finish();
    }

private:
    bool slice() {
        // The budget counts entries *examined*, not just reaped: a table
        // that is 99% fresh must not make one slice walk 100x its budget.
        // The slice's stale routes are reaped as one delete batch, which
        // the origin forwards (through us) as one message.
        RouteBatch<A> reap;
        size_t n = 0;
        while (n < per_slice_ && !iter_.at_end()) {
            ++n;
            if (!iter_.valid()) {  // erased while we were parked
                ++iter_;
                continue;
            }
            const RouteT& r = iter_.value();
            if (origin_.route_is_stale(r)) reap.del(r);
            ++iter_;
        }
        swept_ += reap.size();
        if (!reap.empty()) origin_.push_batch(std::move(reap));
        if (iter_.at_end()) {
            finish();
            return false;  // task complete
        }
        return true;
    }

    void finish() {
        if (finished_) return;
        finished_ = true;
        task_.cancel();
        unplumb(*this);
        if (on_complete_) {
            // Defer: the owner will likely destroy us, and we may be in
            // the middle of slice() on this object.
            loop_.defer([cb = on_complete_, self = this] { cb(self); });
        }
    }

    std::string name_;
    Origin& origin_;
    ev::EventLoop& loop_;
    CompletionCallback on_complete_;
    size_t per_slice_;
    typename Origin::Table::iterator iter_;
    ev::Task task_;
    size_t swept_ = 0;
    bool finished_ = false;
};

}  // namespace xrp::stage

#endif
