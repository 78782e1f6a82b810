// OriginStage: the only stage that stores routes (§5.1: "we only store
// the original versions of routes, in the Peer In stages"). Everything
// downstream is computed; lookups bottom out here.
//
// A replacement add is turned into delete(old) + add(new) so downstream
// stages never see updates. detach_table() supports the dynamic deletion
// stage (§5.1.2): when a peer dies, the whole table is handed to a
// DeletionStage and the origin starts over empty, instantly ready for the
// peering to come back.
//
// Graceful restart rides on generation stamps: begin_refresh() bumps the
// origin's generation, instantly marking every stored route stale without
// touching it. A re-advertisement identical to the stored route (stamps
// excluded from comparison) merely refreshes the stamp — zero downstream
// traffic, which is precisely the no-blackhole property restart needs.
// Routes still stale once resync completes are reaped incrementally by a
// StaleSweeperStage walking this live table.
#ifndef XRP_STAGE_ORIGIN_HPP
#define XRP_STAGE_ORIGIN_HPP

#include <memory>
#include <string>

#include "net/trie.hpp"
#include "stage/stage.hpp"

namespace xrp::stage {

template <class A>
class OriginStage : public RouteStage<A> {
public:
    using typename RouteStage<A>::RouteT;
    using typename RouteStage<A>::Net;
    using Table = net::RouteTrie<A, RouteT>;

    explicit OriginStage(std::string name)
        : name_(std::move(name)), table_(std::make_unique<Table>()) {}

    // Origins are heads of pipeline: add/delete arrive via these entry
    // points from the protocol machinery, not from an upstream stage.
    void add_route(const RouteT& route, RouteStage<A>* = nullptr) override {
        if (RouteT* old = table_->find(route.net)) {
            if (*old == route) {
                // Identical re-advertisement (typically a protocol
                // resyncing after restart): refresh the stamp in place and
                // say nothing downstream — forwarding never wavers.
                if (old->origin_stamp < generation_ && stale_count_ > 0)
                    --stale_count_;
                old->origin_stamp = generation_;
                return;
            }
            RouteT removed = *old;
            if (removed.origin_stamp < generation_ && stale_count_ > 0)
                --stale_count_;
            table_->erase(route.net);
            this->forward_delete(removed);
        }
        RouteT stamped = route;
        stamped.origin_stamp = generation_;
        table_->insert(stamped.net, stamped);
        this->routes_gauge()->set(static_cast<int64_t>(table_->size()));
        this->forward_add(stamped);
    }

    void delete_route(const RouteT& route, RouteStage<A>* = nullptr) override {
        const RouteT* old = table_->find(route.net);
        if (old == nullptr) return;  // unknown prefix: nothing to retract
        RouteT removed = *old;
        if (removed.origin_stamp < generation_ && stale_count_ > 0)
            --stale_count_;
        table_->erase(route.net);
        this->routes_gauge()->set(static_cast<int64_t>(table_->size()));
        this->forward_delete(removed);
    }

    // Bulk entry point: identical per-route storage logic (stamping,
    // replacement-as-delete+add, refresh-in-place), but downstream sees
    // one batch instead of one virtual call per message.
    void push_batch(RouteBatch<A>&& batch,
                    RouteStage<A>* caller = nullptr) override {
        this->collect_and_forward(std::move(batch), caller);
    }

    std::optional<RouteT> lookup_route(const Net& net) const override {
        this->stage_metrics().lookups->inc();
        const RouteT* r = table_->find(net);
        return r != nullptr ? std::optional<RouteT>(*r) : std::nullopt;
    }

    std::optional<RouteT> lookup_route_lpm(A addr) const override {
        const RouteT* r = table_->lookup(addr);
        return r != nullptr ? std::optional<RouteT>(*r) : std::nullopt;
    }

    std::string name() const override { return name_; }

    size_t route_count() const { return table_->size(); }
    const Table& table() const { return *table_; }

    // Re-announcement support for policy changes (§5.1.2). A filter swap
    // must retract through the *old* bank and re-announce through the
    // *new* one, or routes the new bank rejects would linger downstream:
    //   origin.retract_all(); filter.set_filters(new); origin.announce_all();
    // Each pass goes downstream as one batch.
    void retract_all() {
        this->forward_collected(
            [this] {
                table_->for_each([this](const Net&, const RouteT& r) {
                    this->forward_delete(r);
                });
            },
            table_->size());
    }
    void announce_all() {
        this->forward_collected(
            [this] {
                table_->for_each([this](const Net&, const RouteT& r) {
                    this->forward_add(r);
                });
            },
            table_->size());
    }
    void repump() {
        retract_all();
        announce_all();
    }

    // Hands the current table to the caller (for a DeletionStage) and
    // resets to empty. Downstream sees nothing yet — the deletion stage
    // emits the deletes incrementally.
    std::unique_ptr<Table> detach_table() {
        auto t = std::move(table_);
        table_ = std::make_unique<Table>();
        stale_count_ = 0;
        this->routes_gauge()->set(0);
        return t;
    }

    // ---- graceful restart (generation stamping) -----------------------
    // Marks every stored route stale in O(1): nothing moves, nothing is
    // sent downstream, the stamps just fall behind the new generation.
    // Called when the origin's protocol dies; subsequent re-adds refresh
    // stamps route by route as the restarted protocol resyncs.
    void begin_refresh() {
        ++generation_;
        stale_count_ = table_->size();
    }
    uint64_t generation() const { return generation_; }
    // Routes whose stamp predates the current generation — i.e. preserved
    // across a restart but not yet re-confirmed by the revived protocol.
    size_t stale_count() const { return stale_count_; }
    bool route_is_stale(const RouteT& r) const {
        return r.origin_stamp < generation_;
    }
    // An iterator parked in the live table, for the StaleSweeperStage.
    // Erases under it are safe (the trie defers unlinking); the sweeper
    // must be unplumbed/destroyed before this stage.
    typename Table::iterator sweep_begin() { return table_->begin(); }

private:
    std::string name_;
    std::unique_ptr<Table> table_;
    uint64_t generation_ = 0;
    size_t stale_count_ = 0;
};

}  // namespace xrp::stage

#endif
