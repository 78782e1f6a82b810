// SinkStage: a terminal stage that hands the stream on and/or keeps it.
// Pipelines end in sinks: the RIB branch that feeds the FEA, BGP's branch
// that feeds the RIB, a PeerOut's session writer, or a test harness
// observing what came out.
//
// A sink with a batch callback passes the stream on and keeps no copy of
// it: like §5.1's non-storing stages it answers lookup_route by asking
// upstream, where the same routes already live. A sink without one (BGP's
// Loc-RIB, test observers) materializes the stream into its table.
#ifndef XRP_STAGE_SINK_HPP
#define XRP_STAGE_SINK_HPP

#include <functional>
#include <string>

#include "net/trie.hpp"
#include "stage/stage.hpp"

namespace xrp::stage {

template <class A>
class SinkStage : public RouteStage<A> {
public:
    using typename RouteStage<A>::RouteT;
    using typename RouteStage<A>::Net;
    using ChangeCallback = std::function<void(bool is_add, const RouteT&)>;
    // Batch-aware consumers (BGP's RIB feed, the RIB's FEA feed) install
    // this to receive every change as a delta: a lone add or delete
    // arrives as a one-entry batch. Without it a batch degrades to
    // per-entry cb_ calls. A sink with this callback stores nothing.
    using BatchCallback = std::function<void(RouteBatch<A>&&)>;

    explicit SinkStage(std::string name, ChangeCallback cb = nullptr)
        : name_(std::move(name)), cb_(std::move(cb)) {}

    // Install before the first route arrives.
    void set_batch_callback(BatchCallback cb) { batch_cb_ = std::move(cb); }

    void add_route(const RouteT& route, RouteStage<A>*) override {
        this->stage_metrics().adds->inc();
        if (batch_cb_) {
            RouteBatch<A> b;
            b.add(route);
            batch_cb_(std::move(b));
            return;
        }
        table_.insert(route.net, route);
        this->routes_gauge()->set(static_cast<int64_t>(table_.size()));
        if (cb_) cb_(true, route);
    }

    void delete_route(const RouteT& route, RouteStage<A>*) override {
        this->stage_metrics().deletes->inc();
        if (batch_cb_) {
            RouteBatch<A> b;
            b.del(route);
            batch_cb_(std::move(b));
            return;
        }
        table_.erase(route.net);
        this->routes_gauge()->set(static_cast<int64_t>(table_.size()));
        if (cb_) cb_(false, route);
    }

    void push_batch(RouteBatch<A>&& batch, RouteStage<A>*) override {
        this->stage_metrics().adds->inc(batch.add_count());
        this->stage_metrics().deletes->inc(batch.delete_count());
        if (batch_cb_) {
            batch_cb_(std::move(batch));
            return;
        }
        for (const auto& e : batch.entries()) {
            switch (e.op) {
            case BatchOp::kAdd:
                table_.insert(e.route.net, e.route);
                break;
            case BatchOp::kDelete:
                table_.erase(e.route.net);
                break;
            case BatchOp::kReplace:
                table_.erase(e.old_route.net);
                table_.insert(e.route.net, e.route);
                break;
            }
        }
        this->routes_gauge()->set(static_cast<int64_t>(table_.size()));
        if (cb_) {
            for (const auto& e : batch.entries()) {
                switch (e.op) {
                case BatchOp::kAdd:
                    cb_(true, e.route);
                    break;
                case BatchOp::kDelete:
                    cb_(false, e.route);
                    break;
                case BatchOp::kReplace:
                    cb_(false, e.old_route);
                    cb_(true, e.route);
                    break;
                }
            }
        }
    }

    std::optional<RouteT> lookup_route(const Net& net) const override {
        if (batch_cb_) return this->lookup_upstream(net);
        this->stage_metrics().lookups->inc();
        const RouteT* r = table_.find(net);
        return r != nullptr ? std::optional<RouteT>(*r) : std::nullopt;
    }

    std::optional<RouteT> lookup_route_lpm(A addr) const override {
        if (batch_cb_) return RouteStage<A>::lookup_route_lpm(addr);
        const RouteT* r = table_.lookup(addr);
        return r != nullptr ? std::optional<RouteT>(*r) : std::nullopt;
    }

    std::string name() const override { return name_; }

    // The stored stream; empty for a sink with a batch callback.
    const net::RouteTrie<A, RouteT>& table() const { return table_; }
    // Mutable access for owners that park safe iterators in the table
    // (e.g. BGP's background dump of the Loc-RIB to a new peer).
    net::RouteTrie<A, RouteT>& mutable_table() { return table_; }
    size_t route_count() const { return table_.size(); }

private:
    std::string name_;
    ChangeCallback cb_;
    BatchCallback batch_cb_;
    net::RouteTrie<A, RouteT> table_;
};

}  // namespace xrp::stage

#endif
