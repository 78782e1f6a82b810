// SinkStage: a terminal stage that materializes the stream into a table
// and/or hands each change to a callback. Pipelines end in sinks: the RIB
// branch that feeds the FEA, a PeerOut's session writer, or a test
// harness observing what came out.
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
    // per-entry cb_ calls.
    using BatchCallback = std::function<void(RouteBatch<A>&&)>;

    explicit SinkStage(std::string name, ChangeCallback cb = nullptr)
        : name_(std::move(name)), cb_(std::move(cb)) {}

    void set_batch_callback(BatchCallback cb) { batch_cb_ = std::move(cb); }

    void add_route(const RouteT& route, RouteStage<A>*) override {
        this->stage_metrics().adds->inc();
        table_.insert(route.net, route);
        this->routes_gauge()->set(static_cast<int64_t>(table_.size()));
        if (batch_cb_) {
            RouteBatch<A> b;
            b.add(route);
            batch_cb_(std::move(b));
        } else if (cb_) {
            cb_(true, route);
        }
    }

    void delete_route(const RouteT& route, RouteStage<A>*) override {
        this->stage_metrics().deletes->inc();
        table_.erase(route.net);
        this->routes_gauge()->set(static_cast<int64_t>(table_.size()));
        if (batch_cb_) {
            RouteBatch<A> b;
            b.del(route);
            batch_cb_(std::move(b));
        } else if (cb_) {
            cb_(false, route);
        }
    }

    void push_batch(RouteBatch<A>&& batch, RouteStage<A>*) override {
        this->stage_metrics().adds->inc(batch.add_count());
        this->stage_metrics().deletes->inc(batch.delete_count());
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
        if (batch_cb_) {
            batch_cb_(std::move(batch));
        } else if (cb_) {
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
        this->stage_metrics().lookups->inc();
        const RouteT* r = table_.find(net);
        return r != nullptr ? std::optional<RouteT>(*r) : std::nullopt;
    }

    std::optional<RouteT> lookup_route_lpm(A addr) const override {
        const RouteT* r = table_.lookup(addr);
        return r != nullptr ? std::optional<RouteT>(*r) : std::nullopt;
    }

    std::string name() const override { return name_; }

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
