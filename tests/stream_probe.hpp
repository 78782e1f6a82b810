// A terminal stage for tests that care *how* routes arrive: it counts
// push_batch messages and scalar add/delete messages separately, and
// records the add/delete stream both carry (a replace entry unrolled to
// delete then add, as the per-route API would say it).
#ifndef XRP_TESTS_STREAM_PROBE_HPP
#define XRP_TESTS_STREAM_PROBE_HPP

#include <utility>
#include <vector>

#include "stage/sink.hpp"

namespace xrp::tests {

template <class A>
struct StreamProbe {
    using RouteT = stage::Route<A>;

    size_t batches = 0;
    size_t scalars = 0;
    std::vector<std::pair<bool, RouteT>> stream;  // (is_add, route)

    // SinkStage hands a lone add or delete on as a one-entry batch; this
    // sink counts those arrivals as scalars before it does.
    class Sink final : public stage::SinkStage<A> {
    public:
        explicit Sink(StreamProbe& p) : stage::SinkStage<A>("probe"), p_(p) {
            this->set_batch_callback([this](stage::RouteBatch<A>&& b) {
                if (!std::exchange(p_.in_scalar_, false)) ++p_.batches;
                for (const auto& e : b.entries()) {
                    if (e.op == stage::BatchOp::kReplace) {
                        p_.stream.emplace_back(false, e.old_route);
                        p_.stream.emplace_back(true, e.route);
                    } else {
                        p_.stream.emplace_back(e.op == stage::BatchOp::kAdd,
                                               e.route);
                    }
                }
            });
        }
        void add_route(const RouteT& r, stage::RouteStage<A>* from) override {
            ++p_.scalars;
            p_.in_scalar_ = true;
            stage::SinkStage<A>::add_route(r, from);
        }
        void delete_route(const RouteT& r,
                          stage::RouteStage<A>* from) override {
            ++p_.scalars;
            p_.in_scalar_ = true;
            stage::SinkStage<A>::delete_route(r, from);
        }

    private:
        StreamProbe& p_;
    };
    Sink sink{*this};

    StreamProbe() = default;
    StreamProbe(const StreamProbe&) = delete;
    StreamProbe& operator=(const StreamProbe&) = delete;

    void reset() {
        batches = 0;
        scalars = 0;
        stream.clear();
    }

private:
    bool in_scalar_ = false;
};

}  // namespace xrp::tests

#endif
