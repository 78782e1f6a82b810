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
    stage::SinkStage<A> sink{"probe", [this](bool is_add, const RouteT& r) {
                                 ++scalars;
                                 stream.emplace_back(is_add, r);
                             }};

    StreamProbe() {
        sink.set_batch_callback([this](stage::RouteBatch<A>&& b) {
            ++batches;
            for (const auto& e : b.entries()) {
                if (e.op == stage::BatchOp::kReplace) {
                    stream.emplace_back(false, e.old_route);
                    stream.emplace_back(true, e.route);
                } else {
                    stream.emplace_back(e.op == stage::BatchOp::kAdd,
                                        e.route);
                }
            }
        });
    }
    StreamProbe(const StreamProbe&) = delete;
    StreamProbe& operator=(const StreamProbe&) = delete;

    void reset() {
        batches = 0;
        scalars = 0;
        stream.clear();
    }
};

}  // namespace xrp::tests

#endif
