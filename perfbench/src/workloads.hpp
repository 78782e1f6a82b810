// The four workloads and the per-layer probes their traced runs share.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <string>
#include <utility>
#include <vector>

#include "bgp/message.hpp"
#include "common.hpp"
#include "stage/batch.hpp"

namespace perfbench {

Result run_full_table(const Options& o);
Result run_churn(const Options& o);
Result run_download(const Options& o);
Result run_igp_flap(const Options& o);

// ---- layer probes (layers.cpp) -----------------------------------------
// Each probe replays inputs through one layer's public entry point and
// fills its rows of the LayerTable. Each returns the layer self time it
// measured, in seconds, so a caller can compare the sum with a wall time.

// UPDATEs tagged with the feed peer that sends them: 0 = A, 1 = B.
using TaggedUpdates = std::vector<std::pair<int, xrp::bgp::UpdateMessage>>;
// Every update of `feed`, sent by peer A.
TaggedUpdates tagged(const std::vector<xrp::bgp::UpdateMessage>& feed);

// BGP ingest -> RouteBatch codec -> RIB push -> FEA apply -> one-way XRL
// replay over `family` ("stcp" or "xring"), all on the captured batches of
// `measured`. `preload` is loaded first, untimed, so the measured updates
// meet a full table. Sets bgp.*, stage.*, ipc.*, rib.*, fea.apply_*.
double probe_route_path(const TaggedUpdates& preload,
                        const TaggedUpdates& measured,
                        const std::string& family, LayerTable& t);

// Same, for batches that enter at BGP's RIB handle (BGP bypassed); leaves
// the bgp.* rows alone.
double probe_batch_path(const std::vector<xrp::stage::RouteBatch4>& batches,
                        const std::string& family, LayerTable& t);

// Per-layer rows of the other workloads, on small seeded stand-in inputs:
// the route path with its residual share (a 20,000-route full_table),
// churn spans and generator lateness, threaded busy shares, OSPF.
void probe_standin_route_path(uint64_t seed, LayerTable& t);
void probe_standin_spans(uint64_t seed, LayerTable& t);
void probe_standin_threads(uint64_t seed, LayerTable& t);
void probe_standin_ospf(uint64_t seed, LayerTable& t);

}  // namespace perfbench

#endif
