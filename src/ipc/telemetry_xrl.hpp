// The telemetry/1.0 XRL face: every component exposes its process-wide
// metrics registry and event journal over the same IPC they instrument —
// observability is self-hosted, there is no side channel. XrlRouter
// binds these handlers in finalize(), so any finalized target (bgp, rib,
// fea, even the finder) answers:
//
//   list_metrics              — registered metric keys
//   get_metric ? name         — one metric's exposition lines
//   snapshot                  — full Prometheus-style text exposition
//   metrics_enable ? on       — flip the registry-wide enable flag
//   trace_enable ? on         — flip call tracing: XRLs carry a trace
//                               id, and the journal records the §8.2
//                               profiling points and the XRL hops
//   journal_enable ? on       — flip the structured event journal
//   journal_dump_json         — journal ring as JSON-lines
//   journal_clear             — drop buffered journal events
//
// The registry and the journal are process singletons, so asking any one
// target yields the whole process's view; in a multi-process deployment
// each process answers for itself, exactly like XORP's per-process
// profiler, and ProcessRouter::journal_timeline merges the answers.
#ifndef XRP_IPC_TELEMETRY_XRL_HPP
#define XRP_IPC_TELEMETRY_XRL_HPP

#include "ipc/dispatcher.hpp"

namespace xrp::ipc {

inline constexpr const char* kTelemetryIdl = R"(
interface telemetry/1.0 {
    list_metrics -> names:txt;
    get_metric ? name:txt -> found:bool & text:txt;
    snapshot -> text:txt;
    metrics_enable ? on:bool -> enabled:bool;
    trace_enable ? on:bool -> enabled:bool;
    journal_enable ? on:bool -> enabled:bool;
    journal_dump_json -> count:u32 & dropped:u32 & text:txt;
    journal_clear -> ok:bool;
}
)";

// Adds the telemetry/1.0 interface + handlers to `d` (idempotent: a
// second call finds the methods already present and leaves them alone).
void bind_telemetry_xrls(XrlDispatcher& d);

}  // namespace xrp::ipc

#endif
