// Structured event journal: the one event spine. Components append
// typed, monotonic-timestamped records — route install/withdraw, FIB
// write, LSA flood, supervisor death/restart/breaker, injected fault,
// XRL retry/failover, and while tracing the paper's §8.2 profiling
// points and XRL hops — and the convergence analyzer replays them to
// reconstruct what the network was doing in between the moments a test
// happened to look. Each event carries the TraceContext it was recorded
// under, so one route's trip reads off as the events sharing a trace id;
// every process exports its journal over telemetry/1.0, and since all
// processes on a host read one CLOCK_MONOTONIC, the exports merge by time
// into one cross-process timeline (ProcessRouter::journal_timeline).
//
// Same discipline as the metrics registry: process-global singleton,
// disabled by default, and the disabled hot path is one relaxed atomic
// load plus a branch (`journal_enabled()`), so instrumented code costs
// nothing when nobody is watching. Callers pass their own loop's
// timestamp — in a multi-router simulation every component runs on one
// VirtualClock loop, so journal order and timestamp order agree.
//
// Threading: record()/events()/clear() are safe from any thread — every
// ring mutation happens under one mutex, and seq numbers stay globally
// ordered under concurrent producers (the 4-thread hammer test pins
// this). When journal order must be isolated per unit of work instead
// of interleaved — scenario_runner running matrix cells on a thread
// pool — a thread installs its own Journal with set_thread_override();
// instrumented code reaches the journal through Journal::current(), so
// everything that thread's cell does lands in the cell's journal while
// other threads keep writing to their own (or the global one).
#ifndef XRP_TELEMETRY_JOURNAL_HPP
#define XRP_TELEMETRY_JOURNAL_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ev/clock.hpp"
#include "telemetry/trace.hpp"

namespace xrp::telemetry {

enum class JournalKind : uint8_t {
    kRouteInstall,   // RIB accepted a route          subject=prefix detail=proto:nexthop value=metric
    kRouteWithdraw,  // RIB removed a route           subject=prefix detail=proto
    kFibAdd,         // FEA wrote a forwarding entry  subject=prefix detail=nexthop:ifname
    kFibDelete,      // FEA removed an entry          subject=prefix
    kLsaFlood,       // OSPF (re)flooded an LSA       subject=lsa key detail=ifname value=seqno
    kDeath,          // supervisor observed a death   subject=component detail=reason
    kRestart,        // supervisor restarted it       subject=component value=attempt
    kBreakerTrip,    // restart breaker gave up       subject=component value=attempts
    kFaultInjected,  // injector perturbed a send     subject=target detail=action
    kCallRetry,      // reliable call re-sent         subject=target detail=method value=attempt
    kCallFailover,   // reliable call switched ep     subject=target detail=method
    kProcessOutput,  // child process wrote a line    subject=component detail=line
    kProcessExit,    // child process was reaped      subject=component detail=status value=pid
    // The paper's Fig 10-12 profiling points and the XRL hops between
    // them (subject=prefix detail=add|delete, or subject=method
    // detail=family for the hops). Recorded only while tracing is on;
    // rib_in and kernel_in are route_install/withdraw and fib_add/delete.
    kBgpIn,          // update entering BGP
    kBgpRibQueued,   // winner queued for transmission to the RIB
    kBgpRibSent,     // winner sent to the RIB
    kRibFeaQueued,   // RIB winner queued for transmission to the FEA
    kRibFeaSent,     // RIB winner sent to the FEA
    kFeaIn,          // route arriving at the FEA
    kXrlSend,        // XRL attempt sent               subject=target/method detail=family
    kXrlDispatch,    // XRL request dispatched         subject=method detail=family
};

// Stable machine-readable name ("route_install", "fib_add", ...) used by
// the JSON-lines export and matched by the analyzer. Never renumber or
// rename: committed scenario output references these strings.
const char* journal_kind_name(JournalKind k);

struct JournalEvent {
    uint64_t seq = 0;     // global append order, never reused
    ev::TimePoint t{};    // caller's loop time at the hook site
    JournalKind kind = JournalKind::kRouteInstall;
    std::string node;       // router identity ("r12"), empty if unbound
    std::string component;  // "rib", "fea", "ospf", "supervisor", ...
    std::string subject;    // what it happened to (prefix, LSA, target)
    std::string detail;     // free-form qualifier (nexthop, reason, action)
    int64_t value = 0;      // numeric payload (metric, attempt, seqno)
    uint64_t trace = 0;     // TraceContext current at record(), 0 = none
    uint32_t hop = 0;

    // One compact JSON object, no trailing newline.
    std::string to_json() const;
    // The inverse of to_json(); nullopt for a line that is not one event.
    static std::optional<JournalEvent> from_json(std::string_view line);
};

// Reads JSON-lines text (to_jsonl() output, e.g. another process's
// journal_dump_json) into `out`. Malformed lines are skipped; returns
// how many were.
size_t parse_jsonl(std::string_view text, std::vector<JournalEvent>& out);

namespace detail {
// Count of currently-enabled Journal instances. The hot-path guard at
// hook sites is "is ANY journal on?" — one relaxed load, no mutex. It
// can be true when only some other thread's journal is recording; the
// per-instance flag inside record() settles it, so a pool cell turning
// its private journal off can never silence a concurrent cell's.
inline std::atomic<int> g_journal_enabled_count{0};
}  // namespace detail

inline bool journal_enabled() {
    return detail::g_journal_enabled_count.load(std::memory_order_relaxed) > 0;
}

// Guard for the trace-point kinds (kBgpIn .. kXrlDispatch): they cost a
// journal write per route per hop, so they also need tracing on.
inline bool trace_points_enabled() {
    return tracing_enabled() && journal_enabled();
}

class Journal {
public:
    static constexpr size_t kDefaultCapacity = 1 << 16;

    static Journal& global();

    // The journal instrumented code should append to: the calling
    // thread's override when one is installed, else the global journal.
    static Journal& current();
    // Installs `j` as this thread's journal (nullptr restores the
    // global). Returns the previous override so scopes can nest.
    static Journal* set_thread_override(Journal* j);

    // Public constructor: scenario cells build private journals and
    // install them per worker thread via set_thread_override().
    Journal() { ring_.reserve(kDefaultCapacity); }
    // Balances the enabled-journal count if an owner forgets to disable.
    ~Journal() { set_enabled(false); }
    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    // Per-instance: enabling/disabling this journal never affects what
    // another thread's journal records. Idempotent.
    void set_enabled(bool on);
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    // Resize the bounded ring; keeps the newest events that fit.
    void set_capacity(size_t cap);
    size_t capacity() const;

    // Append one event, stamped with this thread's TraceContext. No-op
    // while disabled (hooks additionally guard with journal_enabled() so
    // argument construction is skipped too).
    void record(ev::TimePoint t, JournalKind kind, std::string_view node,
                std::string_view component, std::string_view subject,
                std::string_view detail = {}, int64_t value = 0);

    // Snapshot of retained events in append order (oldest first).
    std::vector<JournalEvent> events() const;
    size_t event_count() const;

    // Events evicted by the bounded ring since the last clear().
    uint64_t dropped() const;

    void clear();

    // JSON-lines export: one event per line, oldest first.
    std::string to_jsonl() const;

    // One trace point per route of a stage batch (detail "add" or
    // "delete"); a replace is the delete of the old route then the add.
    template <class Batch>
    void record_batch(ev::TimePoint t, JournalKind kind,
                      std::string_view node, std::string_view component,
                      const Batch& batch) {
        for (const auto& e : batch.entries()) {
            using Op = decltype(e.op);
            if (e.op != Op::kAdd)
                record(t, kind, node, component,
                       (e.op == Op::kReplace ? e.old_route : e.route)
                           .net.str(),
                       "delete");
            if (e.op != Op::kDelete)
                record(t, kind, node, component, e.route.net.str(), "add");
        }
    }

private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<JournalEvent> ring_;  // circular once full
    size_t cap_ = kDefaultCapacity;
    size_t head_ = 0;    // index of oldest event once wrapped
    bool wrapped_ = false;
    uint64_t next_seq_ = 1;
    uint64_t dropped_ = 0;
};

// An XRL hop (kXrlSend or kXrlDispatch) under the current trace; no-op
// outside a trace or while trace points are off.
inline void record_xrl_hop(ev::TimePoint t, JournalKind kind,
                           std::string_view method, std::string_view family) {
    if (trace_points_enabled() && TraceContext::current().valid())
        Journal::current().record(t, kind, {}, "xrl", method, family);
}

}  // namespace xrp::telemetry

#endif
