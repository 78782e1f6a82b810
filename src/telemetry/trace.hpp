// XRL call tracing: the paper's Figures 10–12 follow one route's journey
// through eight profiling points across three processes. This generalizes
// that: a trace id plus hop count rides along with every XRL request (an
// optional trailer in the binary wire format), so any causally-linked
// chain of calls — BGP → RIB → FEA for a route add — can be reassembled
// afterwards as one trace, whatever mixture of protocol families the hops
// used. The events themselves live in the journal (telemetry/journal.hpp):
// Journal::record stamps every event with the context below.
//
// Mechanics: a thread_local "current context" holds the trace the code is
// executing under. XrlRouter::send starts a new trace when none is active
// (and tracing is enabled); each transport embeds {id, hop+1} in the
// request; each receiver scopes the carried context around its dispatch,
// so nested sends inherit the id and deepen the hop count. Event loops are
// single-threaded, so thread_local is exactly "this component's stack".
//
// When tracing is disabled (the default), the only cost at every site is
// one relaxed atomic load (tracing_enabled()).
#ifndef XRP_TELEMETRY_TRACE_HPP
#define XRP_TELEMETRY_TRACE_HPP

#include <unistd.h>

#include <atomic>
#include <cstdint>

namespace xrp::telemetry {

namespace detail {
inline std::atomic<bool> g_tracing{false};
// Root ids start at pid << 30, so traces begun in different processes on
// one host never share an id when their journals merge into one timeline.
// pid_max is at most 2^22, which keeps every id below 2^52: exact as a
// JSON number.
inline std::atomic<uint64_t> g_next_trace_id{
    (static_cast<uint64_t>(::getpid()) << 30) + 1};
}  // namespace detail

inline bool tracing_enabled() {
    return detail::g_tracing.load(std::memory_order_relaxed);
}
inline void set_tracing_enabled(bool on) {
    detail::g_tracing.store(on, std::memory_order_relaxed);
}

struct TraceContext {
    uint64_t trace_id = 0;  // 0 = not tracing
    uint32_t hop = 0;
    bool valid() const { return trace_id != 0; }
    TraceContext next_hop() const { return {trace_id, hop + 1}; }

    // The context this thread (= event loop) is executing under.
    static TraceContext current() { return current_; }

    // A fresh root context (hop 0). Only meaningful while tracing is
    // enabled; callers guard on tracing_enabled() first.
    static TraceContext begin() {
        return {detail::g_next_trace_id.fetch_add(1, std::memory_order_relaxed),
                0};
    }

    // RAII: installs a context as current for the receiver-side dispatch
    // (or a nested send chain), restoring the previous one on destruction.
    class Scope;

private:
    static thread_local TraceContext current_;
};

inline thread_local TraceContext TraceContext::current_{};

class TraceContext::Scope {
public:
    explicit Scope(TraceContext ctx) : saved_(current_) { current_ = ctx; }
    ~Scope() { current_ = saved_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    TraceContext saved_;
};

}  // namespace xrp::telemetry

#endif
