#include "telemetry/journal.hpp"

#include <utility>

#include "telemetry/json.hpp"

namespace xrp::telemetry {

const char* journal_kind_name(JournalKind k) {
    switch (k) {
        case JournalKind::kRouteInstall: return "route_install";
        case JournalKind::kRouteWithdraw: return "route_withdraw";
        case JournalKind::kFibAdd: return "fib_add";
        case JournalKind::kFibDelete: return "fib_delete";
        case JournalKind::kLsaFlood: return "lsa_flood";
        case JournalKind::kDeath: return "death";
        case JournalKind::kRestart: return "restart";
        case JournalKind::kBreakerTrip: return "breaker_trip";
        case JournalKind::kFaultInjected: return "fault_injected";
        case JournalKind::kCallRetry: return "call_retry";
        case JournalKind::kCallFailover: return "call_failover";
        case JournalKind::kProcessOutput: return "process_output";
        case JournalKind::kProcessExit: return "process_exit";
        case JournalKind::kBgpIn: return "bgp_in";
        case JournalKind::kBgpRibQueued: return "bgp_rib_queued";
        case JournalKind::kBgpRibSent: return "bgp_rib_sent";
        case JournalKind::kRibFeaQueued: return "rib_fea_queued";
        case JournalKind::kRibFeaSent: return "rib_fea_sent";
        case JournalKind::kFeaIn: return "fea_in";
        case JournalKind::kXrlSend: return "xrl_send";
        case JournalKind::kXrlDispatch: return "xrl_dispatch";
    }
    return "unknown";
}

namespace {
constexpr auto kLastKind = JournalKind::kXrlDispatch;

std::optional<JournalKind> kind_from_name(std::string_view name) {
    for (int k = 0; k <= static_cast<int>(kLastKind); ++k) {
        auto kind = static_cast<JournalKind>(k);
        if (name == journal_kind_name(kind)) return kind;
    }
    return std::nullopt;
}

// An absent field keeps `out`; a field that is not an exact integer the
// type can hold makes the line malformed rather than the value rounded or
// the cast undefined.
template <class T>
bool read_int(const json::Value& v, const char* key, T& out) {
    const json::Value* f = v.find(key);
    if (f == nullptr) return true;
    const std::optional<int64_t> n = f->as_int();
    if (!n || !std::in_range<T>(*n)) return false;
    out = static_cast<T>(*n);
    return true;
}
}  // namespace

std::string JournalEvent::to_json() const {
    std::string out;
    out += "{\"seq\":";
    out += std::to_string(seq);
    out += ",\"t_ns\":";
    out += std::to_string(t.time_since_epoch().count());
    out += ",\"kind\":\"";
    out += journal_kind_name(kind);
    out += "\",\"node\":";
    json::escape_string(out, node);
    out += ",\"component\":";
    json::escape_string(out, component);
    out += ",\"subject\":";
    json::escape_string(out, subject);
    if (!detail.empty()) {
        out += ",\"detail\":";
        json::escape_string(out, detail);
    }
    if (value != 0) {
        out += ",\"value\":";
        out += std::to_string(value);
    }
    if (trace != 0) {
        out += ",\"trace\":";
        out += std::to_string(trace);
    }
    if (hop != 0) {
        out += ",\"hop\":";
        out += std::to_string(hop);
    }
    out += '}';
    return out;
}

std::optional<JournalEvent> JournalEvent::from_json(std::string_view line) {
    auto v = json::Value::parse(line);
    if (!v || !v->is_object()) return std::nullopt;
    auto kind = kind_from_name(v->get_string("kind").value_or(""));
    if (!kind || v->find("t_ns") == nullptr) return std::nullopt;
    JournalEvent e;
    e.kind = *kind;
    int64_t t_ns = 0;
    if (!read_int(*v, "t_ns", t_ns) || !read_int(*v, "seq", e.seq) ||
        !read_int(*v, "value", e.value) || !read_int(*v, "trace", e.trace) ||
        !read_int(*v, "hop", e.hop))
        return std::nullopt;
    e.t = ev::TimePoint(ev::Duration(t_ns));
    e.node = v->get_string("node").value_or("");
    e.component = v->get_string("component").value_or("");
    e.subject = v->get_string("subject").value_or("");
    e.detail = v->get_string("detail").value_or("");
    return e;
}

size_t parse_jsonl(std::string_view text, std::vector<JournalEvent>& out) {
    size_t malformed = 0;
    while (!text.empty()) {
        const size_t nl = text.find('\n');
        const std::string_view line = text.substr(0, nl);
        text.remove_prefix(nl == std::string_view::npos ? text.size()
                                                        : nl + 1);
        if (line.empty()) continue;
        if (auto e = JournalEvent::from_json(line))
            out.push_back(std::move(*e));
        else
            ++malformed;
    }
    return malformed;
}

Journal& Journal::global() {
    static Journal j;
    return j;
}

namespace {
thread_local Journal* g_journal_override = nullptr;
}  // namespace

Journal& Journal::current() {
    return g_journal_override != nullptr ? *g_journal_override : global();
}

Journal* Journal::set_thread_override(Journal* j) {
    Journal* prev = g_journal_override;
    g_journal_override = j;
    return prev;
}

void Journal::set_enabled(bool on) {
    const bool was = enabled_.exchange(on, std::memory_order_relaxed);
    if (was == on) return;
    detail::g_journal_enabled_count.fetch_add(on ? 1 : -1,
                                              std::memory_order_relaxed);
}

void Journal::set_capacity(size_t cap) {
    if (cap == 0) cap = 1;
    std::lock_guard<std::mutex> lk(mu_);
    // Linearize into append order, then keep the newest `cap`.
    std::vector<JournalEvent> linear;
    linear.reserve(ring_.size());
    if (wrapped_) {
        for (size_t i = head_; i < ring_.size(); ++i)
            linear.push_back(std::move(ring_[i]));
        for (size_t i = 0; i < head_; ++i) linear.push_back(std::move(ring_[i]));
    } else {
        linear = std::move(ring_);
    }
    if (linear.size() > cap) {
        dropped_ += linear.size() - cap;
        linear.erase(linear.begin(),
                     linear.begin() + static_cast<ptrdiff_t>(linear.size() - cap));
    }
    cap_ = cap;
    ring_ = std::move(linear);
    head_ = 0;
    wrapped_ = false;
}

size_t Journal::capacity() const {
    std::lock_guard<std::mutex> lk(mu_);
    return cap_;
}

void Journal::record(ev::TimePoint t, JournalKind kind, std::string_view node,
                     std::string_view component, std::string_view subject,
                     std::string_view detail, int64_t value) {
    if (!enabled()) return;
    JournalEvent ev;
    ev.t = t;
    ev.kind = kind;
    ev.node.assign(node);
    ev.component.assign(component);
    ev.subject.assign(subject);
    ev.detail.assign(detail);
    ev.value = value;
    const TraceContext ctx = TraceContext::current();
    ev.trace = ctx.trace_id;
    ev.hop = ctx.hop;

    std::lock_guard<std::mutex> lk(mu_);
    ev.seq = next_seq_++;
    if (!wrapped_ && ring_.size() < cap_) {
        ring_.push_back(std::move(ev));
        return;
    }
    // Ring is full: overwrite the oldest slot.
    if (!wrapped_) wrapped_ = true;
    ring_[head_] = std::move(ev);
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
}

std::vector<JournalEvent> Journal::events() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<JournalEvent> out;
    out.reserve(ring_.size());
    if (wrapped_) {
        for (size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
        for (size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
    } else {
        out = ring_;
    }
    return out;
}

size_t Journal::event_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ring_.size();
}

uint64_t Journal::dropped() const {
    std::lock_guard<std::mutex> lk(mu_);
    return dropped_;
}

void Journal::clear() {
    std::lock_guard<std::mutex> lk(mu_);
    ring_.clear();
    head_ = 0;
    wrapped_ = false;
    dropped_ = 0;
    // seq keeps counting: "same event, new number" is never ambiguous
    // across clears within one process.
}

std::string Journal::to_jsonl() const {
    std::vector<JournalEvent> snap = events();
    std::string out;
    for (const JournalEvent& e : snap) {
        out += e.to_json();
        out += '\n';
    }
    return out;
}

}  // namespace xrp::telemetry
