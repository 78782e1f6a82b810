#include "ipc/router.hpp"

#include <cmath>
#include <cstdio>
#include <functional>

#include "ipc/common_xrl.hpp"
#include "ipc/fault_xrl.hpp"
#include "ipc/finder_client.hpp"
#include "ipc/telemetry_xrl.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"

namespace xrp::ipc {

namespace {

// Handles bound once on first use; every hot-path touch below is a cached
// pointer check plus a relaxed atomic op (disabled registry: just the
// check).
struct IpcMetrics {
    telemetry::Counter* sends_inproc;
    telemetry::Counter* sends_stcp;
    telemetry::Counter* sends_sudp;
    telemetry::Counter* sends_xring;
    telemetry::Counter* resolve_failures;
    telemetry::Counter* retries;
    telemetry::Counter* failovers;
    telemetry::Counter* attempt_timeouts;
    telemetry::Counter* deadline_hits;
    telemetry::Counter* late_responses;
    telemetry::Counter* ignored_errors;
    telemetry::Counter* targets_reported_dead;
    telemetry::Histogram* lat_inproc;

    static const IpcMetrics& get() {
        static IpcMetrics m = [] {
            auto& r = telemetry::Registry::global();
            IpcMetrics x;
            x.sends_inproc =
                r.counter("xrl_sends_total{family=\"inproc\"}");
            x.sends_stcp = r.counter("xrl_sends_total{family=\"stcp\"}");
            x.sends_sudp = r.counter("xrl_sends_total{family=\"sudp\"}");
            x.sends_xring = r.counter("xrl_sends_total{family=\"xring\"}");
            x.resolve_failures = r.counter("xrl_resolve_failures_total");
            x.retries = r.counter("xrl_call_retries_total");
            x.failovers = r.counter("xrl_call_failovers_total");
            x.attempt_timeouts = r.counter("xrl_call_attempt_timeouts_total");
            x.deadline_hits = r.counter("xrl_call_deadline_hits_total");
            x.late_responses = r.counter("xrl_call_late_responses_total");
            x.ignored_errors = r.counter("xrl_ignored_errors_total");
            x.targets_reported_dead =
                r.counter("xrl_targets_reported_dead_total");
            x.lat_inproc =
                r.histogram("xrl_latency_ns{family=\"inproc\"}");
            return x;
        }();
        return m;
    }
};

}  // namespace

// One in-flight reliable call. Owned by shared_ptr: the state machine's
// timers and response callbacks all reference it; finish_call() releases
// the timers (and with them the last long-lived references).
struct XrlRouter::CallState {
    xrl::Xrl xrl;
    CallOptions opts;
    ResponseCallback done;
    ev::TimePoint deadline_at{};
    // Resolutions snapshot for the current cycle; failover walks res_index
    // through it. Each new cycle re-resolves (the failing entry was
    // invalidated, so a restarted target is picked up).
    std::vector<finder::Resolution> resolutions;
    size_t res_index = 0;
    uint32_t cycles_used = 0;
    // Bumped per attempt; responses carrying a stale generation are late
    // (their attempt already timed out) and are counted, then discarded.
    uint64_t generation = 0;
    ev::Timer attempt_timer;
    ev::Timer backoff_timer;
    bool finished = false;
    // True while every failure was a hard transport failure (refused,
    // killed channel). Timeouts clear it: slow is not dead, and death
    // must never be declared on loss alone (§ classic failure-detector
    // caution — under injected drops this would amputate live targets).
    bool hard_failure_only = true;
    xrl::XrlError last_err;
    telemetry::TraceContext trace{};
};

XrlRouter::XrlRouter(Plexus& plexus, std::string cls, bool sole)
    : XrlRouter(plexus, plexus.loop, std::move(cls), sole) {}

XrlRouter::XrlRouter(Plexus& plexus, ev::EventLoop& home, std::string cls,
                     bool sole)
    : plexus_(plexus), home_loop_(home), cls_(std::move(cls)), sole_(sole) {
    // Deterministic per-class seed: chaos runs replay bit-for-bit.
    prng_ = 0x9e3779b97f4a7c15ull ^ std::hash<std::string>{}(cls_);
    if (prng_ == 0) prng_ = 1;
    // A component on its own loop cannot offer inproc (synchronous
    // dispatch would run handlers on the caller's thread); it is reachable
    // over xring instead.
    if (threaded()) xring_enabled_ = true;
}

XrlRouter::~XrlRouter() {
    if (!instance_.empty()) {
        if (intra_registered_) plexus_.intra.remove(instance_);
        if (finder_client_) {
            // Best-effort: a clean exit removes the registration so the
            // master sees an orderly departure (death watch fires, the
            // name is freed). If the master is already gone, so be it.
            finder_client_->unregister_target(instance_);
        } else {
            plexus_.finder.unregister_target(instance_);
        }
    }
    if (invalidate_listener_id_ != 0)
        plexus_.finder.remove_invalidate_listener(invalidate_listener_id_);
}

std::string XrlRouter::tcp_address() const {
    return tcp_listener_ && tcp_listener_->ok() ? tcp_listener_->address()
                                                : std::string{};
}

void XrlRouter::enable_tcp() {
    if (!tcp_listener_)
        tcp_listener_ = std::make_unique<TcpListener>(home_loop_, dispatcher_);
}

void XrlRouter::enable_udp() {
    if (!udp_listener_)
        udp_listener_ = std::make_unique<UdpListener>(home_loop_, dispatcher_);
}

bool XrlRouter::finalize() {
    if (finalized_) return true;
    // Every component self-hosts observability and chaos control: the
    // telemetry/1.0 and fault/1.0 interfaces are served over the same IPC
    // they report on / sabotage. common/0.1 makes every component
    // uniformly identifiable and health-probeable (the supervisor's
    // get_status probes land here unless the component bound its own).
    bind_common_xrls(dispatcher_, cls_);
    bind_telemetry_xrls(dispatcher_);
    bind_fault_xrls(dispatcher_, plexus_.faults);
    if (remote()) return finalize_remote();
    auto instance = plexus_.finder.register_target(cls_, sole_);
    if (!instance) return false;
    instance_ = *instance;
    secret_ = plexus_.finder.instance_secret(instance_);

    std::map<std::string, std::string> families;
    if (!threaded()) {
        // Inproc's synchronous dispatch requires caller and callee to
        // share a loop (thread); a threaded component must not offer it.
        plexus_.intra.add(instance_, &dispatcher_);
        intra_registered_ = true;
        families["inproc"] = instance_;
    }
    if (xring_enabled_) {
        xring_port_ = std::make_unique<XringPort>(home_loop_, dispatcher_,
                                                  plexus_.xring, instance_);
        if (xring_port_->ok()) families["xring"] = instance_;
    }
    if (tcp_listener_ && tcp_listener_->ok())
        families["stcp"] = tcp_listener_->address();
    if (udp_listener_ && udp_listener_->ok())
        families["sudp"] = udp_listener_->address();

    for (const std::string& method : dispatcher_.method_names()) {
        std::string key =
            plexus_.finder.register_method(instance_, method, families);
        dispatcher_.set_method_key(method, key);
    }

    // Drop cached resolutions whenever any instance of a class goes away;
    // the next send re-resolves (§6.2 cache invalidation).
    // The listener may fire from whichever thread unregisters the class
    // (e.g. a component thread tearing down its router) — hence the lock.
    invalidate_listener_id_ = plexus_.finder.add_invalidate_listener(
        [this](const std::string& cls) {
            std::lock_guard<std::mutex> lk(resolve_mu_);
            for (auto it = resolve_cache_.begin();
                 it != resolve_cache_.end();) {
                // Cache keys are "target|full_method"; match on target
                // class or exact instance prefix.
                const std::string& k = it->first;
                if (k.compare(0, cls.size(), cls) == 0 &&
                    (k.size() == cls.size() || k[cls.size()] == '|' ||
                     k[cls.size()] == '-'))
                    it = resolve_cache_.erase(it);
                else
                    ++it;
            }
        });

    finalized_ = true;
    return true;
}

bool XrlRouter::finalize_remote() {
    // Child-process registration: everything goes through the master
    // Finder over stcp. Only socket families are offered — inproc and
    // xring addresses are meaningless outside this address space.
    finder_client_ = std::make_unique<FinderClient>(plexus_.finder_address);
    auto reg = finder_client_->register_target(cls_, sole_);
    if (!reg) return false;
    instance_ = reg->instance;
    secret_ = reg->secret;

    std::map<std::string, std::string> families;
    if (tcp_listener_ && tcp_listener_->ok())
        families["stcp"] = tcp_listener_->address();
    if (udp_listener_ && udp_listener_->ok())
        families["sudp"] = udp_listener_->address();

    const std::vector<std::string> methods = dispatcher_.method_names();
    const std::vector<std::string> keys =
        finder_client_->register_methods(instance_, methods, families);
    if (keys.size() != methods.size()) return false;
    for (size_t i = 0; i < methods.size(); ++i)
        dispatcher_.set_method_key(methods[i], keys[i]);

    // No invalidation push crosses the process boundary; stale cache
    // entries are dropped per-call by handle_attempt_failure instead.
    finalized_ = true;
    return true;
}

std::optional<std::vector<finder::Resolution>> XrlRouter::resolve(
    const xrl::Xrl& xrl, xrl::XrlError* err) {
    const std::string cache_key = xrl.target() + "|" + xrl.full_method();
    {
        std::lock_guard<std::mutex> lk(resolve_mu_);
        auto it = resolve_cache_.find(cache_key);
        if (it != resolve_cache_.end()) {
            if (it->second.empty()) {
                if (err)
                    *err = xrl::XrlError(xrl::ErrorCode::kResolveFailed,
                                         "no transports");
                return std::nullopt;
            }
            return it->second;
        }
    }
    // Miss: ask the Finder with the cache lock released (lock order is
    // always resolve_mu_ strictly inside or outside Finder calls, never
    // held across one — the Finder takes its own lock and may call our
    // invalidation listener, which takes resolve_mu_).
    std::optional<std::vector<finder::Resolution>> resolutions;
    if (finder_client_) {
        // Remote mode: a blocking round trip to the master. Typed errors
        // (kTargetDead especially) pass through so the call contract
        // fails exactly as fast as it would against a local Finder. Drop
        // in-address-space families — the master's own components
        // register inproc endpoints we cannot reach from this process.
        resolutions = finder_client_->resolve(xrl.target(), xrl.full_method(),
                                              instance_, secret_, err);
        if (resolutions)
            std::erase_if(*resolutions, [](const finder::Resolution& r) {
                return r.family != "stcp" && r.family != "sudp";
            });
    } else {
        resolutions = plexus_.finder.resolve(
            xrl.target(), xrl.full_method(), instance_, err, secret_);
    }
    if (!resolutions) return std::nullopt;
    {
        std::lock_guard<std::mutex> lk(resolve_mu_);
        resolve_cache_[cache_key] = *resolutions;
    }
    if (resolutions->empty()) {
        if (err)
            *err = xrl::XrlError(xrl::ErrorCode::kResolveFailed,
                                 "no transports");
        return std::nullopt;
    }
    return std::move(*resolutions);
}

void XrlRouter::invalidate_cached(const xrl::Xrl& xrl) {
    std::lock_guard<std::mutex> lk(resolve_mu_);
    resolve_cache_.erase(xrl.target() + "|" + xrl.full_method());
}

void XrlRouter::dispatch_via(const std::string& target,
                             const finder::Resolution& res,
                             const xrl::XrlArgs& args, ResponseCallback done) {
    if (plexus_.faults.active()) {
        // The injector decides the send's fate; `deliver` carries copies
        // so a delayed/duplicated dispatch outlives this frame. The home
        // loop rides along so delayed/held deliveries of a threaded
        // component fire on its thread, not the Plexus loop's.
        plexus_.faults.intercept(
            target, res.family,
            [this, res, args](ResponseCallback cb) {
                dispatch_raw(res, args, std::move(cb));
            },
            std::move(done), &home_loop_);
        return;
    }
    dispatch_raw(res, args, std::move(done));
}

void XrlRouter::dispatch_raw(const finder::Resolution& res,
                             const xrl::XrlArgs& args, ResponseCallback done) {
    const IpcMetrics& m = IpcMetrics::get();
    if (res.family == "inproc") {
        m.sends_inproc->inc();
        // Intra dispatch is synchronous, so latency is measured around the
        // call itself and the callee runs under the deepened trace context
        // (nested sends inherit it straight off this stack).
        std::optional<telemetry::TraceContext::Scope> scope;
        if (telemetry::tracing_enabled()) {
            if (const telemetry::TraceContext ctx =
                    telemetry::TraceContext::current();
                ctx.valid()) {
                scope.emplace(ctx.next_hop());
                telemetry::record_xrl_hop(home_loop_.now(),
                                          telemetry::JournalKind::kXrlDispatch,
                                          res.keyed_method, "inproc");
            }
        }
        if (telemetry::enabled()) {
            const ev::TimePoint t0 = home_loop_.now();
            plexus_.intra.send(res.address, res.keyed_method, args,
                               std::move(done));
            m.lat_inproc->observe_always(home_loop_.now() - t0);
        } else {
            plexus_.intra.send(res.address, res.keyed_method, args,
                               std::move(done));
        }
        return;
    }
    if (res.family == "xring") {
        m.sends_xring->inc();
        auto& ch = xring_channels_[res.address];
        if (!ch || ch->broken()) {
            // (Re)connect: the target may have restarted under the same
            // instance name, and a stale broken channel must not wedge us.
            // If the port is simply gone, the fresh channel is born broken
            // and send() fails the call hard (kTransportFailed) — which is
            // what failover and dead-target detection key on.
            ch = std::make_unique<XringChannel>(home_loop_, plexus_.xring,
                                                res.address);
        }
        ch->send(res.keyed_method, args, std::move(done));
        return;
    }
    if (res.family == "stcp") {
        m.sends_stcp->inc();
        auto& ch = tcp_channels_[res.address];
        if (!ch) ch = std::make_unique<TcpChannel>(home_loop_, res.address);
        if (ch->broken()) {
            // Recreate once: the target may have restarted on the same
            // address, and a stale broken channel must not wedge us.
            ch = std::make_unique<TcpChannel>(home_loop_, res.address);
        }
        ch->send(res.keyed_method, args, std::move(done));
        return;
    }
    if (res.family == "sudp") {
        m.sends_sudp->inc();
        auto& ch = udp_channels_[res.address];
        if (!ch) ch = std::make_unique<UdpChannel>(home_loop_, res.address);
        ch->send(res.keyed_method, args, std::move(done));
        return;
    }
    home_loop_.defer([done = std::move(done), family = res.family] {
        done(xrl::XrlError(xrl::ErrorCode::kTransportFailed,
                           "unknown family: " + family),
             {});
    });
}

bool XrlRouter::call(const xrl::Xrl& xrl, const CallOptions& opts,
                     ResponseCallback done) {
    if (!plexus_.reliability_enabled)
        return send_unreliable(xrl, std::move(done));
    auto st = std::make_shared<CallState>();
    st->xrl = xrl;
    st->opts = opts;
    if (st->opts.retry.max_attempts == 0) st->opts.retry.max_attempts = 1;
    st->done = std::move(done);
    st->deadline_at = home_loop_.now() + st->opts.deadline;
    if (telemetry::tracing_enabled()) {
        // An explicit per-call context (CallOptions::with_trace) wins;
        // otherwise inherit the ambient one, or root a new trace if this
        // call is not already under one (i.e. not issued from inside a
        // traced dispatch). Each attempt records its own "send" event
        // under this context — a retry IS a resend.
        telemetry::TraceContext ctx = st->opts.trace;
        if (!ctx.valid()) ctx = telemetry::TraceContext::current();
        if (!ctx.valid()) ctx = telemetry::TraceContext::begin();
        st->trace = ctx;
    }
    begin_cycle(st);
    return true;
}

void XrlRouter::call_oneway(const xrl::Xrl& xrl, const CallOptions& opts) {
    // One-way means the caller has no recovery, not that failures vanish:
    // they are counted and logged so a misbehaving dependency is visible.
    if (!plexus_.reliability_enabled) {
        // Legacy baseline: fire once, immediately, no queueing — call()
        // degrades itself, but the queue must not serialize here either
        // (a dropped send never completes, which would wedge the queue).
        call(xrl, opts,
             [caller = cls_, target = xrl.target(),
              method = xrl.full_method()](const xrl::XrlError& e,
                                          const xrl::XrlArgs&) {
                 if (e.ok()) return;
                 IpcMetrics::get().ignored_errors->inc();
                 std::fprintf(stderr,
                              "[xrl] %s: one-way call %s/%s failed: %s\n",
                              caller.c_str(), target.c_str(), method.c_str(),
                              e.str().c_str());
             });
        return;
    }
    oneway_queues_[xrl.target()].q.emplace_back(xrl, opts);
    pump_oneway(xrl.target());
}

void XrlRouter::pump_oneway(const std::string& target) {
    OnewayQueue& oq = oneway_queues_[target];
    if (oq.pumping) return;
    oq.pumping = true;
    // Iterative, not recursive: an inproc call completes inline, so the
    // completion callback's pump_oneway() re-entry hits the guard above
    // and this loop issues the next call — a 146k-deep queue must not
    // become 146k-deep recursion.
    while (!oq.in_flight && !oq.q.empty()) {
        oq.in_flight = true;
        auto [x, o] = std::move(oq.q.front());
        oq.q.pop_front();
        call(x, o,
             [this, caller = cls_, target, method = x.full_method()](
                 const xrl::XrlError& e, const xrl::XrlArgs&) {
                 if (!e.ok()) {
                     IpcMetrics::get().ignored_errors->inc();
                     std::fprintf(
                         stderr, "[xrl] %s: one-way call %s/%s failed: %s\n",
                         caller.c_str(), target.c_str(), method.c_str(),
                         e.str().c_str());
                 }
                 OnewayQueue& done_q = oneway_queues_[target];
                 done_q.in_flight = false;
                 pump_oneway(target);
             });
    }
    oq.pumping = false;
}

void XrlRouter::begin_cycle(const std::shared_ptr<CallState>& st) {
    if (st->finished) return;
    xrl::XrlError err;
    std::optional<std::vector<finder::Resolution>> resolutions =
        resolve(st->xrl, &err);
    if (!resolutions) {
        IpcMetrics::get().resolve_failures->inc();
        if (err.code() == xrl::ErrorCode::kTargetDead) {
            // The Finder already knows: fail fast and typed, no probing.
            finish_call(st, err, {});
            return;
        }
        // Resolution failure happens strictly before execution, so it is
        // retryable regardless of idempotency (the target may register a
        // moment from now).
        handle_attempt_failure(st, err, /*may_have_executed=*/false);
        return;
    }
    st->resolutions.clear();
    if (preferred_family_.empty()) {
        st->resolutions = std::move(*resolutions);
    } else {
        for (const finder::Resolution& r : *resolutions)
            if (r.family == preferred_family_) st->resolutions.push_back(r);
        if (st->resolutions.empty()) {
            finish_call(st,
                        xrl::XrlError(xrl::ErrorCode::kResolveFailed,
                                      "family " + preferred_family_ +
                                          " not offered by target"),
                        {});
            return;
        }
    }
    st->res_index = 0;
    start_attempt(st);
}

void XrlRouter::start_attempt(const std::shared_ptr<CallState>& st) {
    if (st->finished) return;
    const ev::TimePoint now = home_loop_.now();
    if (now >= st->deadline_at) {
        IpcMetrics::get().deadline_hits->inc();
        std::string note =
            "call deadline expired: " + st->xrl.target() + "/" +
            st->xrl.full_method();
        if (!st->last_err.ok()) note += "; last error: " + st->last_err.str();
        finish_call(st, xrl::XrlError(xrl::ErrorCode::kTimeout, note), {});
        return;
    }
    // Each attempt gets the configured budget, clamped by what is left of
    // the overall deadline — the deadline needs no timer of its own.
    ev::Duration budget = st->opts.attempt_timeout;
    if (st->deadline_at - now < budget) budget = st->deadline_at - now;
    const uint64_t gen = ++st->generation;
    st->attempt_timer = home_loop_.set_timer(
        budget, [this, st, gen] { on_attempt_timeout(st, gen); });
    const finder::Resolution res = st->resolutions[st->res_index];
    ResponseCallback cb = [this, st, gen](const xrl::XrlError& e,
                                          const xrl::XrlArgs& a) {
        on_response(st, gen, e, a);
    };
    if (telemetry::tracing_enabled() && st->trace.valid()) {
        telemetry::TraceContext::Scope scope(st->trace);
        if (telemetry::trace_points_enabled())
            telemetry::record_xrl_hop(
                now, telemetry::JournalKind::kXrlSend,
                st->xrl.target() + "/" + st->xrl.full_method(), res.family);
        dispatch_via(st->xrl.target(), res, st->xrl.args(), std::move(cb));
        return;
    }
    dispatch_via(st->xrl.target(), res, st->xrl.args(), std::move(cb));
}

void XrlRouter::on_response(const std::shared_ptr<CallState>& st,
                            uint64_t gen, const xrl::XrlError& err,
                            const xrl::XrlArgs& args) {
    if (st->finished || gen != st->generation) {
        // The attempt this reply answers was abandoned; exactly-once
        // delivery to `done` wins over a late answer.
        IpcMetrics::get().late_responses->inc();
        return;
    }
    st->attempt_timer.unschedule();
    if (err.ok() || !xrl::is_transport_error(err.code())) {
        // Success — or an answer from (or past) the callee: retrying a
        // kCommandFailed would re-run application work for the same
        // deterministic outcome. Final either way.
        finish_call(st, err, args);
        return;
    }
    // kTimeout from a channel's own backstop means the request left this
    // host — it may have executed.
    handle_attempt_failure(
        st, err,
        /*may_have_executed=*/err.code() == xrl::ErrorCode::kTimeout);
}

void XrlRouter::on_attempt_timeout(const std::shared_ptr<CallState>& st,
                                   uint64_t gen) {
    if (st->finished || gen != st->generation) return;
    // Invalidate the generation so the reply, if it ever lands, is
    // counted late and discarded rather than completing a moved-on call.
    st->generation++;
    IpcMetrics::get().attempt_timeouts->inc();
    const std::string family = st->res_index < st->resolutions.size()
                                   ? st->resolutions[st->res_index].family
                                   : std::string("?");
    handle_attempt_failure(
        st,
        xrl::XrlError(xrl::ErrorCode::kTimeout,
                      "attempt timed out (" + family + ")"),
        /*may_have_executed=*/true);
}

void XrlRouter::handle_attempt_failure(const std::shared_ptr<CallState>& st,
                                       const xrl::XrlError& err,
                                       bool may_have_executed) {
    st->last_err = err;
    if (err.code() != xrl::ErrorCode::kTransportFailed &&
        err.code() != xrl::ErrorCode::kTargetDead)
        st->hard_failure_only = false;
    // Whatever resolution this attempt used is suspect; the next dispatch
    // must re-resolve through the Finder (§6.2 cache invalidation).
    invalidate_cached(st->xrl);
    if (may_have_executed && !st->opts.idempotent) {
        // The request may have run on the callee; re-dispatching a
        // non-idempotent method could execute it twice. Surface instead.
        finish_call(st,
                    xrl::XrlError(xrl::ErrorCode::kTimeout,
                                  "timed out; not retried (call not marked "
                                  "idempotent): " +
                                      err.str()),
                    {});
        return;
    }
    // Failover hops within a cycle are free: same request, next transport.
    if (st->opts.failover && st->res_index + 1 < st->resolutions.size()) {
        st->res_index++;
        IpcMetrics::get().failovers->inc();
        if (telemetry::journal_enabled())
            telemetry::Journal::current().record(
                home_loop_.now(), telemetry::JournalKind::kCallFailover,
                plexus_.node, "ipc", st->xrl.target(),
                st->xrl.full_method());
        start_attempt(st);
        return;
    }
    st->cycles_used++;
    if (st->cycles_used >= st->opts.retry.max_attempts) {
        if (st->hard_failure_only) {
            // Every transport refused outright across every attempt:
            // that is death, not slowness. Tell the Finder so dependents
            // fail fast (kTargetDead) instead of rediscovering it one
            // timeout at a time.
            IpcMetrics::get().targets_reported_dead->inc();
            if (finder_client_)
                finder_client_->report_dead(st->xrl.target());
            else
                plexus_.finder.report_dead(st->xrl.target());
        }
        finish_call(st, err, {});
        return;
    }
    const ev::Duration backoff = backoff_for(st->opts.retry, st->cycles_used);
    if (home_loop_.now() + backoff >= st->deadline_at) {
        IpcMetrics::get().deadline_hits->inc();
        finish_call(st,
                    xrl::XrlError(xrl::ErrorCode::kTimeout,
                                  "deadline leaves no room to retry; last "
                                  "error: " +
                                      err.str()),
                    {});
        return;
    }
    IpcMetrics::get().retries->inc();
    if (telemetry::journal_enabled())
        telemetry::Journal::current().record(
            home_loop_.now(), telemetry::JournalKind::kCallRetry,
            plexus_.node, "ipc", st->xrl.target(), st->xrl.full_method(),
            static_cast<int64_t>(st->cycles_used));
    st->backoff_timer =
        home_loop_.set_timer(backoff, [this, st] { begin_cycle(st); });
}

void XrlRouter::finish_call(const std::shared_ptr<CallState>& st,
                            const xrl::XrlError& err,
                            const xrl::XrlArgs& args) {
    if (st->finished) return;
    st->finished = true;
    st->attempt_timer.unschedule();
    st->backoff_timer.unschedule();
    ResponseCallback done = std::move(st->done);
    st->done = nullptr;
    if (done) done(err, args);
}

ev::Duration XrlRouter::backoff_for(const RetryPolicy& p, uint32_t cycle) {
    double ns = static_cast<double>(p.initial_backoff.count());
    for (uint32_t i = 1; i < cycle; ++i) ns *= p.multiplier;
    ns = std::min(ns, static_cast<double>(p.max_backoff.count()));
    if (p.jitter > 0) {
        const double u = static_cast<double>(rnd() % 10000) / 10000.0;
        ns *= 1.0 + p.jitter * (2.0 * u - 1.0);
    }
    if (ns < 1.0) ns = 1.0;
    return ev::Duration(static_cast<ev::Duration::rep>(ns));
}

uint64_t XrlRouter::rnd() {
    // splitmix64, same generator the fault injector uses.
    uint64_t z = (prng_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

bool XrlRouter::send_unreliable(const xrl::Xrl& xrl, ResponseCallback done) {
    // The pre-contract semantics, kept for A/B comparison in chaos tests:
    // one dispatch, first resolution, no loop-enforced timeout.
    xrl::XrlError err;
    std::optional<std::vector<finder::Resolution>> resolutions =
        resolve(xrl, &err);
    const finder::Resolution* res = nullptr;
    if (resolutions) {
        if (preferred_family_.empty()) {
            res = &resolutions->front();
        } else {
            for (const finder::Resolution& r : *resolutions)
                if (r.family == preferred_family_) {
                    res = &r;
                    break;
                }
            if (res == nullptr)
                err = xrl::XrlError(
                    xrl::ErrorCode::kResolveFailed,
                    "family " + preferred_family_ + " not offered by target");
        }
    }
    if (res == nullptr) {
        IpcMetrics::get().resolve_failures->inc();
        home_loop_.defer([done = std::move(done), err] { done(err, {}); });
        return true;
    }
    if (telemetry::tracing_enabled()) {
        telemetry::TraceContext ctx = telemetry::TraceContext::current();
        if (!ctx.valid()) ctx = telemetry::TraceContext::begin();
        telemetry::TraceContext::Scope scope(ctx);
        if (telemetry::trace_points_enabled())
            telemetry::record_xrl_hop(
                home_loop_.now(), telemetry::JournalKind::kXrlSend,
                xrl.target() + "/" + xrl.full_method(), res->family);
        dispatch_via(xrl.target(), *res, xrl.args(), std::move(done));
        return true;
    }
    dispatch_via(xrl.target(), *res, xrl.args(), std::move(done));
    return true;
}

std::string XrlRouter::debug_state() const {
    std::string out = instance_ + ":";
    for (const auto& [addr, ch] : tcp_channels_) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      " ch[%s] pend=%zu wbuf=%zu rbuf=%zu conn=%d brk=%d wa=%d;",
                      addr.c_str(), ch->pending_count(), ch->wbuf_bytes(),
                      ch->rbuf_bytes(), ch->connecting() ? 1 : 0,
                      ch->broken() ? 1 : 0, ch->writer_armed() ? 1 : 0);
        out += buf;
    }
    if (tcp_listener_) {
        auto [w, r] = tcp_listener_->buffered_bytes();
        char buf[128];
        std::snprintf(buf, sizeof buf, " lsn conns=%zu wbuf=%zu rbuf=%zu;",
                      tcp_listener_->connection_count(), w, r);
        out += buf;
    }
    for (const auto& [addr, ch] : xring_channels_) {
        char buf[192];
        std::snprintf(buf, sizeof buf, " xr[%s] pend=%zu backlog=%zu brk=%d;",
                      addr.c_str(), ch->pending_count(), ch->backlog_count(),
                      ch->broken() ? 1 : 0);
        out += buf;
    }
    for (const auto& [tgt, oq] : oneway_queues_) {
        if (oq.q.empty() && !oq.in_flight) continue;
        char buf[128];
        std::snprintf(buf, sizeof buf, " ow[%s] q=%zu inflight=%d;",
                      tgt.c_str(), oq.q.size(), oq.in_flight ? 1 : 0);
        out += buf;
    }
    return out;
}

}  // namespace xrp::ipc
