#include "ipc/xring.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/journal.hpp"

namespace xrp::ipc {

namespace {

// Cached handles (see router.cpp). Counters/histograms are relaxed
// atomics, so sender and receiver threads may hit them concurrently.
struct XringMetrics {
    telemetry::Counter* tx_frames;
    telemetry::Counter* rx_frames;
    telemetry::Counter* wakeups;
    telemetry::Counter* ring_full;
    telemetry::Histogram* latency;

    static const XringMetrics& get() {
        static XringMetrics m = [] {
            auto& r = telemetry::Registry::global();
            XringMetrics x;
            x.tx_frames =
                r.counter("xrl_wire_frames_total{dir=\"tx\",family=\"xring\"}");
            x.rx_frames =
                r.counter("xrl_wire_frames_total{dir=\"rx\",family=\"xring\"}");
            x.wakeups = r.counter("xring_wakeups_total");
            x.ring_full = r.counter("xring_ring_full_total");
            x.latency = r.histogram("xrl_latency_ns{family=\"xring\"}");
            return x;
        }();
        return m;
    }
};

size_t round_up_pow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

Fd make_eventfd() { return Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)); }

void ring_fd(int fd) {
    if (fd < 0) return;
    const uint64_t one = 1;
    // EAGAIN (counter saturated) already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof one);
}

void drain_fd(int fd) {
    uint64_t n;
    while (::read(fd, &n, sizeof n) > 0) {
    }
}

}  // namespace

// ---- SpscRing ---------------------------------------------------------

SpscRing::SpscRing(size_t capacity)
    : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

bool SpscRing::push(std::vector<uint8_t>&& frame) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= slots_.size()) return false;  // full
    slots_[tail & mask_] = std::move(frame);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
}

bool SpscRing::pop(std::vector<uint8_t>& out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;  // empty
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
}

// ---- XringConduit -----------------------------------------------------

void XringConduit::ring_receiver() const { ring_fd(receiver_wake.get()); }
void XringConduit::ring_sender() const { ring_fd(sender_wake.get()); }

// ---- XringHub ---------------------------------------------------------

void XringHub::add(XringPort* port) {
    std::lock_guard<std::mutex> lock(mu_);
    ports_[port->address()] = port;
}

void XringHub::remove(const std::string& address) {
    std::lock_guard<std::mutex> lock(mu_);
    ports_.erase(address);
}

std::shared_ptr<XringConduit> XringHub::connect(const std::string& address,
                                                Fd sender_wake_dup) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ports_.find(address);
    if (it == ports_.end()) return nullptr;
    return it->second->attach(std::move(sender_wake_dup));
}

// ---- XringPort --------------------------------------------------------

XringPort::XringPort(ev::EventLoop& loop, XrlDispatcher& dispatcher,
                     XringHub& hub, std::string address)
    : loop_(loop),
      dispatcher_(dispatcher),
      hub_(hub),
      address_(std::move(address)),
      wake_(make_eventfd()) {
    if (!wake_.valid()) return;
    loop_.add_reader(wake_.get(), [this] { on_wake(); });
    hub_.add(this);
}

XringPort::~XringPort() {
    // Unpublish first so no sender can attach mid-teardown, then close
    // every conduit and ring its sender: their in-flight calls fail hard
    // (kTransportFailed), which is what failover/dead-target logic expects.
    hub_.remove(address_);
    std::vector<std::shared_ptr<XringConduit>> conduits;
    {
        std::lock_guard<std::mutex> lock(mu_);
        conduits.swap(conduits_);
    }
    for (const auto& c : conduits) {
        c->receiver_open.store(false, std::memory_order_release);
        c->ring_sender();
    }
    if (wake_.valid()) loop_.remove_reader(wake_.get());
}

std::shared_ptr<XringConduit> XringPort::attach(Fd sender_wake_dup) {
    auto c = std::make_shared<XringConduit>(kRingSlots);
    c->receiver_wake = Fd(::dup(wake_.get()));
    c->sender_wake = std::move(sender_wake_dup);
    std::lock_guard<std::mutex> lock(mu_);
    conduits_.push_back(c);
    return c;
}

void XringPort::on_wake() {
    drain_fd(wake_.get());
    XringMetrics::get().wakeups->inc();
    std::vector<std::shared_ptr<XringConduit>> conduits;
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Reap conduits whose sender died and whose requests are drained.
        std::erase_if(conduits_, [](const auto& c) {
            return !c->sender_open.load(std::memory_order_acquire) &&
                   c->req.empty();
        });
        conduits = conduits_;
    }
    for (const auto& c : conduits) drain(c);
    flush_overflow();
}

void XringPort::drain(const std::shared_ptr<XringConduit>& c) {
    c->req.unpark();
    bool more = true;
    while (more) {
        drain_once(c);
        // Park before returning to poll(2); try_park's re-check catches a
        // frame pushed while we were finishing the previous pass.
        more = !c->req.try_park();
    }
}

void XringPort::drain_once(const std::shared_ptr<XringConduit>& c) {
    std::vector<uint8_t> frame;
    while (c->req.pop(frame)) {
        XringMetrics::get().rx_frames->inc();
        RequestFrame req;
        ResponseFrame resp_unused;
        auto kind =
            decode_frame(frame.data(), frame.size(), req, resp_unused);
        if (!kind || *kind != FrameKind::kRequest) continue;  // malformed
        const uint32_t seq = req.seq;
        telemetry::TraceContext::Scope trace_scope(req.trace);
        telemetry::record_xrl_hop(loop_.now(),
                                  telemetry::JournalKind::kXrlDispatch,
                                  req.method, "xring");
        // The completion may run now (sync handler) or later (async); the
        // conduit outlives the port, and a reply after either side closed
        // is dropped before touching port state (`this` is only safe while
        // receiver_open — the port's destructor clears it on this thread).
        dispatcher_.dispatch(
            req.method, req.args,
            [this, c, seq](const xrl::XrlError& err, const xrl::XrlArgs& out) {
                if (!c->receiver_open.load(std::memory_order_acquire) ||
                    !c->sender_open.load(std::memory_order_acquire))
                    return;
                ResponseFrame resp;
                resp.seq = seq;
                resp.error = err;
                resp.args = out;
                std::vector<uint8_t> body;
                encode_response(resp, body);
                queue_reply(c, std::move(body));
            });
    }
}

void XringPort::queue_reply(const std::shared_ptr<XringConduit>& c,
                            std::vector<uint8_t>&& frame) {
    if (overflow_.empty()) {
        std::vector<uint8_t> copy = std::move(frame);
        if (c->resp.push(std::move(copy))) {
            // Only a parked consumer needs the syscall: one that is still
            // draining will reach this frame without another wakeup.
            if (c->resp.claim_wake()) c->ring_sender();
            return;
        }
        XringMetrics::get().ring_full->inc();
        overflow_.emplace_back(c, std::move(copy));
    } else {
        overflow_.emplace_back(c, std::move(frame));
    }
    if (!overflow_timer_.scheduled())
        overflow_timer_ = loop_.set_timer(std::chrono::milliseconds(1),
                                          [this] { flush_overflow(); });
}

void XringPort::flush_overflow() {
    while (!overflow_.empty()) {
        auto& [c, frame] = overflow_.front();
        if (!c->sender_open.load(std::memory_order_acquire)) {
            overflow_.pop_front();
            continue;
        }
        std::vector<uint8_t> body = std::move(frame);
        if (!c->resp.push(std::move(body))) {
            overflow_.front().second = std::move(body);
            overflow_timer_ = loop_.set_timer(std::chrono::milliseconds(1),
                                              [this] { flush_overflow(); });
            return;
        }
        if (c->resp.claim_wake()) c->ring_sender();
        overflow_.pop_front();
    }
}

// ---- XringChannel -----------------------------------------------------

XringChannel::XringChannel(ev::EventLoop& loop, XringHub& hub,
                           const std::string& address)
    : loop_(loop), wake_(make_eventfd()) {
    if (!wake_.valid()) {
        broken_ = true;
        return;
    }
    loop_.add_reader(wake_.get(), [this] { on_wake(); });
    conduit_ = hub.connect(address, Fd(::dup(wake_.get())));
    if (!conduit_) broken_ = true;
}

XringChannel::~XringChannel() {
    if (conduit_) {
        conduit_->sender_open.store(false, std::memory_order_release);
        conduit_->ring_receiver();  // let the port reap the conduit
    }
    if (wake_.valid()) loop_.remove_reader(wake_.get());
}

void XringChannel::send(const std::string& keyed_method,
                        const xrl::XrlArgs& args, ResponseCallback done) {
    if (broken_) {
        // Fail asynchronously so callers see uniform completion ordering.
        loop_.defer([done = std::move(done)] {
            done(xrl::XrlError(xrl::ErrorCode::kTransportFailed,
                               "xring channel broken"),
                 {});
        });
        return;
    }
    if (!conduit_->receiver_open.load(std::memory_order_acquire)) {
        fail_all(xrl::XrlError(xrl::ErrorCode::kTransportFailed,
                               "xring receiver gone"));
        loop_.defer([done = std::move(done)] {
            done(xrl::XrlError(xrl::ErrorCode::kTransportFailed,
                               "xring receiver gone"),
                 {});
        });
        return;
    }
    RequestFrame req;
    req.seq = next_seq_++;
    req.method = keyed_method;
    req.args = args;
    // Carry the caller's trace (if any) across the thread hop.
    if (telemetry::TraceContext ctx = telemetry::TraceContext::current();
        ctx.valid())
        req.trace = ctx.next_hop();
    Queued q;
    q.seq = req.seq;
    encode_request(req, q.frame);
    q.done = std::move(done);
    q.t0 = loop_.now();
    if (!backlog_.empty() || pending_.size() >= kMaxOutstanding ||
        !push_frame(q))
        backlog_.push_back(std::move(q));
}

bool XringChannel::push_frame(Queued& q) {
    std::vector<uint8_t> frame = std::move(q.frame);
    if (!conduit_->req.push(std::move(frame))) {
        q.frame = std::move(frame);  // keep for the backlog
        XringMetrics::get().ring_full->inc();
        return false;
    }
    XringMetrics::get().tx_frames->inc();
    pending_[q.seq] = Pending{std::move(q.done), q.t0};
    if (conduit_->req.claim_wake()) conduit_->ring_receiver();
    return true;
}

void XringChannel::on_wake() {
    drain_fd(wake_.get());
    if (broken_) return;
    conduit_->resp.unpark();
    bool more = true;
    while (more) {
        std::vector<uint8_t> frame;
        while (conduit_->resp.pop(frame)) {
            RequestFrame req_unused;
            ResponseFrame resp;
            auto kind =
                decode_frame(frame.data(), frame.size(), req_unused, resp);
            if (!kind || *kind != FrameKind::kResponse)
                continue;  // malformed
            auto it = pending_.find(resp.seq);
            if (it == pending_.end()) continue;
            XringMetrics::get().latency->observe(loop_.now() - it->second.t0);
            ResponseCallback cb = std::move(it->second.done);
            pending_.erase(it);
            cb(resp.error, resp.args);
        }
        more = !conduit_->resp.try_park();
    }
    if (!conduit_->receiver_open.load(std::memory_order_acquire)) {
        fail_all(xrl::XrlError(xrl::ErrorCode::kTransportFailed,
                               "xring receiver gone"));
        return;
    }
    pump_backlog();
}

void XringChannel::pump_backlog() {
    while (!backlog_.empty() && pending_.size() < kMaxOutstanding) {
        if (!push_frame(backlog_.front()))
            return;  // ring full again; responses will re-pump
        backlog_.pop_front();
    }
}

void XringChannel::fail_all(const xrl::XrlError& err) {
    if (broken_) return;
    broken_ = true;
    auto pending = std::move(pending_);
    pending_.clear();
    auto backlog = std::move(backlog_);
    backlog_.clear();
    for (auto& [seq, p] : pending) p.done(err, {});
    for (auto& q : backlog) q.done(err, {});
}

}  // namespace xrp::ipc
