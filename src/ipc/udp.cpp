#include "ipc/udp.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include "telemetry/metrics.hpp"
#include "telemetry/journal.hpp"

namespace xrp::ipc {

namespace {
constexpr size_t kMaxDatagram = 65507;

// Cached handles (see router.cpp); shared by channel and listener sides.
struct UdpMetrics {
    telemetry::Counter* tx_bytes;
    telemetry::Counter* rx_bytes;
    telemetry::Counter* timeouts;
    telemetry::Histogram* latency;

    static const UdpMetrics& get() {
        static UdpMetrics m = [] {
            auto& r = telemetry::Registry::global();
            UdpMetrics x;
            x.tx_bytes =
                r.counter("xrl_wire_bytes_total{dir=\"tx\",family=\"sudp\"}");
            x.rx_bytes =
                r.counter("xrl_wire_bytes_total{dir=\"rx\",family=\"sudp\"}");
            x.timeouts = r.counter("xrl_timeouts_total{family=\"sudp\"}");
            x.latency = r.histogram("xrl_latency_ns{family=\"sudp\"}");
            return x;
        }();
        return m;
    }
};

}  // namespace

// ---- UdpListener ------------------------------------------------------

UdpListener::UdpListener(ev::EventLoop& loop, XrlDispatcher& dispatcher)
    : loop_(loop), dispatcher_(dispatcher), fd_(make_udp_socket()) {
    if (!fd_.valid()) return;
    address_ = local_address_string(fd_.get());
    loop_.add_reader(fd_.get(), [this] { on_readable(); });
}

UdpListener::~UdpListener() {
    if (fd_.valid()) loop_.remove_reader(fd_.get());
}

void UdpListener::on_readable() {
    uint8_t buf[kMaxDatagram];
    while (true) {
        sockaddr_in peer{};
        socklen_t plen = sizeof peer;
        ssize_t n = ::recvfrom(fd_.get(), buf, sizeof buf, 0,
                               reinterpret_cast<sockaddr*>(&peer), &plen);
        if (n <= 0) return;  // EAGAIN or error: drained
        UdpMetrics::get().rx_bytes->inc(static_cast<uint64_t>(n));
        RequestFrame req;
        ResponseFrame resp_unused;
        auto kind =
            decode_frame(buf, static_cast<size_t>(n), req, resp_unused);
        if (!kind || *kind != FrameKind::kRequest) continue;  // drop garbage
        const uint32_t seq = req.seq;
        telemetry::TraceContext::Scope trace_scope(req.trace);
        telemetry::record_xrl_hop(loop_.now(),
                                  telemetry::JournalKind::kXrlDispatch,
                                  req.method, "sudp");
        // UDP handlers must complete synchronously enough that the peer
        // address capture below stays valid; we copy it into the lambda.
        dispatcher_.dispatch(
            req.method, req.args,
            [this, peer, plen, seq](const xrl::XrlError& err,
                                    const xrl::XrlArgs& out) {
                ResponseFrame resp;
                resp.seq = seq;
                resp.error = err;
                resp.args = out;
                std::vector<uint8_t> body;
                encode_response(resp, body);
                if (body.size() <= kMaxDatagram) {
                    ::sendto(fd_.get(), body.data(), body.size(), 0,
                             reinterpret_cast<const sockaddr*>(&peer), plen);
                    UdpMetrics::get().tx_bytes->inc(body.size());
                }
            });
    }
}

// ---- UdpChannel -------------------------------------------------------

UdpChannel::UdpChannel(ev::EventLoop& loop, const std::string& address,
                       ev::Duration timeout)
    : loop_(loop), fd_(make_udp_socket()), timeout_(timeout) {
    auto sa = parse_inet_address(address);
    if (!sa || !fd_.valid()) {
        broken_ = true;
        return;
    }
    if (::connect(fd_.get(), reinterpret_cast<sockaddr*>(&*sa), sizeof *sa) !=
        0) {
        broken_ = true;
        return;
    }
    loop_.add_reader(fd_.get(), [this] { on_readable(); });
}

UdpChannel::~UdpChannel() {
    if (fd_.valid()) loop_.remove_reader(fd_.get());
}

void UdpChannel::send(const std::string& keyed_method,
                      const xrl::XrlArgs& args, ResponseCallback done) {
    if (broken_) {
        loop_.defer([done = std::move(done)] {
            done(xrl::XrlError(xrl::ErrorCode::kTransportFailed,
                               "channel broken"),
                 {});
        });
        return;
    }
    RequestFrame req;
    req.seq = next_seq_++;
    req.method = keyed_method;
    req.args = args;
    if (telemetry::TraceContext ctx = telemetry::TraceContext::current();
        ctx.valid())
        req.trace = ctx.next_hop();
    Pending p;
    p.seq = req.seq;
    encode_request(req, p.datagram);
    p.done = std::move(done);
    p.t0 = loop_.now();
    queue_.push_back(std::move(p));
    pump();
}

void UdpChannel::pump() {
    if (in_flight_ || queue_.empty() || broken_) return;
    const Pending& head = queue_.front();
    if (head.datagram.size() > kMaxDatagram) {
        ResponseCallback done = std::move(queue_.front().done);
        queue_.pop_front();
        done(xrl::XrlError(xrl::ErrorCode::kTransportFailed,
                           "request exceeds datagram size"),
             {});
        pump();
        return;
    }
    ::send(fd_.get(), head.datagram.data(), head.datagram.size(), 0);
    UdpMetrics::get().tx_bytes->inc(head.datagram.size());
    in_flight_ = true;
    timeout_timer_ = loop_.set_timer(timeout_, [this] { on_timeout(); });
}

void UdpChannel::on_readable() {
    uint8_t buf[kMaxDatagram];
    while (true) {
        ssize_t n = ::recv(fd_.get(), buf, sizeof buf, 0);
        if (n <= 0) return;
        UdpMetrics::get().rx_bytes->inc(static_cast<uint64_t>(n));
        RequestFrame req_unused;
        ResponseFrame resp;
        auto kind =
            decode_frame(buf, static_cast<size_t>(n), req_unused, resp);
        if (!kind || *kind != FrameKind::kResponse) continue;
        if (!in_flight_ || queue_.empty() || resp.seq != queue_.front().seq)
            continue;  // stale response (e.g. after a timeout)
        UdpMetrics::get().latency->observe(loop_.now() - queue_.front().t0);
        ResponseCallback done = std::move(queue_.front().done);
        queue_.pop_front();
        in_flight_ = false;
        timeout_timer_.unschedule();
        done(resp.error, resp.args);
        pump();
    }
}

void UdpChannel::on_timeout() {
    if (!in_flight_ || queue_.empty()) return;
    UdpMetrics::get().timeouts->inc();
    ResponseCallback done = std::move(queue_.front().done);
    queue_.pop_front();
    in_flight_ = false;
    // kTimeout, not kTransportFailed: the request left this host, so it
    // may well have executed — the call contract must not blindly retry
    // non-idempotent methods past this point.
    done(xrl::XrlError(xrl::ErrorCode::kTimeout, "request timed out"), {});
    pump();
}

}  // namespace xrp::ipc
