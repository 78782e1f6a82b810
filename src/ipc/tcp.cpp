#include "ipc/tcp.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "telemetry/metrics.hpp"
#include "telemetry/journal.hpp"

namespace xrp::ipc {

namespace {

// Cached handles (see router.cpp); shared by channel and listener sides.
struct TcpMetrics {
    telemetry::Counter* tx_bytes;
    telemetry::Counter* rx_bytes;
    telemetry::Histogram* latency;

    static const TcpMetrics& get() {
        static TcpMetrics m = [] {
            auto& r = telemetry::Registry::global();
            TcpMetrics x;
            x.tx_bytes =
                r.counter("xrl_wire_bytes_total{dir=\"tx\",family=\"stcp\"}");
            x.rx_bytes =
                r.counter("xrl_wire_bytes_total{dir=\"rx\",family=\"stcp\"}");
            x.latency = r.histogram("xrl_latency_ns{family=\"stcp\"}");
            return x;
        }();
        return m;
    }
};

void append_frame(std::vector<uint8_t>& buf, const std::vector<uint8_t>& body) {
    uint32_t len = static_cast<uint32_t>(body.size());
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<uint8_t>(len >> (8 * i)));
    buf.insert(buf.end(), body.begin(), body.end());
}

// Extracts one length-framed body from buf starting at offset; returns
// {consumed, body_size} or {0, 0} if incomplete, {SIZE_MAX, 0} on
// oversized frame.
std::pair<size_t, size_t> peek_frame(const std::vector<uint8_t>& buf,
                                     size_t off) {
    if (buf.size() - off < 4) return {0, 0};
    uint32_t len = static_cast<uint32_t>(buf[off]) |
                   (static_cast<uint32_t>(buf[off + 1]) << 8) |
                   (static_cast<uint32_t>(buf[off + 2]) << 16) |
                   (static_cast<uint32_t>(buf[off + 3]) << 24);
    if (len > kMaxFrameBytes) return {SIZE_MAX, 0};
    if (buf.size() - off - 4 < len) return {0, 0};
    return {4 + len, len};
}

}  // namespace

// ---- TcpListener ------------------------------------------------------

TcpListener::TcpListener(ev::EventLoop& loop, XrlDispatcher& dispatcher)
    : loop_(loop), dispatcher_(dispatcher), listen_fd_(make_tcp_listener()) {
    if (!listen_fd_.valid()) return;
    address_ = local_address_string(listen_fd_.get());
    loop_.add_reader(listen_fd_.get(), [this] { on_accept(); });
}

TcpListener::~TcpListener() {
    if (listen_fd_.valid()) loop_.remove_reader(listen_fd_.get());
    // Close every connection; shared_ptrs held by in-flight async handler
    // callbacks stay alive but see `closed` and drop their responses.
    for (auto& [fd, c] : conns_) {
        loop_.remove_reader(fd);
        if (c->writer_armed) loop_.remove_writer(fd);
        c->closed = true;
    }
}

void TcpListener::on_accept() {
    while (true) {
        int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
        if (fd < 0) return;  // EAGAIN or error: done for now
        set_nonblocking(fd);
        set_nodelay(fd);
        auto c = std::make_shared<Connection>(*this, Fd(fd));
        conns_[fd] = c;
        loop_.add_reader(fd, [this, c] { on_readable(c); });
    }
}

void TcpListener::on_readable(const std::shared_ptr<Connection>& c) {
    if (c->closed) return;
    char buf[16384];
    while (true) {
        ssize_t n = ::read(c->fd.get(), buf, sizeof buf);
        if (n > 0) {
            // Keep reading until EAGAIN: some poll(2) layers behave
            // edge-triggered, so a short read must not end the drain.
            TcpMetrics::get().rx_bytes->inc(static_cast<uint64_t>(n));
            c->rbuf.insert(c->rbuf.end(), buf, buf + n);
        } else if (n == 0) {
            close_connection(c);
            return;
        } else {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            close_connection(c);
            return;
        }
    }
    process_frames(c);
}

void TcpListener::process_frames(const std::shared_ptr<Connection>& c) {
    size_t off = 0;
    while (!c->closed) {
        auto [consumed, body_len] = peek_frame(c->rbuf, off);
        if (consumed == SIZE_MAX) {
            close_connection(c);
            return;
        }
        if (consumed == 0) break;
        RequestFrame req;
        ResponseFrame resp_unused;
        auto kind = decode_frame(c->rbuf.data() + off + 4, body_len, req,
                                 resp_unused);
        off += consumed;
        if (!kind || *kind != FrameKind::kRequest) {
            close_connection(c);
            return;
        }
        const uint32_t seq = req.seq;
        // Dispatch; the completion may run now (sync handler) or later
        // (async). Either way the response is queued on this connection if
        // it is still open. Scoping the carried trace context around the
        // dispatch lets the handler's own nested sends join the trace.
        telemetry::TraceContext::Scope trace_scope(req.trace);
        telemetry::record_xrl_hop(loop_.now(),
                                  telemetry::JournalKind::kXrlDispatch,
                                  req.method, "stcp");
        std::weak_ptr<Connection> weak = c;
        dispatcher_.dispatch(
            req.method, req.args,
            [this, weak, seq](const xrl::XrlError& err,
                              const xrl::XrlArgs& out) {
                auto conn = weak.lock();
                if (!conn || conn->closed) return;
                ResponseFrame resp;
                resp.seq = seq;
                resp.error = err;
                resp.args = out;
                queue_response(conn, resp);
            });
    }
    if (off > 0 && !c->closed)
        c->rbuf.erase(c->rbuf.begin(),
                      c->rbuf.begin() + static_cast<ptrdiff_t>(off));
}

void TcpListener::queue_response(const std::shared_ptr<Connection>& c,
                                 const ResponseFrame& resp) {
    std::vector<uint8_t> body;
    encode_response(resp, body);
    append_frame(c->wbuf, body);
    flush(c);
}

void TcpListener::flush(const std::shared_ptr<Connection>& c) {
    while (c->woff < c->wbuf.size()) {
        // MSG_NOSIGNAL: a peer PROCESS that died (SIGKILL) leaves a
        // half-closed socket; writing to it must surface EPIPE here, not
        // raise SIGPIPE and kill us alongside it.
        ssize_t n = ::send(c->fd.get(), c->wbuf.data() + c->woff,
                           c->wbuf.size() - c->woff, MSG_NOSIGNAL);
        if (n > 0) {
            TcpMetrics::get().tx_bytes->inc(static_cast<uint64_t>(n));
            c->woff += static_cast<size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        } else {
            close_connection(c);
            return;
        }
    }
    if (c->woff == c->wbuf.size()) {
        c->wbuf.clear();
        c->woff = 0;
        if (c->writer_armed) {
            loop_.remove_writer(c->fd.get());
            c->writer_armed = false;
        }
    } else if (!c->writer_armed) {
        c->writer_armed = true;
        loop_.add_writer(c->fd.get(), [this, c] { on_writable(c); });
    }
}

void TcpListener::on_writable(const std::shared_ptr<Connection>& c) {
    if (!c->closed) flush(c);
}

void TcpListener::close_connection(const std::shared_ptr<Connection>& c) {
    if (c->closed) return;
    c->closed = true;
    loop_.remove_reader(c->fd.get());
    if (c->writer_armed) loop_.remove_writer(c->fd.get());
    conns_.erase(c->fd.get());
}

// ---- TcpChannel -------------------------------------------------------

TcpChannel::TcpChannel(ev::EventLoop& loop, const std::string& address)
    : loop_(loop) {
    auto sa = parse_inet_address(address);
    if (!sa) {
        broken_ = true;
        return;
    }
    fd_ = Fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd_.valid()) {
        broken_ = true;
        return;
    }
    set_nonblocking(fd_.get());
    set_nodelay(fd_.get());
    int rc = ::connect(fd_.get(), reinterpret_cast<sockaddr*>(&*sa), sizeof *sa);
    if (rc == 0) {
        loop_.add_reader(fd_.get(), [this] { on_readable(); });
    } else if (errno == EINPROGRESS) {
        connecting_ = true;
        writer_armed_ = true;
        loop_.add_writer(fd_.get(), [this] { on_connect_writable(); });
    } else {
        broken_ = true;
        fd_.reset();
    }
}

TcpChannel::~TcpChannel() {
    if (fd_.valid()) {
        loop_.remove_reader(fd_.get());
        if (writer_armed_) loop_.remove_writer(fd_.get());
    }
}

void TcpChannel::on_connect_writable() {
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &err, &len);
    loop_.remove_writer(fd_.get());
    writer_armed_ = false;
    connecting_ = false;
    if (err != 0) {
        fail_all(xrl::XrlError(xrl::ErrorCode::kTransportFailed,
                               std::strerror(err)));
        return;
    }
    loop_.add_reader(fd_.get(), [this] { on_readable(); });
    flush();
}

void TcpChannel::send(const std::string& keyed_method,
                      const xrl::XrlArgs& args, ResponseCallback done) {
    if (broken_) {
        // Fail asynchronously so callers see uniform completion ordering.
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
    // Carry the caller's trace (if any) across the wire, one hop deeper.
    if (telemetry::TraceContext ctx = telemetry::TraceContext::current();
        ctx.valid())
        req.trace = ctx.next_hop();
    std::vector<uint8_t> body;
    encode_request(req, body);
    const ev::TimePoint t0 = loop_.now();
    if (pending_.size() >= kMaxOutstanding) {
        Queued q;
        q.seq = req.seq;
        append_frame(q.frame, body);
        q.done = std::move(done);
        q.t0 = t0;
        backlog_.push_back(std::move(q));
        return;
    }
    append_frame(wbuf_, body);
    pending_[req.seq] = Pending{std::move(done), t0};
    if (!connecting_) flush();
}

void TcpChannel::pump_backlog() {
    bool queued_any = false;
    while (!backlog_.empty() && pending_.size() < kMaxOutstanding) {
        Queued q = std::move(backlog_.front());
        backlog_.pop_front();
        wbuf_.insert(wbuf_.end(), q.frame.begin(), q.frame.end());
        pending_[q.seq] = Pending{std::move(q.done), q.t0};
        queued_any = true;
    }
    if (queued_any && !connecting_) flush();
}

void TcpChannel::flush() {
    while (woff_ < wbuf_.size()) {
        // MSG_NOSIGNAL (see listener note): EPIPE from a SIGKILLed peer
        // must fail the pending calls, not signal this process.
        ssize_t n = ::send(fd_.get(), wbuf_.data() + woff_,
                           wbuf_.size() - woff_, MSG_NOSIGNAL);
        if (n > 0) {
            TcpMetrics::get().tx_bytes->inc(static_cast<uint64_t>(n));
            woff_ += static_cast<size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        } else {
            // ECONNRESET/EPIPE here IS the prompt dead-peer signal: every
            // pending call fails kTransportFailed immediately — the
            // reliable-call contract reports the target dead without
            // waiting out a per-attempt timer.
            fail_all(xrl::XrlError(
                xrl::ErrorCode::kTransportFailed,
                std::string("write failed: ") + std::strerror(errno)));
            return;
        }
    }
    if (woff_ == wbuf_.size()) {
        wbuf_.clear();
        woff_ = 0;
        if (writer_armed_) {
            loop_.remove_writer(fd_.get());
            writer_armed_ = false;
        }
    } else if (!writer_armed_) {
        writer_armed_ = true;
        loop_.add_writer(fd_.get(), [this] { on_writable(); });
    }
}

void TcpChannel::on_writable() {
    if (!broken_) flush();
}

void TcpChannel::on_readable() {
    char buf[16384];
    while (true) {
        ssize_t n = ::read(fd_.get(), buf, sizeof buf);
        if (n > 0) {
            // Drain to EAGAIN (see listener note about edge-triggered poll).
            TcpMetrics::get().rx_bytes->inc(static_cast<uint64_t>(n));
            rbuf_.insert(rbuf_.end(), buf, buf + n);
        } else if (n == 0) {
            // Orderly close from the peer: its process exited (or its
            // listener was destroyed). Fail everything now — the kernel
            // told us the peer is gone, no probe timeout needed.
            fail_all(xrl::XrlError(xrl::ErrorCode::kTransportFailed,
                                   "connection closed by peer"));
            return;
        } else {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            fail_all(xrl::XrlError(
                xrl::ErrorCode::kTransportFailed,
                std::string("read failed: ") + std::strerror(errno)));
            return;
        }
    }
    size_t off = 0;
    while (true) {
        auto [consumed, body_len] = peek_frame(rbuf_, off);
        if (consumed == SIZE_MAX) {
            fail_all(xrl::XrlError(xrl::ErrorCode::kTransportFailed,
                                   "oversized frame"));
            return;
        }
        if (consumed == 0) break;
        RequestFrame req_unused;
        ResponseFrame resp;
        auto kind =
            decode_frame(rbuf_.data() + off + 4, body_len, req_unused, resp);
        off += consumed;
        if (!kind || *kind != FrameKind::kResponse) {
            fail_all(xrl::XrlError(xrl::ErrorCode::kTransportFailed,
                                   "bad frame"));
            return;
        }
        auto it = pending_.find(resp.seq);
        if (it != pending_.end()) {
            TcpMetrics::get().latency->observe(loop_.now() - it->second.t0);
            ResponseCallback cb = std::move(it->second.done);
            pending_.erase(it);
            cb(resp.error, resp.args);
        }
    }
    if (off > 0)
        rbuf_.erase(rbuf_.begin(), rbuf_.begin() + static_cast<ptrdiff_t>(off));
    pump_backlog();
}

void TcpChannel::fail_all(const xrl::XrlError& err) {
    if (broken_) return;
    broken_ = true;
    if (fd_.valid()) {
        loop_.remove_reader(fd_.get());
        if (writer_armed_) loop_.remove_writer(fd_.get());
        writer_armed_ = false;
        fd_.reset();
    }
    auto pending = std::move(pending_);
    pending_.clear();
    auto backlog = std::move(backlog_);
    backlog_.clear();
    for (auto& [seq, p] : pending) p.done(err, {});
    for (auto& q : backlog) q.done(err, {});
}

}  // namespace xrp::ipc
