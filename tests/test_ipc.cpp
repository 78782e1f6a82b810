// End-to-end IPC tests: wire codec, dispatcher, and XRL calls over all
// three protocol families (§6.3). The same client/server pair runs over
// intra-process, TCP, and UDP to prove transport transparency.
#include <gtest/gtest.h>

#include <chrono>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ipc/finder_xrl.hpp"
#include "ipc/router.hpp"
#include "ipc/wire.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/journal.hpp"

using namespace xrp;
using namespace xrp::ipc;
using namespace std::chrono_literals;
using xrl::ErrorCode;
using xrl::Xrl;
using xrl::XrlArgs;
using xrl::XrlError;

namespace {

// A little arithmetic server used across transports.
class AddServer {
public:
    explicit AddServer(Plexus& plexus, bool tcp = false, bool udp = false)
        : router_(plexus, "calc", true) {
        auto spec = xrl::InterfaceSpec::parse(
            "interface calc/1.0 { add ? a:u32 & b:u32 -> sum:u32; "
            "fail; echo_net ? net:ipv4net -> net:ipv4net; }");
        router_.add_interface(*spec);
        router_.add_handler(
            "calc/1.0/add", [](const XrlArgs& in, XrlArgs& out) {
                out.add("sum", *in.get_u32("a") + *in.get_u32("b"));
                return XrlError::okay();
            });
        router_.add_handler("calc/1.0/fail", [](const XrlArgs&, XrlArgs&) {
            return XrlError::command_failed("deliberate");
        });
        router_.add_handler(
            "calc/1.0/echo_net", [](const XrlArgs& in, XrlArgs& out) {
                out.add("net", *in.get_ipv4net("net"));
                return XrlError::okay();
            });
        if (tcp) router_.enable_tcp();
        if (udp) router_.enable_udp();
        EXPECT_TRUE(router_.finalize());
    }
    XrlRouter& router() { return router_; }

private:
    XrlRouter router_;
};

// Runs an add() call over the given family and returns the result.
std::optional<uint32_t> call_add(Plexus& plexus, XrlRouter& client,
                                 uint32_t a, uint32_t b) {
    XrlArgs args;
    args.add("a", a).add("b", b);
    std::optional<uint32_t> result;
    bool done = false;
    client.send(Xrl::generic("calc", "calc", "1.0", "add", args),
                [&](const XrlError& err, const XrlArgs& out) {
                    if (err.ok()) result = out.get_u32("sum");
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);
    return result;
}

// Current value of a global telemetry counter (creates it at zero).
uint64_t ctr(const std::string& key) {
    return telemetry::Registry::global().counter(key)->value();
}

}  // namespace

TEST(Wire, ArgsRoundTrip) {
    XrlArgs args;
    args.add("a", uint32_t{42})
        .add("b", std::string("hello"))
        .add("c", net::IPv4::must_parse("10.0.0.1"))
        .add("d", net::IPv6Net::must_parse("2001:db8::/32"))
        .add("e", std::vector<uint8_t>{1, 2, 3})
        .add("f", true);
    std::vector<uint8_t> buf;
    encode_args(args, buf);
    WireReader r(buf.data(), buf.size());
    auto back = decode_args(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, args);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, RequestFrameRoundTrip) {
    RequestFrame f;
    f.seq = 77;
    f.method = "bgp/1.0/set_local_as#abcd";
    f.args.add("as", uint32_t{1777});
    std::vector<uint8_t> buf;
    encode_request(f, buf);
    RequestFrame req;
    ResponseFrame resp;
    auto kind = decode_frame(buf.data(), buf.size(), req, resp);
    ASSERT_TRUE(kind.has_value());
    EXPECT_EQ(*kind, FrameKind::kRequest);
    EXPECT_EQ(req.seq, 77u);
    EXPECT_EQ(req.method, f.method);
    EXPECT_EQ(req.args, f.args);
}

TEST(Wire, ResponseFrameRoundTrip) {
    ResponseFrame f;
    f.seq = 99;
    f.error = XrlError(ErrorCode::kCommandFailed, "nope");
    f.args.add("x", int32_t{-5});
    std::vector<uint8_t> buf;
    encode_response(f, buf);
    RequestFrame req;
    ResponseFrame resp;
    auto kind = decode_frame(buf.data(), buf.size(), req, resp);
    ASSERT_TRUE(kind.has_value());
    EXPECT_EQ(*kind, FrameKind::kResponse);
    EXPECT_EQ(resp.seq, 99u);
    EXPECT_EQ(resp.error.code(), ErrorCode::kCommandFailed);
    EXPECT_EQ(resp.error.note(), "nope");
    EXPECT_EQ(resp.args, f.args);
}

TEST(Wire, TruncatedFramesRejected) {
    RequestFrame f;
    f.seq = 1;
    f.method = "m";
    f.args.add("a", uint32_t{1});
    std::vector<uint8_t> buf;
    encode_request(f, buf);
    RequestFrame req;
    ResponseFrame resp;
    for (size_t cut = 0; cut < buf.size(); ++cut) {
        auto kind = decode_frame(buf.data(), cut, req, resp);
        EXPECT_FALSE(kind.has_value()) << "cut=" << cut;
    }
}

namespace {

// Peak resident set of this process, in KiB.
long max_rss_kb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

// A request header with an empty method and one top-level atom to follow.
std::vector<uint8_t> request_with_one_atom() {
    std::vector<uint8_t> buf;
    net::put_u8(buf, static_cast<uint8_t>(FrameKind::kRequest));
    net::put_u32(buf, 1);   // seq
    net::put_u16(buf, 0);   // method ""
    net::put_u16(buf, 1);   // one arg
    return buf;
}

}  // namespace

// Two crafted frames well under kMaxFrameBytes: a length field claiming
// 4 GB and lists nested 100k deep. Each must be rejected without
// allocating what it claims or recursing as deep as it nests.
TEST(Wire, HostileLengthFieldIsRejectedBeforeAllocating) {
    std::vector<uint8_t> buf = request_with_one_atom();
    net::put_u8(buf, static_cast<uint8_t>(xrl::AtomType::kText));
    net::put_u16(buf, 0);  // name ""
    net::put_u32(buf, 0xFFFFFFF0u);
    ASSERT_EQ(buf.size(), 16u);
    const long before = max_rss_kb();
    RequestFrame req;
    ResponseFrame resp;
    EXPECT_FALSE(decode_frame(buf.data(), buf.size(), req, resp));
    EXPECT_LT(max_rss_kb() - before, 64 * 1024);
}

TEST(Wire, DeeplyNestedListsAreRejectedWithoutDeepRecursion) {
    std::vector<uint8_t> buf = request_with_one_atom();
    for (int depth = 0; depth < 100000; ++depth) {
        net::put_u8(buf, static_cast<uint8_t>(xrl::AtomType::kList));
        net::put_u16(buf, 0);  // name ""
        net::put_u16(buf, 1);  // one item: the next list
    }
    net::put_u8(buf, static_cast<uint8_t>(xrl::AtomType::kBool));
    net::put_u16(buf, 0);
    net::put_u8(buf, 1);
    ASSERT_GT(buf.size(), 500000u);
    RequestFrame req;
    ResponseFrame resp;
    EXPECT_FALSE(decode_frame(buf.data(), buf.size(), req, resp));

    // Nesting up to the cap still decodes.
    std::vector<uint8_t> ok = request_with_one_atom();
    for (int depth = 0; depth < kMaxAtomDepth; ++depth) {
        net::put_u8(ok, static_cast<uint8_t>(xrl::AtomType::kList));
        net::put_u16(ok, 0);
        net::put_u16(ok, depth + 1 == kMaxAtomDepth ? 0 : 1);
    }
    EXPECT_TRUE(decode_frame(ok.data(), ok.size(), req, resp));
}

TEST(Dispatcher, SyncDispatchWithValidation) {
    XrlDispatcher d;
    d.set_require_keys(false);
    auto spec = xrl::InterfaceSpec::parse("interface t/1.0 { m ? a:u32 -> b:u32; }");
    d.add_interface(*spec);
    d.add_handler("t/1.0/m", [](const XrlArgs& in, XrlArgs& out) {
        out.add("b", *in.get_u32("a") * 2);
        return XrlError::okay();
    });

    XrlArgs in;
    in.add("a", uint32_t{21});
    XrlError got_err;
    XrlArgs got_out;
    d.dispatch("t/1.0/m", in, [&](const XrlError& e, const XrlArgs& o) {
        got_err = e;
        got_out = o;
    });
    EXPECT_TRUE(got_err.ok());
    EXPECT_EQ(got_out.get_u32("b"), 42u);

    // Type mismatch rejected before the handler runs.
    XrlArgs bad;
    bad.add("a", std::string("x"));
    d.dispatch("t/1.0/m", bad,
               [&](const XrlError& e, const XrlArgs&) { got_err = e; });
    EXPECT_EQ(got_err.code(), ErrorCode::kBadArgs);

    d.dispatch("t/1.0/ghost", in,
               [&](const XrlError& e, const XrlArgs&) { got_err = e; });
    EXPECT_EQ(got_err.code(), ErrorCode::kNoSuchMethod);
}

TEST(Dispatcher, KeyEnforcement) {
    XrlDispatcher d;
    d.add_handler("t/1.0/m", [](const XrlArgs&, XrlArgs&) {
        return XrlError::okay();
    });
    d.set_method_key("t/1.0/m", "secret");
    XrlError err;
    d.dispatch("t/1.0/m#wrong", {},
               [&](const XrlError& e, const XrlArgs&) { err = e; });
    EXPECT_EQ(err.code(), ErrorCode::kBadKey);
    d.dispatch("t/1.0/m", {},
               [&](const XrlError& e, const XrlArgs&) { err = e; });
    EXPECT_EQ(err.code(), ErrorCode::kBadKey);
    d.dispatch("t/1.0/m#secret", {},
               [&](const XrlError& e, const XrlArgs&) { err = e; });
    EXPECT_TRUE(err.ok());
}

TEST(Dispatcher, AsyncHandlerCompletesLater) {
    XrlDispatcher d;
    d.set_require_keys(false);
    ResponseCallback saved;
    d.add_async_handler("t/1.0/m", [&](const XrlArgs&, ResponseCallback done) {
        saved = std::move(done);  // complete later
    });
    bool completed = false;
    d.dispatch("t/1.0/m", {}, [&](const XrlError& e, const XrlArgs&) {
        completed = e.ok();
    });
    EXPECT_FALSE(completed);
    XrlArgs out;
    saved(XrlError::okay(), out);
    EXPECT_TRUE(completed);
}

class IpcTransportTest : public ::testing::TestWithParam<const char*> {};

TEST_P(IpcTransportTest, RoundTrip) {
    ev::RealClock clock;
    Plexus plexus(clock);
    const std::string family = GetParam();
    AddServer server(plexus, family == "stcp", family == "sudp");

    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());
    client.set_preferred_family(family);

    auto sum = call_add(plexus, client, 1700, 77);
    ASSERT_TRUE(sum.has_value()) << family;
    EXPECT_EQ(*sum, 1777u);
}

TEST_P(IpcTransportTest, CommandFailurePropagates) {
    ev::RealClock clock;
    Plexus plexus(clock);
    const std::string family = GetParam();
    AddServer server(plexus, family == "stcp", family == "sudp");
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());
    client.set_preferred_family(family);

    XrlError got;
    bool done = false;
    client.send(Xrl::generic("calc", "calc", "1.0", "fail"),
                [&](const XrlError& e, const XrlArgs&) {
                    got = e;
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);
    ASSERT_TRUE(done);
    EXPECT_EQ(got.code(), ErrorCode::kCommandFailed);
    EXPECT_EQ(got.note(), "deliberate");
}

TEST_P(IpcTransportTest, ComplexTypesSurviveTransport) {
    ev::RealClock clock;
    Plexus plexus(clock);
    const std::string family = GetParam();
    AddServer server(plexus, family == "stcp", family == "sudp");
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());
    client.set_preferred_family(family);

    XrlArgs args;
    args.add("net", net::IPv4Net::must_parse("128.16.64.0/18"));
    std::optional<net::IPv4Net> echoed;
    bool done = false;
    client.send(Xrl::generic("calc", "calc", "1.0", "echo_net", args),
                [&](const XrlError& e, const XrlArgs& out) {
                    if (e.ok()) echoed = out.get_ipv4net("net");
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);
    ASSERT_TRUE(echoed.has_value());
    EXPECT_EQ(echoed->str(), "128.16.64.0/18");
}

TEST_P(IpcTransportTest, PipelinedBurst) {
    // 200 concurrent calls; all must complete correctly (TCP pipelines,
    // UDP serializes internally, intra is direct — the caller can't tell).
    ev::RealClock clock;
    Plexus plexus(clock);
    const std::string family = GetParam();
    AddServer server(plexus, family == "stcp", family == "sudp");
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());
    client.set_preferred_family(family);

    int completed = 0;
    int correct = 0;
    for (uint32_t i = 0; i < 200; ++i) {
        XrlArgs args;
        args.add("a", i).add("b", uint32_t{1000});
        client.send(Xrl::generic("calc", "calc", "1.0", "add", args),
                    [&, i](const XrlError& e, const XrlArgs& out) {
                        ++completed;
                        if (e.ok() && out.get_u32("sum") == i + 1000)
                            ++correct;
                    });
    }
    plexus.loop.run_until([&] { return completed == 200; }, 10s);
    EXPECT_EQ(completed, 200);
    EXPECT_EQ(correct, 200);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, IpcTransportTest,
                         ::testing::Values("inproc", "stcp", "sudp"));

TEST(XrlRouter, ResolveFailureReportedAsync) {
    ev::RealClock clock;
    Plexus plexus(clock);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());
    XrlError got;
    bool done = false;
    client.send(Xrl::generic("ghost", "g", "1.0", "m"),
                [&](const XrlError& e, const XrlArgs&) {
                    got = e;
                    done = true;
                });
    EXPECT_FALSE(done);  // asynchronous even on immediate failure
    plexus.loop.run_until([&] { return done; }, 2s);
    ASSERT_TRUE(done);
    EXPECT_EQ(got.code(), ErrorCode::kResolveFailed);
}

TEST(XrlRouter, CacheInvalidationOnTargetDeath) {
    ev::RealClock clock;
    Plexus plexus(clock);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());

    auto server = std::make_unique<AddServer>(plexus);
    ASSERT_TRUE(call_add(plexus, client, 1, 2).has_value());
    EXPECT_GE(client.resolution_cache_size(), 1u);

    // Kill the server; the Finder pushes invalidation; the next call
    // re-resolves and fails cleanly instead of using the stale route.
    server.reset();
    EXPECT_EQ(client.resolution_cache_size(), 0u);
    EXPECT_FALSE(call_add(plexus, client, 1, 2).has_value());

    // A reborn server is found again.
    server = std::make_unique<AddServer>(plexus);
    auto sum = call_add(plexus, client, 20, 22);
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, 42u);
}

TEST(XrlRouter, KeysPreventFinderBypass) {
    // A caller that fabricates a method name without resolving through the
    // Finder is rejected by the receiver (§7).
    ev::RealClock clock;
    Plexus plexus(clock);
    AddServer server(plexus);
    XrlArgs args;
    args.add("a", uint32_t{1}).add("b", uint32_t{2});
    XrlError got;
    plexus.intra.send("calc", "calc/1.0/add", args,
                      [&](const XrlError& e, const XrlArgs&) { got = e; });
    EXPECT_EQ(got.code(), ErrorCode::kBadKey);
}

TEST(XrlRouter, SoleClassRefusesSecondRouter) {
    ev::RealClock clock;
    Plexus plexus(clock);
    XrlRouter a(plexus, "bgp", true);
    ASSERT_TRUE(a.finalize());
    XrlRouter b(plexus, "bgp", true);
    EXPECT_FALSE(b.finalize());
}

TEST(XrlRouter, TwoPlexusesOverTcpSimulateTwoHosts) {
    // Components in *different* Plexuses (separate Finders — think two
    // machines) can still talk over TCP given the address, proving the
    // transport doesn't depend on shared memory.
    ev::RealClock clock;
    Plexus host_a(clock);
    Plexus host_b(clock);
    AddServer server(host_b, /*tcp=*/true);

    // Manually bridge the Finders: register the remote target in host_a's
    // Finder with the TCP address from host_b (in a full deployment the
    // Finders would federate; the bridge is one registration call).
    auto res_b =
        host_b.finder.resolve("calc", "calc/1.0/add", "", nullptr);
    ASSERT_TRUE(res_b.has_value());
    std::string tcp_addr;
    std::string keyed_method;
    for (const auto& r : *res_b)
        if (r.family == "stcp") {
            tcp_addr = r.address;
            keyed_method = r.keyed_method;
        }
    ASSERT_FALSE(tcp_addr.empty());

    // host_a side: direct TCP channel to host_b's listener.
    TcpChannel channel(host_a.loop, tcp_addr);
    XrlArgs args;
    args.add("a", uint32_t{40}).add("b", uint32_t{2});
    std::optional<uint32_t> sum;
    channel.send(keyed_method, args,
                 [&](const XrlError& e, const XrlArgs& out) {
                     if (e.ok()) sum = out.get_u32("sum");
                 });
    // Drive both loops (two "machines").
    for (int i = 0; i < 1000 && !sum; ++i) {
        host_a.loop.run_once(false);
        host_b.loop.run_once(false);
    }
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, 42u);
}

TEST(TcpChannel, ConnectionRefusedFailsPending) {
    ev::RealClock clock;
    Plexus plexus(clock);
    // Port 1 on loopback: nothing listens there.
    TcpChannel channel(plexus.loop, "127.0.0.1:1");
    XrlError got;
    bool done = false;
    channel.send("x/1.0/m", {}, [&](const XrlError& e, const XrlArgs&) {
        got = e;
        done = true;
    });
    plexus.loop.run_until([&] { return done; }, 5s);
    ASSERT_TRUE(done);
    EXPECT_EQ(got.code(), ErrorCode::kTransportFailed);
}

TEST(UdpChannel, TimeoutFailsRequest) {
    ev::RealClock clock;
    Plexus plexus(clock);
    // A bound UDP socket that never answers.
    Fd silent = make_udp_socket();
    ASSERT_TRUE(silent.valid());
    UdpChannel channel(plexus.loop, local_address_string(silent.get()),
                       std::chrono::milliseconds(50));
    XrlError got;
    bool done = false;
    channel.send("x/1.0/m", {}, [&](const XrlError& e, const XrlArgs&) {
        got = e;
        done = true;
    });
    plexus.loop.run_until([&] { return done; }, 5s);
    ASSERT_TRUE(done);
    // The request left this host, so the channel reports kTimeout (the
    // request may have executed), not a generic transport failure.
    EXPECT_EQ(got.code(), ErrorCode::kTimeout);
}

TEST(FinderXrl, FinderAddressableViaXrls) {
    // §6.3: "a special Finder protocol family permitting the Finder to be
    // addressable through XRLs, just as any other XORP component."
    ev::RealClock clock;
    Plexus plexus(clock);
    auto finder_face = bind_finder_xrl(plexus);
    AddServer server(plexus);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());

    XrlArgs args;
    args.add("target", std::string("calc"))
        .add("method", std::string("calc/1.0/add"));
    bool done = false;
    std::optional<std::string> keyed;
    client.send(Xrl::generic("finder", "finder", "1.0", "resolve_xrl", args),
                [&](const XrlError& e, const XrlArgs& out) {
                    if (e.ok() && out.get_bool("ok").value_or(false))
                        keyed = out.get_text("keyed_method");
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);
    ASSERT_TRUE(keyed.has_value());
    // The resolution the Finder face hands out is directly dispatchable.
    XrlArgs add_args;
    add_args.add("a", uint32_t{40}).add("b", uint32_t{2});
    std::optional<uint32_t> sum;
    plexus.intra.send("calc", *keyed, add_args,
                      [&](const XrlError& e, const XrlArgs& out) {
                          if (e.ok()) sum = out.get_u32("sum");
                      });
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, 42u);

    // And existence queries work over the wire.
    XrlArgs targs;
    targs.add("target", std::string("ghost"));
    bool exists = true;
    done = false;
    client.send(
        Xrl::generic("finder", "finder", "1.0", "target_exists", targs),
        [&](const XrlError& e, const XrlArgs& out) {
            if (e.ok()) exists = out.get_bool("exists").value_or(true);
            done = true;
        });
    plexus.loop.run_until([&] { return done; }, 2s);
    EXPECT_FALSE(exists);
}

TEST(KillFamily, DeliversSignalsAsynchronously) {
    // §6.3's kill protocol family: one message type — a signal.
    ev::RealClock clock;
    Plexus plexus(clock);
    KillFamily kills(plexus.loop);
    std::vector<int> got;
    kills.register_target("bgp", [&](int signo) { got.push_back(signo); });

    EXPECT_TRUE(kills.kill("bgp", SIGTERM));
    EXPECT_TRUE(got.empty());  // asynchronous, like a real signal
    plexus.loop.run_until([&] { return !got.empty(); }, 2s);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], SIGTERM);

    EXPECT_FALSE(kills.kill("ghost"));
    kills.unregister_target("bgp");
    EXPECT_FALSE(kills.kill("bgp"));
}

TEST(TcpListener, GarbageInputClosesConnectionGracefully) {
    // A client that speaks garbage must be disconnected without harming
    // the listener or other sessions.
    ev::RealClock clock;
    Plexus plexus(clock);
    AddServer server(plexus, /*tcp=*/true);
    XrlRouter good(plexus, "good");
    ASSERT_TRUE(good.finalize());
    good.set_preferred_family("stcp");

    // Find the listener's address via the Finder.
    auto res = plexus.finder.resolve("calc", "calc/1.0/add");
    ASSERT_TRUE(res.has_value());
    std::string addr;
    for (const auto& r : *res)
        if (r.family == "stcp") addr = r.address;
    ASSERT_FALSE(addr.empty());

    // Raw socket spewing garbage.
    auto sa = parse_inet_address(addr);
    ASSERT_TRUE(sa.has_value());
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&*sa), sizeof *sa), 0);
    std::vector<uint8_t> garbage(512, 0xee);
    // A length prefix claiming an absurd frame size must kill the
    // connection (kMaxFrameBytes guard).
    garbage[0] = 0xff;
    garbage[1] = 0xff;
    garbage[2] = 0xff;
    garbage[3] = 0x7f;
    ASSERT_GT(::write(fd, garbage.data(), garbage.size()), 0);
    plexus.loop.run_for(50ms);

    // The well-behaved client still works.
    auto sum = call_add(plexus, good, 20, 22);
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, 42u);
    ::close(fd);
}

TEST(TcpChannel, BoundedPipeliningStillCompletesHugeBursts) {
    // 5000 requests — far over the kMaxOutstanding window — must all
    // complete, in order, through the user-space backlog.
    ev::RealClock clock;
    Plexus plexus(clock);
    AddServer server(plexus, /*tcp=*/true);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());
    client.set_preferred_family("stcp");

    int completed = 0;
    int correct = 0;
    int order_violations = 0;
    int last_seen = -1;
    for (uint32_t i = 0; i < 5000; ++i) {
        XrlArgs args;
        args.add("a", i).add("b", uint32_t{1});
        client.send(Xrl::generic("calc", "calc", "1.0", "add", args),
                    [&, i](const XrlError& e, const XrlArgs& out) {
                        ++completed;
                        if (e.ok() && out.get_u32("sum") == i + 1) ++correct;
                        if (static_cast<int>(i) < last_seen)
                            ++order_violations;
                        last_seen = static_cast<int>(i);
                    });
    }
    ASSERT_TRUE(
        plexus.loop.run_until([&] { return completed == 5000; }, 60s));
    EXPECT_EQ(correct, 5000);
    EXPECT_EQ(order_violations, 0);  // FIFO per channel
}

// ---- the reliable call contract ---------------------------------------

namespace {

// A server whose only method never replies — the pathological case the
// call contract's deadline exists for.
class HangServer {
public:
    explicit HangServer(Plexus& plexus, bool tcp = false, bool udp = false)
        : router_(plexus, "tarpit", true) {
        router_.add_async_handler(
            "tar/1.0/hang", [this](const XrlArgs&, ResponseCallback done) {
                ++dispatched_;
                parked_.push_back(std::move(done));  // never completed
            });
        if (tcp) router_.enable_tcp();
        if (udp) router_.enable_udp();
        EXPECT_TRUE(router_.finalize());
    }
    int dispatched() const { return dispatched_; }

private:
    XrlRouter router_;
    int dispatched_ = 0;
    std::vector<ResponseCallback> parked_;
};

}  // namespace

class CallContractFamilies : public ::testing::TestWithParam<const char*> {};

TEST_P(CallContractFamilies, NeverReplyingHandlerHitsDeadline) {
    // The acceptance bar for the contract: a handler that never calls its
    // completion produces a typed kTimeout on every family, enforced by
    // the sender's event-loop timer — not by any transport's goodwill.
    ev::RealClock clock;
    Plexus plexus(clock);
    const std::string family = GetParam();
    HangServer server(plexus, family == "stcp", family == "sudp");
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());
    client.set_preferred_family(family);

    const uint64_t timeouts0 = ctr("xrl_call_attempt_timeouts_total");
    CallOptions opts;
    opts.with_deadline(500ms).with_attempt_timeout(100ms).with_attempts(1);
    XrlError got;
    bool done = false;
    client.call(Xrl::generic("tarpit", "tar", "1.0", "hang"), opts,
                [&](const XrlError& e, const XrlArgs&) {
                    got = e;
                    done = true;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 5s));
    EXPECT_EQ(got.code(), ErrorCode::kTimeout) << got.str();
    EXPECT_EQ(server.dispatched(), 1) << family;
    EXPECT_GE(ctr("xrl_call_attempt_timeouts_total") - timeouts0, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, CallContractFamilies,
                         ::testing::Values("inproc", "stcp", "sudp"));

TEST(CallContract, IdempotentCallRetriesThroughDrops) {
    ev::RealClock clock;
    Plexus plexus(clock);
    AddServer server(plexus);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());

    // Deterministically drop the first two sends to calc: attempt 1 and
    // retry 1 vanish; retry 2 gets through.
    FaultInjector::Plan plan;
    plan.drop_first = 2;
    plexus.faults.set_target_plan("calc", plan);

    const uint64_t retries0 = ctr("xrl_call_retries_total");
    CallOptions opts = CallOptions::reliable();
    opts.with_attempt_timeout(50ms).with_attempts(4).with_deadline(10s);
    XrlArgs args;
    args.add("a", uint32_t{40}).add("b", uint32_t{2});
    std::optional<uint32_t> sum;
    bool done = false;
    client.call(Xrl::generic("calc", "calc", "1.0", "add", args), opts,
                [&](const XrlError& e, const XrlArgs& out) {
                    if (e.ok()) sum = out.get_u32("sum");
                    done = true;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 10s));
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, 42u);
    EXPECT_EQ(plexus.faults.stats().drops, 2u);
    EXPECT_GE(ctr("xrl_call_retries_total") - retries0, 2u);
}

TEST(CallContract, OnewayCallsToOneTargetStayFifoAcrossRetries) {
    // call_oneway serializes per target: at most one on the wire, the
    // next dequeued on completion. A dropped-and-retried push must not be
    // overtaken by the push behind it (an add must never pass the delete
    // ahead of it), and a bulk stream must not flood the channel.
    ev::RealClock clock;
    Plexus plexus(clock);
    XrlRouter server(plexus, "seq", true);
    std::vector<std::string> got;
    server.add_interface(*xrl::InterfaceSpec::parse(
        "interface seq/1.0 { note ? tag:txt; }"));
    server.add_handler("seq/1.0/note", [&](const XrlArgs& in, XrlArgs&) {
        got.push_back(*in.get_text("tag"));
        return XrlError::okay();
    });
    ASSERT_TRUE(server.finalize());
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());

    FaultInjector::Plan plan;
    plan.drop_first = 1;  // eat "first" once; its retry must still precede
    plexus.faults.set_target_plan("seq", plan);

    CallOptions opts = CallOptions::reliable();
    opts.with_attempt_timeout(50ms).with_attempts(4).with_deadline(10s);
    XrlArgs a, b;
    a.add("tag", std::string("first"));
    b.add("tag", std::string("second"));
    client.call_oneway(Xrl::generic("seq", "seq", "1.0", "note", a), opts);
    client.call_oneway(Xrl::generic("seq", "seq", "1.0", "note", b), opts);
    // Inproc dispatch is synchronous: had "second" bypassed the queue it
    // would already have landed here while "first" sits in retry backoff.
    EXPECT_TRUE(got.empty());
    ASSERT_TRUE(plexus.loop.run_until([&] { return got.size() == 2; }, 10s));
    EXPECT_EQ(got[0], "first");
    EXPECT_EQ(got[1], "second");
    EXPECT_EQ(plexus.faults.stats().drops, 1u);
}

TEST(CallContract, TimeoutDoesNotRetryNonIdempotentCalls) {
    // After a timeout the request may have executed; without the
    // idempotent marker the contract must NOT fire it again.
    ev::RealClock clock;
    Plexus plexus(clock);
    AddServer server(plexus);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());

    FaultInjector::Plan plan;
    plan.drop_first = 1;
    plexus.faults.set_target_plan("calc", plan);

    CallOptions opts;  // idempotent defaults to false
    opts.with_attempt_timeout(50ms).with_attempts(3).with_deadline(10s);
    XrlArgs args;
    args.add("a", uint32_t{1}).add("b", uint32_t{2});
    XrlError got;
    bool done = false;
    client.call(Xrl::generic("calc", "calc", "1.0", "add", args), opts,
                [&](const XrlError& e, const XrlArgs&) {
                    got = e;
                    done = true;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 10s));
    EXPECT_EQ(got.code(), ErrorCode::kTimeout);
    EXPECT_NE(got.note().find("not retried"), std::string::npos) << got.str();
    // Exactly one send ever left the router.
    EXPECT_EQ(plexus.faults.stats().drops, 1u);
}

TEST(CallContract, HardFailureFailsOverToNextFamily) {
    // The server is reachable over inproc and sTCP. Killing the inproc
    // channel is a pre-execution failure, so even a non-idempotent call
    // hops to the next preference-ordered resolution inside one attempt.
    ev::RealClock clock;
    Plexus plexus(clock);
    AddServer server(plexus, /*tcp=*/true);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());

    FaultInjector::Plan kill;
    kill.kill_channel = true;
    plexus.faults.set_family_plan("inproc", kill);

    const uint64_t failovers0 = ctr("xrl_call_failovers_total");
    auto sum = call_add(plexus, client, 40, 2);
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, 42u);
    EXPECT_GE(ctr("xrl_call_failovers_total") - failovers0, 1u);
    EXPECT_GE(plexus.faults.stats().kills, 1u);
}

TEST(CallContract, ExhaustedHardFailuresReportTargetDead) {
    ev::RealClock clock;
    Plexus plexus(clock);
    AddServer server(plexus);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());

    FaultInjector::Plan kill;
    kill.kill_channel = true;
    plexus.faults.set_target_plan("calc", kill);

    const uint64_t dead0 = ctr("xrl_targets_reported_dead_total");
    CallOptions opts = CallOptions::reliable();
    opts.with_attempt_timeout(100ms).with_attempts(2).with_deadline(10s);
    XrlArgs args;
    args.add("a", uint32_t{1}).add("b", uint32_t{2});
    XrlError got;
    bool done = false;
    client.call(Xrl::generic("calc", "calc", "1.0", "add", args), opts,
                [&](const XrlError& e, const XrlArgs&) {
                    got = e;
                    done = true;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 10s));
    // Every attempt died a hard transport death: the contract reports the
    // target dead to the Finder.
    EXPECT_EQ(got.code(), ErrorCode::kTransportFailed) << got.str();
    EXPECT_EQ(ctr("xrl_targets_reported_dead_total") - dead0, 1u);

    // Even with the faults gone, the Finder remembers: the next call
    // fast-fails with a typed kTargetDead instead of dispatching.
    plexus.faults.clear();
    done = false;
    client.call(Xrl::generic("calc", "calc", "1.0", "add", args),
                CallOptions::defaults(),
                [&](const XrlError& e, const XrlArgs&) {
                    got = e;
                    done = true;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 10s));
    EXPECT_EQ(got.code(), ErrorCode::kTargetDead) << got.str();

    // A reborn instance of the class clears the verdict (the dead first
    // instance must not shadow its replacement).
    AddServer reborn(plexus);
    std::optional<uint32_t> sum;
    done = false;
    client.call(Xrl::generic("calc", "calc", "1.0", "add", args),
                CallOptions::defaults(),
                [&](const XrlError& e, const XrlArgs& out) {
                    got = e;
                    if (e.ok()) sum = out.get_u32("sum");
                    done = true;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 10s));
    ASSERT_TRUE(sum.has_value()) << got.str();
    EXPECT_EQ(*sum, 3u);
}

// ---- the fault injector itself ----------------------------------------

TEST(FaultInjector, DuplicateDeliversTwiceCompletesOnce) {
    ev::RealClock clock;
    Plexus plexus(clock);
    XrlRouter server(plexus, "ctr", true);
    int handler_runs = 0;
    server.add_handler("c/1.0/m", [&](const XrlArgs&, XrlArgs&) {
        ++handler_runs;
        return XrlError::okay();
    });
    ASSERT_TRUE(server.finalize());
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());

    FaultInjector::Plan plan;
    plan.duplicate_permille = 1000;
    plexus.faults.set_target_plan("ctr", plan);

    int completions = 0;
    client.call(Xrl::generic("ctr", "c", "1.0", "m"),
                CallOptions::fire_once(),
                [&](const XrlError& e, const XrlArgs&) {
                    EXPECT_TRUE(e.ok()) << e.str();
                    ++completions;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return completions >= 1; }, 2s));
    plexus.loop.run_for(50ms);  // a double completion would land here
    EXPECT_EQ(handler_runs, 2);  // at-least-once surfaced to the receiver
    EXPECT_EQ(completions, 1);   // exactly-once surfaced to the caller
    EXPECT_EQ(plexus.faults.stats().duplicates, 1u);
}

TEST(FaultInjector, SeededRunsReplayExactly) {
    // Chaos is only a debugging tool if a failing run replays: the same
    // seed must produce the identical drop pattern, a different seed a
    // different one.
    ev::RealClock clock;
    Plexus pa(clock), pb(clock), pc(clock);
    FaultInjector::Plan plan;
    plan.drop_permille = 400;
    auto run = [&](FaultInjector& f, uint64_t seed) {
        f.seed(seed);
        f.set_default_plan(plan);
        std::vector<int> delivered;
        for (int i = 0; i < 200; ++i) {
            bool got = false;
            f.intercept(
                "t", "inproc",
                [&](ResponseCallback done) {
                    got = true;
                    done(XrlError::okay(), {});
                },
                [](const XrlError&, const XrlArgs&) {});
            delivered.push_back(got ? 1 : 0);
        }
        return delivered;
    };
    auto a = run(pa.faults, 1234);
    auto b = run(pb.faults, 1234);
    auto c = run(pc.faults, 99);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(pa.faults.stats().drops, pb.faults.stats().drops);
    EXPECT_GT(pa.faults.stats().drops, 0u);
    EXPECT_LT(pa.faults.stats().drops, 200u);
}

TEST(FaultXrl, PlansScriptableOverTheWire) {
    // The fault/1.0 face every router exposes: script a delay plan onto
    // calc, watch it bite, read the stats back, clear it — all over XRLs.
    ev::RealClock clock;
    Plexus plexus(clock);
    AddServer server(plexus);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());

    XrlArgs plan_args;
    plan_args.add("scope", std::string("target:calc"))
        .add("drop_permille", uint32_t{0})
        .add("delay_permille", uint32_t{1000})
        .add("delay_min_ms", uint32_t{1})
        .add("delay_max_ms", uint32_t{5})
        .add("duplicate_permille", uint32_t{0})
        .add("reorder_permille", uint32_t{0})
        .add("kill_channel", false)
        .add("drop_first", uint32_t{0});
    bool ok = false;
    bool done = false;
    client.send(
        Xrl::generic("calc", "fault", "1.0", "set_plan", plan_args),
        [&](const XrlError& e, const XrlArgs& out) {
            ok = e.ok() && out.get_bool("ok").value_or(false);
            done = true;
        });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 2s));
    ASSERT_TRUE(ok);
    EXPECT_TRUE(plexus.faults.active());

    // Calls still complete — delayed, not lost.
    auto sum = call_add(plexus, client, 40, 2);
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, 42u);

    std::optional<uint32_t> delays;
    done = false;
    client.send(Xrl::generic("calc", "fault", "1.0", "stats"),
                [&](const XrlError& e, const XrlArgs& out) {
                    if (e.ok()) delays = out.get_u32("delays");
                    done = true;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 2s));
    ASSERT_TRUE(delays.has_value());
    EXPECT_GE(*delays, 1u);

    done = false;
    client.send(Xrl::generic("calc", "fault", "1.0", "clear"),
                [&](const XrlError& e, const XrlArgs&) {
                    EXPECT_TRUE(e.ok()) << e.str();
                    done = true;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 2s));
    EXPECT_FALSE(plexus.faults.active());
}

TEST(FaultInjector, ClearScopeRemovesExactlyOneSlot) {
    ev::RealClock clock;
    Plexus plexus(clock);
    FaultInjector& f = plexus.faults;
    FaultInjector::Plan drop;
    drop.drop_permille = 100;
    FaultInjector::Plan kill;
    kill.kill_channel = true;
    f.set_default_plan(drop);
    f.set_family_plan("sudp", drop);
    f.set_target_plan("rip", kill);

    // Introspection: default -> family -> target order, readable render.
    auto plans = f.list_plans();
    ASSERT_EQ(plans.size(), 3u);
    EXPECT_EQ(plans[0].first, "default");
    EXPECT_EQ(plans[1].first, "family:sudp");
    EXPECT_EQ(plans[2].first, "target:rip");
    EXPECT_TRUE(plans[2].second.kill_channel);
    const std::string text = f.describe_plans();
    EXPECT_NE(text.find("default"), std::string::npos);
    EXPECT_NE(text.find("family:sudp"), std::string::npos);
    EXPECT_NE(text.find("target:rip"), std::string::npos);

    // Lifting the kill leaves the ambient plans armed.
    EXPECT_TRUE(f.clear_scope("target:rip"));
    EXPECT_EQ(f.list_plans().size(), 2u);
    EXPECT_TRUE(f.active());
    // Unknown or already-cleared scopes are a no-op returning false.
    EXPECT_FALSE(f.clear_scope("target:rip"));
    EXPECT_FALSE(f.clear_scope("target:never-installed"));
    EXPECT_FALSE(f.clear_scope("family:tcp"));
    EXPECT_EQ(f.list_plans().size(), 2u);

    // Draining the remaining slots deactivates the injector entirely.
    EXPECT_TRUE(f.clear_scope("family:sudp"));
    EXPECT_TRUE(f.clear_scope("default"));
    EXPECT_TRUE(f.list_plans().empty());
    EXPECT_FALSE(f.active());
}

TEST(FaultXrl, IntrospectionAndSurgicalClearOverTheWire) {
    // list_plan / clear_target: an operator inspects what chaos is armed
    // and lifts one plan without touching the rest.
    ev::RealClock clock;
    Plexus plexus(clock);
    AddServer server(plexus);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());
    FaultInjector::Plan drop;
    drop.drop_permille = 1;  // ambient plan that must survive the clear
    plexus.faults.set_default_plan(drop);
    FaultInjector::Plan kill;
    kill.kill_channel = true;
    plexus.faults.set_target_plan("victim", kill);

    std::optional<uint32_t> count;
    std::string plans;
    bool done = false;
    client.send(Xrl::generic("calc", "fault", "1.0", "list_plan"),
                [&](const XrlError& e, const XrlArgs& out) {
                    ASSERT_TRUE(e.ok()) << e.str();
                    count = out.get_u32("count");
                    plans = out.get_text("plans").value_or("");
                    done = true;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 2s));
    ASSERT_TRUE(count.has_value());
    EXPECT_EQ(*count, 2u);
    EXPECT_NE(plans.find("target:victim"), std::string::npos);

    auto clear_target = [&](const std::string& scope) {
        std::optional<bool> removed;
        bool replied = false;
        XrlArgs args;
        args.add("scope", scope);
        client.send(
            Xrl::generic("calc", "fault", "1.0", "clear_target", args),
            [&](const XrlError& e, const XrlArgs& out) {
                if (e.ok()) removed = out.get_bool("removed");
                replied = true;
            });
        EXPECT_TRUE(plexus.loop.run_until([&] { return replied; }, 2s));
        return removed;
    };
    EXPECT_EQ(clear_target("target:victim"), std::optional<bool>(true));
    EXPECT_EQ(clear_target("target:victim"), std::optional<bool>(false));
    // Malformed scopes are refused, not treated as "not found".
    EXPECT_EQ(clear_target("banana"), std::nullopt);
    // The ambient default plan is still armed.
    EXPECT_TRUE(plexus.faults.active());
    ASSERT_EQ(plexus.faults.list_plans().size(), 1u);
    EXPECT_EQ(plexus.faults.list_plans()[0].first, "default");
}

TEST(UdpChannel, StaleResponseAfterTimeoutIsDiscarded) {
    // sUDP is stop-and-wait with a sequence number. A reply that limps in
    // after its request already timed out must be discarded — not matched
    // to the next request — and the channel must keep working.
    ev::RealClock clock;
    Plexus plexus(clock);
    Fd server_sock = make_udp_socket();
    ASSERT_TRUE(server_sock.valid());
    UdpChannel channel(plexus.loop, local_address_string(server_sock.get()),
                       std::chrono::milliseconds(100));

    const uint64_t timeouts0 = ctr("xrl_timeouts_total{family=\"sudp\"}");
    int first_cbs = 0;
    XrlError first_err;
    channel.send("x/1.0/one", {}, [&](const XrlError& e, const XrlArgs&) {
        first_err = e;
        ++first_cbs;
    });
    ASSERT_TRUE(plexus.loop.run_until([&] { return first_cbs == 1; }, 5s));
    EXPECT_EQ(first_err.code(), ErrorCode::kTimeout);
    EXPECT_EQ(ctr("xrl_timeouts_total{family=\"sudp\"}") - timeouts0, 1u);

    // Pull the first request off the wire; remember the peer to reply to.
    uint8_t buf[2048];
    sockaddr_in peer{};
    socklen_t plen = sizeof peer;
    ssize_t n = ::recvfrom(server_sock.get(), buf, sizeof buf, MSG_DONTWAIT,
                           reinterpret_cast<sockaddr*>(&peer), &plen);
    ASSERT_GT(n, 0);
    RequestFrame req1;
    ResponseFrame resp_unused;
    auto kind1 =
        decode_frame(buf, static_cast<size_t>(n), req1, resp_unused);
    ASSERT_TRUE(kind1.has_value());
    ASSERT_EQ(*kind1, FrameKind::kRequest);

    // Second request goes out while the late answer to the first is still
    // "in the network". The channel transmits synchronously from send(),
    // and the assertions below use non-blocking loop spins — a blocking
    // run would sleep until the channel's own timeout and defeat the test.
    int second_cbs = 0;
    XrlError second_err;
    std::optional<uint32_t> sum;
    channel.send("x/1.0/two", {},
                 [&](const XrlError& e, const XrlArgs& out) {
                     second_err = e;
                     if (e.ok()) sum = out.get_u32("sum");
                     ++second_cbs;
                 });
    n = ::recvfrom(server_sock.get(), buf, sizeof buf, MSG_DONTWAIT,
                   reinterpret_cast<sockaddr*>(&peer), &plen);
    ASSERT_GT(n, 0);
    RequestFrame req2;
    auto kind2 =
        decode_frame(buf, static_cast<size_t>(n), req2, resp_unused);
    ASSERT_TRUE(kind2.has_value());
    ASSERT_EQ(*kind2, FrameKind::kRequest);
    ASSERT_NE(req1.seq, req2.seq);

    // The stale reply arrives: it matches no in-flight sequence number and
    // must not complete the second request.
    ResponseFrame stale;
    stale.seq = req1.seq;
    stale.args.add("sum", uint32_t{666});
    std::vector<uint8_t> wire;
    encode_response(stale, wire);
    ASSERT_GT(::sendto(server_sock.get(), wire.data(), wire.size(), 0,
                       reinterpret_cast<sockaddr*>(&peer), plen),
              0);
    for (int i = 0; i < 100; ++i) plexus.loop.run_once(false);
    EXPECT_EQ(first_cbs, 1);   // no double completion of the first call
    EXPECT_EQ(second_cbs, 0);  // stale reply did not satisfy the second

    // The real reply to the second request still lands.
    ResponseFrame good;
    good.seq = req2.seq;
    good.args.add("sum", uint32_t{42});
    wire.clear();
    encode_response(good, wire);
    ASSERT_GT(::sendto(server_sock.get(), wire.data(), wire.size(), 0,
                       reinterpret_cast<sockaddr*>(&peer), plen),
              0);
    ASSERT_TRUE(plexus.loop.run_until([&] { return second_cbs == 1; }, 5s));
    EXPECT_TRUE(second_err.ok()) << second_err.str();
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, 42u);
}

// ---- trace identity through the reliable call contract -----------------

TEST(CallContract, RetriesCarryOneTraceIdAndHop) {
    // One logical call = one trace context: a dropped-and-retried attempt
    // is a resend, not a new trace. An explicit CallOptions::with_trace
    // pins the id/hop; every attempt's "send" event must record exactly
    // that pair, so a scenario journal can attribute retry storms to the
    // causal chain that suffered them.
    ev::RealClock clock;
    Plexus plexus(clock);
    AddServer server(plexus);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());

    auto& journal = telemetry::Journal::global();
    journal.clear();
    journal.set_enabled(true);
    telemetry::set_tracing_enabled(true);

    FaultInjector::Plan plan;
    plan.drop_first = 2;
    plexus.faults.set_target_plan("calc", plan);

    const telemetry::TraceContext pinned{0x5eed, 3};
    CallOptions opts = CallOptions::reliable();
    opts.with_attempt_timeout(50ms).with_attempts(4).with_deadline(10s)
        .with_trace(pinned);
    XrlArgs args;
    args.add("a", uint32_t{40}).add("b", uint32_t{2});
    std::optional<uint32_t> sum;
    bool done = false;
    client.call(Xrl::generic("calc", "calc", "1.0", "add", args), opts,
                [&](const XrlError& e, const XrlArgs& out) {
                    if (e.ok()) sum = out.get_u32("sum");
                    done = true;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 10s));
    telemetry::set_tracing_enabled(false);
    journal.set_enabled(false);
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, 42u);
    EXPECT_EQ(plexus.faults.stats().drops, 2u);

    size_t sends = 0;
    for (const telemetry::JournalEvent& ev : journal.events()) {
        if (ev.kind != telemetry::JournalKind::kXrlSend ||
            ev.subject.find("calc/1.0/add") == std::string::npos)
            continue;
        ++sends;
        EXPECT_EQ(ev.trace, pinned.trace_id) << ev.subject;
        EXPECT_EQ(ev.hop, pinned.hop) << ev.subject;
    }
    // Attempt 1 and two retries, all under the pinned identity.
    EXPECT_GE(sends, 3u);
    journal.clear();
}

TEST(CallContract, FailoverKeepsTheTraceContext) {
    // A failover hop is still the same logical call: after the inproc
    // channel is killed and the call re-resolves onto sTCP, the new
    // attempt must record under the original trace id/hop.
    ev::RealClock clock;
    Plexus plexus(clock);
    AddServer server(plexus, /*tcp=*/true);
    XrlRouter client(plexus, "client");
    ASSERT_TRUE(client.finalize());

    auto& journal = telemetry::Journal::global();
    journal.clear();
    journal.set_enabled(true);
    telemetry::set_tracing_enabled(true);

    FaultInjector::Plan kill;
    kill.kill_channel = true;
    plexus.faults.set_family_plan("inproc", kill);

    const telemetry::TraceContext pinned{0xfa11, 7};
    CallOptions opts = CallOptions::reliable();
    opts.with_attempt_timeout(200ms).with_attempts(4).with_deadline(10s)
        .with_trace(pinned);
    XrlArgs args;
    args.add("a", uint32_t{40}).add("b", uint32_t{2});
    std::optional<uint32_t> sum;
    bool done = false;
    const uint64_t failovers0 = ctr("xrl_call_failovers_total");
    client.call(Xrl::generic("calc", "calc", "1.0", "add", args), opts,
                [&](const XrlError& e, const XrlArgs& out) {
                    if (e.ok()) sum = out.get_u32("sum");
                    done = true;
                });
    ASSERT_TRUE(plexus.loop.run_until([&] { return done; }, 10s));
    telemetry::set_tracing_enabled(false);
    journal.set_enabled(false);
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, 42u);
    EXPECT_GE(ctr("xrl_call_failovers_total") - failovers0, 1u);

    size_t sends = 0;
    for (const telemetry::JournalEvent& ev : journal.events()) {
        if (ev.kind != telemetry::JournalKind::kXrlSend ||
            ev.subject.find("calc/1.0/add") == std::string::npos)
            continue;
        ++sends;
        EXPECT_EQ(ev.trace, pinned.trace_id) << ev.subject;
        EXPECT_EQ(ev.hop, pinned.hop) << ev.subject;
    }
    EXPECT_GE(sends, 1u);
    journal.clear();
}
