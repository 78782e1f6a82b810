// Telemetry tests: registry semantics, histogram percentile math, the
// optional trace trailer on the wire (backward compatible), trace
// propagation across all three XRL protocol families as journal events,
// and the paper's Figures 10-12 chain — BGP -> RIB -> FEA reassembled as
// one causally-linked trace.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <sstream>

#include "ipc/router.hpp"
#include "ipc/wire.hpp"
#include "rtrmgr/rtrmgr.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

using namespace xrp;
using namespace std::chrono_literals;
using telemetry::Journal;
using telemetry::JournalEvent;
using telemetry::JournalKind;
using telemetry::Registry;
using telemetry::TraceContext;
using xrl::Xrl;
using xrl::XrlArgs;
using xrl::XrlError;

namespace {

// Tracing tests share the process-global journal and tracing flag;
// scope both.
class TracingOn {
public:
    TracingOn() {
        Journal::global().clear();
        Journal::global().set_enabled(true);
        telemetry::set_tracing_enabled(true);
    }
    ~TracingOn() {
        telemetry::set_tracing_enabled(false);
        Journal::global().set_enabled(false);
    }
};

bool contains(const std::string& s, const char* part) {
    return s.find(part) != std::string::npos;
}

// A two-tier service: "front" forwards every go() to "leaf" on "back",
// so one client call produces a nested send — the shape that exercises
// context inheritance through a dispatch.
class ChainServers {
public:
    explicit ChainServers(ipc::Plexus& plexus, bool tcp = false,
                          bool udp = false)
        : front_(plexus, "front", true), back_(plexus, "back", true) {
        back_.add_handler("chain/1.0/leaf",
                          [](const XrlArgs&, XrlArgs&) {
                              return XrlError::okay();
                          });
        front_.add_handler("chain/1.0/go", [this](const XrlArgs&, XrlArgs&) {
            front_.call_oneway(Xrl::generic("back", "chain", "1.0", "leaf",
                                            XrlArgs()));
            return XrlError::okay();
        });
        if (tcp) {
            front_.enable_tcp();
            back_.enable_tcp();
        }
        if (udp) {
            front_.enable_udp();
            back_.enable_udp();
        }
        EXPECT_TRUE(front_.finalize());
        EXPECT_TRUE(back_.finalize());
    }
    ipc::XrlRouter& front() { return front_; }

private:
    ipc::XrlRouter front_;
    ipc::XrlRouter back_;
};

// Calls front/chain/1.0/go with the given family forced on the client
// AND on front's nested send, then waits for both tiers to settle.
void run_chain(ipc::Plexus& plexus, ipc::XrlRouter& client,
               ChainServers& servers, const std::string& family) {
    client.set_preferred_family(family);
    servers.front().set_preferred_family(family);
    bool done = false;
    client.send(Xrl::generic("front", "chain", "1.0", "go", XrlArgs()),
                [&](const XrlError& err, const XrlArgs&) {
                    EXPECT_TRUE(err.ok()) << err.str();
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 5s);
    ASSERT_TRUE(done);
    // The nested send's reply may still be in flight after go() returns.
    plexus.loop.run_for(200ms);
}

// Asserts the journal holds one trace linking go() and leaf() dispatches
// over `family`, with the hop count deepening downstream.
void expect_chain_trace(const std::string& family) {
    const std::vector<JournalEvent> events = Journal::global().events();
    uint64_t id = 0;
    for (const JournalEvent& e : events)
        if (e.kind == JournalKind::kXrlDispatch &&
            contains(e.subject, "chain/1.0/leaf")) {
            id = e.trace;
            break;
        }
    ASSERT_NE(id, 0u) << "no leaf dispatch recorded:\n"
                      << Journal::global().to_jsonl();

    int go_hop = -1;
    int leaf_hop = -1;
    for (const JournalEvent& e : events) {
        if (e.trace != id) continue;
        EXPECT_EQ(e.detail, family);
        if (e.kind != JournalKind::kXrlDispatch) continue;
        if (contains(e.subject, "chain/1.0/go"))
            go_hop = static_cast<int>(e.hop);
        if (contains(e.subject, "chain/1.0/leaf"))
            leaf_hop = static_cast<int>(e.hop);
    }
    ASSERT_GE(go_hop, 0) << Journal::global().to_jsonl();
    ASSERT_GE(leaf_hop, 0) << Journal::global().to_jsonl();
    EXPECT_LT(go_hop, leaf_hop);
}

}  // namespace

// ---- registry ----------------------------------------------------------

TEST(Metrics, HandlesAreStableAndGated) {
    Registry reg;
    telemetry::Counter* c = reg.counter("t_calls_total");
    EXPECT_EQ(c, reg.counter("t_calls_total"));
    c->inc();
    c->inc(4);
    EXPECT_EQ(c->value(), 5u);

    reg.set_enabled(false);
    c->inc(100);  // disabled: the handle stays valid but counts nothing
    EXPECT_EQ(c->value(), 5u);
    reg.set_enabled(true);
    c->inc();
    EXPECT_EQ(c->value(), 6u);

    telemetry::Gauge* g = reg.gauge("t_depth");
    g->set(7);
    g->add(2);
    g->sub(4);
    EXPECT_EQ(g->value(), 5);

    reg.zero();
    EXPECT_EQ(c->value(), 0u);  // zero() keeps handles valid
    EXPECT_EQ(g->value(), 0);
}

TEST(Metrics, KindCollisionIsSurvivable) {
    Registry reg;
    telemetry::Counter* c = reg.counter("t_mixed");
    telemetry::Gauge* g = reg.gauge("t_mixed");
    ASSERT_NE(c, nullptr);
    ASSERT_NE(g, nullptr);
    c->inc(3);
    g->set(-2);
    EXPECT_EQ(c->value(), 3u);
    EXPECT_EQ(g->value(), -2);
}

TEST(Metrics, MetricKeyFormatsLabels) {
    EXPECT_EQ(telemetry::metric_key("plain", {}), "plain");
    EXPECT_EQ(telemetry::metric_key(
                  "xrl_sends_total", {{"family", "inproc"}, {"dir", "tx"}}),
              "xrl_sends_total{family=\"inproc\",dir=\"tx\"}");
    EXPECT_EQ(telemetry::metric_key("m", {{"k", "a\"b"}}),
              "m{k=\"a\\\"b\"}");
}

TEST(Metrics, HistogramPercentilesFromLogBuckets) {
    Registry reg;
    telemetry::Histogram* h = reg.histogram("t_lat_ns");
    // 90 observations around 1000ns (bucket [512, 1024)), 10 around 1ms
    // (bucket [524288, 1048576)).
    for (int i = 0; i < 90; ++i) h->observe_always(ev::Duration(1000));
    for (int i = 0; i < 10; ++i) h->observe_always(ev::Duration(1000000));
    EXPECT_EQ(h->count(), 100u);
    EXPECT_EQ(h->sum_ns(), 90u * 1000 + 10u * 1000000);
    // Quantiles report the upper edge of the crossing bucket.
    EXPECT_EQ(h->p50_ns(), 1023u);
    EXPECT_EQ(h->p95_ns(), 1048575u);
    EXPECT_EQ(h->p99_ns(), 1048575u);

    // Non-positive durations land in bucket 0 and never touch the sum.
    h->observe_always(ev::Duration(-5));
    EXPECT_EQ(h->bucket(0), 1u);
    EXPECT_EQ(h->sum_ns(), 90u * 1000 + 10u * 1000000);
}

TEST(Metrics, ExpositionContainsAllLines) {
    Registry reg;
    reg.counter(telemetry::metric_key("t_c", {{"k", "v"}}))->inc(2);
    reg.histogram("t_h")->observe_always(ev::Duration(100));
    std::string text = reg.expose();
    EXPECT_NE(text.find("t_c{k=\"v\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("t_h_count 1\n"), std::string::npos);
    EXPECT_NE(text.find("t_h_sum_ns 100\n"), std::string::npos);
    EXPECT_NE(text.find("t_h_p50_ns"), std::string::npos);
    EXPECT_EQ(reg.expose_one("t_h").find("t_h_count 1\n"), 0u);
    EXPECT_EQ(reg.expose_one("no_such"), "");
}

// ---- wire format -------------------------------------------------------

TEST(Wire, RequestWithoutTrailerStillDecodes) {
    // The pre-trailer format: no trace context on the sender side means
    // not one extra byte on the wire.
    ipc::RequestFrame f;
    f.seq = 5;
    f.method = "rib/1.0/add_route#k";
    f.args.add("metric", uint32_t{1});
    std::vector<uint8_t> buf;
    ipc::encode_request(f, buf);

    ipc::RequestFrame req;
    ipc::ResponseFrame resp;
    auto kind = ipc::decode_frame(buf.data(), buf.size(), req, resp);
    ASSERT_TRUE(kind.has_value());
    EXPECT_EQ(*kind, ipc::FrameKind::kRequest);
    EXPECT_FALSE(req.trace.valid());
    EXPECT_EQ(req.method, f.method);
}

TEST(Wire, TraceTrailerRoundTrips) {
    ipc::RequestFrame f;
    f.seq = 6;
    f.method = "fea/1.0/add_route4#k";
    f.trace = TraceContext{0xdeadbeefcafe, 3};
    std::vector<uint8_t> plain_len;
    {
        ipc::RequestFrame p = f;
        p.trace = {};
        std::vector<uint8_t> buf;
        ipc::encode_request(p, buf);
        plain_len = buf;
    }
    std::vector<uint8_t> buf;
    ipc::encode_request(f, buf);
    EXPECT_EQ(buf.size(), plain_len.size() + 13);  // marker + u64 + u32

    ipc::RequestFrame req;
    ipc::ResponseFrame resp;
    auto kind = ipc::decode_frame(buf.data(), buf.size(), req, resp);
    ASSERT_TRUE(kind.has_value());
    EXPECT_EQ(req.trace.trace_id, 0xdeadbeefcafeu);
    EXPECT_EQ(req.trace.hop, 3u);
}

TEST(Wire, MalformedTailIsRejected) {
    ipc::RequestFrame f;
    f.seq = 7;
    f.method = "m";
    std::vector<uint8_t> buf;
    ipc::encode_request(f, buf);

    ipc::RequestFrame req;
    ipc::ResponseFrame resp;
    // One garbage byte after the args: neither empty nor a trailer.
    auto garbage = buf;
    garbage.push_back(0x00);
    EXPECT_FALSE(
        ipc::decode_frame(garbage.data(), garbage.size(), req, resp));

    // A full-length trailer with the wrong marker.
    auto wrong = buf;
    wrong.resize(wrong.size() + 13, 0);
    wrong[buf.size()] = 0x55;  // not 'T'
    EXPECT_FALSE(ipc::decode_frame(wrong.data(), wrong.size(), req, resp));

    // A truncated trailer.
    auto truncated = buf;
    truncated.push_back(ipc::kTraceMarker);
    truncated.push_back(0x01);
    EXPECT_FALSE(ipc::decode_frame(truncated.data(), truncated.size(), req,
                                   resp));
}

// ---- trace propagation over each protocol family -----------------------

TEST(Trace, PropagatesAcrossInproc) {
    TracingOn tracing;
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ChainServers servers(plexus);
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();
    run_chain(plexus, client, servers, "inproc");
    expect_chain_trace("inproc");
}

TEST(Trace, PropagatesAcrossTcp) {
    TracingOn tracing;
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ChainServers servers(plexus, /*tcp=*/true);
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();
    run_chain(plexus, client, servers, "stcp");
    expect_chain_trace("stcp");
}

TEST(Trace, PropagatesAcrossUdp) {
    TracingOn tracing;
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ChainServers servers(plexus, /*tcp=*/false, /*udp=*/true);
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();
    run_chain(plexus, client, servers, "sudp");
    expect_chain_trace("sudp");
}

TEST(Trace, DisabledTracingRecordsNothing) {
    // The journal is on but tracing is off: XRL hops are trace points,
    // so nothing is recorded.
    ASSERT_FALSE(telemetry::tracing_enabled());
    Journal::global().clear();
    Journal::global().set_enabled(true);
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ChainServers servers(plexus);
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();
    run_chain(plexus, client, servers, "inproc");
    Journal::global().set_enabled(false);
    EXPECT_EQ(Journal::global().event_count(), 0u)
        << Journal::global().to_jsonl();
}

TEST(Trace, RingDropsOldestBeyondCapacity) {
    // Trace events share the journal's bounded ring: beyond capacity the
    // oldest go, and the survivors keep their trace stamps.
    Journal j;
    j.set_enabled(true);
    j.set_capacity(4);
    for (uint64_t i = 1; i <= 6; ++i) {
        TraceContext::Scope scope(TraceContext{i, 2});
        j.record(ev::TimePoint{}, JournalKind::kXrlSend, "", "xrl", "m",
                 "inproc");
    }
    EXPECT_EQ(j.event_count(), 4u);
    EXPECT_EQ(j.dropped(), 2u);
    auto evs = j.events();
    EXPECT_EQ(evs.front().trace, 3u);  // 1 and 2 were dropped
    EXPECT_EQ(evs.back().trace, 6u);
    EXPECT_EQ(evs.back().hop, 2u);
    EXPECT_FALSE(TraceContext::current().valid());  // scopes unwound
}

// ---- the telemetry/1.0 face --------------------------------------------

TEST(TelemetryXrl, SnapshotReachableOnAnyFinalizedTarget) {
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ipc::XrlRouter svc(plexus, "svc", true);
    svc.add_handler("noop/1.0/noop", [](const XrlArgs&, XrlArgs&) {
        return XrlError::okay();
    });
    svc.finalize();  // auto-binds telemetry/1.0
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();

    // Drive one call so per-method counters exist, then snapshot.
    bool done = false;
    client.send(Xrl::generic("svc", "noop", "1.0", "noop", XrlArgs()),
                [&](const XrlError& err, const XrlArgs&) {
                    EXPECT_TRUE(err.ok());
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);

    std::string snapshot;
    done = false;
    client.send(Xrl::generic("svc", "telemetry", "1.0", "snapshot",
                             XrlArgs()),
                [&](const XrlError& err, const XrlArgs& out) {
                    ASSERT_TRUE(err.ok()) << err.str();
                    snapshot = out.get_text("text").value_or("");
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);
    ASSERT_TRUE(done);
    EXPECT_NE(snapshot.find("xrl_calls_total{method=\"noop/1.0/noop\"}"),
              std::string::npos);
    EXPECT_NE(snapshot.find("xrl_sends_total{family=\"inproc\"}"),
              std::string::npos);

    // trace_enable flips tracing and reports the new state.
    done = false;
    XrlArgs on;
    on.add("on", true);
    client.send(Xrl::generic("svc", "telemetry", "1.0", "trace_enable", on),
                [&](const XrlError& err, const XrlArgs& out) {
                    ASSERT_TRUE(err.ok()) << err.str();
                    EXPECT_EQ(out.get_bool("enabled"), true);
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);
    EXPECT_TRUE(telemetry::tracing_enabled());
    telemetry::set_tracing_enabled(false);
}

// ---- the Figures 10-12 chain as one trace ------------------------------

TEST(Trace, BgpRibFeaChainIsOneCausalTrace) {
    // Two routers, a BGP session between them: a route originated at r1
    // arrives at r2's BGP, which sends it to r2's RIB over XRLs, which
    // forwards it to r2's FEA over XRLs — the full Figures 10-12 path.
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    rtrmgr::Router r1("r1", loop), r2("r2", loop);
    std::string err;
    ASSERT_TRUE(r1.configure(R"(
        interfaces { eth0 { address 192.0.2.1/24; } }
        protocols {
            bgp { local-as 1777; bgp-id 192.0.2.1; }
        }
    )",
                             &err))
        << err;
    ASSERT_TRUE(r2.configure(R"(
        interfaces { eth0 { address 192.0.2.2/24; } }
        protocols {
            static { route 192.0.2.0/24 { nexthop 192.0.2.2; } }
            bgp { local-as 3561; bgp-id 192.0.2.2; }
        }
    )",
                             &err))
        << err;
    rtrmgr::Router::connect_bgp(r1, r2);
    loop.run_for(5s);  // establish the session; all of it untraced

    TracingOn tracing;
    ASSERT_NE(r1.bgp(), nullptr);
    r1.bgp()->originate(net::IPv4Net::must_parse("10.99.0.0/16"),
                        net::IPv4::must_parse("192.0.2.1"));

    // The route must appear in r2's FEA (travelled BGP -> RIB -> FEA over
    // XRLs)...
    ASSERT_TRUE(loop.run_until(
        [&] {
            return r2.fea().lookup(net::IPv4::must_parse("10.99.1.2")) !=
                   nullptr;
        },
        60s));

    // ...and the journal must hold ONE trace linking the RIB and FEA
    // dispatches, hops deepening along the chain, with the FIB write
    // stamped at the FEA's hop. (r1 records a separate trace for its own
    // local-origin attempt; only r2's goes to a FEA.)
    const std::vector<JournalEvent> events = Journal::global().events();
    std::map<uint64_t, std::pair<int, int>> hops;  // id -> {rib, fea}
    for (const JournalEvent& ev : events) {
        if (ev.kind != JournalKind::kXrlDispatch) continue;
        auto& [rib_hop, fea_hop] =
            hops.try_emplace(ev.trace, -1, -1).first->second;
        if (contains(ev.subject, "rib/1.0/add_routes_bulk"))
            rib_hop = static_cast<int>(ev.hop);
        if (contains(ev.subject, "fea/1.0/add_routes4_bulk"))
            fea_hop = static_cast<int>(ev.hop);
    }
    uint64_t chain = 0;
    for (const auto& [id, h] : hops)
        if (h.first >= 0 && h.second > h.first) chain = id;
    ASSERT_NE(chain, 0u) << "rib and fea dispatches not causally linked in "
                            "any one trace:\n"
                         << Journal::global().to_jsonl();
    bool fib_add_in_chain = false;
    for (const JournalEvent& ev : events)
        if (ev.kind == JournalKind::kFibAdd && ev.subject == "10.99.0.0/16" &&
            ev.trace == chain &&
            static_cast<int>(ev.hop) == hops[chain].second)
            fib_add_in_chain = true;
    EXPECT_TRUE(fib_add_in_chain) << Journal::global().to_jsonl();
}

// ---- machine-readable trace dump ---------------------------------------

TEST(Trace, JsonlDumpReconstructsRouteAddTimeline) {
    // The paper's Figures 10-12 route-add journey, asserted from the
    // journal's JSON-lines export: it must contain one trace whose
    // dispatch events visit the RIB and then the FEA at deepening hops
    // with non-decreasing timestamps — what journal_dump_json serves.
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    rtrmgr::Router r1("r1", loop), r2("r2", loop);
    std::string err;
    ASSERT_TRUE(r1.configure(R"(
        interfaces { eth0 { address 192.0.2.1/24; } }
        protocols {
            bgp { local-as 1777; bgp-id 192.0.2.1; }
        }
    )",
                             &err))
        << err;
    ASSERT_TRUE(r2.configure(R"(
        interfaces { eth0 { address 192.0.2.2/24; } }
        protocols {
            static { route 192.0.2.0/24 { nexthop 192.0.2.2; } }
            bgp { local-as 3561; bgp-id 192.0.2.2; }
        }
    )",
                             &err))
        << err;
    rtrmgr::Router::connect_bgp(r1, r2);
    loop.run_for(5s);

    TracingOn tracing;
    r1.bgp()->originate(net::IPv4Net::must_parse("10.99.0.0/16"),
                        net::IPv4::must_parse("192.0.2.1"));
    ASSERT_TRUE(loop.run_until(
        [&] {
            return r2.fea().lookup(net::IPv4::must_parse("10.99.1.2")) !=
                   nullptr;
        },
        60s));

    // Per trace id: (hop, t_ns) of the RIB and FEA dispatches.
    struct Legs {
        int64_t rib_hop = -1, fea_hop = -1;
        int64_t rib_t = 0, fea_t = 0;
    };
    std::map<uint64_t, Legs> traces;
    const std::string jsonl = Journal::global().to_jsonl();
    std::istringstream in(jsonl);
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        auto v = json::Value::parse(line);
        ASSERT_TRUE(v.has_value()) << line;
        ++lines;
        if (v->get_string("kind").value_or("") != "xrl_dispatch") continue;
        auto id = static_cast<uint64_t>(v->get_number("trace").value_or(0));
        auto hop = static_cast<int64_t>(v->get_number("hop").value_or(0));
        auto t = static_cast<int64_t>(v->get_number("t_ns").value_or(0));
        const std::string method = v->get_string("subject").value_or("");
        Legs& legs = traces[id];
        if (contains(method, "rib/1.0/add_routes_bulk")) {
            legs.rib_hop = hop;
            legs.rib_t = t;
        }
        if (contains(method, "fea/1.0/add_routes4_bulk")) {
            legs.fea_hop = hop;
            legs.fea_t = t;
        }
    }
    EXPECT_EQ(lines, Journal::global().event_count());
    bool found = false;
    for (const auto& [id, legs] : traces)
        if (legs.rib_hop >= 0 && legs.fea_hop > legs.rib_hop &&
            legs.fea_t >= legs.rib_t)
            found = true;
    EXPECT_TRUE(found) << "no trace with rib -> fea timeline:\n" << jsonl;
}

TEST(TelemetryXrl, TraceAndJournalJsonDumpsOverXrl) {
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ipc::XrlRouter svc(plexus, "svc", true);
    svc.add_handler("noop/1.0/noop", [](const XrlArgs&, XrlArgs&) {
        return XrlError::okay();
    });
    svc.finalize();
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();

    auto rpc = [&](const char* method, XrlArgs in) {
        XrlArgs result;
        bool done = false;
        client.send(Xrl::generic("svc", "telemetry", "1.0", method, in),
                    [&](const XrlError& err, const XrlArgs& out) {
                        EXPECT_TRUE(err.ok()) << method << ": " << err.str();
                        result = out;
                        done = true;
                    });
        EXPECT_TRUE(plexus.loop.run_until([&] { return done; }, 2s));
        return result;
    };

    // Journal and tracing on over XRL, one traced call, then the JSONL
    // dump over XRL: every line is a trace-stamped XRL hop.
    XrlArgs on;
    on.add("on", true);
    XrlArgs off;
    off.add("on", false);
    EXPECT_EQ(rpc("journal_enable", on).get_bool("enabled"), true);
    rpc("journal_clear", XrlArgs());
    EXPECT_EQ(rpc("trace_enable", on).get_bool("enabled"), true);
    bool done = false;
    client.send(Xrl::generic("svc", "noop", "1.0", "noop", XrlArgs()),
                [&](const XrlError& err, const XrlArgs&) {
                    EXPECT_TRUE(err.ok());
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);
    rpc("trace_enable", off);

    XrlArgs dump = rpc("journal_dump_json", XrlArgs());
    std::string text = dump.get_text("text").value_or("");
    ASSERT_FALSE(text.empty());
    std::istringstream in(text);
    std::string line;
    size_t n = 0;
    while (std::getline(in, line)) {
        auto v = json::Value::parse(line);
        ASSERT_TRUE(v.has_value()) << line;
        const std::string kind = v->get_string("kind").value_or("");
        EXPECT_TRUE(kind == "xrl_send" || kind == "xrl_dispatch") << line;
        EXPECT_NE(v->find("trace"), nullptr) << line;
        ++n;
    }
    EXPECT_EQ(n, static_cast<size_t>(
                     dump.get_u32("count").value_or(0)));
    rpc("journal_clear", XrlArgs());

    // Journal: record, dump over XRL, clear over XRL.
    telemetry::Journal::global().record(
        plexus.loop.now(), telemetry::JournalKind::kFibAdd, "r0", "fea",
        "10.0.0.0/24", "192.0.2.1:eth0");
    XrlArgs jd = rpc("journal_dump_json", XrlArgs());
    EXPECT_EQ(jd.get_u32("count").value_or(0), 1u);
    auto jline = json::Value::parse(jd.get_text("text").value_or(""));
    ASSERT_TRUE(jline.has_value());
    EXPECT_EQ(jline->get_string("kind").value_or(""), "fib_add");
    rpc("journal_enable", off);
    rpc("journal_clear", XrlArgs());
    EXPECT_EQ(telemetry::Journal::global().event_count(), 0u);
}

// ---- histogram CDF exposition ------------------------------------------

TEST(Metrics, HistogramCdfIsCumulativeAndExposed) {
    Registry reg;
    reg.set_enabled(true);
    auto* h = reg.histogram("cdf_test_ns");
    // 3 obs in the [1,1] decade-ish bucket, 2 in a higher one.
    h->observe(ev::Duration(1));
    h->observe(ev::Duration(1));
    h->observe(ev::Duration(1));
    h->observe(ev::Duration(1000));
    h->observe(ev::Duration(1000));

    auto cdf = h->cdf();
    ASSERT_GE(cdf.size(), 2u);
    // Cumulative counts are non-decreasing and end at the total.
    uint64_t prev = 0;
    for (const auto& p : cdf) {
        EXPECT_GE(p.cum, prev);
        prev = p.cum;
    }
    EXPECT_EQ(cdf.back().cum, 5u);
    // First occupied bucket holds the three 1ns observations.
    EXPECT_EQ(cdf.front().cum, 3u);
    EXPECT_GE(cdf.front().le_ns, 1u);

    // Exposition carries the cumulative buckets, ending at +Inf.
    std::string text = reg.expose();
    EXPECT_NE(text.find("cdf_test_ns_bucket{le=\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("cdf_test_ns_bucket{le=\"+Inf\"} 5"),
              std::string::npos)
        << text;
}
