// Observatory tests: the structured event journal (ordering, bounded
// ring, JSON-lines export) and the convergence analyzer checked against
// hand-built oracle timelines where every window edge is known exactly,
// plus a golden schema test pinning the BENCH_scenarios.json envelope.
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "sim/analyzer.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/json.hpp"

using namespace xrp;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;
using sim::AnalyzerFib;
using sim::ConvergenceAnalyzer;
using telemetry::Journal;
using telemetry::JournalEvent;
using telemetry::JournalKind;

namespace {

// The journal is process-global; scope enablement and restore defaults so
// tests cannot leak state into each other.
class JournalOn {
public:
    JournalOn() {
        Journal::global().clear();
        Journal::global().set_capacity(Journal::kDefaultCapacity);
        Journal::global().set_enabled(true);
    }
    ~JournalOn() {
        Journal::global().set_enabled(false);
        Journal::global().clear();
        Journal::global().set_capacity(Journal::kDefaultCapacity);
    }
};

ev::TimePoint at(int64_t s) { return ev::TimePoint{} + std::chrono::seconds(s); }

// ---- shared 3-node line: r0 --(e0)-- r1 --(e1)-- r2[stub] --------------
//
// Addresses: link0 10.1.0.0/24 (r0=.1, r1=.2), link1 10.1.1.0/24
// (r1=.1, r2=.2), beacon stub 10.240.0.0/24 on r2, probed at .10.
struct Line3 {
    ConvergenceAnalyzer::Topology topo;
    ConvergenceAnalyzer::Oracle oracle;
    size_t e0 = 0, e1 = 0;
    IPv4Net beacon_net = IPv4Net::must_parse("10.240.0.0/24");
    IPv4 beacon = IPv4::must_parse("10.240.0.10");
    std::vector<ConvergenceAnalyzer::Beacon> beacons;
    std::vector<AnalyzerFib> fibs;

    Line3() {
        topo.node_count = 3;
        topo.node_index = {{"r0", 0}, {"r1", 1}, {"r2", 2}};
        topo.addr_owner = {{IPv4::must_parse("10.1.0.1"), 0},
                           {IPv4::must_parse("10.1.0.2"), 1},
                           {IPv4::must_parse("10.1.1.1"), 1},
                           {IPv4::must_parse("10.1.1.2"), 2}};
        topo.attached = {{IPv4Net::must_parse("10.1.0.0/24")},
                         {IPv4Net::must_parse("10.1.0.0/24"),
                          IPv4Net::must_parse("10.1.1.0/24")},
                         {IPv4Net::must_parse("10.1.1.0/24"), beacon_net}};
        e0 = oracle.add_edge(0, 1);
        e1 = oracle.add_edge(1, 2);
        beacons.push_back({beacon, 2});
        // Converged forwarding state: r0 and r1 both route the beacon.
        fibs.resize(3);
        fibs[0][beacon_net] = net::NexthopSet4::single(IPv4::must_parse("10.1.0.2"));
        fibs[1][beacon_net] = net::NexthopSet4::single(IPv4::must_parse("10.1.1.2"));
    }

    JournalEvent fib_add(int64_t s, const char* node, IPv4 nexthop) {
        JournalEvent e;
        e.t = at(s);
        e.kind = JournalKind::kFibAdd;
        e.node = node;
        e.component = "fea";
        e.subject = beacon_net.str();
        e.detail = nexthop.str() + ":eth0";
        return e;
    }
    JournalEvent fib_delete(int64_t s, const char* node) {
        JournalEvent e;
        e.t = at(s);
        e.kind = JournalKind::kFibDelete;
        e.node = node;
        e.component = "fea";
        e.subject = beacon_net.str();
        return e;
    }
};

}  // namespace

// ---- journal -----------------------------------------------------------

TEST(Journal, InterleavedComponentsKeepAppendOrder) {
    JournalOn scope;
    Journal& j = Journal::global();
    // Three components interleaving appends, timestamps non-decreasing —
    // the single-VirtualClock situation the analyzer relies on.
    const char* comps[] = {"rib", "fea", "ospf"};
    const JournalKind kinds[] = {JournalKind::kRouteInstall,
                                 JournalKind::kFibAdd,
                                 JournalKind::kLsaFlood};
    for (int i = 0; i < 30; ++i)
        j.record(at(i / 3), kinds[i % 3], "r0", comps[i % 3],
                 "10.0.0.0/24", "x", i);

    auto evs = j.events();
    ASSERT_EQ(evs.size(), 30u);
    for (size_t i = 1; i < evs.size(); ++i) {
        EXPECT_GT(evs[i].seq, evs[i - 1].seq) << i;
        EXPECT_GE(evs[i].t, evs[i - 1].t) << i;
    }
    // Append order preserved per component too (value carries i).
    for (size_t i = 0; i < evs.size(); ++i) {
        EXPECT_EQ(evs[i].value, static_cast<int64_t>(i));
        EXPECT_EQ(evs[i].component, comps[i % 3]);
    }
    EXPECT_EQ(j.dropped(), 0u);
}

TEST(Journal, BoundedRingKeepsNewestAndCountsDropped) {
    JournalOn scope;
    Journal& j = Journal::global();
    j.set_capacity(8);
    for (int i = 0; i < 20; ++i)
        j.record(at(i), JournalKind::kFibAdd, "r0", "fea", "10.0.0.0/24",
                 "", i);
    EXPECT_EQ(j.event_count(), 8u);
    EXPECT_EQ(j.dropped(), 12u);
    auto evs = j.events();
    ASSERT_EQ(evs.size(), 8u);
    // The newest 8, still in append order, seq contiguous.
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(evs[i].value, static_cast<int64_t>(12 + i));
    for (size_t i = 1; i < 8; ++i)
        EXPECT_EQ(evs[i].seq, evs[i - 1].seq + 1);
}

TEST(Journal, DisabledRecordsNothing) {
    JournalOn scope;
    Journal& j = Journal::global();
    j.set_enabled(false);
    j.record(at(1), JournalKind::kDeath, "r0", "supervisor", "ospf");
    EXPECT_EQ(j.event_count(), 0u);
}

TEST(Journal, JsonlExportParsesLineByLine) {
    JournalOn scope;
    Journal& j = Journal::global();
    j.record(at(1), JournalKind::kFibAdd, "r3", "fea", "10.2.0.0/24",
             "10.1.0.2:eth1", 0);
    j.record(at(2), JournalKind::kCallRetry, "r3", "ipc", "rib",
             "rib/1.0/add_route", 2);
    std::string jsonl = j.to_jsonl();
    std::istringstream in(jsonl);
    std::string line;
    size_t n = 0;
    std::vector<std::string> kinds;
    while (std::getline(in, line)) {
        auto v = json::Value::parse(line);
        ASSERT_TRUE(v.has_value()) << line;
        ASSERT_TRUE(v->is_object());
        EXPECT_NE(v->find("seq"), nullptr);
        EXPECT_NE(v->find("t_ns"), nullptr);
        ASSERT_NE(v->find("kind"), nullptr);
        EXPECT_EQ(v->get_string("node").value_or(""), "r3");
        kinds.push_back(v->get_string("kind").value_or(""));
        ++n;
    }
    ASSERT_EQ(n, 2u);
    // Stable machine-readable kind names: committed scenario output
    // references these strings.
    EXPECT_EQ(kinds[0], "fib_add");
    EXPECT_EQ(kinds[1], "call_retry");
}

TEST(Journal, JsonlReaderRoundTripsAndCountsMalformedLines) {
    JournalOn scope;
    Journal& j = Journal::global();
    j.record(at(1), JournalKind::kFibAdd, "r3", "fea", "10.2.0.0/24",
             "10.1.0.2:eth1", 0);
    {
        telemetry::TraceContext::Scope trace(telemetry::TraceContext{42, 2});
        j.record(at(2), JournalKind::kXrlDispatch, "", "xrl",
                 "fea/1.0/add_route4#k", "stcp", -7);
    }
    const std::vector<JournalEvent> want = j.events();
    std::vector<JournalEvent> got;
    const std::string text = "garbage\n" + j.to_jsonl() +
                             "{\"kind\":\"no_such_kind\",\"t_ns\":1}\n"
                             "{\"kind\":\"fib_add\",\"t_ns\":1e300}\n\n";
    EXPECT_EQ(telemetry::parse_jsonl(text, got), 3u);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i].to_json(), want[i].to_json());
    EXPECT_EQ(got[1].trace, 42u);
    EXPECT_EQ(got[1].hop, 2u);
}

// Integers above 2^53 (a monotonic stamp after ~104 days of uptime, a
// large trace id) are not exact as doubles: the reader keeps them exact,
// and refuses a number it could only round.
TEST(Journal, JsonlReaderKeepsLargeIntegersExact) {
    JournalOn scope;
    Journal& j = Journal::global();
    constexpr int64_t kT = (int64_t{1} << 53) + 1;
    constexpr uint64_t kTrace = (uint64_t{1} << 53) + 3;
    {
        telemetry::TraceContext::Scope trace(telemetry::TraceContext{kTrace, 1});
        j.record(ev::TimePoint(ev::Duration(kT)), JournalKind::kFibAdd, "r1",
                 "fea", "10.0.0.0/8");
    }
    std::vector<JournalEvent> got;
    const std::string text =
        j.to_jsonl() +
        "{\"kind\":\"fib_add\",\"t_ns\":9007199254740993.5}\n"
        "{\"kind\":\"fib_add\",\"t_ns\":1e17}\n"
        "{\"kind\":\"fib_add\",\"t_ns\":1,\"seq\":-1}\n"
        "{\"kind\":\"fib_add\",\"t_ns\":99999999999999999999}\n";
    EXPECT_EQ(telemetry::parse_jsonl(text, got), 4u);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].t.time_since_epoch().count(), kT);
    EXPECT_EQ(got[0].trace, kTrace);
    EXPECT_EQ(got[0].to_json(), j.events()[0].to_json());
}

namespace {

// One seeded mutation of `text`: byte flips, inserts (biased towards
// JSON structure and line breaks), truncations and slice duplications.
std::string mutate(const std::string& text, std::mt19937& rng) {
    static const char kStructural[] = "{}[]\",:\\\n0-e.u";
    std::string out = text;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < edits && !out.empty(); ++k) {
        const size_t at = rng() % out.size();
        switch (rng() % 4) {
        case 0:
            out[at] = static_cast<char>(out[at] ^ (1u << (rng() % 8)));
            break;
        case 1:
            out.insert(out.begin() + static_cast<long>(at),
                       kStructural[rng() % (sizeof kStructural - 1)]);
            break;
        case 2:
            out.resize(at);
            break;
        default: {
            const size_t len = rng() % (out.size() - at) + 1;
            out.insert(at, out.substr(at, len));
            break;
        }
        }
    }
    return out;
}

// Nodes plus string bytes a parsed document holds: the parser's memory
// is bounded by its input when this never exceeds the input's size.
size_t footprint(const json::Value& v) {
    size_t n = 1 + v.as_string().size();
    for (const json::Value& item : v.items()) n += footprint(item);
    for (const auto& [key, member] : v.members())
        n += key.size() + footprint(member);
    return n;
}

std::string seed_jsonl() {
    Journal j;
    j.set_enabled(true);
    j.record(at(1), JournalKind::kRouteInstall, "r1", "rib", "10.0.0.0/8",
             "static:192.0.2.9", 1);
    telemetry::TraceContext::Scope trace(telemetry::TraceContext{7, 1});
    j.record(at(2), JournalKind::kXrlDispatch, "", "xrl",
             "rib/1.0/add_route", "stcp");
    j.record(at(3), JournalKind::kFibAdd, "r1", "fea", "10.0.0.0/8",
             "192.0.2.9:eth0 \"quoted\" \\ \u00e9");
    return j.to_jsonl();
}

}  // namespace

// Seeded mutation fuzz of the line reader ProcessRouter::journal_timeline
// runs over other processes' journal_dump_json: every non-empty line is
// either one event or one counted malformed line, no event outgrows its
// line, and nothing crashes (ci.sh runs this under ASan+UBSan).
TEST(Journal, JsonlReaderSurvivesSeededMutations) {
    const std::string valid = seed_jsonl();
    std::mt19937 rng(1777);
    size_t accepted = 0;
    size_t rejected = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        const std::string text = mutate(valid, rng);
        size_t lines = 0;
        std::istringstream in(text);
        for (std::string line; std::getline(in, line);)
            if (!line.empty()) ++lines;
        std::vector<JournalEvent> events;
        const size_t malformed = telemetry::parse_jsonl(text, events);
        ASSERT_EQ(events.size() + malformed, lines) << "iteration " << iter;
        size_t bytes = 0;
        for (const JournalEvent& e : events)
            bytes += e.node.size() + e.component.size() + e.subject.size() +
                     e.detail.size();
        ASSERT_LE(bytes, text.size()) << "iteration " << iter;
        accepted += events.size();
        rejected += malformed;
    }
    // The fuzz must reach both the accept and the reject path.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(Json, ParseSurvivesSeededMutations) {
    const std::string doc =
        R"({"schema":"xrp-bench-v1","meta":{"nproc":4,"ok":true,)"
        R"("none":null},"rows":[{"figure":"fig10","avg_ms":0.0751,)"
        R"("cdf":[1,5,1e-3,-2.5E+2,[[[]]],{}],"s":"a\"b\\c\u00e9\n"}]})";
    ASSERT_TRUE(json::Value::parse(doc).has_value());
    std::mt19937 rng(2005);
    size_t accepted = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        const std::string text = mutate(doc, rng);
        auto v = json::Value::parse(text);
        if (!v) continue;
        ++accepted;
        ASSERT_LE(footprint(*v), text.size()) << "iteration " << iter;
    }
    EXPECT_GT(accepted, 0u);
}

// ---- analyzer vs hand-built timelines ----------------------------------

TEST(Analyzer, BlackholeWindowMatchesOracleTimeline) {
    Line3 net;
    // r1 loses its beacon route at t=10s and regains it at t=15s; the
    // physical topology never changes, so exactly [10s,15s] is a
    // transient blackhole for the r0 probe.
    std::vector<JournalEvent> events = {net.fib_delete(10, "r1"),
                                        net.fib_add(15, "r1",
                                                    IPv4::must_parse(
                                                        "10.1.1.2"))};
    auto rep = ConvergenceAnalyzer::analyze(net.topo, net.oracle, events,
                                            net.beacons, {0}, net.fibs,
                                            at(0), at(30));
    EXPECT_TRUE(rep.converged);
    ASSERT_EQ(rep.blackhole_windows.size(), 1u);
    EXPECT_EQ(rep.blackhole_windows[0].begin, at(10));
    EXPECT_EQ(rep.blackhole_windows[0].end, at(15));
    EXPECT_EQ(rep.total_blackhole(), 5s);
    EXPECT_TRUE(rep.loop_windows.empty());
    EXPECT_EQ(rep.converged_at, at(15));
    EXPECT_EQ(rep.fib_events, 2u);
}

TEST(Analyzer, LoopWindowMatchesOracleTimeline) {
    Line3 net;
    // r1's beacon route points back at r0 during [10s,12s): r0 -> r1 ->
    // r0 is a forwarding loop, not a blackhole.
    std::vector<JournalEvent> events = {
        net.fib_add(10, "r1", IPv4::must_parse("10.1.0.1")),
        net.fib_add(12, "r1", IPv4::must_parse("10.1.1.2"))};
    auto rep = ConvergenceAnalyzer::analyze(net.topo, net.oracle, events,
                                            net.beacons, {0}, net.fibs,
                                            at(0), at(30));
    EXPECT_TRUE(rep.converged);
    EXPECT_TRUE(rep.blackhole_windows.empty());
    ASSERT_EQ(rep.loop_windows.size(), 1u);
    EXPECT_EQ(rep.loop_windows[0].begin, at(10));
    EXPECT_EQ(rep.loop_windows[0].end, at(12));
    EXPECT_EQ(rep.total_loop(), 2s);
}

TEST(Analyzer, PartitionedOracleExcusesTheBlackhole) {
    Line3 net;
    // The r1--r2 link is physically down over [10s,20s] and r1's route is
    // gone for the same interval. Unreachable per the oracle means no
    // blackhole is charged: the data plane cannot beat physics.
    net.oracle.set_edge_up(at(10), net.e1, false);
    net.oracle.set_edge_up(at(20), net.e1, true);
    std::vector<JournalEvent> events = {net.fib_delete(10, "r1"),
                                        net.fib_add(20, "r1",
                                                    IPv4::must_parse(
                                                        "10.1.1.2"))};
    auto rep = ConvergenceAnalyzer::analyze(net.topo, net.oracle, events,
                                            net.beacons, {0}, net.fibs,
                                            at(0), at(30));
    EXPECT_TRUE(rep.converged);
    EXPECT_TRUE(rep.blackhole_windows.empty()) << rep.blackhole_windows.size();
    EXPECT_TRUE(rep.loop_windows.empty());
}

TEST(Analyzer, SlowReconvergenceAfterRepairIsCharged) {
    Line3 net;
    // Same partition, but the FIB comes back 4s after the link does:
    // those 4 seconds are a real blackhole window.
    net.oracle.set_edge_up(at(10), net.e1, false);
    net.oracle.set_edge_up(at(20), net.e1, true);
    std::vector<JournalEvent> events = {net.fib_delete(10, "r1"),
                                        net.fib_add(24, "r1",
                                                    IPv4::must_parse(
                                                        "10.1.1.2"))};
    auto rep = ConvergenceAnalyzer::analyze(net.topo, net.oracle, events,
                                            net.beacons, {0}, net.fibs,
                                            at(0), at(30));
    EXPECT_TRUE(rep.converged);
    ASSERT_EQ(rep.blackhole_windows.size(), 1u);
    EXPECT_EQ(rep.blackhole_windows[0].begin, at(20));
    EXPECT_EQ(rep.blackhole_windows[0].end, at(24));
    EXPECT_EQ(rep.total_blackhole(), 4s);
    EXPECT_EQ(rep.converged_at, at(24));
}

TEST(Analyzer, WalkDetectsDeliveryBlackholeAndLoop) {
    Line3 net;
    auto up = [](size_t, size_t) { return true; };
    EXPECT_EQ(ConvergenceAnalyzer::walk(net.topo, net.fibs, 0, net.beacon,
                                        up),
              ConvergenceAnalyzer::WalkResult::kDelivered);
    std::vector<AnalyzerFib> noroute = net.fibs;
    noroute[1].clear();
    EXPECT_EQ(ConvergenceAnalyzer::walk(net.topo, noroute, 0, net.beacon,
                                        up),
              ConvergenceAnalyzer::WalkResult::kBlackhole);
    std::vector<AnalyzerFib> looped = net.fibs;
    looped[1][net.beacon_net] = net::NexthopSet4::single(IPv4::must_parse("10.1.0.1"));
    EXPECT_EQ(ConvergenceAnalyzer::walk(net.topo, looped, 0, net.beacon,
                                        up),
              ConvergenceAnalyzer::WalkResult::kLoop);
    // A dead first hop is a blackhole even with a route present.
    auto down = [](size_t, size_t) { return false; };
    EXPECT_EQ(ConvergenceAnalyzer::walk(net.topo, net.fibs, 0, net.beacon,
                                        down),
              ConvergenceAnalyzer::WalkResult::kBlackhole);
}

TEST(Analyzer, EcmpFanoutWalkChargesNoFalseWindows) {
    // Diamond: r0 forks over {r1, r2}, both rejoin at r3 which owns the
    // beacon. r0's FIB entry is a genuine 2-member NexthopSet; the walk
    // must follow the rendezvous pick (not flag the fork as a loop) and
    // the analyzer must parse multipath fib_add details ('|'-joined
    // members) without inventing blackhole windows.
    ConvergenceAnalyzer::Topology topo;
    topo.node_count = 4;
    topo.node_index = {{"r0", 0}, {"r1", 1}, {"r2", 2}, {"r3", 3}};
    IPv4Net beacon_net = IPv4Net::must_parse("10.240.0.0/24");
    IPv4 beacon = IPv4::must_parse("10.240.0.10");
    struct Wire { const char* a; const char* b; size_t na, nb; };
    // l0 r0-r1, l1 r0-r2, l2 r1-r3, l3 r2-r3; a-side .1, b-side .2.
    Wire wires[] = {{"10.1.0.1", "10.1.0.2", 0, 1},
                    {"10.1.1.1", "10.1.1.2", 0, 2},
                    {"10.1.2.1", "10.1.2.2", 1, 3},
                    {"10.1.3.1", "10.1.3.2", 2, 3}};
    topo.attached.resize(4);
    for (const Wire& w : wires) {
        IPv4 a = IPv4::must_parse(w.a), b = IPv4::must_parse(w.b);
        topo.addr_owner[a] = w.na;
        topo.addr_owner[b] = w.nb;
        topo.attached[w.na].push_back(IPv4Net(a, 24));
        topo.attached[w.nb].push_back(IPv4Net(b, 24));
    }
    topo.attached[3].push_back(beacon_net);
    ConvergenceAnalyzer::Oracle oracle;
    size_t e0 = oracle.add_edge(0, 1);
    oracle.add_edge(0, 2);
    oracle.add_edge(1, 3);
    oracle.add_edge(2, 3);
    std::vector<ConvergenceAnalyzer::Beacon> beacons = {{beacon, 3}};

    std::vector<AnalyzerFib> fibs(4);
    net::NexthopSet4 fork;
    fork.insert(IPv4::must_parse("10.1.0.2"));
    fork.insert(IPv4::must_parse("10.1.1.2"));
    fibs[0][beacon_net] = fork;
    fibs[1][beacon_net] =
        net::NexthopSet4::single(IPv4::must_parse("10.1.2.2"));
    fibs[2][beacon_net] =
        net::NexthopSet4::single(IPv4::must_parse("10.1.3.2"));

    // The fork itself is not a loop and both branches deliver.
    auto up = [](size_t, size_t) { return true; };
    EXPECT_EQ(ConvergenceAnalyzer::walk(topo, fibs, 0, beacon, up),
              ConvergenceAnalyzer::WalkResult::kDelivered);

    // Timeline: at t=10 the r0-r1 link dies and r0's FIB is replaced by
    // the surviving member in the same instant (the multipath detail is
    // the '|'-joined member list the sim FEA journals). No probe ever
    // sees a dead entry, so no window may be charged.
    auto fib_add = [&](int64_t s, const char* detail) {
        JournalEvent e;
        e.t = at(s);
        e.kind = JournalKind::kFibAdd;
        e.node = "r0";
        e.component = "fea";
        e.subject = beacon_net.str();
        e.detail = detail;
        return e;
    };
    oracle.set_edge_up(at(10), e0, false);
    std::vector<JournalEvent> events = {
        fib_add(5, "10.1.0.2:eth0|10.1.1.2:eth1"),
        fib_add(10, "10.1.1.2:eth1")};
    auto rep = ConvergenceAnalyzer::analyze(topo, oracle, events, beacons,
                                            {0}, fibs, at(0), at(30));
    EXPECT_TRUE(rep.converged);
    EXPECT_TRUE(rep.blackhole_windows.empty()) << rep.blackhole_windows.size();
    EXPECT_TRUE(rep.loop_windows.empty()) << rep.loop_windows.size();
    EXPECT_EQ(rep.fib_events, 2u);
}

// ---- BENCH_scenarios.json golden schema --------------------------------

namespace {

// One real (smoke-run) envelope, abbreviated to a single row. Pins the
// machine-readable contract: schema tag, envelope members, and the exact
// per-cell column set. scenario_runner must keep emitting this shape, and
// bench/validate_bench.cpp enforces it against live output in CI.
constexpr const char* kScenariosGolden = R"({
  "schema": "xrp-bench-v1",
  "bench": "scenarios",
  "meta": {"quick": false, "smoke": true},
  "rows": [
    {"family": "grid", "schedule": "link_flap", "routers": 16, "links": 24,
     "converged": true, "convergence_ms": 90210, "blackhole_ms": 840,
     "loop_ms": 0, "blackhole_windows": 4, "loop_windows": 0,
     "fib_events": 364, "route_events": 451, "flood_events": 180,
     "journal_events": 995, "journal_dropped": 0, "net_msgs": 2596,
     "net_bytes": 435912, "virtual_s": 275, "cpu_ms": 812.5,
     "max_rss_kb": 48216}
  ]
})";

}  // namespace

TEST(BenchSchema, ScenariosGoldenEnvelopeAndColumns) {
    auto doc = json::Value::parse(kScenariosGolden);
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->is_object());
    EXPECT_EQ(doc->get_string("schema").value_or(""), "xrp-bench-v1");
    EXPECT_EQ(doc->get_string("bench").value_or(""), "scenarios");
    const json::Value* meta = doc->find("meta");
    ASSERT_NE(meta, nullptr);
    ASSERT_TRUE(meta->is_object());
    const json::Value* rows = doc->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_TRUE(rows->is_array());
    ASSERT_GT(rows->size(), 0u);

    const std::set<std::string> required = {
        "family",          "schedule",     "routers",
        "links",           "converged",    "convergence_ms",
        "blackhole_ms",    "loop_ms",      "blackhole_windows",
        "loop_windows",    "fib_events",   "route_events",
        "flood_events",    "journal_events", "journal_dropped",
        "net_msgs",        "net_bytes",    "virtual_s",
        "cpu_ms",          "max_rss_kb"};
    for (const json::Value& row : rows->items()) {
        ASSERT_TRUE(row.is_object());
        std::set<std::string> keys;
        for (const auto& [k, v] : row.members()) {
            keys.insert(k);
            EXPECT_TRUE(v.is_number() || v.is_string() || v.is_bool()) << k;
        }
        EXPECT_EQ(keys, required);
    }
}
