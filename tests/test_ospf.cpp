// Tests for OSPF: packet/LSA codecs, LSDB freshness and aging, SPF
// correctness (hand-built topologies, a brute-force oracle, and
// full-vs-incremental equivalence under random mutation), and whole
// protocol runs over the virtual network — adjacency bring-up and
// teardown, flooding across a triangle, MaxAge purge, DR election on a
// LAN, and RIB convergence after cost changes and link flaps.
#include <gtest/gtest.h>

#include <random>

#include "fea/simnet.hpp"
#include "ospf/ospf.hpp"
#include "sim/ospf_topology.hpp"
#include "telemetry/metrics.hpp"

using namespace xrp;
using namespace xrp::ospf;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;

namespace {

Lsa router_lsa(IPv4 id, std::vector<RouterLink> links, uint32_t seq = 1) {
    Lsa l;
    l.type = LsaType::kRouter;
    l.id = id;
    l.adv_router = id;
    l.seq = seq;
    l.links = std::move(links);
    return l;
}

Lsa network_lsa(IPv4 dr_addr, IPv4 adv, uint8_t mask_len,
                std::vector<IPv4> attached, uint32_t seq = 1) {
    Lsa l;
    l.type = LsaType::kNetwork;
    l.id = dr_addr;
    l.adv_router = adv;
    l.seq = seq;
    l.mask_len = mask_len;
    l.attached = std::move(attached);
    return l;
}

RouterLink p2p(IPv4 neighbor, IPv4 own_addr, uint32_t metric) {
    return {LinkType::kPointToPoint, neighbor, own_addr, metric};
}
RouterLink stub_link(const IPv4Net& net, uint32_t metric) {
    return {LinkType::kStub, net.masked_addr(),
            IPv4::make_prefix(net.prefix_len()), metric};
}
RouterLink transit(IPv4 dr_addr, IPv4 own_addr, uint32_t metric) {
    return {LinkType::kTransit, dr_addr, own_addr, metric};
}

std::map<IPv4Net, uint32_t> cost_map(const RouteMap& routes) {
    std::map<IPv4Net, uint32_t> m;
    for (const auto& [net, r] : routes) m[net] = r.cost;
    return m;
}

}  // namespace

// ---- codecs ---------------------------------------------------------------

TEST(OspfPacket, HelloRoundTrip) {
    OspfPacket p;
    p.type = PacketType::kHello;
    p.router_id = IPv4::must_parse("1.1.1.1");
    p.hello.hello_interval = 10;
    p.hello.dead_interval = 40;
    p.hello.dr = IPv4::must_parse("10.0.0.2");
    p.hello.neighbors = {IPv4::must_parse("2.2.2.2"),
                         IPv4::must_parse("3.3.3.3")};
    auto bytes = encode_packet(p);
    auto back = decode_packet(bytes.data(), bytes.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
}

TEST(OspfPacket, DbDescAndAckRoundTrip) {
    OspfPacket p;
    p.type = PacketType::kDbDesc;
    p.router_id = IPv4::must_parse("2.2.2.2");
    p.headers.push_back({LsaType::kRouter, IPv4::must_parse("1.1.1.1"),
                         IPv4::must_parse("1.1.1.1"), 7, 12});
    p.headers.push_back({LsaType::kNetwork, IPv4::must_parse("10.0.0.2"),
                         IPv4::must_parse("2.2.2.2"), 3, 900});
    auto bytes = encode_packet(p);
    auto back = decode_packet(bytes.data(), bytes.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);

    p.type = PacketType::kLsAck;
    bytes = encode_packet(p);
    back = decode_packet(bytes.data(), bytes.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
}

TEST(OspfPacket, RequestAndUpdateRoundTrip) {
    OspfPacket req;
    req.type = PacketType::kLsRequest;
    req.router_id = IPv4::must_parse("3.3.3.3");
    req.requests.push_back({LsaType::kRouter, IPv4::must_parse("1.1.1.1"),
                            IPv4::must_parse("1.1.1.1")});
    auto bytes = encode_packet(req);
    auto back = decode_packet(bytes.data(), bytes.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, req);

    OspfPacket upd;
    upd.type = PacketType::kLsUpdate;
    upd.router_id = IPv4::must_parse("1.1.1.1");
    Lsa r = router_lsa(
        IPv4::must_parse("1.1.1.1"),
        {p2p(IPv4::must_parse("2.2.2.2"), IPv4::must_parse("10.0.1.1"), 3),
         transit(IPv4::must_parse("10.0.2.2"), IPv4::must_parse("10.0.2.1"),
                 1),
         stub_link(IPv4Net::must_parse("172.16.0.0/24"), 2)},
        9);
    r.age = 17;
    upd.lsas.push_back(r);
    upd.lsas.push_back(network_lsa(IPv4::must_parse("10.0.2.2"),
                                   IPv4::must_parse("2.2.2.2"), 24,
                                   {IPv4::must_parse("1.1.1.1"),
                                    IPv4::must_parse("2.2.2.2")},
                                   4));
    bytes = encode_packet(upd);
    back = decode_packet(bytes.data(), bytes.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, upd);
}

TEST(OspfPacket, DecodeRejectsMalformed) {
    EXPECT_FALSE(decode_packet(nullptr, 0).has_value());
    std::vector<uint8_t> tiny = {1, 2};
    EXPECT_FALSE(decode_packet(tiny.data(), tiny.size()).has_value());

    OspfPacket p;
    p.type = PacketType::kHello;
    p.router_id = IPv4::must_parse("1.1.1.1");
    p.hello.neighbors = {IPv4::must_parse("2.2.2.2")};
    auto bytes = encode_packet(p);
    // Truncated.
    auto cut = bytes;
    cut.pop_back();
    EXPECT_FALSE(decode_packet(cut.data(), cut.size()).has_value());
    // Trailing garbage.
    auto padded = bytes;
    padded.push_back(0xff);
    EXPECT_FALSE(decode_packet(padded.data(), padded.size()).has_value());
    // Unknown packet type.
    auto bad = bytes;
    bad[0] = 99;
    EXPECT_FALSE(decode_packet(bad.data(), bad.size()).has_value());
}

// ---- freshness and the LSDB ----------------------------------------------

TEST(OspfLsa, FreshnessSeqDominatesMaxAgeBreaksTies) {
    Lsa a = router_lsa(IPv4::must_parse("1.1.1.1"), {}, 5);
    Lsa b = router_lsa(IPv4::must_parse("1.1.1.1"), {}, 6);
    EXPECT_LT(compare_freshness(a, 0, b, 0, 3600), 0);
    EXPECT_GT(compare_freshness(b, 0, a, 3500, 3600), 0);  // seq beats age
    // Same seq: the MaxAge copy (premature aging) is fresher.
    EXPECT_GT(compare_freshness(a, 3600, a, 10, 3600), 0);
    EXPECT_LT(compare_freshness(a, 10, a, 3600, 3600), 0);
    EXPECT_EQ(compare_freshness(a, 10, a, 20, 3600), 0);
}

TEST(OspfLsdb, InstallIsTheFreshnessGate) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Lsdb db(loop);
    IPv4 rid = IPv4::must_parse("1.1.1.1");
    IPv4Net pfx = IPv4Net::must_parse("172.16.0.0/24");

    Lsa v1 = router_lsa(rid, {stub_link(pfx, 1)}, 1);
    auto res = db.install(v1);
    EXPECT_TRUE(res.installed);
    EXPECT_TRUE(res.content_changed);
    EXPECT_EQ(db.size(), 1u);

    // Stale instance: rejected outright.
    res = db.install(v1);
    EXPECT_FALSE(res.installed);

    // Refresh: new seq, same topology — installed but no content change,
    // so the SPF scheduler can skip it.
    Lsa v2 = router_lsa(rid, {stub_link(pfx, 1)}, 2);
    res = db.install(v2);
    EXPECT_TRUE(res.installed);
    EXPECT_FALSE(res.content_changed);

    // Real change: both flags.
    Lsa v3 = router_lsa(rid, {stub_link(pfx, 9)}, 3);
    res = db.install(v3);
    EXPECT_TRUE(res.installed);
    EXPECT_TRUE(res.content_changed);
    EXPECT_EQ(db.lookup(v3.key())->links[0].metric, 9u);
}

TEST(OspfLsdb, AgesOnTheClockAndPurgesAtMaxAge) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Lsdb db(loop, /*max_age_secs=*/60);
    Lsa l = router_lsa(IPv4::must_parse("1.1.1.1"), {}, 1);
    l.age = 10;
    ASSERT_TRUE(db.install(l).installed);
    EXPECT_EQ(db.current_age(l.key()), 10u);
    loop.run_for(25s);
    EXPECT_EQ(db.current_age(l.key()), 35u);
    EXPECT_TRUE(db.purge_expired().empty());
    loop.run_for(30s);  // 10 + 55 > 60: saturates and expires
    EXPECT_EQ(db.current_age(l.key()), 60u);
    auto purged = db.purge_expired();
    ASSERT_EQ(purged.size(), 1u);
    EXPECT_EQ(purged[0], l.key());
    EXPECT_EQ(db.size(), 0u);
}

// ---- SPF: hand-built topologies -------------------------------------------

TEST(OspfSpf, PointToPointLineCostsAndNexthops) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Lsdb db(loop);
    IPv4 a = IPv4::must_parse("1.1.1.1");
    IPv4 b = IPv4::must_parse("2.2.2.2");
    IPv4 c = IPv4::must_parse("3.3.3.3");
    // A --1-- B --2-- C, a /24 stub on each.
    db.install(router_lsa(
        a, {p2p(b, IPv4::must_parse("10.0.1.1"), 1),
            stub_link(IPv4Net::must_parse("172.16.0.0/24"), 1)}));
    db.install(router_lsa(
        b, {p2p(a, IPv4::must_parse("10.0.1.2"), 1),
            p2p(c, IPv4::must_parse("10.0.2.1"), 2),
            stub_link(IPv4Net::must_parse("172.16.1.0/24"), 1)}));
    db.install(router_lsa(
        c, {p2p(b, IPv4::must_parse("10.0.2.2"), 2),
            stub_link(IPv4Net::must_parse("172.16.2.0/24"), 1)}));

    SpfEngine e;
    e.set_root(a);
    const RouteMap& routes = e.run_full(db);
    ASSERT_EQ(routes.size(), 3u);
    // Root's own stub: reachable at its metric, no nexthop.
    EXPECT_EQ(routes.at(IPv4Net::must_parse("172.16.0.0/24")),
              (SpfRoute{1, IPv4::any()}));
    // B's stub: one hop; the nexthop is B's address on the shared link
    // (a single-member successor set).
    EXPECT_EQ(routes.at(IPv4Net::must_parse("172.16.1.0/24")),
              (SpfRoute{2, IPv4::must_parse("10.0.1.2"),
                        net::NexthopSet4::single(
                            IPv4::must_parse("10.0.1.2"))}));
    // C's stub: two hops, nexthop inherited from the first.
    EXPECT_EQ(routes.at(IPv4Net::must_parse("172.16.2.0/24")),
              (SpfRoute{4, IPv4::must_parse("10.0.1.2"),
                        net::NexthopSet4::single(
                            IPv4::must_parse("10.0.1.2"))}));
    EXPECT_EQ(e.stats().full_runs, 1u);
}

TEST(OspfSpf, TransitNetworkNexthops) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Lsdb db(loop);
    IPv4 r1 = IPv4::must_parse("1.1.1.1");
    IPv4 r2 = IPv4::must_parse("2.2.2.2");
    IPv4 dr_addr = IPv4::must_parse("10.0.0.2");  // R2 is the DR
    db.install(router_lsa(
        r1, {transit(dr_addr, IPv4::must_parse("10.0.0.1"), 1)}));
    db.install(router_lsa(
        r2, {transit(dr_addr, dr_addr, 1),
             stub_link(IPv4Net::must_parse("172.16.0.0/16"), 3)}));
    db.install(network_lsa(dr_addr, r2, 24, {r1, r2}));

    SpfEngine e;
    e.set_root(r1);
    const RouteMap& routes = e.run_full(db);
    ASSERT_EQ(routes.size(), 2u);
    // The segment itself is directly attached: no nexthop.
    EXPECT_EQ(routes.at(IPv4Net::must_parse("10.0.0.0/24")),
              (SpfRoute{1, IPv4::any()}));
    // R2's stub across the segment: nexthop is R2's segment address,
    // network->router hops are free.
    EXPECT_EQ(routes.at(IPv4Net::must_parse("172.16.0.0/16")),
              (SpfRoute{4, dr_addr, net::NexthopSet4::single(dr_addr)}));
}

TEST(OspfSpf, EqualCostDiamondBuildsSuccessorSet) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Lsdb db(loop);
    IPv4 a = IPv4::must_parse("1.1.1.1");
    IPv4 b = IPv4::must_parse("2.2.2.2");
    IPv4 c = IPv4::must_parse("3.3.3.3");
    IPv4 d = IPv4::must_parse("4.4.4.4");
    // Diamond with equal costs: A-B-D and A-C-D both cost 2, so D's stub
    // must carry a 2-member successor set {B's addr, C's addr}.
    db.install(router_lsa(a, {p2p(b, IPv4::must_parse("10.0.1.1"), 1),
                              p2p(c, IPv4::must_parse("10.0.2.1"), 1)}));
    db.install(router_lsa(b, {p2p(a, IPv4::must_parse("10.0.1.2"), 1),
                              p2p(d, IPv4::must_parse("10.0.3.1"), 1)}));
    db.install(router_lsa(c, {p2p(a, IPv4::must_parse("10.0.2.2"), 1),
                              p2p(d, IPv4::must_parse("10.0.4.1"), 1)}));
    db.install(router_lsa(
        d, {p2p(b, IPv4::must_parse("10.0.3.2"), 1),
            p2p(c, IPv4::must_parse("10.0.4.2"), 1),
            stub_link(IPv4Net::must_parse("172.16.9.0/24"), 1)}));

    SpfEngine e;
    e.set_root(a);
    const RouteMap& routes = e.run_full(db);
    const SpfRoute& r = routes.at(IPv4Net::must_parse("172.16.9.0/24"));
    EXPECT_EQ(r.cost, 3u);
    net::NexthopSet4 want;
    want.insert(IPv4::must_parse("10.0.1.2"));
    want.insert(IPv4::must_parse("10.0.2.2"));
    EXPECT_EQ(r.nexthops, want);
    EXPECT_EQ(r.nexthop, want.primary());

    // max_paths = 1 disables multipath: same cost, one deterministic
    // (lowest-address) successor.
    e.set_max_paths(1);
    const RouteMap& clamped = e.run_full(db);
    const SpfRoute& r1 = clamped.at(IPv4Net::must_parse("172.16.9.0/24"));
    EXPECT_EQ(r1.cost, 3u);
    EXPECT_EQ(r1.nexthops.size(), 1u);
    EXPECT_EQ(r1.nexthop, want.primary());
}

TEST(OspfSpf, OneWayClaimsContributeNothing) {
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Lsdb db(loop);
    IPv4 a = IPv4::must_parse("1.1.1.1");
    IPv4 b = IPv4::must_parse("2.2.2.2");
    // A claims a link to B; B (a dead-router remnant) does not reciprocate.
    db.install(router_lsa(
        a, {p2p(b, IPv4::must_parse("10.0.1.1"), 1),
            stub_link(IPv4Net::must_parse("172.16.0.0/24"), 1)}));
    db.install(router_lsa(
        b, {stub_link(IPv4Net::must_parse("172.16.1.0/24"), 1)}));

    SpfEngine e;
    e.set_root(a);
    const RouteMap& routes = e.run_full(db);
    ASSERT_EQ(routes.size(), 1u);
    EXPECT_TRUE(routes.count(IPv4Net::must_parse("172.16.0.0/24")));
}

// ---- SPF: oracle and incremental equivalence -------------------------------

namespace {

// A random symmetric point-to-point topology expressed as Router LSAs.
// metric[i][j] > 0 is a directed claim; the edge exists only when both
// directions claim it (exactly the engine's back-link rule).
struct RandomGraph {
    size_t n = 0;
    std::vector<std::vector<uint32_t>> metric;
    std::vector<uint32_t> stub_metric;
    std::vector<uint32_t> seq;

    static RandomGraph make(size_t n, double p, std::mt19937& rng) {
        RandomGraph g;
        g.n = n;
        g.metric.assign(n, std::vector<uint32_t>(n, 0));
        g.stub_metric.assign(n, 0);
        g.seq.assign(n, 1);
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        std::uniform_int_distribution<uint32_t> m(1, 10);
        for (size_t i = 0; i < n; ++i) {
            g.stub_metric[i] = m(rng);
            for (size_t j = i + 1; j < n; ++j) {
                if (coin(rng) < p) {
                    g.metric[i][j] = m(rng);
                    g.metric[j][i] = m(rng);
                }
            }
        }
        return g;
    }

    IPv4 rid(size_t i) const { return IPv4(static_cast<uint32_t>(i + 1)); }
    IPv4 addr(size_t i, size_t j) const {
        return IPv4((10u << 24) | (static_cast<uint32_t>(i) << 12) |
                    (static_cast<uint32_t>(j) << 4) | 1u);
    }
    IPv4Net stub_net(size_t i) const {
        return IPv4Net(
            IPv4((172u << 24) | (16u << 16) | (static_cast<uint32_t>(i) << 8)),
            24);
    }
    Lsa lsa_of(size_t i) const {
        std::vector<RouterLink> links;
        for (size_t j = 0; j < n; ++j)
            if (metric[i][j] > 0)
                links.push_back(p2p(rid(j), addr(i, j), metric[i][j]));
        links.push_back(stub_link(stub_net(i), stub_metric[i]));
        return router_lsa(rid(i), std::move(links), seq[i]);
    }
    void install_all(Lsdb& db) const {
        for (size_t i = 0; i < n; ++i) db.install(lsa_of(i));
    }
    // Reinstalls router i's LSA after a mutation; returns the changed key.
    LsaKey reinstall(Lsdb& db, size_t i) {
        ++seq[i];
        Lsa l = lsa_of(i);
        db.install(l);
        return l.key();
    }

    // Brute force (Floyd-Warshall) router distances from `root`, then
    // per-stub costs.
    std::map<IPv4Net, uint32_t> oracle(size_t root) const {
        constexpr uint64_t kInf = ~0ull;
        std::vector<std::vector<uint64_t>> d(
            n, std::vector<uint64_t>(n, kInf));
        for (size_t i = 0; i < n; ++i) d[i][i] = 0;
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j)
                if (metric[i][j] > 0 && metric[j][i] > 0)
                    d[i][j] = metric[i][j];
        for (size_t k = 0; k < n; ++k)
            for (size_t i = 0; i < n; ++i)
                for (size_t j = 0; j < n; ++j)
                    if (d[i][k] != kInf && d[k][j] != kInf &&
                        d[i][k] + d[k][j] < d[i][j])
                        d[i][j] = d[i][k] + d[k][j];
        std::map<IPv4Net, uint32_t> out;
        for (size_t j = 0; j < n; ++j)
            if (d[root][j] != kInf)
                out[stub_net(j)] =
                    static_cast<uint32_t>(d[root][j] + stub_metric[j]);
        return out;
    }
};

}  // namespace

TEST(OspfSpf, MatchesBruteForceOracleOnRandomGraphs) {
    for (uint32_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
        std::mt19937 rng(seed);
        RandomGraph g = RandomGraph::make(20, 0.25, rng);
        ev::VirtualClock clock;
        ev::EventLoop loop(clock);
        Lsdb db(loop);
        g.install_all(db);
        SpfEngine e;
        e.set_root(g.rid(0));
        EXPECT_EQ(cost_map(e.run_full(db)), g.oracle(0))
            << "seed " << seed;
    }
}

TEST(OspfSpf, IncrementalMatchesFullUnderRandomMutations) {
    std::mt19937 rng(2026);
    RandomGraph g = RandomGraph::make(24, 0.2, rng);
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Lsdb db(loop);
    g.install_all(db);

    SpfEngine incr, full;
    incr.set_root(g.rid(0));
    full.set_root(g.rid(0));
    incr.run_full(db);

    std::uniform_int_distribution<size_t> pick(0, g.n - 1);
    std::uniform_int_distribution<uint32_t> m(1, 10);
    std::uniform_int_distribution<int> kind(0, 2);
    for (int step = 0; step < 60; ++step) {
        size_t i = pick(rng);
        size_t j = pick(rng);
        switch (kind(rng)) {
            case 0:  // re-cost one directed claim (possibly absent: no-op)
                if (g.metric[i][j] > 0) g.metric[i][j] = m(rng);
                break;
            case 1:  // toggle one directed claim: makes/heals one-way links
                if (i != j) g.metric[i][j] = g.metric[i][j] > 0 ? 0 : m(rng);
                break;
            case 2:  // stub metric only: the graph phase should be skipped
                g.stub_metric[i] = m(rng);
                break;
        }
        LsaKey changed = g.reinstall(db, i);
        // Full RouteMap equality: costs AND the ECMP successor sets (with
        // their primaries) must be identical between the incremental and
        // full paths — both derive the sets from the finished distance
        // field with the same deterministic pass, so even on equal-cost
        // ties there is exactly one right answer.
        EXPECT_EQ(incr.run_incremental(db, {changed}), full.run_full(db))
            << "step " << step;
    }
    // The point of the test: the incremental path actually ran.
    EXPECT_GT(incr.stats().incremental_runs, 0u);
    EXPECT_GT(incr.stats().incremental_runs, incr.stats().fallbacks);
}

TEST(OspfSpf, RefreshOnlyChangeIsFreeAndKeepsRoutes) {
    std::mt19937 rng(5);
    RandomGraph g = RandomGraph::make(12, 0.3, rng);
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Lsdb db(loop);
    g.install_all(db);
    SpfEngine e;
    e.set_root(g.rid(0));
    RouteMap before = e.run_full(db);
    uint64_t full_before = e.stats().full_runs;

    // Periodic refresh: same content, higher seq.
    LsaKey changed = g.reinstall(db, 3);
    const RouteMap& after = e.run_incremental(db, {changed});
    EXPECT_EQ(after, before);
    EXPECT_EQ(e.stats().full_runs, full_before);  // no fallback
    EXPECT_EQ(e.stats().incremental_runs, 1u);
    EXPECT_EQ(e.stats().last_visited, 0u);  // graph phase skipped
}

namespace {

// A random mixed topology: point-to-point claims plus transit LANs
// (Router LSAs claiming a segment, one Network LSA per segment listing
// the attached routers), with metrics of 1 or 2 so equal-cost ties are
// wide. Every claim is independent, so mutations make one-way claims on
// both edge kinds; routers and segments can also lose their LSA, and a
// router can renumber its interfaces (new link addresses, same metrics).
struct MixedGraph {
    struct Lan {
        std::vector<uint32_t> claim;  // transit metric per router, 0 = none
        std::vector<bool> listed;     // in the Network LSA's attached list
        bool present = true;
        uint32_t seq = 1;
    };
    size_t n = 0;
    std::vector<std::vector<uint32_t>> metric;  // p2p claims, 0 = none
    std::vector<Lan> lans;
    std::vector<uint32_t> stub_metric;
    std::vector<uint32_t> seq;
    std::vector<bool> present;
    std::vector<uint32_t> renumber;  // low bits of router i's addresses

    static MixedGraph make(size_t n, size_t n_lans, std::mt19937& rng) {
        MixedGraph g;
        g.n = n;
        g.metric.assign(n, std::vector<uint32_t>(n, 0));
        g.stub_metric.assign(n, 1);
        g.seq.assign(n, 1);
        g.present.assign(n, true);
        g.renumber.assign(n, 1);
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = i + 1; j < n; ++j)
                if (coin(rng) < 0.15) g.metric[i][j] = g.metric[j][i] = 1;
        for (size_t l = 0; l < n_lans; ++l) {
            Lan lan;
            lan.claim.assign(n, 0);
            lan.listed.assign(n, false);
            for (size_t i = 0; i < n; ++i)
                if (coin(rng) < 0.3) {
                    lan.claim[i] = 1;
                    lan.listed[i] = true;
                }
            g.lans.push_back(std::move(lan));
        }
        return g;
    }

    static IPv4 rid(size_t i) { return IPv4(static_cast<uint32_t>(i + 1)); }
    // Router i's address on its link to j.
    IPv4 addr(size_t i, size_t j) const {
        return IPv4((10u << 24) | (static_cast<uint32_t>(i) << 12) |
                    (static_cast<uint32_t>(j) << 4) | (renumber[i] & 0xfu));
    }
    // Segment l is 10.200.l.0/24, named by its DR address .1 (the Network
    // LSA's id); router i's address on it is outside that range.
    static IPv4 dr_addr(size_t l) {
        return IPv4((10u << 24) | (200u << 16) |
                    (static_cast<uint32_t>(l) << 8) | 1u);
    }
    IPv4 lan_addr(size_t l, size_t i) const {
        return IPv4((10u << 24) | (201u << 16) |
                    (static_cast<uint32_t>(l) << 12) |
                    (static_cast<uint32_t>(i) << 4) | (renumber[i] & 0xfu));
    }
    static IPv4Net stub_net(size_t i) {
        return IPv4Net(IPv4((172u << 24) | (16u << 16) |
                            (static_cast<uint32_t>(i) << 8)),
                       24);
    }

    Lsa router_of(size_t i) const {
        std::vector<RouterLink> links;
        for (size_t j = 0; j < n; ++j)
            if (metric[i][j] > 0)
                links.push_back(p2p(rid(j), addr(i, j), metric[i][j]));
        for (size_t l = 0; l < lans.size(); ++l)
            if (lans[l].claim[i] > 0)
                links.push_back(
                    transit(dr_addr(l), lan_addr(l, i), lans[l].claim[i]));
        links.push_back(stub_link(stub_net(i), stub_metric[i]));
        return router_lsa(rid(i), std::move(links), seq[i]);
    }
    // Advertised by router 0 throughout, so the key stays fixed.
    Lsa network_of(size_t l) const {
        std::vector<IPv4> attached;
        for (size_t i = 0; i < n; ++i)
            if (lans[l].listed[i]) attached.push_back(rid(i));
        return network_lsa(dr_addr(l), rid(0), 24, std::move(attached),
                           lans[l].seq);
    }

    void install_all(Lsdb& db) const {
        for (size_t i = 0; i < n; ++i) db.install(router_of(i));
        for (size_t l = 0; l < lans.size(); ++l) db.install(network_of(l));
    }
    // Re-advertises (or withdraws) router i / segment l after a mutation;
    // returns the changed key.
    LsaKey sync_router(Lsdb& db, size_t i) {
        ++seq[i];
        Lsa l = router_of(i);
        if (present[i])
            db.install(l);
        else
            db.remove(l.key());
        return l.key();
    }
    LsaKey sync_lan(Lsdb& db, size_t l) {
        ++lans[l].seq;
        Lsa lsa = network_of(l);
        if (lans[l].present)
            db.install(lsa);
        else
            db.remove(lsa.key());
        return lsa.key();
    }
};

}  // namespace

// The incremental==full oracle on the graphs where ECMP bookkeeping is
// hardest: transit LANs (zero-weight network->router edges), unit-ish
// metrics, every ECMP width, one-way claims and LSA removals. Each step
// compares the incremental engine's whole RouteMap (successor sets
// included) with a fresh full run, and checks that every prefix whose
// route changed is among the ones the run reports as moved — the set
// OspfProcess syncs into the RIB.
TEST(OspfSpf, IncrementalMatchesFullOnLansWithWideTies) {
    for (uint32_t seed : {3u, 17u, 2026u}) {
        for (size_t k : {1u, 2u, 8u}) {
            std::mt19937 rng(seed);
            MixedGraph g = MixedGraph::make(18, 3, rng);
            ev::VirtualClock clock;
            ev::EventLoop loop(clock);
            Lsdb db(loop);
            g.install_all(db);

            SpfEngine incr;
            incr.set_root(MixedGraph::rid(0));
            incr.set_max_paths(k);
            incr.run_full(db);
            incr.take_moved_prefixes();

            std::uniform_int_distribution<size_t> pick(0, g.n - 1);
            std::uniform_int_distribution<size_t> pick_lan(0,
                                                           g.lans.size() - 1);
            std::uniform_int_distribution<uint32_t> m(1, 2);
            std::uniform_int_distribution<int> kind(0, 9);
            for (int step = 0; step < 200; ++step) {
                size_t i = pick(rng);
                size_t j = pick(rng);
                size_t l = pick_lan(rng);
                MixedGraph::Lan& lan = g.lans[l];
                std::vector<LsaKey> changed;
                switch (kind(rng)) {
                    case 0:  // re-cost one directed p2p claim
                        if (g.metric[i][j] > 0) g.metric[i][j] = m(rng);
                        changed.push_back(g.sync_router(db, i));
                        break;
                    case 1:  // toggle one directed p2p claim (one-way)
                        if (i != j) g.metric[i][j] = g.metric[i][j] > 0 ? 0 : 1;
                        changed.push_back(g.sync_router(db, i));
                        break;
                    case 2:  // a whole p2p link up/down: both ends change
                        if (i == j) break;
                        g.metric[i][j] = g.metric[j][i] = g.metric[i][j] > 0 ? 0 : 1;
                        changed.push_back(g.sync_router(db, i));
                        changed.push_back(g.sync_router(db, j));
                        break;
                    case 3:  // re-cost a transit claim
                        if (lan.claim[i] > 0) lan.claim[i] = m(rng);
                        changed.push_back(g.sync_router(db, i));
                        break;
                    case 4:  // toggle a transit claim (one-way onto a LAN)
                        lan.claim[i] = lan.claim[i] > 0 ? 0 : 1;
                        changed.push_back(g.sync_router(db, i));
                        break;
                    case 5:  // toggle a router in the Network LSA's list
                        lan.listed[i] = !lan.listed[i];
                        changed.push_back(g.sync_lan(db, l));
                        break;
                    case 6:  // withdraw / restore a Network LSA
                        lan.present = !lan.present;
                        changed.push_back(g.sync_lan(db, l));
                        break;
                    case 7:  // withdraw / restore a Router LSA
                        g.present[i] = !g.present[i];
                        changed.push_back(g.sync_router(db, i));
                        break;
                    case 8:  // stub metric only
                        g.stub_metric[i] = m(rng);
                        changed.push_back(g.sync_router(db, i));
                        break;
                    case 9:  // renumber: first hops read link addresses
                        g.renumber[i] = g.renumber[i] % 15 + 1;
                        changed.push_back(g.sync_router(db, i));
                        break;
                }
                RouteMap before = incr.routes();
                const RouteMap& got = incr.run_incremental(db, changed);
                SpfEngine full;
                full.set_root(MixedGraph::rid(0));
                full.set_max_paths(k);
                ASSERT_EQ(got, full.run_full(db))
                    << "seed " << seed << " max_paths " << k << " step "
                    << step;
                const std::set<IPv4Net> moved = incr.take_moved_prefixes();
                std::set<IPv4Net> keys;
                for (const auto& [p, r] : before) keys.insert(p);
                for (const auto& [p, r] : got) keys.insert(p);
                for (const IPv4Net& p : keys) {
                    auto b = before.find(p);
                    auto a = got.find(p);
                    bool same = b != before.end() && a != got.end() &&
                                b->second == a->second;
                    ASSERT_TRUE(same || moved.count(p))
                        << p.str() << " moved unreported; seed " << seed
                        << " max_paths " << k << " step " << step;
                }
            }
            EXPECT_GT(incr.stats().incremental_runs, incr.stats().fallbacks);
        }
    }
}

// The hop pass recomputes only where successor sets can move. On a
// 32x32 unit grid, re-costing one middle link and back moves a handful
// of vertices; the pass must visit about that many, not all 1,024 (the
// sort-everything pass it replaced did).
TEST(OspfSpf, HopPassVisitsOnlyWhatCanMove) {
    constexpr size_t kSide = 32;
    const size_t n = kSide * kSide;
    std::vector<std::vector<size_t>> adj(n);
    std::map<std::pair<size_t, size_t>, uint32_t> metric;
    auto link = [&](size_t a, size_t b) {
        adj[a].push_back(b);
        adj[b].push_back(a);
        metric[{a, b}] = metric[{b, a}] = 1;
    };
    for (size_t r = 0; r < kSide; ++r)
        for (size_t c = 0; c < kSide; ++c) {
            size_t i = r * kSide + c;
            if (c + 1 < kSide) link(i, i + 1);
            if (r + 1 < kSide) link(i, i + kSide);
        }
    std::vector<uint32_t> seq(n, 1);
    auto lsa_of = [&](size_t i) {
        std::vector<RouterLink> links;
        for (size_t t : adj[i])
            links.push_back(
                p2p(MixedGraph::rid(t), MixedGraph::rid(i), metric[{i, t}]));
        links.push_back(stub_link(
            IPv4Net(IPv4((10u << 24) | (static_cast<uint32_t>(i) << 8)), 24),
            1));
        return router_lsa(MixedGraph::rid(i), std::move(links), seq[i]);
    };
    ev::VirtualClock clock;
    ev::EventLoop loop(clock);
    Lsdb db(loop);
    for (size_t i = 0; i < n; ++i) db.install(lsa_of(i));

    SpfEngine e;
    e.set_root(MixedGraph::rid(0));
    e.run_full(db);
    EXPECT_EQ(e.stats().last_hop_visits, n);  // a full run seeds everyone

    // A middle link whose re-cost moves no distance, and a link on the
    // left edge whose re-cost moves the 16 vertices below it (and their
    // successor sets, which gain the root's second first hop).
    const size_t mid = (kSide / 2) * kSide + kSide / 2;
    const size_t edge = (kSide / 2 - 1) * kSide;
    for (auto [a, b] :
         {std::pair{mid, mid + 1}, std::pair{edge, edge + kSide}}) {
        for (uint32_t w : {5u, 1u}) {
            metric[{a, b}] = metric[{b, a}] = w;
            ++seq[a];
            ++seq[b];
            db.install(lsa_of(a));
            db.install(lsa_of(b));
            uint64_t full_before = e.stats().full_runs;
            const RouteMap& got = e.run_incremental(
                db, {lsa_of(a).key(), lsa_of(b).key()});
            ASSERT_EQ(e.stats().full_runs, full_before);
            SpfEngine full;
            full.set_root(MixedGraph::rid(0));
            ASSERT_EQ(got, full.run_full(db));
            const size_t bound = 4 * e.stats().last_visited + adj[a].size() +
                                 adj[b].size();
            EXPECT_LE(e.stats().last_hop_visits, bound)
                << "link " << a << "-" << b << " metric " << w;
            EXPECT_LT(e.stats().last_hop_visits, n / 8)
                << "link " << a << "-" << b << " metric " << w;
        }
    }
}

// ---- the full protocol over the virtual network ----------------------------

namespace {

struct TopoFixture {
    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    fea::VirtualNetwork net{std::chrono::milliseconds(1)};
    sim::OspfTopology topo{loop, net};

    explicit TopoFixture(OspfProcess::Config base = {})
        : topo(loop, net, base) {}

    bool converge(ev::Duration limit = std::chrono::seconds(120)) {
        return loop.run_until([&] { return topo.all_adjacencies_full(); },
                              limit);
    }
    // The member's address on a segment (host part is member order + 1).
    IPv4 seg_addr(size_t seg, size_t member_pos) const {
        return IPv4(topo.segment(seg).subnet.masked_addr().to_host() |
                    static_cast<uint32_t>(member_pos + 1));
    }
};

}  // namespace

TEST(OspfProcess, TwoRoutersReachFullAndInstallRoutes) {
    telemetry::Registry& reg = telemetry::Registry::global();
    uint64_t full_before =
        reg.counter(telemetry::metric_key("ospf_spf_runs_total",
                                          {{"mode", "full"}}))
            ->value();
    uint64_t flood_before = reg.counter("ospf_flood_tx_total")->value();

    TopoFixture f;
    size_t a = f.topo.add_router();
    size_t b = f.topo.add_router();
    size_t seg = f.topo.connect(a, b);
    IPv4Net stub_a = f.topo.add_stub(a);
    IPv4Net stub_b = f.topo.add_stub(b);

    ASSERT_TRUE(f.converge());
    EXPECT_EQ(f.topo.node(a).ospf->full_neighbor_count(), 1u);

    // Routes land in both RIBs under the ospf origin, distance 110, with
    // the peer's segment address as nexthop.
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            return f.topo.node(a).rib->lookup_exact(stub_b).has_value() &&
                   f.topo.node(b).rib->lookup_exact(stub_a).has_value();
        },
        30s));
    auto got = f.topo.node(a).rib->lookup_exact(stub_b);
    EXPECT_EQ(got->protocol, "ospf");
    EXPECT_EQ(got->admin_distance, rib::Rib::kDistanceOspf);
    EXPECT_EQ(got->nexthop, f.seg_addr(seg, 1));
    // The shared segment's prefix is directly attached — the connected
    // origin owns it, OSPF must not inject it.
    EXPECT_EQ(f.topo.node(a).ospf->installed_routes().count(
                  f.topo.segment(seg).subnet),
              0u);

    // Telemetry: SPF ran, LSAs flooded, the database gauge is live.
    EXPECT_GT(reg.counter(telemetry::metric_key("ospf_spf_runs_total",
                                                {{"mode", "full"}}))
                  ->value(),
              full_before);
    EXPECT_GT(reg.counter("ospf_flood_tx_total")->value(), flood_before);
    EXPECT_GT(reg.gauge("ospf_lsa_count")->value(), 0);
}

TEST(OspfProcess, LinkFailureTearsDownAdjacencyImmediately) {
    TopoFixture f;
    size_t a = f.topo.add_router();
    size_t b = f.topo.add_router();
    size_t seg = f.topo.connect(a, b);
    IPv4Net stub_b = f.topo.add_stub(b);
    ASSERT_TRUE(f.converge());
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.topo.node(a).rib->lookup_exact(stub_b).has_value(); },
        30s));

    // Event-driven teardown (the paper's point versus scanners): the
    // adjacency drops as soon as the link does, not a dead-interval later.
    f.net.set_link_up(f.topo.segment(seg).link_id, false);
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.topo.node(a).ospf->neighbor_count() == 0; }, 1s));
    // And the route follows after the SPF debounce.
    ASSERT_TRUE(f.loop.run_until(
        [&] { return !f.topo.node(a).rib->lookup_exact(stub_b).has_value(); },
        30s));
}

TEST(OspfProcess, SilentNeighborDiesAtDeadInterval) {
    TopoFixture f;
    size_t a = f.topo.add_router();
    size_t b = f.topo.add_router();
    f.topo.connect(a, b);
    IPv4Net stub_b = f.topo.add_stub(b);
    ASSERT_TRUE(f.converge());
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.topo.node(a).rib->lookup_exact(stub_b).has_value(); },
        30s));

    // Total packet loss: the link stays up but goes silent; the dead
    // interval (40s) reaps the neighbor and withdraws the routes.
    f.net.set_loss(1.0);
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.topo.node(a).ospf->neighbor_count() == 0; }, 90s));
    ASSERT_TRUE(f.loop.run_until(
        [&] { return !f.topo.node(a).rib->lookup_exact(stub_b).has_value(); },
        30s));
}

TEST(OspfProcess, TriangleFloodsAndPicksShortestPath) {
    TopoFixture f;
    size_t r0 = f.topo.add_router();
    size_t r1 = f.topo.add_router();
    size_t r2 = f.topo.add_router();
    f.topo.connect(r0, r1);
    f.topo.connect(r1, r2);
    size_t seg02 = f.topo.connect(r0, r2);
    IPv4Net stub2 = f.topo.add_stub(r2);
    ASSERT_TRUE(f.converge());

    // Every router's LSDB converged to the same contents (flooding works):
    // 3 router LSAs + 3 network LSAs (one DR per segment).
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            return f.topo.node(r0).ospf->lsdb().size() == 6 &&
                   f.topo.node(r1).ospf->lsdb().size() == 6 &&
                   f.topo.node(r2).ospf->lsdb().size() == 6;
        },
        60s));

    // r0 reaches r2's stub over the direct segment (cost 2), not via r1
    // (cost 3).
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.topo.node(r0).rib->lookup_exact(stub2).has_value(); },
        30s));
    auto got = f.topo.node(r0).rib->lookup_exact(stub2);
    EXPECT_EQ(got->nexthop, f.seg_addr(seg02, 1));
    EXPECT_EQ(got->metric, 2u);
}

TEST(OspfProcess, CostChangeMovesTrafficToTheOtherPath) {
    TopoFixture f;
    size_t r0 = f.topo.add_router();
    size_t r1 = f.topo.add_router();
    size_t r2 = f.topo.add_router();
    size_t seg01 = f.topo.connect(r0, r1);
    f.topo.connect(r1, r2);
    size_t seg02 = f.topo.connect(r0, r2);
    IPv4Net stub2 = f.topo.add_stub(r2);
    ASSERT_TRUE(f.converge());
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            auto got = f.topo.node(r0).rib->lookup_exact(stub2);
            return got && got->nexthop == f.seg_addr(seg02, 1);
        },
        60s));

    // Repricing the direct link floods a new router LSA; everyone
    // recomputes and r0 swings to the two-hop path via r1.
    f.topo.node(r0).ospf->set_interface_cost(f.topo.segment(seg02).ifname,
                                             10);
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            auto got = f.topo.node(r0).rib->lookup_exact(stub2);
            return got && got->nexthop == f.seg_addr(seg01, 1) &&
                   got->metric == 3u;
        },
        60s));
}

TEST(OspfProcess, LinkFlapReroutesAndRecovers) {
    TopoFixture f;
    size_t r0 = f.topo.add_router();
    size_t r1 = f.topo.add_router();
    size_t r2 = f.topo.add_router();
    size_t seg01 = f.topo.connect(r0, r1);
    f.topo.connect(r1, r2);
    size_t seg02 = f.topo.connect(r0, r2);
    IPv4Net stub2 = f.topo.add_stub(r2);
    ASSERT_TRUE(f.converge());
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            auto got = f.topo.node(r0).rib->lookup_exact(stub2);
            return got && got->nexthop == f.seg_addr(seg02, 1);
        },
        60s));

    // Down: reroute via r1.
    f.net.set_link_up(f.topo.segment(seg02).link_id, false);
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            auto got = f.topo.node(r0).rib->lookup_exact(stub2);
            return got && got->nexthop == f.seg_addr(seg01, 1);
        },
        60s));
    // Up again: adjacency re-forms and the direct path wins back.
    f.net.set_link_up(f.topo.segment(seg02).link_id, true);
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            auto got = f.topo.node(r0).rib->lookup_exact(stub2);
            return got && got->nexthop == f.seg_addr(seg02, 1);
        },
        180s));
}

TEST(OspfProcess, MaxAgePurgesUnrefreshedLsas) {
    OspfProcess::Config cfg;
    cfg.max_age_secs = 60;
    cfg.lsa_refresh = 20s;  // live routers outrun MaxAge...
    cfg.age_scan_interval = 5s;
    TopoFixture f(cfg);
    size_t a = f.topo.add_router();
    size_t b = f.topo.add_router();
    size_t seg = f.topo.connect(a, b);
    IPv4Net stub_b = f.topo.add_stub(b);
    ASSERT_TRUE(f.converge());
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.topo.node(a).rib->lookup_exact(stub_b).has_value(); },
        30s));
    // ...as long as refreshes keep arriving, nothing ages out.
    f.loop.run_for(90s);
    LsaKey b_key{LsaType::kRouter, f.topo.node(b).router_id,
                 f.topo.node(b).router_id};
    ASSERT_NE(f.topo.node(a).ospf->lsdb().lookup(b_key), nullptr);

    // Partition the segment: b's refreshes stop reaching a, and a's copies
    // of b's LSAs (and the DR's network LSA) hit MaxAge and are purged.
    f.net.set_link_up(f.topo.segment(seg).link_id, false);
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            return f.topo.node(a).ospf->lsdb().lookup(b_key) == nullptr &&
                   f.topo.node(a).ospf->lsdb().size() == 0;
        },
        300s));
    EXPECT_FALSE(f.topo.node(a).rib->lookup_exact(stub_b).has_value());
}

TEST(OspfProcess, MaxAgeKillWithNoDatabaseCopyDoesNotRecirculate) {
    TopoFixture f;
    size_t r0 = f.topo.add_router();
    size_t r1 = f.topo.add_router();
    size_t r2 = f.topo.add_router();
    size_t r3 = f.topo.add_router();
    size_t lan = f.topo.connect_lan({r0, r1, r2, r3});
    f.topo.connect(r3, r0);
    f.topo.connect(r3, r2);
    ASSERT_TRUE(f.converge());
    // Wait for the LAN's Network LSA (originated by the DR r3, which has
    // the highest router id) to flood to every router.
    LsaKey key{LsaType::kNetwork, f.seg_addr(lan, 3),
               f.topo.node(r3).router_id};
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            for (size_t i = 0; i < f.topo.size(); ++i)
                if (f.topo.node(i).ospf->lsdb().lookup(key) == nullptr)
                    return false;
            return true;
        },
        60s));

    // Disabling the DR's LAN interface makes it withdraw that Network LSA
    // with a premature-aged (MaxAge) kill flooded out its two surviving
    // point-to-point links. The intact r3-r0-LAN-r2-r3 cycle delivers the
    // kill to several routers twice; the second copy finds no database
    // copy and must be acknowledged and discarded (RFC 2328 §13 step 4) —
    // re-flooding it would let the kill chase itself around the cycle
    // forever.
    f.topo.node(r3).ospf->disable_interface(f.topo.segment(lan).ifname);

    // The withdrawal reaches every router...
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            for (size_t i = 0; i < f.topo.size(); ++i)
                if (f.topo.node(i).ospf->lsdb().lookup(key) != nullptr)
                    return false;
            return true;
        },
        60s));

    // ...and once reconvergence settles (DR re-election, router-LSA
    // refloods, dead timers), flooding goes quiet: no LsUpdate leaves any
    // router during a window well under the 30-minute refresh interval.
    f.loop.run_for(120s);
    auto floods = [&] {
        uint64_t n = 0;
        for (size_t i = 0; i < f.topo.size(); ++i)
            n += f.topo.node(i).ospf->stats().floods_sent;
        return n;
    };
    uint64_t settled = floods();
    f.loop.run_for(100s);
    EXPECT_EQ(floods(), settled);
}

TEST(OspfProcess, LanElectsDrAndOriginatesOneNetworkLsa) {
    TopoFixture f;
    size_t r0 = f.topo.add_router();
    size_t r1 = f.topo.add_router();
    size_t r2 = f.topo.add_router();
    size_t lan = f.topo.connect_lan({r0, r1, r2});
    IPv4Net stub1 = f.topo.add_stub(r1);
    ASSERT_TRUE(f.converge());

    // Exactly one network LSA for the LAN, originated by the highest
    // router id (r2).
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            size_t nets = 0;
            f.topo.node(r0).ospf->lsdb().for_each([&](const Lsa& l) {
                if (l.type == LsaType::kNetwork &&
                    f.topo.segment(lan).subnet.contains(l.id))
                    ++nets;
            });
            return nets == 1;
        },
        60s));
    bool found = false;
    f.topo.node(r0).ospf->lsdb().for_each([&](const Lsa& l) {
        if (l.type == LsaType::kNetwork &&
            f.topo.segment(lan).subnet.contains(l.id)) {
            found = true;
            EXPECT_EQ(l.adv_router, f.topo.node(r2).router_id);
            EXPECT_EQ(l.attached.size(), 3u);
        }
    });
    EXPECT_TRUE(found);

    // Across the LAN: r0 reaches r1's stub with r1's LAN address as
    // nexthop (member position 1 -> host .2).
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.topo.node(r0).rib->lookup_exact(stub1).has_value(); },
        30s));
    EXPECT_EQ(f.topo.node(r0).rib->lookup_exact(stub1)->nexthop,
              f.seg_addr(lan, 1));
}

TEST(OspfProcess, ConvergesUnderPacketLoss) {
    TopoFixture f;
    f.net.set_loss(0.2);
    size_t a = f.topo.add_router();
    size_t b = f.topo.add_router();
    f.topo.connect(a, b);
    IPv4Net stub_b = f.topo.add_stub(b);

    // Reliability comes from the retransmit lists: with one packet in
    // five lost the adjacency still reaches Full and routes converge.
    ASSERT_TRUE(f.converge(600s));
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.topo.node(a).rib->lookup_exact(stub_b).has_value(); },
        120s));
    EXPECT_GT(f.topo.node(a).ospf->stats().retransmits +
                  f.topo.node(b).ospf->stats().retransmits,
              0u);
}

TEST(OspfProcess, BeatsRipOnAdminDistanceAndYieldsWhenGone) {
    TopoFixture f;
    size_t a = f.topo.add_router();
    size_t b = f.topo.add_router();
    size_t seg = f.topo.connect(a, b);
    IPv4Net stub_b = f.topo.add_stub(b);
    ASSERT_TRUE(f.converge());
    ASSERT_TRUE(f.loop.run_until(
        [&] { return f.topo.node(a).rib->lookup_exact(stub_b).has_value(); },
        30s));

    // A competing RIP route for the same prefix loses (110 < 120)...
    IPv4 rip_nh = IPv4::must_parse("203.0.113.7");
    ASSERT_TRUE(f.topo.node(a).rib->add_route("rip", stub_b, rip_nh, 4));
    auto got = f.topo.node(a).rib->lookup_exact(stub_b);
    EXPECT_EQ(got->protocol, "ospf");

    // ...until OSPF leaves the interface and withdraws, and the RIP route
    // takes over.
    f.topo.node(a).ospf->disable_interface(f.topo.segment(seg).ifname);
    ASSERT_TRUE(f.loop.run_until(
        [&] {
            auto r = f.topo.node(a).rib->lookup_exact(stub_b);
            return r && r->protocol == "rip" && r->nexthop == rip_nh;
        },
        30s));
}

// ---- RIB sync: only the prefixes an SPF run moved reach the RIB ------------

namespace {

using RibView = std::map<IPv4Net, std::pair<net::NexthopSet4, uint32_t>>;

// Every RIB change an OspfProcess sends, and the RIB-side view they add
// up to (add replaces, delete removes).
struct RibLog {
    struct Call {
        bool add = false;
        IPv4Net net;
        net::NexthopSet4 nexthops;
        uint32_t metric = 0;
    };
    std::vector<Call> calls;
    RibView view;
    size_t stray_deletes = 0;  // deletes of prefixes never added
    size_t batches = 0;        // push_batch calls (one per SPF run)
};

class CapturingRib final : public rib::RibClient {
public:
    explicit CapturingRib(RibLog& log) : log_(log) {}
    void push_batch(const std::string& protocol,
                    stage::RouteBatch4&& batch) override {
        EXPECT_EQ(protocol, "ospf");
        ++log_.batches;
        for (const auto& e : batch.entries()) {
            ASSERT_NE(e.op, stage::BatchOp::kReplace);
            if (e.op == stage::BatchOp::kAdd) {
                log_.calls.push_back(
                    {true, e.route.net, e.route.nexthop_set(), e.route.metric});
                log_.view[e.route.net] = {e.route.nexthop_set(),
                                          e.route.metric};
            } else {
                log_.calls.push_back({false, e.route.net, {}, 0});
                if (log_.view.erase(e.route.net) == 0) ++log_.stray_deletes;
            }
        }
    }

private:
    RibLog& log_;
};

// Swaps router r's OspfProcess for one that reports to `log`. Call before
// the router gets any interface.
void capture_rib(TopoFixture& f, size_t r, RibLog& log) {
    sim::OspfTopology::Node& n = f.topo.node(r);
    OspfProcess::Config cfg;
    cfg.router_id = n.router_id;
    n.ospf.reset();  // frees the OSPF port on the router's FEA
    n.ospf = std::make_unique<OspfProcess>(f.loop, *n.fea, cfg,
                                           std::make_unique<CapturingRib>(log));
}

// What a full diff of the engine's routes would install: every route
// with a gateway.
RibView gateway_routes(const OspfProcess& p) {
    RibView out;
    for (const auto& [net, r] : p.spf().routes())
        if (r.nexthop != IPv4()) out[net] = {r.nexthops, r.cost};
    return out;
}

RibView installed_view(const OspfProcess& p) {
    RibView out;
    for (const auto& [net, r] : p.installed_routes())
        out[net] = {r.nexthops, r.cost};
    return out;
}

}  // namespace

TEST(OspfProcess, FarStubMetricChangeIsOneRibAdd) {
    TopoFixture f;
    for (int i = 0; i < 4; ++i) f.topo.add_router();
    RibLog log;
    capture_rib(f, 0, log);
    f.topo.connect(0, 1);
    f.topo.connect(1, 2);
    f.topo.connect(2, 3);
    IPv4Net stub3 = f.topo.add_stub(3);  // segment 3
    ASSERT_TRUE(f.converge());
    ASSERT_TRUE(
        f.loop.run_until([&] { return log.view.count(stub3) > 0; }, 60s));
    f.loop.run_for(30s);
    const uint32_t cost = log.view.at(stub3).second;

    log.calls.clear();
    log.batches = 0;
    ASSERT_TRUE(f.topo.node(3).ospf->set_interface_cost(
        f.topo.segment(3).ifname, 7));
    f.loop.run_for(30s);
    EXPECT_EQ(log.batches, 1u);
    ASSERT_EQ(log.calls.size(), 1u);
    EXPECT_TRUE(log.calls[0].add);
    EXPECT_EQ(log.calls[0].net, stub3);
    EXPECT_EQ(log.calls[0].metric, cost + 6);
    EXPECT_EQ(log.view, gateway_routes(*f.topo.node(0).ospf));
}

TEST(OspfProcess, RibMatchesEngineThroughSeededLinkFlaps) {
    TopoFixture f;
    for (int i = 0; i < 6; ++i) f.topo.add_router();
    RibLog log;
    capture_rib(f, 0, log);
    std::vector<size_t> segs;
    for (size_t i = 0; i < 6; ++i)
        segs.push_back(f.topo.connect(i, (i + 1) % 6));
    segs.push_back(f.topo.connect(0, 3));
    segs.push_back(f.topo.connect(1, 4));
    segs.push_back(f.topo.connect_lan({2, 4, 5}));
    for (size_t i = 0; i < 6; ++i) f.topo.add_stub(i);
    ASSERT_TRUE(f.converge());
    f.loop.run_for(30s);
    const OspfProcess& p0 = *f.topo.node(0).ospf;
    ASSERT_FALSE(log.view.empty());
    ASSERT_EQ(log.view, gateway_routes(p0));
    const RibView initial = log.view;

    std::mt19937 rng(11);
    std::uniform_int_distribution<size_t> pick(0, segs.size() - 1);
    std::uniform_int_distribution<int> wait_ms(100, 45000);
    std::vector<bool> up(segs.size(), true);
    for (int step = 0; step < 30; ++step) {
        size_t s = pick(rng);
        up[s] = !up[s];
        f.net.set_link_up(f.topo.segment(segs[s]).link_id, up[s]);
        f.loop.run_for(std::chrono::milliseconds(wait_ms(rng)));
        ASSERT_EQ(log.view, gateway_routes(p0)) << "step " << step;
        ASSERT_EQ(log.view, installed_view(p0)) << "step " << step;
    }
    for (size_t s = 0; s < segs.size(); ++s)
        f.net.set_link_up(f.topo.segment(segs[s]).link_id, true);
    ASSERT_TRUE(f.converge(300s));
    f.loop.run_for(30s);
    EXPECT_EQ(log.view, gateway_routes(p0));
    EXPECT_EQ(log.view, initial);
    EXPECT_EQ(log.stray_deletes, 0u);
    EXPECT_GT(p0.spf().stats().incremental_runs, 10u);
}

TEST(OspfProcess, MaxPathsChangeFullRunDeletesAndReadds) {
    TopoFixture f;
    for (int i = 0; i < 5; ++i) f.topo.add_router();
    RibLog log;
    capture_rib(f, 0, log);
    f.topo.connect(0, 1);
    f.topo.connect(0, 2);
    f.topo.connect(1, 3);
    f.topo.connect(2, 3);
    size_t seg34 = f.topo.connect(3, 4);
    IPv4Net stub3 = f.topo.add_stub(3);
    IPv4Net stub4 = f.topo.add_stub(4);
    ASSERT_TRUE(f.converge());
    ASSERT_TRUE(f.loop.run_until(
        [&] { return log.view.count(stub3) && log.view.count(stub4); }, 60s));
    f.loop.run_for(30s);
    OspfProcess& p0 = *f.topo.node(0).ospf;
    ASSERT_EQ(log.view.at(stub3).first.size(), 2u);  // ECMP via r1 and r2

    // One SPF run sees both a narrower ECMP width (forcing it full) and
    // the loss of r4: the stub behind it must be deleted, the diamond's
    // routes re-added with one member, and nothing else touched.
    RibView before = log.view;
    log.calls.clear();
    uint64_t full_before = p0.spf().stats().full_runs;
    p0.set_max_paths(1);
    f.net.set_link_up(f.topo.segment(seg34).link_id, false);
    f.loop.run_for(30s);
    EXPECT_GT(p0.spf().stats().full_runs, full_before);
    EXPECT_EQ(log.view, gateway_routes(p0));
    EXPECT_EQ(log.view.count(stub4), 0u);
    EXPECT_EQ(log.view.at(stub3).first.size(), 1u);
    std::set<IPv4Net> differ;
    for (const auto& [net, r] : before)
        if (!log.view.count(net) || !(log.view.at(net) == r)) differ.insert(net);
    for (const auto& [net, r] : log.view)
        if (!before.count(net)) differ.insert(net);
    std::set<IPv4Net> called;
    for (const RibLog::Call& c : log.calls) called.insert(c.net);
    EXPECT_EQ(called, differ);
    EXPECT_EQ(log.calls.size(), differ.size());
    bool deleted4 = false;
    for (const RibLog::Call& c : log.calls)
        if (!c.add && c.net == stub4) deleted4 = true;
    EXPECT_TRUE(deleted4);

    // And back: the wider width and r4's link return.
    p0.set_max_paths(8);
    f.net.set_link_up(f.topo.segment(seg34).link_id, true);
    ASSERT_TRUE(f.converge(300s));
    f.loop.run_for(30s);
    EXPECT_EQ(log.view, gateway_routes(p0));
    EXPECT_EQ(log.view, before);
    EXPECT_EQ(log.stray_deletes, 0u);
}
