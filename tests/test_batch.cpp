// Tests for the bulk/delta stage API: RouteBatch semantics (coalescing,
// wire framing), attribute/nexthop-set interning and COW safety, the
// per-table trie arena toggle, and — the load-bearing part — randomized
// equivalence oracles pinning the batch path to the legacy per-route
// path: the same shuffled stream through both must produce bit-identical
// final tables AND identical downstream message streams, including
// multipath routes, a mid-stream origin death (DeletionStage), and a
// graceful-restart resync + stale sweep. The emitters that act outside
// push_batch (refilter passes, deletion and stale-sweep slices) are
// pinned to one downstream batch each. Bulk-XRL end-to-end tests drive
// add_routes_bulk / add_routes4_bulk across real XrlRouters and count
// the XRLs a BGP full load and a peer-down cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>

#include "bgp/attributes.hpp"
#include "bgp/bgp_xrl.hpp"
#include "ev/eventloop.hpp"
#include "fea/fea_xrl.hpp"
#include "harness.hpp"
#include "ipc/router.hpp"
#include "net/trie.hpp"
#include "rib/rib_xrl.hpp"
#include "sim/harness.hpp"
#include "sim/routefeed.hpp"
#include "stage/batch.hpp"
#include "stage/cache.hpp"
#include "stage/deletion.hpp"
#include "stage/extint.hpp"
#include "stage/origin.hpp"
#include "stage/sink.hpp"
#include "stage/stale_sweeper.hpp"
#include "stream_probe.hpp"

using namespace xrp;
using namespace xrp::stage;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;

namespace {

Route4 mkroute(const std::string& net_s, const char* nh = "192.0.2.1",
               uint32_t metric = 1, const char* proto = "test",
               uint32_t admin = 100) {
    Route4 r;
    r.net = IPv4Net::must_parse(net_s);
    r.nexthop = IPv4::must_parse(nh);
    r.metric = metric;
    r.protocol = proto;
    r.admin_distance = admin;
    return r;
}

}  // namespace

// ---- RouteBatch: coalescing --------------------------------------------

TEST(RouteBatch, CoalesceFoldsChurnToNetEffect) {
    RouteBatch4 b;
    // 10/8: add then delete — downstream must never see it.
    Route4 ephemeral = mkroute("10.0.0.0/8", "192.0.2.1", 1);
    b.add(ephemeral);
    b.del(ephemeral);
    // 20/8: delete then add — folds to a replace(old=deleted, new=added).
    Route4 old20 = mkroute("20.0.0.0/8", "192.0.2.2", 2);
    Route4 new20 = mkroute("20.0.0.0/8", "192.0.2.3", 3);
    b.del(old20);
    b.add(new20);
    // 30/8: add then replace — one add carrying the final route.
    Route4 mid30 = mkroute("30.0.0.0/8", "192.0.2.4", 4);
    Route4 fin30 = mkroute("30.0.0.0/8", "192.0.2.5", 5);
    b.add(mid30);
    b.replace(mid30, fin30);
    // 40/8: replace then delete — delete of the *original* old route.
    Route4 old40 = mkroute("40.0.0.0/8", "192.0.2.6", 6);
    Route4 new40 = mkroute("40.0.0.0/8", "192.0.2.7", 7);
    b.replace(old40, new40);
    b.del(new40);

    b.coalesce();
    // Survivors follow first-appearance order: 20/8, 30/8, 40/8.
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b.entries()[0].op, BatchOp::kReplace);
    EXPECT_EQ(b.entries()[0].route, new20);
    EXPECT_EQ(b.entries()[0].old_route, old20);
    EXPECT_EQ(b.entries()[1].op, BatchOp::kAdd);
    EXPECT_EQ(b.entries()[1].route, fin30);
    EXPECT_EQ(b.entries()[2].op, BatchOp::kDelete);
    EXPECT_EQ(b.entries()[2].route, old40);

    // Idempotent: coalescing an already-coalesced batch changes nothing.
    RouteBatch4 again;
    for (const auto& e : b.entries()) again.push(e);
    again.coalesce();
    ASSERT_EQ(again.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(again.entries()[i].op, b.entries()[i].op);
        EXPECT_EQ(again.entries()[i].route, b.entries()[i].route);
    }
}

// The std::map fold coalesce() used before it learned to skip batches
// without a repeated prefix, kept as the reference it must match.
std::vector<BatchEntry<IPv4>> reference_coalesce(
    const std::vector<BatchEntry<IPv4>>& entries) {
    if (entries.size() < 2) return entries;
    struct Folded {
        std::optional<Route4> before;
        std::optional<Route4> after;
        bool saw_delete = false;
    };
    std::map<IPv4Net, Folded> by_net;
    std::vector<IPv4Net> order;
    for (const auto& e : entries) {
        auto [it, fresh] = by_net.try_emplace(e.route.net);
        Folded& f = it->second;
        if (fresh) order.push_back(e.route.net);
        switch (e.op) {
        case BatchOp::kAdd:
            f.after = e.route;
            break;
        case BatchOp::kDelete:
            if (!f.before && !f.after) f.before = e.route;
            f.after.reset();
            f.saw_delete = true;
            break;
        case BatchOp::kReplace:
            if (!f.before && !f.after) f.before = e.old_route;
            f.after = e.route;
            f.saw_delete = true;
            break;
        }
    }
    std::vector<BatchEntry<IPv4>> folded;
    for (const auto& net : order) {
        Folded& f = by_net[net];
        if (f.before && f.after)
            folded.push_back({BatchOp::kReplace, *f.after, *f.before});
        else if (f.after)
            folded.push_back({BatchOp::kAdd, *f.after, {}});
        else if (f.before && f.saw_delete)
            folded.push_back({BatchOp::kDelete, *f.before, {}});
    }
    return folded;
}

void expect_same_entries(const std::vector<BatchEntry<IPv4>>& got,
                         const std::vector<BatchEntry<IPv4>>& want,
                         size_t trial) {
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].op, want[i].op) << "trial " << trial << " #" << i;
        ASSERT_TRUE(got[i].route == want[i].route)
            << "trial " << trial << " #" << i;
        ASSERT_TRUE(got[i].old_route == want[i].old_route)
            << "trial " << trial << " #" << i;
    }
}

TEST(RouteBatch, CoalesceMatchesTheMapFoldOnRandomBatches) {
    std::mt19937 rng(0xc0a1e5ce);
    size_t with_repeat = 0, without_repeat = 0;
    for (size_t trial = 0; trial < 12000; ++trial) {
        // Every fourth batch draws distinct prefixes; the rest draw from a
        // handful, so repeats are common.
        const bool distinct = trial % 4 == 0;
        const size_t n = 1 + rng() % 64;
        const size_t pool = distinct ? 256 : 1 + rng() % 6;
        std::vector<uint32_t> picks(pool);
        for (uint32_t i = 0; i < pool; ++i) picks[i] = i;
        std::shuffle(picks.begin(), picks.end(), rng);
        RouteBatch4 b;
        for (size_t i = 0; i < n; ++i) {
            const uint32_t p = distinct ? picks[i] : picks[rng() % pool];
            const std::string net =
                "10." + std::to_string(p) + ".0.0/16";
            Route4 r = mkroute(net, "192.0.2.1", 1 + rng() % 9);
            switch (rng() % 3) {
            case 0:
                b.add(r);
                break;
            case 1:
                b.del(r);
                break;
            default:
                b.replace(mkroute(net, "192.0.2.2", 10 + rng() % 9), r);
                break;
            }
        }
        const auto before = b.entries();
        const auto want = reference_coalesce(before);
        b.coalesce();
        expect_same_entries(b.entries(), want, trial);
        if (distinct) {
            // No repeated prefix: the batch comes back as it went in.
            expect_same_entries(b.entries(), before, trial);
            ++without_repeat;
        } else if (want.size() < before.size()) {
            ++with_repeat;
        }
    }
    EXPECT_EQ(without_repeat, 3000u);
    EXPECT_GT(with_repeat, 5000u);
}

TEST(RouteBatch, CountsSplitReplacesIntoBothSides) {
    RouteBatch4 b;
    b.add(mkroute("10.0.0.0/8"));
    b.del(mkroute("20.0.0.0/8"));
    b.replace(mkroute("30.0.0.0/8", "192.0.2.1"),
              mkroute("30.0.0.0/8", "192.0.2.2"));
    EXPECT_EQ(b.add_count(), 2u);     // add + replace
    EXPECT_EQ(b.delete_count(), 2u);  // delete + replace
}

// ---- RouteBatch: wire framing ------------------------------------------

namespace {

template <class A>
net::NexthopSet<A> nhset(std::initializer_list<std::pair<const char*, uint32_t>>
                             members) {
    net::NexthopSet<A> set;
    for (const auto& [addr, weight] : members)
        set.insert(A::must_parse(addr), weight);
    return set;
}

template <class A>
Route<A> wire_route(const char* net_s, const net::NexthopSet<A>& nhs,
                    uint32_t metric) {
    Route<A> r;
    r.net = net::IpNet<A>::must_parse(net_s);
    r.metric = metric;
    r.set_nexthops(nhs);
    return r;
}

// One batch of every entry shape for family A: a scalar add, a weighted
// multipath add, a delete, and two replaces whose halves differ in set
// size (multipath -> scalar and scalar -> 3-way).
template <class A>
RouteBatch<A> every_shape(const char* const (&nets)[5],
                          const char* const (&hops)[4]) {
    RouteBatch<A> b;
    b.add(wire_route<A>(nets[0], nhset<A>({{hops[0], 1}}), 7));
    b.add(wire_route<A>(nets[1], nhset<A>({{hops[0], 1}, {hops[1], 3}}), 3));
    b.del(wire_route<A>(nets[2], nhset<A>({{hops[2], 1}}), 11));
    b.replace(wire_route<A>(nets[3], nhset<A>({{hops[0], 1}, {hops[1], 1}}), 2),
              wire_route<A>(nets[3], nhset<A>({{hops[3], 1}}), 9));
    b.replace(
        wire_route<A>(nets[4], nhset<A>({{hops[2], 1}}), 4),
        wire_route<A>(nets[4],
                      nhset<A>({{hops[0], 2}, {hops[1], 5}, {hops[3], 1}}),
                      0xffffffffu));
    return b;
}

RouteBatch4 every_shape4() {
    return every_shape<net::IPv4>(
        {"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16", "10.4.0.0/16",
         "0.0.0.0/0"},
        {"192.0.2.1", "192.0.2.2", "192.0.2.4", "192.0.2.7"});
}

RouteBatch6 every_shape6() {
    return every_shape<net::IPv6>(
        {"2001:db8:1::/48", "2001:db8:2::/48", "2001:db8:3::/128",
         "2001:db8:4::/64", "::/0"},
        {"fe80::1", "fe80::2", "2001:db8::4", "fe80::ffff:7"});
}

// The wire carries net + nexthops + metric of each half (protocol/admin
// ride at batch level on the XRL verb), in the canonical scalar-collapsed
// form, so those fields must come back exactly.
template <class A>
void expect_same_wire_fields(const BatchEntry<A>& got,
                             const BatchEntry<A>& want, size_t i) {
    EXPECT_EQ(got.op, want.op) << i;
    EXPECT_EQ(got.route.net, want.route.net) << i;
    EXPECT_EQ(got.route.metric, want.route.metric) << i;
    EXPECT_EQ(got.route.nexthop, want.route.nexthop) << i;
    EXPECT_EQ(got.route.nexthops, want.route.nexthops) << i;
    if (want.op != BatchOp::kReplace) return;
    EXPECT_EQ(got.old_route.net, want.route.net) << i;
    EXPECT_EQ(got.old_route.metric, want.old_route.metric) << i;
    EXPECT_EQ(got.old_route.nexthop, want.old_route.nexthop) << i;
    EXPECT_EQ(got.old_route.nexthops, want.old_route.nexthops) << i;
}

template <class A>
void expect_roundtrip(const RouteBatch<A>& b) {
    auto dec = RouteBatch<A>::decode(b.encode());
    ASSERT_TRUE(dec.has_value());
    ASSERT_EQ(dec->size(), b.size());
    for (size_t i = 0; i < b.size(); ++i)
        expect_same_wire_fields(dec->entries()[i], b.entries()[i], i);
}

// Byte offset just past each entry of `b`'s encoding.
template <class A>
std::vector<size_t> entry_ends(const RouteBatch<A>& b) {
    std::vector<size_t> ends;
    size_t at = 0;
    for (const auto& e : b.entries()) {
        RouteBatch<A> one;
        one.push(e);
        at += one.encode().size();
        ends.push_back(at);
    }
    return ends;
}

// Every strict prefix either is rejected or decodes to exactly the whole
// entries it contains — never to a partial or invented entry.
template <class A>
void expect_prefixes_safe(const RouteBatch<A>& b) {
    const std::string wire = b.encode();
    const auto ends = entry_ends(b);
    ASSERT_EQ(ends.back(), wire.size());
    for (size_t len = 0; len < wire.size(); ++len) {
        auto dec = RouteBatch<A>::decode(std::string_view(wire).substr(0, len));
        const auto whole = static_cast<size_t>(
            std::upper_bound(ends.begin(), ends.end(), len) - ends.begin());
        const bool at_boundary =
            len == 0 || (whole > 0 && ends[whole - 1] == len);
        if (!at_boundary) {
            EXPECT_FALSE(dec.has_value()) << "prefix " << len;
            continue;
        }
        ASSERT_TRUE(dec.has_value()) << "prefix " << len;
        ASSERT_EQ(dec->size(), whole) << "prefix " << len;
        for (size_t i = 0; i < whole; ++i)
            expect_same_wire_fields(dec->entries()[i], b.entries()[i], i);
    }
}

}  // namespace

TEST(RouteBatch, WireRoundtripPreservesEveryEntry) {
    expect_roundtrip(every_shape4());
    expect_roundtrip(every_shape6());
}

TEST(RouteBatch, ScalarEntryIsTwentyBytesV4) {
    RouteBatch4 b;
    b.add(mkroute("10.0.0.0/8"));
    EXPECT_EQ(b.encode().size(), 20u);
    EXPECT_EQ(RouteBatch4::kMinEntryBytes, 20u);
    EXPECT_EQ(RouteBatch6::kMinEntryBytes, 44u);
}

TEST(RouteBatch, DecodeRejectsMalformedFrames) {
    // A scalar v4 add: op | addr | len | metric | n=1 | addr | weight.
    RouteBatch4 one;
    one.add(mkroute("10.0.0.0/8", "192.0.2.1", 5));
    const std::string good = one.encode();
    ASSERT_EQ(good.size(), 20u);
    ASSERT_TRUE(RouteBatch4::decode(good));
    constexpr size_t kOp = 0, kLen = 5, kCount = 10;

    std::string bad = good;
    bad[kOp] = 3;  // ops are 0..2
    EXPECT_FALSE(RouteBatch4::decode(bad));

    bad = good;
    bad[kLen] = 33;
    EXPECT_FALSE(RouteBatch4::decode(bad));

    // An empty nexthop list, with no member bytes after it.
    bad = good.substr(0, kCount + 2);
    bad[kCount] = 0;
    EXPECT_FALSE(RouteBatch4::decode(bad));

    bad = good;
    bad[kCount] = 2;  // two members, bytes for one
    EXPECT_FALSE(RouteBatch4::decode(bad));
    bad[kCount] = 0;
    bad[kCount + 1] = 0x10;  // 4096 members
    EXPECT_FALSE(RouteBatch4::decode(bad));

    RouteBatch6 one6;
    one6.add(wire_route<net::IPv6>("2001:db8::/32",
                                   nhset<net::IPv6>({{"fe80::1", 1}}), 5));
    std::string bad6 = one6.encode();
    ASSERT_EQ(bad6.size(), 44u);
    ASSERT_TRUE(RouteBatch6::decode(bad6));
    bad6[17] = static_cast<char>(129);  // v6 prefix length follows 16 bytes
    EXPECT_FALSE(RouteBatch6::decode(bad6));
    bad6[17] = static_cast<char>(128);
    EXPECT_TRUE(RouteBatch6::decode(bad6));

    // A replace missing its old half.
    RouteBatch4 rep;
    rep.replace(mkroute("10.0.0.0/8", "192.0.2.1", 1),
                mkroute("10.0.0.0/8", "192.0.2.2", 2));
    const std::string rep_wire = rep.encode();
    EXPECT_FALSE(RouteBatch4::decode(
        std::string_view(rep_wire).substr(0, good.size())));

    // Empty input is the empty batch, not an error.
    auto empty = RouteBatch4::decode("");
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->empty());
}

TEST(RouteBatch, StrictPrefixesDecodeOnlyWholeEntries) {
    expect_prefixes_safe(every_shape4());
    expect_prefixes_safe(every_shape6());
}

// Seeded mutation fuzz over a valid encoding: byte flips, inserts and
// truncations. Decoding must never crash (ci.sh runs this under
// ASan+UBSan) and never yield more entries than the bytes could hold.
TEST(RouteBatch, DecodeSurvivesSeededMutations) {
    RouteBatch4 base = every_shape4();
    const RouteBatch4 more = every_shape4();
    for (const auto& e : more.entries()) base.push(e);
    const std::string valid = base.encode();
    std::mt19937 rng(1777);
    size_t accepted = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        std::string wire = valid;
        const int edits = 1 + static_cast<int>(rng() % 4);
        for (int k = 0; k < edits && !wire.empty(); ++k) {
            const size_t at = rng() % wire.size();
            switch (rng() % 3) {
            case 0:
                wire[at] = static_cast<char>(wire[at] ^ (1u << (rng() % 8)));
                break;
            case 1:
                wire.insert(wire.begin() + static_cast<long>(at),
                            static_cast<char>(rng()));
                break;
            default:
                wire.resize(at);
                break;
            }
        }
        auto dec = RouteBatch4::decode(wire);
        if (!dec) continue;
        ++accepted;
        ASSERT_LE(dec->size(), wire.size() / RouteBatch4::kMinEntryBytes)
            << "iteration " << iter;
    }
    // Flips inside metrics and weights keep a frame valid: the fuzz must
    // reach the decoder's accept path, not only its early rejections.
    EXPECT_GT(accepted, 0u);
}

// ---- attribute interning ------------------------------------------------

TEST(Interning, EqualAttributeBlocksShareOneAllocation) {
    bgp::PathAttributes pa;
    pa.origin = bgp::Origin::kIgp;
    pa.nexthop = IPv4::must_parse("192.0.2.1");
    pa.med = 50;
    auto p1 = bgp::intern_attrs(pa);
    auto p2 = bgp::intern_attrs(pa);
    EXPECT_EQ(p1.get(), p2.get());  // flyweight: same block

    pa.med = 51;
    auto p3 = bgp::intern_attrs(pa);
    EXPECT_NE(p1.get(), p3.get());  // distinct value, distinct block

    // With interning off it degrades to plain allocation.
    bgp::set_attr_interning_enabled(false);
    auto p4 = bgp::intern_attrs(*p1);
    EXPECT_NE(p1.get(), p4.get());
    EXPECT_EQ(*p1, *p4);
    bgp::set_attr_interning_enabled(true);
}

TEST(Interning, TableDropsValuesWithTheirLastRoute) {
    bgp::PathAttributes pa;
    pa.nexthop = IPv4::must_parse("203.0.113.77");
    pa.local_pref = 424242;  // value unique to this test
    auto p1 = bgp::intern_attrs(pa);
    auto held = bgp::attr_intern_table().stats().live;
    p1.reset();  // last reference gone
    bgp::attr_intern_table().purge();
    EXPECT_LT(bgp::attr_intern_table().stats().live, held);
}

TEST(Interning, NexthopSetCowProtectsCanonicalValue) {
    net::NexthopSet4 a;
    a.insert(IPv4::must_parse("192.0.2.1"));
    a.insert(IPv4::must_parse("192.0.2.2"), 3);
    a.intern();

    // A copy shares the canonical rep; mutating it must copy first.
    net::NexthopSet4 b = a;
    b.insert(IPv4::must_parse("192.0.2.3"));
    EXPECT_EQ(a.size(), 2u);
    EXPECT_EQ(b.size(), 3u);
    EXPECT_TRUE(a.contains(IPv4::must_parse("192.0.2.2")));
    EXPECT_FALSE(a.contains(IPv4::must_parse("192.0.2.3")));

    // Erase through another handle: canonical value still untouched.
    net::NexthopSet4 c = a;
    ASSERT_TRUE(c.erase(IPv4::must_parse("192.0.2.1")));
    EXPECT_EQ(a.size(), 2u);
    EXPECT_EQ(a.str(), "192.0.2.1|192.0.2.2@3");

    // Same members built in a different insertion order intern to the
    // live canonical rep — observable as an intern-table hit.
    auto before = net::NexthopSet4::intern_stats();
    net::NexthopSet4 d;
    d.insert(IPv4::must_parse("192.0.2.2"), 3);
    d.insert(IPv4::must_parse("192.0.2.1"));
    d.intern();
    auto after = net::NexthopSet4::intern_stats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(d, a);

    // With the flyweight disabled intern() is a no-op.
    net::set_nexthop_interning_enabled(false);
    auto off_before = net::NexthopSet4::intern_stats();
    net::NexthopSet4 e = a;
    e.insert(IPv4::must_parse("192.0.2.9"));
    e.intern();
    auto off_after = net::NexthopSet4::intern_stats();
    EXPECT_EQ(off_after.hits, off_before.hits);
    EXPECT_EQ(off_after.misses, off_before.misses);
    net::set_nexthop_interning_enabled(true);
}

// ---- trie arena ---------------------------------------------------------

TEST(TrieArena, ToggleSnapshotsAndCorrectnessHolds) {
    const bool was = net::trie_arena_enabled();
    auto exercise = [](net::RouteTrie<IPv4, uint32_t>& t) {
        for (uint32_t i = 0; i < 200; ++i) {
            IPv4Net n(IPv4::must_parse("10." + std::to_string(i / 16) + "." +
                                       std::to_string(i % 16) + ".0"),
                      24);
            t.insert(n, i);
        }
        EXPECT_EQ(t.size(), 200u);
        for (uint32_t i = 0; i < 200; i += 2) {
            IPv4Net n(IPv4::must_parse("10." + std::to_string(i / 16) + "." +
                                       std::to_string(i % 16) + ".0"),
                      24);
            ASSERT_NE(t.find(n), nullptr);
            EXPECT_EQ(*t.find(n), i);
            t.erase(n);
            EXPECT_EQ(t.find(n), nullptr);
        }
        EXPECT_EQ(t.size(), 100u);
        const uint32_t* hit = t.lookup(IPv4::must_parse("10.0.1.77"));
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(*hit, 1u);
    };

    net::set_trie_arena_enabled(true);
    net::RouteTrie<IPv4, uint32_t> on;
    EXPECT_EQ(on.arena_bytes(), 0u);  // the root lives in the trie itself
    exercise(on);
    EXPECT_GT(on.arena_bytes(), 0u);

    // The flag is snapshotted at construction: a trie built with the
    // arena off heap-allocates and reports zero arena footprint.
    net::set_trie_arena_enabled(false);
    net::RouteTrie<IPv4, uint32_t> off;
    exercise(off);
    EXPECT_EQ(off.arena_bytes(), 0u);

    net::set_trie_arena_enabled(was);
}

// ---- the equivalence oracle (stage level) -------------------------------
//
// The batch API's contract is that replaying a batch entry-by-entry
// through the per-route calls is semantically identical to pushing it as
// one message. The oracle feeds one randomized stream through two
// identical pipelines — scalar calls vs. randomly-chunked batches — with
// a consistency checker in the middle, and demands bit-identical final
// tables AND an identical downstream message stream, across a mid-stream
// origin death (DeletionStage drain) and a graceful-restart resync with
// a stale sweep.

namespace {

struct Op {
    bool is_add = true;
    Route4 route;
};

std::vector<Op> make_stream(uint32_t seed, size_t n) {
    std::mt19937 rng(seed);
    std::vector<Op> ops;
    ops.reserve(n);
    const char* nhs[] = {"192.0.2.1", "192.0.2.2", "192.0.2.3", "192.0.2.4"};
    for (size_t i = 0; i < n; ++i) {
        Op op;
        const uint32_t a = rng() % 8, b = rng() % 8;
        op.is_add = rng() % 10 < 6;
        op.route = mkroute("10." + std::to_string(a) + "." +
                               std::to_string(b) + ".0/24",
                           nhs[rng() % 4], 1 + rng() % 10);
        if (op.is_add && rng() % 4 == 0) {
            // Every fourth add is multipath, occasionally weighted.
            net::NexthopSet4 set;
            const size_t k = 2 + rng() % 3;
            for (size_t j = 0; j < k; ++j)
                set.insert(IPv4::must_parse(nhs[(j + rng() % 4) % 4]),
                           rng() % 3 == 0 ? 2 + rng() % 4 : 1);
            op.route.set_nexthops(set);
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

struct OraclePipe {
    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    OriginStage<IPv4> origin{"peer"};
    CacheStage<IPv4> checker{"check"};
    std::vector<std::pair<bool, Route4>> msgs;
    SinkStage<IPv4> sink{"sink", [this](bool is_add, const Route4& r) {
                             msgs.emplace_back(is_add, r);
                         }};

    OraclePipe() {
        origin.set_downstream(&checker);
        checker.set_upstream(&origin);
        checker.set_downstream(&sink);
        sink.set_upstream(&checker);
    }

    // Feeds ops[begin, end): scalar calls, or batches of random sizes
    // drawn from `chunk_rng` (the chunking must not change anything, so
    // its seed is independent of the stream).
    void feed(const std::vector<Op>& ops, size_t begin, size_t end,
              std::mt19937* chunk_rng) {
        if (chunk_rng == nullptr) {
            for (size_t i = begin; i < end; ++i) {
                if (ops[i].is_add)
                    origin.add_route(ops[i].route);
                else
                    origin.delete_route(ops[i].route);
            }
            return;
        }
        size_t i = begin;
        while (i < end) {
            RouteBatch4 b;
            for (size_t k = 1 + (*chunk_rng)() % 8; k > 0 && i < end;
                 --k, ++i) {
                if (ops[i].is_add)
                    b.add(ops[i].route);
                else
                    b.del(ops[i].route);
            }
            origin.push_batch(std::move(b));
        }
    }

    // Peer death: detach the table into a DeletionStage and drain it
    // completely before the stream resumes.
    void kill_and_drain() {
        bool completed = false;
        auto del = std::make_unique<DeletionStage<IPv4>>(
            "del", origin.detach_table(), loop,
            [&](DeletionStage<IPv4>*) { completed = true; }, 7);
        plumb_between<IPv4>(origin, *del, checker);
        loop.run_until([&] { return completed; }, 10s);
        ASSERT_TRUE(completed);
    }

    // Graceful restart: mark everything stale, re-confirm `survivors`
    // (identical re-advertisements — zero downstream traffic), then sweep
    // the stale remainder in background slices.
    void restart_resync_sweep(const std::vector<Route4>& survivors,
                              bool batched) {
        origin.begin_refresh();
        if (batched) {
            RouteBatch4 b;
            for (const auto& r : survivors) b.add(r);
            origin.push_batch(std::move(b));
        } else {
            for (const auto& r : survivors) origin.add_route(r);
        }
        bool completed = false;
        auto sweeper = std::make_unique<StaleSweeperStage<IPv4>>(
            "sweep", origin, loop,
            [&](StaleSweeperStage<IPv4>*) { completed = true; }, 5);
        plumb_between<IPv4>(origin, *sweeper, checker);
        loop.run_until([&] { return completed; }, 10s);
        ASSERT_TRUE(completed);
    }

    std::vector<Route4> table_rows() const {
        std::vector<Route4> rows;
        sink.table().for_each(
            [&](const IPv4Net&, const Route4& r) { rows.push_back(r); });
        return rows;
    }
};

}  // namespace

TEST(BatchOracle, RandomStreamBatchEqualsPerRoute) {
    const auto ops = make_stream(0xb8bc01e5, 400);
    OraclePipe scalar, batched;
    std::mt19937 chunk_rng(0x5eed);

    // First half of the stream.
    scalar.feed(ops, 0, ops.size() / 2, nullptr);
    batched.feed(ops, 0, ops.size() / 2, &chunk_rng);

    // Mid-stream origin death, fully drained in both variants.
    scalar.kill_and_drain();
    batched.kill_and_drain();

    // Second half.
    scalar.feed(ops, ops.size() / 2, ops.size(), nullptr);
    batched.feed(ops, ops.size() / 2, ops.size(), &chunk_rng);

    // Graceful restart: re-confirm every other held route (trie order is
    // deterministic and the tables are equal, so both variants pick the
    // same survivors), then sweep the stale rest.
    std::vector<Route4> held;
    scalar.origin.table().for_each(
        [&](const IPv4Net&, const Route4& r) { held.push_back(r); });
    std::vector<Route4> survivors;
    for (size_t i = 0; i < held.size(); i += 2) survivors.push_back(held[i]);
    scalar.restart_resync_sweep(survivors, false);
    batched.restart_resync_sweep(survivors, true);

    // The oracle: identical message streams, identical final state.
    EXPECT_GT(scalar.msgs.size(), 100u);  // the test actually exercised it
    ASSERT_EQ(scalar.msgs.size(), batched.msgs.size());
    for (size_t i = 0; i < scalar.msgs.size(); ++i) {
        ASSERT_EQ(scalar.msgs[i].first, batched.msgs[i].first) << "msg " << i;
        ASSERT_EQ(scalar.msgs[i].second, batched.msgs[i].second)
            << "msg " << i << " net " << scalar.msgs[i].second.net.str();
    }
    EXPECT_TRUE(scalar.checker.consistent())
        << scalar.checker.violations().front();
    EXPECT_TRUE(batched.checker.consistent())
        << batched.checker.violations().front();

    auto rows_a = scalar.table_rows();
    auto rows_b = batched.table_rows();
    ASSERT_EQ(rows_a.size(), rows_b.size());
    for (size_t i = 0; i < rows_a.size(); ++i)
        EXPECT_EQ(rows_a[i], rows_b[i]) << rows_a[i].net.str();
    EXPECT_EQ(scalar.origin.route_count(), batched.origin.route_count());
    EXPECT_EQ(scalar.origin.route_count(), survivors.size());
    EXPECT_EQ(scalar.origin.stale_count(), 0u);
    EXPECT_EQ(batched.origin.stale_count(), 0u);
}

// ---- emitters outside push_batch ----------------------------------------
//
// A refilter pass, a background deletion slice and a stale-sweep slice
// each reach downstream as one batch carrying the stream the per-route
// emission would have made.

TEST(Collector, RefilterPassesAndBackgroundSlicesLeaveAsBatches) {
    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    OriginStage<IPv4> origin{"peer"};
    CacheStage<IPv4> checker{"check"};
    tests::StreamProbe<IPv4> probe;
    origin.set_downstream(&checker);
    checker.set_upstream(&origin);
    checker.set_downstream(&probe.sink);
    probe.sink.set_upstream(&checker);

    std::vector<Route4> held;  // trie order
    for (uint32_t i = 0; i < 50; ++i)
        origin.add_route(mkroute("10.0." + std::to_string(i) + ".0/24"));
    origin.table().for_each(
        [&](const IPv4Net&, const Route4& r) { held.push_back(r); });
    auto expect_stream = [&](bool is_add, const std::vector<Route4>& want) {
        ASSERT_EQ(probe.stream.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(probe.stream[i].first, is_add) << i;
            EXPECT_EQ(probe.stream[i].second, want[i]) << i;
        }
    };

    probe.reset();
    origin.retract_all();
    EXPECT_EQ(probe.batches, 1u);
    EXPECT_EQ(probe.scalars, 0u);
    expect_stream(false, held);

    probe.reset();
    origin.announce_all();
    EXPECT_EQ(probe.batches, 1u);
    EXPECT_EQ(probe.scalars, 0u);
    expect_stream(true, held);

    // Stale sweep in slices of 7 entries examined: 50 entries make 8
    // slices, each holding at least one stale route.
    origin.begin_refresh();
    std::vector<Route4> stale;
    for (size_t i = 0; i < held.size(); ++i) {
        if (i % 3 == 0)
            origin.add_route(held[i]);  // re-confirmed, silently
        else
            stale.push_back(held[i]);
    }
    probe.reset();
    bool swept = false;
    auto sweeper = std::make_unique<StaleSweeperStage<IPv4>>(
        "sweep", origin, loop,
        [&](StaleSweeperStage<IPv4>*) { swept = true; }, 7);
    plumb_between<IPv4>(origin, *sweeper, checker);
    loop.run_until([&] { return swept; }, 10s);
    ASSERT_TRUE(swept);
    EXPECT_EQ(probe.batches, 8u);
    EXPECT_EQ(probe.scalars, 0u);
    expect_stream(false, stale);

    // Background deletion of the survivors in slices of 5 routes.
    std::vector<Route4> survivors;
    origin.table().for_each(
        [&](const IPv4Net&, const Route4& r) { survivors.push_back(r); });
    ASSERT_EQ(survivors.size(), 17u);
    probe.reset();
    bool drained = false;
    auto del = std::make_unique<DeletionStage<IPv4>>(
        "del", origin.detach_table(), loop,
        [&](DeletionStage<IPv4>*) { drained = true; }, 5);
    plumb_between<IPv4>(origin, *del, checker);
    loop.run_until([&] { return drained; }, 10s);
    ASSERT_TRUE(drained);
    EXPECT_EQ(probe.batches, 4u);  // ceil(17 / 5)
    EXPECT_EQ(probe.scalars, 0u);
    expect_stream(false, survivors);
    EXPECT_EQ(checker.route_count(), 0u);
    EXPECT_TRUE(checker.consistent()) << checker.violations().front();
}

// An IGP cover coming or going re-resolves every external route parked
// behind it. Both directions leave ExtInt as one batch carrying the
// stream the per-route emission would have made: the cover itself, then
// each dependent in trie order.
TEST(Collector, ExtIntCoverReleasesAndRetractsParkedRoutesAsOneBatch) {
    OriginStage<IPv4> ext{"ebgp"};
    OriginStage<IPv4> igp{"igp"};
    ExtIntStage<IPv4> extint{"extint"};
    extint.set_parents(&ext, &igp);
    tests::StreamProbe<IPv4> probe;
    extint.set_downstream(&probe.sink);
    probe.sink.set_upstream(&extint);

    constexpr size_t kParked = 40;
    for (size_t i = 0; i < kParked; ++i)
        ext.add_route(mkroute("10." + std::to_string(i) + ".0.0/16",
                              "192.0.2.1", 1, "ebgp", 20));
    ASSERT_EQ(extint.unresolved_count(), kParked);
    EXPECT_TRUE(probe.stream.empty());

    const Route4 cover = mkroute("192.0.2.0/24", "192.0.2.254", 7, "igp", 110);
    std::vector<std::pair<bool, Route4>> per_route{{true, cover}};
    ext.table().for_each([&](const IPv4Net&, const Route4& r) {
        Route4 resolved = r;
        resolved.igp_metric = cover.metric;
        per_route.emplace_back(true, resolved);
    });
    ASSERT_EQ(per_route.size(), kParked + 1);

    probe.reset();
    igp.add_route(cover);
    EXPECT_EQ(probe.batches, 1u);
    EXPECT_EQ(probe.scalars, 0u);
    EXPECT_EQ(probe.stream, per_route);
    EXPECT_EQ(extint.unresolved_count(), 0u);

    // An IGP change that no external route depends on carries just
    // itself, one message per change.
    const Route4 other = mkroute("198.51.100.0/24", "192.0.2.254", 3, "igp",
                                 110);
    probe.reset();
    igp.add_route(other);
    igp.delete_route(other);
    EXPECT_EQ(probe.batches + probe.scalars, 2u);
    EXPECT_EQ(probe.stream, (std::vector<std::pair<bool, Route4>>{
                                {true, other}, {false, other}}));

    // Deleting the cover retracts the same routes the same way.
    for (auto& [is_add, r] : per_route) is_add = false;
    probe.reset();
    igp.delete_route(cover);
    EXPECT_EQ(probe.batches, 1u);
    EXPECT_EQ(probe.scalars, 0u);
    EXPECT_EQ(probe.stream, per_route);
    EXPECT_EQ(extint.unresolved_count(), kParked);
    ext.table().for_each([&](const IPv4Net& net, const Route4&) {
        EXPECT_FALSE(extint.lookup_route(net).has_value()) << net.str();
    });
}

// ---- the equivalence oracle (whole RIB) ---------------------------------
//
// Same idea one layer up: a mixed-protocol stream into two full RIBs —
// scalar add_route/delete_route vs. push_batch with batches cut at
// protocol changes (a batch rides one origin, matching the wire verb) —
// must leave identical RIB winners and identical FEA FIBs.

namespace {

struct RibPipe {
    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    fea::Fea fea{loop};
    rib::Rib rib{loop, std::make_unique<rib::DirectFeaHandle>(fea)};

    RibPipe() {
        fea.interfaces().add_interface("eth0", IPv4::must_parse("192.0.2.1"),
                                       24);
        rib.add_route("connected", IPv4Net::must_parse("192.0.2.0/24"),
                      IPv4::must_parse("192.0.2.1"), 0);
    }

    std::vector<fea::FibEntry> fib_rows() const {
        std::vector<fea::FibEntry> rows;
        fea.fib().for_each(
            [&](const IPv4Net&, const fea::FibEntry& e) { rows.push_back(e); });
        std::sort(rows.begin(), rows.end(),
                  [](const fea::FibEntry& a, const fea::FibEntry& b) {
                      return a.net < b.net;
                  });
        return rows;
    }
};

}  // namespace

TEST(BatchOracle, RibBulkInputMatchesScalarInput) {
    const char* protos[] = {"static", "rip", "ospf", "ebgp"};
    std::mt19937 rng(0x00c0ffee);
    struct RibOp {
        std::string proto;
        bool is_add;
        Route4 route;
    };
    std::vector<RibOp> ops;
    for (size_t i = 0; i < 300; ++i) {
        RibOp op;
        op.proto = protos[rng() % 4];
        op.is_add = rng() % 10 < 7;
        op.route = mkroute("10." + std::to_string(rng() % 12) + ".0.0/16",
                           "192.0.2.10", 1 + rng() % 20);
        net::NexthopSet4 set;
        const size_t k = rng() % 5 == 0 ? 2 : 1;
        for (size_t j = 0; j < k; ++j)
            set.insert(
                IPv4::must_parse("192.0.2." + std::to_string(10 + rng() % 6)));
        op.route.set_nexthops(set);
        ops.push_back(std::move(op));
    }

    RibPipe scalar, batched;
    for (const auto& op : ops) {
        if (op.is_add)
            scalar.rib.add_route(op.proto, op.route.net,
                                 op.route.nexthop_set(), op.route.metric);
        else
            scalar.rib.delete_route(op.proto, op.route.net);
    }

    // Batch variant: maximal same-protocol runs (protocol is batch-level
    // context on the wire, so a flush happens at every protocol change).
    RouteBatch4 pending;
    std::string pending_proto;
    auto flush = [&] {
        if (pending.empty()) return;
        ASSERT_TRUE(batched.rib.push_batch(pending_proto, std::move(pending)));
        pending.clear();
    };
    for (const auto& op : ops) {
        if (op.proto != pending_proto) {
            flush();
            pending_proto = op.proto;
        }
        if (op.is_add) {
            Route4 r = op.route;
            pending.add(std::move(r));
        } else {
            Route4 r;
            r.net = op.route.net;
            pending.del(std::move(r));
        }
    }
    flush();

    EXPECT_EQ(scalar.rib.route_count(), batched.rib.route_count());
    auto rows_a = scalar.fib_rows();
    auto rows_b = batched.fib_rows();
    ASSERT_EQ(rows_a.size(), rows_b.size());
    ASSERT_GT(rows_a.size(), 2u);
    for (size_t i = 0; i < rows_a.size(); ++i)
        EXPECT_EQ(rows_a[i], rows_b[i]) << rows_a[i].net.str();
    // Winner arbitration agrees prefix by prefix.
    for (uint32_t i = 0; i < 12; ++i) {
        auto net = IPv4Net::must_parse("10." + std::to_string(i) + ".0.0/16");
        auto a = scalar.rib.lookup_exact(net);
        auto b = batched.rib.lookup_exact(net);
        ASSERT_EQ(a.has_value(), b.has_value()) << net.str();
        if (a) {
            EXPECT_EQ(a->protocol, b->protocol) << net.str();
            EXPECT_EQ(a->nexthop_set(), b->nexthop_set()) << net.str();
            EXPECT_EQ(a->metric, b->metric) << net.str();
        }
    }
}

// ---- bulk XRLs end to end -----------------------------------------------

TEST(BulkXrl, BatchFlowsThroughRibToFeaOverWire) {
    ev::RealClock clock;
    ipc::Plexus plexus(clock);

    // FEA process.
    fea::Fea fea(plexus.loop);
    fea.interfaces().add_interface("eth0", IPv4::must_parse("192.0.2.1"), 24);
    ipc::XrlRouter fea_router(plexus, "fea", true);
    fea::bind_fea_xrl(fea, fea_router);
    ASSERT_TRUE(fea_router.finalize());

    // RIB process, coupled to the FEA over XRLs.
    ipc::XrlRouter rib_router(plexus, "rib", true);
    rib::Rib rib(plexus.loop, std::make_unique<rib::XrlFeaHandle>(rib_router));
    rib::bind_rib_xrl(rib, rib_router);
    ASSERT_TRUE(rib_router.finalize());

    // IGP cover for the BGP nexthops below.
    rib.add_route("connected", IPv4Net::must_parse("192.0.2.0/24"),
                  IPv4::must_parse("192.0.2.1"), 0);

    // BGP-side client pushing one decision delta that mixes protocols —
    // XrlRibHandle regroups it into per-protocol add_routes_bulk calls.
    ipc::XrlRouter bgp_router(plexus, "bgp");
    ASSERT_TRUE(bgp_router.finalize());
    bgp::XrlRibHandle handle(bgp_router);

    RouteBatch4 delta;
    for (uint32_t i = 0; i < 12; ++i) {
        Route4 r = mkroute("10." + std::to_string(i) + ".0.0/16",
                           "192.0.2.9", 0, i % 3 == 2 ? "ibgp" : "ebgp");
        r.igp_metric = 5;
        if (i % 4 == 0) {
            net::NexthopSet4 set;
            set.insert(IPv4::must_parse("192.0.2.9"));
            set.insert(IPv4::must_parse("192.0.2.10"), 2);
            r.set_nexthops(set);
        }
        delta.add(std::move(r));
    }
    handle.push_batch(std::move(delta));

    // 12 BGP routes + the connected route.
    plexus.loop.run_until([&] { return fea.fib().size() == 13; }, 5s);
    ASSERT_EQ(fea.fib().size(), 13u);
    EXPECT_EQ(rib.route_count(), 13u);
    const fea::FibEntry* e = fea.lookup(IPv4::must_parse("10.0.1.1"));
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->is_multipath());
    EXPECT_EQ(e->nexthops.str(), "192.0.2.9|192.0.2.10@2");
    e = fea.lookup(IPv4::must_parse("10.1.1.1"));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->nexthop.str(), "192.0.2.9");

    // Churn delta: replaces and deletes ride the same bulk path.
    RouteBatch4 churn;
    for (uint32_t i = 0; i < 12; ++i) {
        Route4 old_r = mkroute("10." + std::to_string(i) + ".0.0/16",
                               "192.0.2.9", 0, i % 3 == 2 ? "ibgp" : "ebgp");
        old_r.igp_metric = 5;
        if (i % 4 == 0) {
            net::NexthopSet4 set;
            set.insert(IPv4::must_parse("192.0.2.9"));
            set.insert(IPv4::must_parse("192.0.2.10"), 2);
            old_r.set_nexthops(set);
        }
        if (i % 2 == 0) {
            Route4 new_r = mkroute("10." + std::to_string(i) + ".0.0/16",
                                   "192.0.2.11", 0,
                                   i % 3 == 2 ? "ibgp" : "ebgp");
            new_r.igp_metric = 7;
            churn.replace(std::move(old_r), std::move(new_r));
        } else {
            churn.del(std::move(old_r));
        }
    }
    handle.push_batch(std::move(churn));

    plexus.loop.run_until([&] { return fea.fib().size() == 7; }, 5s);
    ASSERT_EQ(fea.fib().size(), 7u);  // 6 replaced survivors + connected
    e = fea.lookup(IPv4::must_parse("10.0.1.1"));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->nexthop.str(), "192.0.2.11");
    EXPECT_EQ(fea.lookup(IPv4::must_parse("10.1.1.1")), nullptr);

    // The bulk verb validates its inputs: an unknown protocol and a
    // truncated encoding are command failures, not crashes.
    RouteBatch4 valid;
    valid.add(mkroute("10.0.0.0/8"));
    valid.add(mkroute("11.0.0.0/8"));
    auto expect_command_failed = [&](const std::string& protocol,
                                     std::vector<uint8_t> routes) {
        bool done = false;
        xrl::XrlError result;
        xrl::XrlArgs args;
        args.add("protocol", protocol).add("routes", std::move(routes));
        bgp_router.send(
            xrl::Xrl::generic("rib", "rib", "1.0", "add_routes_bulk", args),
            [&](const xrl::XrlError& err, const xrl::XrlArgs&) {
                result = err;
                done = true;
            });
        plexus.loop.run_until([&] { return done; }, 5s);
        ASSERT_TRUE(done);
        EXPECT_EQ(result.code(), xrl::ErrorCode::kCommandFailed)
            << result.str();
    };
    expect_command_failed("carrier-pigeon", valid.encode_bytes());
    std::vector<uint8_t> truncated = valid.encode_bytes();
    truncated.resize(truncated.size() - 3);
    expect_command_failed("ebgp", std::move(truncated));
    EXPECT_EQ(fea.fib().size(), 7u);
}

// ---- a BGP full load and a peer-down, counted in XRLs ----------------------
//
// BGP -> RIB -> FEA, each on its own XrlRouter talking stcp over
// loopback, with a FeedPeer session into BGP. The feed's UPDATEs all
// arrive before the RIB's reply to BGP's one register_interest crosses
// the socket, so every route parks in the Nexthop Resolver; the answer
// must release them into the bulk path, not route by route.

namespace {

struct BgpRibFea {
    static constexpr uint32_t kFeedAs = 65001;

    ev::RealClock clock;
    ipc::Plexus plexus{clock};
    fea::Fea fea{plexus.loop};
    ipc::XrlRouter fea_router{plexus, "fea", true};
    ipc::XrlRouter rib_router{plexus, "rib", true};
    rib::Rib rib{plexus.loop, std::make_unique<rib::XrlFeaHandle>(rib_router)};
    ipc::XrlRouter bgp_router{plexus, "bgp", true};
    std::unique_ptr<bgp::BgpProcess> bgp;
    std::unique_ptr<sim::FeedPeer> feed;
    const IPv4 feed_addr = IPv4::must_parse("192.0.2.9");

    BgpRibFea() {
        fea.interfaces().add_interface("eth0", IPv4::must_parse("192.0.2.1"),
                                       24);
        fea::bind_fea_xrl(fea, fea_router);
        fea_router.enable_tcp();
        EXPECT_TRUE(fea_router.finalize());
        rib::bind_rib_xrl(rib, rib_router);
        rib_router.enable_tcp();
        EXPECT_TRUE(rib_router.finalize());
        rib_router.set_preferred_family("stcp");
        // The covering IGP route for the feed's nexthop.
        rib.add_route("connected", IPv4Net::must_parse("192.0.2.0/24"),
                      IPv4::must_parse("192.0.2.1"), 0);

        bgp::BgpProcess::Config cfg;
        cfg.local_as = 65000;
        cfg.bgp_id = IPv4::must_parse("192.0.2.250");
        bgp = std::make_unique<bgp::BgpProcess>(
            plexus.loop, cfg, std::make_unique<bgp::XrlRibHandle>(bgp_router));
        bgp::bind_bgp_xrl(*bgp, bgp_router);
        bgp_router.enable_tcp();
        EXPECT_TRUE(bgp_router.finalize());
        bgp_router.set_preferred_family("stcp");
        feed = sim::attach_feed_peer(plexus.loop, *bgp, feed_addr, kFeedAs,
                                     ev::Duration::zero())
                   .first;
        plexus.loop.run_until([&] { return feed->established(); }, 5s);
        EXPECT_TRUE(feed->established());
    }

    // Sends `routes` prefixes in 24-prefix UPDATEs back to back and waits
    // until all are in the FIB; returns the prefixes.
    std::vector<IPv4Net> load(size_t routes) {
        sim::RouteFeedConfig fc;
        fc.route_count = routes;
        fc.seed = 7;
        fc.prefixes_per_update = 24;
        fc.first_hop_as = kFeedAs;
        fc.nexthop = feed_addr;
        std::vector<IPv4Net> nets;
        for (const auto& u : sim::generate_feed(fc)) {
            nets.insert(nets.end(), u.nlri.begin(), u.nlri.end());
            feed->send(u);
        }
        const size_t want = fea.fib().size() + nets.size();
        plexus.loop.run_until([&] { return fea.fib().size() == want; }, 60s);
        return nets;
    }

    static uint64_t calls(const std::string& method) {
        return harness::ctr(
            telemetry::metric_key("xrl_calls_total", {{"method", method}}));
    }
};

// The scripting pair: no in-tree sender uses it.
constexpr const char* kRibTextAdd = "rib/1.0/add_route";
constexpr const char* kRibTextDelete = "rib/1.0/delete_route";
constexpr const char* kFeaTextAdd = "fea/1.0/add_route4";
constexpr const char* kFeaTextDelete = "fea/1.0/delete_route4";
constexpr const char* kRibBulk = "rib/1.0/add_routes_bulk";
constexpr const char* kFeaBulk = "fea/1.0/add_routes4_bulk";

}  // namespace

TEST(BulkXrl, ParkedFullLoadCrossesEachHopInBulk) {
    BgpRibFea s;
    ASSERT_TRUE(s.feed->established());
    const uint64_t scalar0 = BgpRibFea::calls(kRibTextAdd);
    const uint64_t rib0 = BgpRibFea::calls(kRibBulk);
    const uint64_t fea0 = BgpRibFea::calls(kFeaBulk);

    const size_t n = 20000;
    const auto nets = s.load(n);
    ASSERT_EQ(nets.size(), n);
    ASSERT_EQ(s.fea.fib().size(), n + 1);  // + the connected route
    for (const auto& net : nets) {
        const fea::FibEntry* e = s.fea.fib().find_exact(net);
        ASSERT_NE(e, nullptr) << net.str();
        EXPECT_EQ(e->nexthop, s.feed_addr) << net.str();
    }

    const uint64_t chunks = (n + 8191) / 8192;
    EXPECT_EQ(BgpRibFea::calls(kRibTextAdd) - scalar0, 0u);
    EXPECT_LE(BgpRibFea::calls(kRibBulk) - rib0, chunks);
    EXPECT_LE(BgpRibFea::calls(kFeaBulk) - fea0, chunks);
}

// The churn shape: a one-prefix UPDATE, then its withdrawal. Each is a
// one-route delta at both hops and crosses each as exactly one bulk XRL.
TEST(BulkXrl, SinglePrefixUpdateCrossesEachHopAsOneBulkXrl) {
    BgpRibFea s;
    ASSERT_TRUE(s.feed->established());
    auto text_calls = [] {
        return BgpRibFea::calls(kRibTextAdd) +
               BgpRibFea::calls(kRibTextDelete) +
               BgpRibFea::calls(kFeaTextAdd) +
               BgpRibFea::calls(kFeaTextDelete);
    };
    const uint64_t text0 = text_calls();
    uint64_t rib0 = BgpRibFea::calls(kRibBulk);
    uint64_t fea0 = BgpRibFea::calls(kFeaBulk);

    const auto nets = s.load(1);
    ASSERT_EQ(nets.size(), 1u);
    ASSERT_EQ(s.fea.fib().size(), 2u);
    EXPECT_EQ(BgpRibFea::calls(kRibBulk) - rib0, 1u);
    EXPECT_EQ(BgpRibFea::calls(kFeaBulk) - fea0, 1u);

    rib0 = BgpRibFea::calls(kRibBulk);
    fea0 = BgpRibFea::calls(kFeaBulk);
    bgp::UpdateMessage withdraw;
    withdraw.withdrawn.push_back(nets[0]);
    s.feed->send(withdraw);
    s.plexus.loop.run_until([&] { return s.fea.fib().size() == 1; }, 10s);
    ASSERT_EQ(s.fea.fib().find_exact(nets[0]), nullptr);
    EXPECT_EQ(BgpRibFea::calls(kRibBulk) - rib0, 1u);
    EXPECT_EQ(BgpRibFea::calls(kFeaBulk) - fea0, 1u);
    EXPECT_EQ(text_calls() - text0, 0u);
}

TEST(BulkXrl, PeerDownReachesTheRibAsOneBulkXrlPerSlice) {
    BgpRibFea s;
    ASSERT_TRUE(s.feed->established());
    const size_t n = 2000;
    ASSERT_EQ(s.load(n).size(), n);
    ASSERT_EQ(s.fea.fib().size(), n + 1);

    const uint64_t scalar0 = BgpRibFea::calls(kRibTextDelete);
    const uint64_t rib0 = BgpRibFea::calls(kRibBulk);
    s.feed->session().stop();  // Cease: BGP hands the table to a DeletionStage
    s.plexus.loop.run_until([&] { return s.fea.fib().size() == 1; }, 30s);
    ASSERT_EQ(s.fea.fib().size(), 1u);
    EXPECT_NE(s.fea.fib().find_exact(IPv4Net::must_parse("192.0.2.0/24")),
              nullptr);

    const size_t slices =
        (n + s.bgp->config().routes_per_slice - 1) /
        s.bgp->config().routes_per_slice;
    EXPECT_EQ(BgpRibFea::calls(kRibTextDelete) - scalar0, 0u);
    EXPECT_LE(BgpRibFea::calls(kRibBulk) - rib0, slices);
}

// ---- the scripting pair against the bulk verb ---------------------------
//
// rib/1.0/add_route + delete_route and fea/1.0/add_route4 + delete_route4
// exist for scripts (call_xrl). Over real XrlRouters they must leave the
// same RIB winners, FIB and journal as the same change sent in bulk.

namespace {

// One route change as a script would type it.
struct ScriptStep {
    const char* protocol;
    const char* net;
    const char* nexthop;  // nullptr: a delete
    uint32_t metric;
};

// FEA and RIB behind their own XrlRouters, reached by a script client.
// Whatever the components record while this stack's loop runs goes to
// its private journal.
struct ScriptedStack {
    ev::RealClock clock;
    ipc::Plexus plexus{clock};
    fea::Fea fea{plexus.loop};
    ipc::XrlRouter fea_router{plexus, "fea", true};
    ipc::XrlRouter rib_router{plexus, "rib", true};
    rib::Rib rib{plexus.loop, std::make_unique<rib::XrlFeaHandle>(rib_router)};
    ipc::XrlRouter cli{plexus, "cli"};
    telemetry::Journal journal;

    ScriptedStack() {
        fea.interfaces().add_interface("eth0", IPv4::must_parse("192.0.2.1"),
                                       24);
        fea::bind_fea_xrl(fea, fea_router);
        EXPECT_TRUE(fea_router.finalize());
        rib::bind_rib_xrl(rib, rib_router);
        EXPECT_TRUE(rib_router.finalize());
        journal.set_enabled(true);
    }

    // Runs `fn` with this stack's journal installed for the thread.
    template <class Fn>
    auto recording(Fn&& fn) {
        struct Scope {
            telemetry::Journal* prev;
            ~Scope() { telemetry::Journal::set_thread_override(prev); }
        } scope{telemetry::Journal::set_thread_override(&journal)};
        return fn();
    }

    bool run_until(const std::function<bool()>& pred) {
        return recording([&] {
            const bool ok = plexus.loop.run_until(pred, 5s);
            plexus.loop.run_for(20ms);
            return ok;
        });
    }

    // Calls one XRL and waits for its reply.
    xrl::XrlError call(const char* target, const char* method,
                       xrl::XrlArgs args) {
        std::optional<xrl::XrlError> err;
        recording([&] {
            cli.call(xrl::Xrl::generic(target, target, "1.0", method,
                                       std::move(args)),
                     ipc::CallOptions::defaults(),
                     [&](const xrl::XrlError& e, const xrl::XrlArgs&) {
                         err = e;
                     });
        });
        run_until([&] { return err.has_value(); });
        return err.value_or(xrl::XrlError(xrl::ErrorCode::kTimeout));
    }

    // Waits until the FIB holds exactly the RIB's winners; the RIB's
    // one-way pushes to the FEA are FIFO, so nothing is left in flight.
    void settle() {
        auto synced = [&] {
            if (fea.fib().size() != rib.route_count()) return false;
            bool same = true;
            fea.fib().for_each([&](const IPv4Net& net, const fea::FibEntry& e) {
                auto w = rib.lookup_exact(net);
                if (!w || w->nexthop != e.nexthop) same = false;
            });
            return same;
        };
        EXPECT_TRUE(run_until(synced));
    }

    std::map<IPv4Net, std::pair<IPv4, std::string>> winners() const {
        std::map<IPv4Net, std::pair<IPv4, std::string>> out;
        fea.fib().for_each([&](const IPv4Net& net, const fea::FibEntry&) {
            auto w = rib.lookup_exact(net);
            out[net] = {w->nexthop, w->protocol};
        });
        return out;
    }
    std::map<IPv4Net, IPv4> fib() const {
        std::map<IPv4Net, IPv4> out;
        fea.fib().for_each([&](const IPv4Net& net, const fea::FibEntry& e) {
            out[net] = e.nexthop;
        });
        return out;
    }
    // The events the route verbs leave, RIB side then FEA side: FEA
    // events arrive asynchronously, so the two streams are compared
    // separately.
    std::vector<std::string> events(bool fea_side) const {
        std::vector<std::string> out;
        for (const auto& ev : journal.events()) {
            const bool is_fea = ev.kind == telemetry::JournalKind::kFibAdd ||
                                ev.kind == telemetry::JournalKind::kFibDelete;
            const bool is_rib =
                ev.kind == telemetry::JournalKind::kRouteInstall ||
                ev.kind == telemetry::JournalKind::kRouteWithdraw;
            if (fea_side ? is_fea : is_rib)
                out.push_back(std::string(telemetry::journal_kind_name(ev.kind)) +
                              " " + ev.subject + " " + ev.detail + " " +
                              std::to_string(ev.value));
        }
        return out;
    }
};

xrl::XrlArgs text_args(const ScriptStep& s) {
    xrl::XrlArgs a;
    a.add("protocol", std::string(s.protocol))
        .add("net", IPv4Net::must_parse(s.net));
    if (s.nexthop != nullptr)
        a.add("nexthop", IPv4::must_parse(s.nexthop)).add("metric", s.metric);
    return a;
}

void add_step(RouteBatch4& b, const ScriptStep& s) {
    if (s.nexthop != nullptr)
        b.add(IPv4Net::must_parse(s.net),
              net::NexthopSet4::single(IPv4::must_parse(s.nexthop)), s.metric);
    else
        b.del(IPv4Net::must_parse(s.net));
}

}  // namespace

TEST(ScriptingPair, RibTextVerbsMatchTheBulkVerb) {
    // Winners move across origins: rip under ospf, static over ospf, an
    // ebgp route resolving through an IGP winner, deletes that hand a
    // prefix back to the loser.
    const std::vector<ScriptStep> script = {
        {"static", "10.0.0.0/8", "192.0.2.2", 1},
        {"static", "10.3.0.0/16", "192.0.2.7", 1},
        {"ospf", "10.1.0.0/16", "192.0.2.3", 20},
        {"ospf", "10.2.0.0/16", "192.0.2.5", 5},
        {"rip", "10.1.0.0/16", "192.0.2.4", 2},
        {"static", "10.2.0.0/16", "192.0.2.6", 1},
        {"ospf", "10.1.0.0/16", nullptr, 0},
        {"ebgp", "172.16.0.0/12", "10.2.0.9", 0},
        {"static", "10.0.0.0/8", nullptr, 0},
        {"static", "10.3.0.0/16", nullptr, 0},
    };

    ScriptedStack text;
    for (const ScriptStep& s : script) {
        const char* verb = s.nexthop != nullptr ? "add_route" : "delete_route";
        EXPECT_TRUE(text.call("rib", verb, text_args(s)).ok()) << s.net;
    }
    text.settle();

    // The same change in bulk: one add_routes_bulk per run of steps from
    // one protocol.
    ScriptedStack bulk;
    for (size_t i = 0; i < script.size();) {
        RouteBatch4 b;
        size_t j = i;
        for (; j < script.size() &&
               std::string(script[j].protocol) == script[i].protocol;
             ++j)
            add_step(b, script[j]);
        xrl::XrlArgs a;
        a.add("protocol", std::string(script[i].protocol))
            .add("routes", b.encode_bytes());
        EXPECT_TRUE(bulk.call("rib", "add_routes_bulk", std::move(a)).ok());
        i = j;
    }
    bulk.settle();

    ASSERT_EQ(text.fib().size(), 3u);  // 10.1/16 rip, 10.2/16, 172.16/12
    EXPECT_EQ(text.winners().at(IPv4Net::must_parse("10.1.0.0/16")).second,
              "rip");
    EXPECT_EQ(text.winners(), bulk.winners());
    EXPECT_EQ(text.fib(), bulk.fib());
    EXPECT_FALSE(text.events(false).empty());
    EXPECT_EQ(text.events(false), bulk.events(false));
    EXPECT_FALSE(text.events(true).empty());
    EXPECT_EQ(text.events(true), bulk.events(true));

    // An unknown protocol still fails the call, in either form.
    const xrl::XrlError bad = text.call(
        "rib", "add_route", text_args({"isis", "10.9.0.0/16", "192.0.2.2", 1}));
    EXPECT_EQ(bad.code(), xrl::ErrorCode::kCommandFailed);
    RouteBatch4 b;
    add_step(b, {"isis", "10.9.0.0/16", "192.0.2.2", 1});
    xrl::XrlArgs a;
    a.add("protocol", std::string("isis")).add("routes", b.encode_bytes());
    EXPECT_EQ(bulk.call("rib", "add_routes_bulk", std::move(a)).code(),
              xrl::ErrorCode::kCommandFailed);
}

TEST(ScriptingPair, FeaTextVerbsMatchTheBulkVerb) {
    const std::vector<ScriptStep> script = {
        {"", "198.51.100.0/24", "192.0.2.2", 0},
        {"", "203.0.113.0/24", "192.0.2.3", 0},
        {"", "198.51.100.0/24", "192.0.2.4", 0},
        {"", "203.0.113.0/24", nullptr, 0},
    };
    ScriptedStack text, bulk;
    RouteBatch4 b;
    for (const ScriptStep& s : script) {
        xrl::XrlArgs a;
        a.add("net", IPv4Net::must_parse(s.net));
        if (s.nexthop != nullptr) a.add("nexthop", IPv4::must_parse(s.nexthop));
        EXPECT_TRUE(text.call("fea",
                              s.nexthop != nullptr ? "add_route4"
                                                   : "delete_route4",
                              std::move(a))
                        .ok())
            << s.net;
        add_step(b, s);
    }
    xrl::XrlArgs a;
    a.add("routes", b.encode_bytes());
    EXPECT_TRUE(bulk.call("fea", "add_routes4_bulk", std::move(a)).ok());

    EXPECT_EQ(text.fib(), (std::map<IPv4Net, IPv4>{
                              {IPv4Net::must_parse("198.51.100.0/24"),
                               IPv4::must_parse("192.0.2.4")}}));
    EXPECT_EQ(text.fib(), bulk.fib());
    EXPECT_EQ(text.fea.fib_adds(), bulk.fea.fib_adds());
    EXPECT_EQ(text.fea.fib_deletes(), bulk.fea.fib_deletes());
    EXPECT_EQ(text.events(true).size(), 4u);
    EXPECT_EQ(text.events(true), bulk.events(true));

    // Deleting an absent prefix still answers "no such route".
    xrl::XrlArgs gone;
    gone.add("net", IPv4Net::must_parse("203.0.113.0/24"));
    const xrl::XrlError err = text.call("fea", "delete_route4", std::move(gone));
    EXPECT_EQ(err.code(), xrl::ErrorCode::kCommandFailed);
    EXPECT_EQ(err.note(), "no such route");
}
