// Tests for BGP wire formats: AS paths, path attributes, messages, and
// seeded mutation fuzzing of the three ingress decoders.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

#include "bgp/message.hpp"

using namespace xrp;
using namespace xrp::bgp;
using net::IPv4;
using net::IPv4Net;

TEST(AsPath, BasicsAndPrepend) {
    AsPath p({3561, 701});
    EXPECT_EQ(p.path_length(), 2u);
    EXPECT_TRUE(p.contains(701));
    EXPECT_FALSE(p.contains(1777));
    EXPECT_EQ(p.first_as(), 3561);
    EXPECT_EQ(p.str(), "3561 701");

    AsPath q = p.prepend(1777);
    EXPECT_EQ(q.path_length(), 3u);
    EXPECT_EQ(q.first_as(), 1777);
    EXPECT_EQ(q.str(), "1777 3561 701");
    // Original untouched.
    EXPECT_EQ(p.path_length(), 2u);
}

TEST(AsPath, EmptyPath) {
    AsPath p;
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.path_length(), 0u);
    EXPECT_FALSE(p.first_as().has_value());
    AsPath q = p.prepend(1777);
    EXPECT_EQ(q.path_length(), 1u);
    EXPECT_EQ(q.first_as(), 1777);
}

TEST(AsPath, SetCountsAsOne) {
    AsPath p({100});
    AsPath::Segment set{AsPath::SegmentType::kSet, {200, 300}};
    AsPath q = p;
    // Construct via encode/decode to exercise segments.
    std::vector<uint8_t> buf;
    p.encode(buf);
    buf.push_back(1);  // AS_SET
    buf.push_back(2);
    buf.push_back(0);
    buf.push_back(200);
    buf.push_back(1);
    buf.push_back(44);  // 300 = 0x12c
    auto decoded = AsPath::decode(buf.data(), buf.size());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->path_length(), 2u);  // 1 sequence member + 1 set
    EXPECT_EQ(decoded->str(), "100 {200 300}");
}

TEST(AsPath, EncodeDecodeRoundTrip) {
    AsPath p({1777, 3561, 701, 7018});
    std::vector<uint8_t> buf;
    p.encode(buf);
    auto q = AsPath::decode(buf.data(), buf.size());
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, p);
}

TEST(AsPath, DecodeRejectsMalformed) {
    std::vector<uint8_t> truncated = {2, 3, 0, 1};  // says 3 ASes, has 1/2
    EXPECT_FALSE(AsPath::decode(truncated.data(), truncated.size()).has_value());
    std::vector<uint8_t> badtype = {9, 1, 0, 1};
    EXPECT_FALSE(AsPath::decode(badtype.data(), badtype.size()).has_value());
}

TEST(PathAttributes, EncodeDecodeRoundTrip) {
    PathAttributes pa;
    pa.origin = Origin::kEgp;
    pa.as_path = AsPath({1777, 3561});
    pa.nexthop = IPv4::must_parse("192.0.2.1");
    pa.med = 50;
    pa.local_pref = 200;
    pa.atomic_aggregate = true;
    pa.aggregator = Aggregator{1777, IPv4::must_parse("10.0.0.1")};
    pa.communities = {0x06f10001, 0x06f10002};

    std::vector<uint8_t> buf;
    pa.encode(buf);
    auto q = PathAttributes::decode(buf.data(), buf.size());
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, pa);
}

TEST(PathAttributes, MinimalRoundTrip) {
    PathAttributes pa;
    pa.origin = Origin::kIgp;
    pa.as_path = AsPath({1});
    pa.nexthop = IPv4::must_parse("10.0.0.1");
    std::vector<uint8_t> buf;
    pa.encode(buf);
    auto q = PathAttributes::decode(buf.data(), buf.size());
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, pa);
    EXPECT_FALSE(q->med.has_value());
    EXPECT_FALSE(q->local_pref.has_value());
}

TEST(PathAttributes, DecodeRejectsMissingMandatory) {
    // Only ORIGIN present: missing AS_PATH and NEXT_HOP.
    std::vector<uint8_t> buf = {0x40, 1, 1, 0};
    EXPECT_FALSE(PathAttributes::decode(buf.data(), buf.size()).has_value());
}

TEST(PathAttributes, CopyOnWriteHelpers) {
    PathAttributes base;
    base.origin = Origin::kIgp;
    base.as_path = AsPath({3561});
    base.nexthop = IPv4::must_parse("10.0.0.1");
    base.local_pref = 300;
    base.med = 10;

    auto prepended =
        with_prepended_as(base, 1777, IPv4::must_parse("192.0.2.9"));
    EXPECT_EQ(prepended->as_path.str(), "1777 3561");
    EXPECT_EQ(prepended->nexthop.str(), "192.0.2.9");
    // MED/LOCAL_PREF are not propagated across EBGP.
    EXPECT_FALSE(prepended->local_pref.has_value());
    EXPECT_FALSE(prepended->med.has_value());
    EXPECT_EQ(base.as_path.str(), "3561");  // base untouched

    auto lp = with_local_pref(base, 500);
    EXPECT_EQ(lp->local_pref, 500u);
}

TEST(BgpMessage, OpenRoundTrip) {
    OpenMessage o;
    o.as = 1777;
    o.hold_time = 90;
    o.bgp_id = IPv4::must_parse("192.0.2.1");
    auto bytes = encode_message(o);
    EXPECT_EQ(bytes.size(), kHeaderSize + 10);
    auto m = decode_message(bytes.data(), bytes.size());
    ASSERT_TRUE(m.has_value());
    auto* back = std::get_if<OpenMessage>(&*m);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(*back, o);
}

TEST(BgpMessage, KeepaliveRoundTrip) {
    auto bytes = encode_message(KeepaliveMessage{});
    EXPECT_EQ(bytes.size(), kHeaderSize);
    auto m = decode_message(bytes.data(), bytes.size());
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(std::holds_alternative<KeepaliveMessage>(*m));
}

TEST(BgpMessage, NotificationRoundTrip) {
    NotificationMessage n{6, 2, {0xde, 0xad}};
    auto bytes = encode_message(n);
    auto m = decode_message(bytes.data(), bytes.size());
    ASSERT_TRUE(m.has_value());
    auto* back = std::get_if<NotificationMessage>(&*m);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(*back, n);
}

TEST(BgpMessage, UpdateRoundTrip) {
    UpdateMessage u;
    u.withdrawn = {IPv4Net::must_parse("10.1.0.0/16"),
                   IPv4Net::must_parse("10.2.0.0/24")};
    PathAttributes pa;
    pa.origin = Origin::kIgp;
    pa.as_path = AsPath({1777});
    pa.nexthop = IPv4::must_parse("192.0.2.1");
    u.attributes = pa;
    u.nlri = {IPv4Net::must_parse("80.0.0.0/8"),
              IPv4Net::must_parse("80.1.2.0/23"),
              IPv4Net::must_parse("0.0.0.0/0")};
    auto bytes = encode_message(u);
    auto m = decode_message(bytes.data(), bytes.size());
    ASSERT_TRUE(m.has_value());
    auto* back = std::get_if<UpdateMessage>(&*m);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(*back, u);
}

TEST(BgpMessage, WithdrawOnlyUpdate) {
    UpdateMessage u;
    u.withdrawn = {IPv4Net::must_parse("10.0.0.0/8")};
    auto bytes = encode_message(u);
    auto m = decode_message(bytes.data(), bytes.size());
    ASSERT_TRUE(m.has_value());
    auto* back = std::get_if<UpdateMessage>(&*m);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->withdrawn.size(), 1u);
    EXPECT_TRUE(back->nlri.empty());
    EXPECT_FALSE(back->attributes.has_value());
}

TEST(BgpMessage, PeekLengthForStreamReassembly) {
    auto bytes = encode_message(KeepaliveMessage{});
    // Partial header: need more bytes.
    EXPECT_EQ(peek_message_length(bytes.data(), 5), 0u);
    // Complete: exact length.
    EXPECT_EQ(peek_message_length(bytes.data(), bytes.size()), bytes.size());
    // Corrupt marker: error.
    bytes[3] = 0;
    EXPECT_FALSE(peek_message_length(bytes.data(), bytes.size()).has_value());
}

TEST(BgpMessage, DecodeRejectsGarbage) {
    std::vector<uint8_t> junk(kHeaderSize, 0xff);
    junk[16] = 0;
    junk[17] = kHeaderSize;
    junk[18] = 99;  // bad type
    EXPECT_FALSE(decode_message(junk.data(), junk.size()).has_value());

    // NLRI without attributes is invalid.
    std::vector<uint8_t> body = {0, 0, 0, 0, 8, 10};
    std::vector<uint8_t> msg(16, 0xff);
    msg.push_back(0);
    msg.push_back(static_cast<uint8_t>(kHeaderSize + body.size()));
    msg.push_back(2);
    msg.insert(msg.end(), body.begin(), body.end());
    EXPECT_FALSE(decode_message(msg.data(), msg.size()).has_value());
}

// ---- seeded mutation fuzzing of the ingress decoders ---------------------
//
// The same shape as RouteBatch.DecodeSurvivesSeededMutations: a fixed
// seed, ~20k iterations of byte flips, inserts and truncations over valid
// encodings. Decoding must never crash (ci.sh runs these under
// ASan+UBSan) and never yield more items than the input bytes could hold.

namespace {

constexpr int kFuzzIterations = 20000;

// 1-4 edits, each a single-bit flip, a random byte insert or a truncation.
std::vector<uint8_t> mutate(std::vector<uint8_t> wire, std::mt19937& rng) {
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < edits && !wire.empty(); ++k) {
        const size_t at = rng() % wire.size();
        switch (rng() % 3) {
        case 0:
            wire[at] = static_cast<uint8_t>(wire[at] ^ (1u << (rng() % 8)));
            break;
        case 1:
            wire.insert(wire.begin() + static_cast<long>(at),
                        static_cast<uint8_t>(rng()));
            break;
        default:
            wire.resize(at);
            break;
        }
    }
    return wire;
}

PathAttributes full_attributes() {
    PathAttributes pa;
    pa.origin = Origin::kEgp;
    AsPath seq({1777, 3561, 701});
    std::vector<uint8_t> path;
    seq.encode(path);
    const std::vector<uint8_t> set = {1, 2, 0, 200, 1, 44};  // {200 300}
    path.insert(path.end(), set.begin(), set.end());
    pa.as_path = *AsPath::decode(path.data(), path.size());
    pa.nexthop = IPv4::must_parse("192.0.2.1");
    pa.med = 50;
    pa.local_pref = 200;
    pa.atomic_aggregate = true;
    pa.aggregator = Aggregator{1777, IPv4::must_parse("10.0.0.1")};
    pa.communities = {0x06f10001, 0x06f10002, 0x06f10003};
    return pa;
}

// Decodes from an exactly-sized heap copy, so that under ASan a read past
// the end is a heap-buffer-overflow rather than a read of vector slack.
template <class Decode>
auto decode_exact(const std::vector<uint8_t>& wire, Decode decode) {
    auto buf = std::make_unique<uint8_t[]>(wire.size());
    std::copy(wire.begin(), wire.end(), buf.get());
    return decode(buf.get(), wire.size());
}

// Every AS costs at least two bytes on the wire, every community four.
void expect_bounded(const PathAttributes& pa, size_t bytes, int iter) {
    size_t ases = 0;
    for (const auto& seg : pa.as_path.segments()) ases += seg.ases.size();
    ASSERT_LE(2 * (pa.as_path.segments().size() + ases), bytes)
        << "iteration " << iter;
    ASSERT_LE(4 * pa.communities.size(), bytes) << "iteration " << iter;
}

}  // namespace

TEST(BgpMessage, DecodeSurvivesSeededMutations) {
    UpdateMessage u;
    u.withdrawn = {IPv4Net::must_parse("10.1.0.0/16"),
                   IPv4Net::must_parse("10.2.0.0/24"),
                   IPv4Net::must_parse("0.0.0.0/0")};
    u.attributes = full_attributes();
    u.nlri = {IPv4Net::must_parse("80.0.0.0/8"),
              IPv4Net::must_parse("80.1.2.0/23"),
              IPv4Net::must_parse("80.1.2.128/25"),
              IPv4Net::must_parse("80.1.2.129/32")};
    OpenMessage o;
    o.as = 1777;
    o.bgp_id = IPv4::must_parse("192.0.2.1");
    const std::vector<std::vector<uint8_t>> seeds = {
        encode_message(o), encode_message(u),
        encode_message(NotificationMessage{6, 2, {0xde, 0xad, 0xbe}}),
        encode_message(KeepaliveMessage{})};

    std::mt19937 rng(1777);
    size_t accepted = 0, accepted_updates = 0;
    for (int iter = 0; iter < kFuzzIterations; ++iter) {
        std::vector<uint8_t> wire = mutate(seeds[rng() % seeds.size()], rng);
        // Half the time keep the header's length honest, so the body
        // decoders see the mutation rather than the length check.
        if (rng() % 2 == 0 && wire.size() >= kHeaderSize &&
            wire.size() <= kMaxMessageSize) {
            wire[16] = static_cast<uint8_t>(wire.size() >> 8);
            wire[17] = static_cast<uint8_t>(wire.size());
        }
        auto m = decode_exact(wire, decode_message);
        if (!m) continue;
        ++accepted;
        if (const auto* up = std::get_if<UpdateMessage>(&*m)) {
            ++accepted_updates;
            // Every prefix costs at least its length byte.
            ASSERT_LE(up->nlri.size() + up->withdrawn.size(), wire.size())
                << "iteration " << iter;
            if (up->attributes)
                expect_bounded(*up->attributes, wire.size(), iter);
        } else if (const auto* n = std::get_if<NotificationMessage>(&*m)) {
            ASSERT_LE(n->data.size(), wire.size()) << "iteration " << iter;
        }
    }
    // The fuzz must reach the accept paths, UPDATE bodies included.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(accepted_updates, 0u);
}

TEST(PathAttributes, DecodeSurvivesSeededMutations) {
    std::vector<uint8_t> valid;
    full_attributes().encode(valid);
    std::mt19937 rng(1778);
    size_t accepted = 0;
    for (int iter = 0; iter < kFuzzIterations; ++iter) {
        const std::vector<uint8_t> wire = mutate(valid, rng);
        auto pa = decode_exact(wire, PathAttributes::decode);
        if (!pa) continue;
        ++accepted;
        expect_bounded(*pa, wire.size(), iter);
    }
    EXPECT_GT(accepted, 0u);
}

TEST(AsPath, DecodeSurvivesSeededMutations) {
    const std::vector<uint8_t> valid = {2, 3, 0x06, 0xf1, 0x0d, 0xe9, 0x02,
                                        0xbd, 1, 2, 0, 200, 1, 44};
    std::mt19937 rng(1779);
    size_t accepted = 0;
    for (int iter = 0; iter < kFuzzIterations; ++iter) {
        const std::vector<uint8_t> wire = mutate(valid, rng);
        auto p = decode_exact(wire, AsPath::decode);
        if (!p) continue;
        ++accepted;
        PathAttributes pa;
        pa.as_path = std::move(*p);
        expect_bounded(pa, wire.size(), iter);
        // A decoded path re-encodes to exactly the bytes it came from.
        std::vector<uint8_t> again;
        pa.as_path.encode(again);
        ASSERT_EQ(again, wire) << "iteration " << iter;
    }
    EXPECT_GT(accepted, 0u);
}
