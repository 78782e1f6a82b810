// RouteBatch: the bulk/delta unit of the batched stage API.
//
// The paper's three-message API moves one route per virtual call; at
// backbone scale (1M+ routes with churn) per-route dispatch, journaling
// and per-route XRL pushes dominate the table-download path. A
// RouteBatch is an *ordered* list of add/delete/replace entries that
// flows through the pipeline as one message (`RouteStage::push_batch`).
// Ordering is load-bearing: replaying the entries one by one through
// the legacy per-route calls must be semantically identical to any
// native batch handling, and the default push_batch does exactly that
// unroll — so every stage keeps working unchanged while hot stages
// override it to amortize work.
//
// A replace entry is the batch-level spelling of the paper's
// delete(old)+add(new) pair: `old_route` is what downstream currently
// holds, `route` is the replacement. Stages that unroll emit both
// messages; stages that handle batches natively may forward the pair
// inside one downstream batch but must never drop either half (the §5.1
// consistency rules still bind per entry).
//
// `coalesce()` folds multiple entries for the same prefix into the last
// surviving operation. That changes the *message* stream (fewer
// transients), so it is only used at net-effect-safe boundaries — wire
// senders framing a batch for a peer process — never inside a stage
// that a consistency checker might be watching.
//
// Wire framing (`encode`/`decode`) is the one route-delta codec, carried
// as the `routes:binary` atom of rib/1.0/add_routes_bulk and
// fea/1.0/add_routes4_bulk. Little-endian, one record per entry, no
// header:
//   u8 op | addr | u8 prefix_len | u32 metric | u16 n | n x (addr, u32 weight)
// op is 0 add, 1 delete, 2 replace; a replace appends the old half as
//   u32 old_metric | u16 n | n x (addr, u32 weight)
// addr is 4 bytes for IPv4 and 16 (hi, lo) for IPv6, so a scalar IPv4
// add is 20 bytes.
#ifndef XRP_STAGE_BATCH_HPP
#define XRP_STAGE_BATCH_HPP

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/le_bytes.hpp"
#include "stage/route.hpp"

namespace xrp::stage {

enum class BatchOp : uint8_t { kAdd, kDelete, kReplace };

template <class A>
struct BatchEntry {
    BatchOp op = BatchOp::kAdd;
    // kAdd/kReplace: the route being installed. kDelete: the route being
    // withdrawn (a copy of what downstream holds, per consistency rule 1).
    Route<A> route;
    // kReplace only: the previously-installed route the replacement
    // supersedes.
    Route<A> old_route;
};

template <class A>
class RouteBatch {
    static constexpr size_t kAddrBytes = A::kAddrBits / 8;
    static constexpr size_t kMemberBytes = kAddrBytes + 4;

public:
    using RouteT = Route<A>;
    using EntryT = BatchEntry<A>;

    // The smallest encoded entry: a scalar add or delete (20 bytes for
    // IPv4, 44 for IPv6).
    static constexpr size_t kMinEntryBytes = 1 + kAddrBytes + 1 + 4 + 2 +
                                             kMemberBytes;

    RouteBatch() = default;

    void reserve(size_t n) { entries_.reserve(n); }
    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }
    void clear() { entries_.clear(); }

    void add(RouteT route) {
        entries_.push_back(EntryT{BatchOp::kAdd, std::move(route), {}});
    }
    void del(RouteT route) {
        entries_.push_back(EntryT{BatchOp::kDelete, std::move(route), {}});
    }
    // The same entries spelled as the wire carries them: a prefix, its
    // member set and metric for an add, the prefix alone for a delete.
    void add(const net::IpNet<A>& net, const net::NexthopSet<A>& nexthops,
             uint32_t metric) {
        RouteT r;
        r.net = net;
        r.set_nexthops(nexthops);
        r.metric = metric;
        add(std::move(r));
    }
    void del(const net::IpNet<A>& net) {
        RouteT r;
        r.net = net;
        del(std::move(r));
    }
    void replace(RouteT old_route, RouteT new_route) {
        entries_.push_back(
            EntryT{BatchOp::kReplace, std::move(new_route),
                   std::move(old_route)});
    }
    void push(EntryT e) { entries_.push_back(std::move(e)); }

    std::vector<EntryT>& entries() { return entries_; }
    const std::vector<EntryT>& entries() const { return entries_; }

    // Counts used by stages that amortize telemetry: adds counts kAdd +
    // kReplace (each emits one add downstream), deletes counts kDelete +
    // kReplace.
    size_t add_count() const {
        size_t n = 0;
        for (const auto& e : entries_)
            if (e.op != BatchOp::kDelete) ++n;
        return n;
    }
    size_t delete_count() const {
        size_t n = 0;
        for (const auto& e : entries_)
            if (e.op != BatchOp::kAdd) ++n;
        return n;
    }

    // Folds churn within the batch to the net effect per prefix:
    //   add then delete            -> nothing
    //   delete then add            -> replace(old=deleted, new=added)
    //   add/replace then replace   -> one add/replace with the final route
    //   delete after replace       -> delete of the original old route
    // Relative order of surviving prefixes follows each prefix's *first*
    // appearance, keeping the stream deterministic. Only safe where the
    // consumer cares about final state, not the transient message list
    // (wire framing, FIB install). A batch in which no prefix repeats is
    // already its own net effect and is left as it is; otherwise the
    // folded routes are moved, not copied.
    void coalesce() {
        if (entries_.size() < 2) return;
        // (prefix, entry index), sorted: each prefix's entries sit together
        // in batch order.
        std::vector<std::pair<net::IpNet<A>, size_t>> by_net;
        by_net.reserve(entries_.size());
        for (size_t i = 0; i < entries_.size(); ++i)
            by_net.emplace_back(entries_[i].route.net, i);
        std::sort(by_net.begin(), by_net.end());
        const auto same_net = [](const auto& x, const auto& y) {
            return x.first == y.first;
        };
        if (std::adjacent_find(by_net.begin(), by_net.end(), same_net) ==
            by_net.end())
            return;

        // Fold each repeated prefix into the slot of its first entry;
        // `dropped` marks the slots its later entries leave empty.
        std::vector<bool> dropped(entries_.size(), false);
        for (auto g = by_net.begin(); g != by_net.end();) {
            auto g_end = g + 1;
            while (g_end != by_net.end() && g_end->first == g->first) ++g_end;
            if (g_end - g > 1) {
                // The route downstream held before the batch (if any was
                // deleted/replaced) and the route it should hold after (if
                // any survives).
                RouteT* before = nullptr;
                RouteT* after = nullptr;
                for (auto it = g; it != g_end; ++it) {
                    EntryT& e = entries_[it->second];
                    switch (e.op) {
                    case BatchOp::kAdd:
                        after = &e.route;
                        break;
                    case BatchOp::kDelete:
                        if (before == nullptr && after == nullptr)
                            before = &e.route;
                        after = nullptr;
                        break;
                    case BatchOp::kReplace:
                        if (before == nullptr && after == nullptr)
                            before = &e.old_route;
                        after = &e.route;
                        break;
                    }
                }
                for (auto it = g; it != g_end; ++it) dropped[it->second] = true;
                const size_t first = g->second;
                if (after != nullptr) {
                    entries_[first] =
                        before != nullptr
                            ? EntryT{BatchOp::kReplace, std::move(*after),
                                     std::move(*before)}
                            : EntryT{BatchOp::kAdd, std::move(*after), {}};
                    dropped[first] = false;
                } else if (before != nullptr) {
                    entries_[first] =
                        EntryT{BatchOp::kDelete, std::move(*before), {}};
                    dropped[first] = false;
                }
                // else: add+delete within the batch — downstream never
                // sees it.
            }
            g = g_end;
        }
        size_t out = 0;
        for (size_t i = 0; i < entries_.size(); ++i) {
            if (dropped[i]) continue;
            if (out != i) entries_[out] = std::move(entries_[i]);
            ++out;
        }
        entries_.resize(out);
    }

    // ---- wire framing ---------------------------------------------------
    // Little-endian binary, one record per entry and no header (see the
    // file comment for the layout). Protocol/admin-distance/source are
    // batch-level context carried by the XRL verb, not per entry — a
    // batch always comes from one origin.
    std::string encode() const {
        std::string out;
        encode_to(out);
        return out;
    }
    std::vector<uint8_t> encode_bytes() const {
        std::vector<uint8_t> out;
        encode_to(out);
        return out;
    }

    // Rejects (nullopt) an unknown op, an out-of-range prefix length, an
    // empty or over-long nexthop list, and truncation anywhere; empty
    // input is the empty batch. Memory is bounded by the input size: no
    // count is trusted beyond the bytes that could back it.
    static std::optional<RouteBatch> decode(const uint8_t* data,
                                            size_t size) {
        net::ByteReader r(data, size);
        RouteBatch batch;
        batch.reserve(size / kMinEntryBytes);
        while (r.remaining() != 0) {
            auto op = r.u8();
            if (!op || *op > static_cast<uint8_t>(BatchOp::kReplace))
                return std::nullopt;
            EntryT e;
            e.op = static_cast<BatchOp>(*op);
            auto addr = get_addr(r);
            auto len = r.u8();
            if (!addr || !len || *len > A::kAddrBits) return std::nullopt;
            e.route.net = net::IpNet<A>(*addr, *len);
            if (!get_body(r, e.route)) return std::nullopt;
            if (e.op == BatchOp::kReplace) {
                e.old_route.net = e.route.net;
                if (!get_body(r, e.old_route)) return std::nullopt;
            }
            batch.push(std::move(e));
        }
        return batch;
    }
    static std::optional<RouteBatch> decode(std::string_view bytes) {
        return decode(reinterpret_cast<const uint8_t*>(bytes.data()),
                      bytes.size());
    }

private:
    template <class Bytes>
    void encode_to(Bytes& out) const {
        out.reserve(out.size() + entries_.size() * kMinEntryBytes);
        for (const auto& e : entries_) {
            net::put_u8(out, static_cast<uint8_t>(e.op));
            put_addr(out, e.route.net.masked_addr());
            net::put_u8(out, static_cast<uint8_t>(e.route.net.prefix_len()));
            put_body(out, e.route);
            if (e.op == BatchOp::kReplace) put_body(out, e.old_route);
        }
    }

    template <class Bytes>
    static void put_addr(Bytes& out, const A& a) {
        if constexpr (kAddrBytes == 4) {
            net::put_u32(out, a.to_host());
        } else {
            net::put_u64(out, a.hi());
            net::put_u64(out, a.lo());
        }
    }
    static std::optional<A> get_addr(net::ByteReader& r) {
        if constexpr (kAddrBytes == 4) {
            auto v = r.u32();
            if (!v) return std::nullopt;
            return A(*v);
        } else {
            auto hi = r.u64();
            auto lo = r.u64();
            if (!hi || !lo) return std::nullopt;
            return A(*hi, *lo);
        }
    }

    // u32 metric | u16 n | n x (addr, u32 weight). A scalar route is one
    // weight-1 member written straight from `nexthop`.
    template <class Bytes>
    static void put_body(Bytes& out, const RouteT& r) {
        net::put_u32(out, r.metric);
        if (r.nexthops.empty()) {
            net::put_u16(out, 1);
            put_addr(out, r.nexthop);
            net::put_u32(out, 1);
            return;
        }
        const auto& members = r.nexthops.members();
        net::put_u16(out, static_cast<uint16_t>(members.size()));
        for (const auto& m : members) {
            put_addr(out, m.addr);
            net::put_u32(out, m.weight);
        }
    }
    // A 1-member list collapses to the scalar form (as set_nexthops
    // does); larger lists go through NexthopSet::insert, which keeps its
    // canonical order, duplicate and weight-0 rules.
    static bool get_body(net::ByteReader& r, RouteT& route) {
        auto metric = r.u32();
        auto n = r.u16();
        if (!metric || !n || *n == 0 || *n * kMemberBytes > r.remaining())
            return false;
        route.metric = *metric;
        if (*n == 1) {
            route.nexthop = *get_addr(r);
            r.u32();  // its weight is dropped, as set_nexthops does
            return true;
        }
        net::NexthopSet<A> set;
        for (uint16_t i = 0; i < *n; ++i) {
            const A addr = *get_addr(r);
            set.insert(addr, *r.u32());
        }
        route.set_nexthops(set);
        return true;
    }

    std::vector<EntryT> entries_;
};

using RouteBatch4 = RouteBatch<net::IPv4>;
using RouteBatch6 = RouteBatch<net::IPv6>;

}  // namespace xrp::stage

#endif
