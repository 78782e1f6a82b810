// Path-compressed binary trie (Patricia tree) keyed by IpNet<A>, with the
// paper's "safe route iterators" (§5.3).
//
// Background tasks — a BGP deletion stage slicing through 146k routes, a
// policy re-filter pass — park an iterator in the table and resume later.
// Meanwhile event handlers may delete the very node the iterator points
// at. To keep parked iterators valid, every node carries a reference count
// of iterators currently resting on it. Erasing a route clears the node's
// value immediately (lookups no longer see it) but defers the structural
// unlink until the last iterator leaves; the departing iterator performs
// the deferred pruning. Users of the trie never see any of this: the rule
// they rely on is simply "an iterator never dangles across a pause".
//
// Node layout invariants:
//  - the root always exists and has key 0/0;
//  - a child's key strictly extends its parent's key;
//  - a valueless node with fewer than two children and no parked iterators
//    is pruned (spliced out or removed) eagerly;
//  - subtree_values counts valued nodes in each subtree, giving O(path)
//    "is there any route under this prefix" queries for the RegisterStage.
//
// Allocation: nodes live on a per-trie arena — contiguous blocks carved
// into node slots, recycled through a free list — so a million-route
// table costs one malloc per kArenaBlockNodes nodes instead of one per
// node, and neighbouring nodes share cache lines. The root is not on the
// arena, so a table that never holds a route costs no block. The global
// toggle (set_trie_arena_enabled) is captured at construction;
// bench_memory flips it to measure the before/after footprint.
#ifndef XRP_NET_TRIE_HPP
#define XRP_NET_TRIE_HPP

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/ipnet.hpp"

namespace xrp::net {

// Process-wide default for whether new tries pool their nodes. Each trie
// snapshots the flag in its constructor, so flipping it never mixes
// allocators within one table.
inline bool& trie_arena_flag() {
    static bool enabled = true;
    return enabled;
}
inline void set_trie_arena_enabled(bool on) { trie_arena_flag() = on; }
inline bool trie_arena_enabled() { return trie_arena_flag(); }

inline constexpr size_t kArenaBlockNodes = 256;

template <class A, class T>
class RouteTrie {
    struct Node;

public:
    using Net = IpNet<A>;

    RouteTrie() = default;

    RouteTrie(const RouteTrie&) = delete;
    RouteTrie& operator=(const RouteTrie&) = delete;

    ~RouteTrie() {
        assert(live_iterators_ == 0);
        destroy_subtree(root_->child[0]);
        destroy_subtree(root_->child[1]);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    // Bytes held by the node arena (0 when the arena is disabled and
    // nodes come from the general-purpose allocator one by one).
    size_t arena_bytes() const { return arena_.bytes(); }

    // Inserts or overwrites. Returns true if the key was new.
    bool insert(const Net& net, T value) {
        Node* n = root_;
        while (true) {
            if (n->key == net) {
                bool was_new = !n->value.has_value();
                n->value = std::move(value);
                if (was_new) {
                    ++size_;
                    bump_counts(n, +1);
                }
                return was_new;
            }
            // Invariant: n->key contains net and is strictly shorter.
            bool b = net.masked_addr().bit(n->key.prefix_len());
            Node* c = n->child[b];
            if (c == nullptr) {
                Node* leaf = arena_.create(net, n);
                leaf->value = std::move(value);
                n->child[b] = leaf;
                ++size_;
                bump_counts(leaf, +1);
                return true;
            }
            if (c->key.contains(net)) {
                n = c;
                continue;
            }
            if (net.contains(c->key)) {
                // Interpose a node for `net` between n and c.
                Node* mid = arena_.create(net, n);
                mid->value = std::move(value);
                n->child[b] = mid;
                adopt(mid, c);
                ++size_;
                bump_counts(mid, +1);
                return true;
            }
            // Keys diverge: interpose a valueless fork at the common prefix.
            uint32_t d = A::common_prefix_len(net.masked_addr(),
                                              c->key.masked_addr());
            assert(d < net.prefix_len() && d < c->key.prefix_len());
            Node* fork = arena_.create(Net(net.masked_addr(), d), n);
            n->child[b] = fork;
            adopt(fork, c);
            Node* leaf = arena_.create(net, fork);
            leaf->value = std::move(value);
            fork->child[net.masked_addr().bit(d)] = leaf;
            ++size_;
            bump_counts(leaf, +1);
            return true;
        }
    }

    // Removes the exact prefix. Returns false if absent. If iterators are
    // parked on the node, the value disappears now but the node lingers
    // until they move on.
    bool erase(const Net& net) {
        Node* n = find_node(net);
        if (n == nullptr || !n->value.has_value()) return false;
        n->value.reset();
        --size_;
        bump_counts(n, -1);
        prune_upward(n);
        return true;
    }

    // Exact-match lookup.
    const T* find(const Net& net) const {
        const Node* n = find_node(net);
        return (n != nullptr && n->value.has_value()) ? &*n->value : nullptr;
    }
    T* find(const Net& net) {
        Node* n = find_node(net);
        return (n != nullptr && n->value.has_value()) ? &*n->value : nullptr;
    }

    // Longest-prefix match for a host address.
    const T* lookup(A addr, Net* matched_net = nullptr) const {
        const Node* best = nullptr;
        for (const Node* n = root_; n != nullptr;) {
            if (!n->key.contains(addr)) break;
            if (n->value.has_value()) best = n;
            if (n->key.prefix_len() == A::kAddrBits) break;
            n = n->child[addr.bit(n->key.prefix_len())];
        }
        if (best == nullptr) return nullptr;
        if (matched_net != nullptr) *matched_net = best->key;
        return &*best->value;
    }

    // Nearest strictly-less-specific route covering `net`.
    const T* find_less_specific(const Net& net, Net* matched_net = nullptr) const {
        const Node* best = nullptr;
        for (const Node* n = root_; n != nullptr;) {
            if (!n->key.contains(net) || n->key.prefix_len() >= net.prefix_len())
                break;
            if (n->value.has_value()) best = n;
            n = n->child[net.masked_addr().bit(n->key.prefix_len())];
        }
        if (best == nullptr) return nullptr;
        if (matched_net != nullptr) *matched_net = best->key;
        return &*best->value;
    }

    // True if any route exists that is equal to or more specific than `net`.
    bool has_route_within(const Net& net) const {
        const Node* n = root_;
        while (n != nullptr) {
            if (net.contains(n->key)) return n->subtree_values > 0;
            if (!n->key.contains(net)) return false;
            if (n->key.prefix_len() == A::kAddrBits) return false;
            n = n->child[net.masked_addr().bit(n->key.prefix_len())];
        }
        return false;
    }

    // The RegisterStage query (§5.2.1, Figure 8): for a host address,
    // report the matching route (if any) and the *largest enclosing subnet*
    // of `addr` within which that answer holds — the largest prefix
    // containing addr that is inside the matched route (if any) and is not
    // overlayed by any more-specific route. Clients may cache the answer
    // for every address in the returned subnet.
    struct RegisterResult {
        const T* route = nullptr;  // null if no route covers addr
        Net matched_net{};         // valid when route != null
        Net valid_subnet{};        // the largest enclosing cacheable subnet
    };
    RegisterResult register_lookup(A addr) const {
        RegisterResult r;
        // Phase 1: find the deepest valued node containing addr.
        const Node* vnode = nullptr;
        for (const Node* n = root_; n != nullptr;) {
            if (!n->key.contains(addr)) break;
            if (n->value.has_value()) vnode = n;
            if (n->key.prefix_len() == A::kAddrBits) break;
            n = n->child[addr.bit(n->key.prefix_len())];
        }
        uint32_t best = 0;
        const Node* n = root_;
        if (vnode != nullptr) {
            r.route = &*vnode->value;
            r.matched_net = vnode->key;
            best = vnode->key.prefix_len();
            n = vnode;
        }
        // Phase 2: descend below the match accumulating constraints from
        // every more-specific route that shares a partial path with addr.
        while (n->key.prefix_len() < A::kAddrBits) {
            bool b = addr.bit(n->key.prefix_len());
            const Node* sib = n->child[!b];
            if (sib != nullptr && sib->subtree_values > 0)
                best = std::max(best, n->key.prefix_len() + 1);
            const Node* c = n->child[b];
            if (c == nullptr) break;
            uint32_t d = std::min(
                A::common_prefix_len(addr, c->key.masked_addr()),
                c->key.prefix_len());
            if (d < c->key.prefix_len()) {
                if (c->subtree_values > 0) best = std::max(best, d + 1);
                break;
            }
            n = c;
        }
        r.valid_subnet = Net(addr.masked(best), best);
        return r;
    }

    // ---- Safe iterator ----------------------------------------------
    class iterator {
    public:
        iterator() = default;
        iterator(const iterator& o) : trie_(o.trie_), node_(o.node_) {
            acquire();
        }
        iterator(iterator&& o) noexcept : trie_(o.trie_), node_(o.node_) {
            o.trie_ = nullptr;
            o.node_ = nullptr;
        }
        iterator& operator=(const iterator& o) {
            if (this != &o) {
                release();
                trie_ = o.trie_;
                node_ = o.node_;
                acquire();
            }
            return *this;
        }
        iterator& operator=(iterator&& o) noexcept {
            if (this != &o) {
                release();
                trie_ = o.trie_;
                node_ = o.node_;
                o.trie_ = nullptr;
                o.node_ = nullptr;
            }
            return *this;
        }
        ~iterator() { release(); }

        bool at_end() const { return node_ == nullptr; }

        const Net& key() const { return node_->key; }
        // The pointed-at route may have been erased while we were parked;
        // valid() distinguishes "route still live" from "node lingering
        // solely for our benefit".
        bool valid() const {
            return node_ != nullptr && node_->value.has_value();
        }
        T& value() { return *node_->value; }
        const T& value() const { return *node_->value; }

        // Advance to the next live route in prefix order. If the current
        // route was erased underneath us, this still lands on the correct
        // successor, per the §5.3 contract.
        iterator& operator++() {
            assert(node_ != nullptr);
            Node* n = node_;
            do {
                n = RouteTrie::preorder_next(n);
            } while (n != nullptr && !n->value.has_value());
            move_to(n);
            return *this;
        }

        bool operator==(const iterator& o) const { return node_ == o.node_; }

    private:
        friend class RouteTrie;
        iterator(RouteTrie* trie, Node* node) : trie_(trie), node_(node) {
            acquire();
        }
        void acquire() {
            if (node_ != nullptr) {
                ++node_->iter_refs;
                ++trie_->live_iterators_;
            }
        }
        void release() {
            if (node_ != nullptr) {
                Node* n = node_;
                node_ = nullptr;
                --trie_->live_iterators_;
                assert(n->iter_refs > 0);
                if (--n->iter_refs == 0) trie_->prune_upward(n);
            }
        }
        void move_to(Node* n) {
            RouteTrie* t = trie_;
            release();
            trie_ = t;
            node_ = n;
            acquire();
        }

        RouteTrie* trie_ = nullptr;
        Node* node_ = nullptr;
    };

    iterator begin() {
        Node* n = root_;
        if (!n->value.has_value()) {
            do {
                n = preorder_next(n);
            } while (n != nullptr && !n->value.has_value());
        }
        return iterator(this, n);
    }
    iterator end() { return iterator(this, nullptr); }

    // Visits every live route in prefix order. `fn(net, value)`.
    template <class Fn>
    void for_each(Fn&& fn) const {
        for_each_node(root_, fn);
    }

    // Visits every live route equal to or more specific than `within`.
    template <class Fn>
    void for_each_within(const Net& within, Fn&& fn) const {
        const Node* n = root_;
        while (n != nullptr && !within.contains(n->key)) {
            if (!n->key.contains(within)) return;  // disjoint
            if (n->key.prefix_len() == A::kAddrBits) return;
            n = n->child[within.masked_addr().bit(n->key.prefix_len())];
        }
        if (n != nullptr) for_each_node(n, fn);
    }

    size_t node_count() const { return count_nodes(root_); }

private:
    struct Node {
        explicit Node(Net k, Node* p = nullptr) : key(k), parent(p) {}
        ~Node() { assert(iter_refs == 0); }

        Net key;
        std::optional<T> value;
        Node* parent = nullptr;
        Node* child[2] = {nullptr, nullptr};
        uint32_t iter_refs = 0;
        // Count of valued nodes in this subtree (including this node).
        uint32_t subtree_values = 0;
    };

    // Per-trie node pool: blocks carved into Node-sized slots threaded on
    // a free list. destroy() runs the destructor and recycles the slot;
    // block storage is released only when the trie itself dies, which is
    // exactly the lifetime a routing table wants (peak size is sticky).
    class Arena {
        union Slot {
            Slot* next;
            alignas(Node) std::byte storage[sizeof(Node)];
        };
        struct Block {
            Slot slots[kArenaBlockNodes];
        };

    public:
        Arena() : enabled_(trie_arena_enabled()) {}
        Arena(const Arena&) = delete;
        Arena& operator=(const Arena&) = delete;

        template <class... Args>
        Node* create(Args&&... args) {
            if (!enabled_) return new Node(std::forward<Args>(args)...);
            if (free_ == nullptr) grow();
            Slot* s = free_;
            free_ = s->next;
            return new (s->storage) Node(std::forward<Args>(args)...);
        }
        void destroy(Node* n) {
            if (!enabled_) {
                delete n;
                return;
            }
            n->~Node();
            Slot* s = reinterpret_cast<Slot*>(n);
            s->next = free_;
            free_ = s;
        }
        size_t bytes() const { return blocks_.size() * sizeof(Block); }

    private:
        void grow() {
            blocks_.push_back(std::make_unique<Block>());
            Block* b = blocks_.back().get();
            for (size_t i = kArenaBlockNodes; i-- > 0;) {
                b->slots[i].next = free_;
                free_ = &b->slots[i];
            }
        }

        bool enabled_;
        Slot* free_ = nullptr;
        std::vector<std::unique_ptr<Block>> blocks_;
    };

    static void adopt(Node* new_parent, Node* child) {
        child->parent = new_parent;
        new_parent->subtree_values += child->subtree_values;
        new_parent->child[child->key.masked_addr().bit(
            new_parent->key.prefix_len())] = child;
    }

    void bump_counts(Node* n, int delta) {
        for (Node* p = n; p != nullptr; p = p->parent)
            p->subtree_values =
                static_cast<uint32_t>(static_cast<int>(p->subtree_values) + delta);
    }

    Node* find_node(const Net& net) const {
        Node* n = root_;
        while (n != nullptr) {
            if (n->key == net) return n;
            if (!n->key.contains(net)) return nullptr;
            n = n->child[net.masked_addr().bit(n->key.prefix_len())];
        }
        return nullptr;
    }

    static Node* preorder_next(Node* n) {
        if (n->child[0] != nullptr) return n->child[0];
        if (n->child[1] != nullptr) return n->child[1];
        while (n->parent != nullptr) {
            Node* p = n->parent;
            if (p->child[0] == n && p->child[1] != nullptr) return p->child[1];
            n = p;
        }
        return nullptr;
    }

    // Removes structurally-unneeded nodes starting at `n` and walking up.
    // A node is removable when it has no value, no parked iterators, and
    // fewer than two children. Never removes the root.
    void prune_upward(Node* n) {
        while (n != nullptr && n->parent != nullptr && !n->value.has_value() &&
               n->iter_refs == 0 &&
               !(n->child[0] != nullptr && n->child[1] != nullptr)) {
            Node* parent = n->parent;
            Node*& slot = parent->child[parent->child[0] == n ? 0 : 1];
            assert(slot == n);
            Node* only_child =
                n->child[0] != nullptr ? n->child[0] : n->child[1];
            if (only_child != nullptr) {
                only_child->parent = parent;
                slot = only_child;  // splice n out
            } else {
                slot = nullptr;  // remove leaf
            }
            arena_.destroy(n);
            n = parent;
        }
    }

    void destroy_subtree(Node* n) {
        if (n == nullptr) return;
        destroy_subtree(n->child[0]);
        destroy_subtree(n->child[1]);
        arena_.destroy(n);
    }

    template <class Fn>
    static void for_each_node(const Node* n, Fn& fn) {
        if (n == nullptr) return;
        if (n->value.has_value()) fn(n->key, *n->value);
        for_each_node(n->child[0], fn);
        for_each_node(n->child[1], fn);
    }

    static size_t count_nodes(const Node* n) {
        if (n == nullptr) return 0;
        return 1 + count_nodes(n->child[0]) + count_nodes(n->child[1]);
    }

    Arena arena_;
    // The root (the default prefix) lives in the trie itself, so a table
    // that never holds a route allocates no arena block.
    Node root_node_{Net{}};
    Node* const root_ = &root_node_;
    size_t size_ = 0;
    size_t live_iterators_ = 0;
};

}  // namespace xrp::net

#endif
