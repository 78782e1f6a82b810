#include "ospf/spf.hpp"

#include <algorithm>
#include <bit>

namespace xrp::ospf {

namespace {

uint32_t sat_add(uint32_t a, uint32_t b) {
    uint64_t s = static_cast<uint64_t>(a) + b;
    return s >= 0xffffffffull ? 0xfffffffeu : static_cast<uint32_t>(s);
}

bool lists(const std::vector<net::IPv4>& v, net::IPv4 a) {
    return std::find(v.begin(), v.end(), a) != v.end();
}

}  // namespace

const Lsa* SpfEngine::router_lsa(net::IPv4 id) const {
    auto it = snap_.find({LsaType::kRouter, id, id});
    return it == snap_.end() ? nullptr : &it->second;
}

const Lsa* SpfEngine::network_lsa(net::IPv4 id) const {
    auto ni = net_idx_.find(id);
    if (ni == net_idx_.end()) return nullptr;
    auto it = snap_.find(ni->second);
    return it == snap_.end() ? nullptr : &it->second;
}

std::optional<uint32_t> SpfEngine::edge_weight(const Vertex& a,
                                               const Vertex& b) const {
    if (a.kind == LsaType::kRouter) {
        const Lsa* al = router_lsa(a.id);
        if (!al) return std::nullopt;
        if (b.kind == LsaType::kRouter) {
            // Point-to-point: a must list b and b must list a back.
            const Lsa* bl = router_lsa(b.id);
            if (!bl) return std::nullopt;
            bool back = false;
            for (const RouterLink& l : bl->links)
                if (l.type == LinkType::kPointToPoint && l.id == a.id)
                    back = true;
            if (!back) return std::nullopt;
            std::optional<uint32_t> best;
            for (const RouterLink& l : al->links)
                if (l.type == LinkType::kPointToPoint && l.id == b.id)
                    if (!best || l.metric < *best) best = l.metric;
            return best;
        }
        // Transit onto segment b: a claims the link and the Network LSA
        // lists a as attached.
        const Lsa* nl = network_lsa(b.id);
        if (!nl || !lists(nl->attached, a.id)) return std::nullopt;
        std::optional<uint32_t> best;
        for (const RouterLink& l : al->links)
            if (l.type == LinkType::kTransit && l.id == b.id)
                if (!best || l.metric < *best) best = l.metric;
        return best;
    }
    // Network → attached router: always cost 0 (RFC 2328 §16.1 step 2b).
    if (b.kind != LsaType::kRouter) return std::nullopt;
    const Lsa* nl = network_lsa(a.id);
    if (!nl || !lists(nl->attached, b.id)) return std::nullopt;
    const Lsa* bl = router_lsa(b.id);
    if (!bl) return std::nullopt;
    for (const RouterLink& l : bl->links)
        if (l.type == LinkType::kTransit && l.id == a.id) return 0u;
    return std::nullopt;
}

std::vector<SpfEngine::Vertex> SpfEngine::raw_targets(const Vertex& v) const {
    std::vector<Vertex> out;
    if (v.kind == LsaType::kRouter) {
        const Lsa* l = router_lsa(v.id);
        if (!l) return out;
        for (const RouterLink& lk : l->links) {
            if (lk.type == LinkType::kPointToPoint)
                out.push_back({LsaType::kRouter, lk.id});
            else if (lk.type == LinkType::kTransit)
                out.push_back({LsaType::kNetwork, lk.id});
        }
    } else {
        const Lsa* l = network_lsa(v.id);
        if (!l) return out;
        for (net::IPv4 r : l->attached) out.push_back({LsaType::kRouter, r});
    }
    return out;
}

net::IPv4 SpfEngine::first_hop(const Vertex& parent, const Vertex& child) const {
    if (parent.kind == LsaType::kRouter && parent.id == root_) {
        // Directly attached segment: packets for it don't need a gateway.
        if (child.kind == LsaType::kNetwork) return net::IPv4();
        // p2p neighbour: its back-link's data field is its address on the
        // shared link.
        if (const Lsa* cl = router_lsa(child.id))
            for (const RouterLink& l : cl->links)
                if (l.type == LinkType::kPointToPoint && l.id == root_)
                    return l.data;
        return net::IPv4();
    }
    // Parent is a directly attached transit segment: the child router's
    // address on it is in its own transit link's data field.
    if (parent.kind == LsaType::kNetwork && child.kind == LsaType::kRouter)
        if (const Lsa* cl = router_lsa(child.id))
            for (const RouterLink& l : cl->links)
                if (l.type == LinkType::kTransit && l.id == parent.id)
                    return l.data;
    return net::IPv4();
}

void SpfEngine::relax(const Vertex& v,
                      std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                                          std::greater<QueueEntry>>& pq) {
    uint32_t base = nodes_.at(v).dist;
    for (const Vertex& t : raw_targets(v)) {
        auto w = edge_weight(v, t);
        if (!w) continue;
        uint32_t nd = sat_add(base, *w);
        Node& tn = nodes_[t];
        if (nd < tn.dist) {
            tn.dist = nd;
            tn.parent = v;
            tn.has_parent = true;
            pq.push({nd, t});
        }
    }
}

void SpfEngine::add_contributions(const Vertex& v,
                                  std::set<net::IPv4Net>* touched) {
    auto nit = nodes_.find(v);
    if (nit == nodes_.end() || nit->second.dist == kInf) return;
    const Node& n = nit->second;
    // The gateway set this vertex contributes: its full equal-cost hop
    // set, or empty for the no-gateway case (root itself / directly
    // attached), mirroring the scalar nexthop convention.
    net::NexthopSet4 gws;
    if (n.nexthop != net::IPv4()) gws = n.hops;
    auto& plist = vertex_prefixes_[v];
    auto put = [&](const net::IPv4Net& p, uint32_t cost) {
        auto& m = contrib_[p];
        auto [sit, inserted] = m.try_emplace(v, SpfRoute{cost, n.nexthop, gws});
        if (!inserted) {
            // Two stub links on the same subnet: keep the cheaper.
            if (cost < sit->second.cost) sit->second = {cost, n.nexthop, gws};
        } else {
            plist.push_back(p);
        }
        if (touched) touched->insert(p);
    };
    if (v.kind == LsaType::kRouter) {
        if (const Lsa* l = router_lsa(v.id))
            for (const RouterLink& lk : l->links)
                if (lk.type == LinkType::kStub) {
                    auto plen =
                        static_cast<uint32_t>(std::popcount(lk.data.to_host()));
                    put(net::IPv4Net(lk.id, plen), sat_add(n.dist, lk.metric));
                }
    } else {
        if (const Lsa* l = network_lsa(v.id)) put(l->network(), n.dist);
    }
    if (plist.empty()) vertex_prefixes_.erase(v);
}

void SpfEngine::drop_contributions(const Vertex& v,
                                   std::set<net::IPv4Net>* touched) {
    auto it = vertex_prefixes_.find(v);
    if (it == vertex_prefixes_.end()) return;
    for (const net::IPv4Net& p : it->second) {
        auto cit = contrib_.find(p);
        if (cit != contrib_.end()) {
            cit->second.erase(v);
            if (cit->second.empty()) contrib_.erase(cit);
        }
        if (touched) touched->insert(p);
    }
    vertex_prefixes_.erase(it);
}

// Folds a prefix's per-vertex contributions into the winning route:
// cheapest cost wins, and every contribution at that cost pools its
// gateways into one ECMP set. A no-gateway contribution (root's own stub
// or a directly attached segment) beats gateways outright — those
// prefixes belong to the connected origin. The fold is order-independent
// and shared by both run modes, so full and incremental agree.
SpfRoute SpfEngine::winner_for(const std::map<Vertex, SpfRoute>& contribs) const {
    uint32_t best_cost = kInf;
    for (const auto& [v, r] : contribs) best_cost = std::min(best_cost, r.cost);
    bool direct = false;
    net::NexthopSet4 set;
    for (const auto& [v, r] : contribs) {
        if (r.cost != best_cost) continue;
        if (r.nexthop == net::IPv4())
            direct = true;
        else
            set.merge(r.nexthops);
    }
    if (direct || set.empty()) return SpfRoute{best_cost, net::IPv4(), {}};
    set.clamp(max_paths_);
    net::IPv4 primary = set.primary();
    return SpfRoute{best_cost, primary, std::move(set)};
}

void SpfEngine::recompute_winners(const std::set<net::IPv4Net>& touched) {
    for (const net::IPv4Net& p : touched) {
        auto cit = contrib_.find(p);
        if (cit == contrib_.end() || cit->second.empty()) {
            routes_.erase(p);
            continue;
        }
        routes_[p] = winner_for(cit->second);
    }
}

void SpfEngine::derive_hops(const std::vector<Vertex>& seeds,
                            std::set<Vertex>* changed) {
    // Topological order of the tight-edge DAG: distance ascending, and at
    // equal distance networks before routers — the only zero-weight edges
    // are network->router (§16.1 step 2b), so every tight edge goes from
    // an earlier slot to a later one. Ids break remaining ties so the
    // order (and with it every clamped set) is deterministic. A vertex's
    // set depends only on earlier vertices, and a queued vertex is only
    // ever later than the one being popped, so each is recomputed once,
    // after all of its in-neighbours are final.
    struct Ord {
        uint32_t dist;
        int rank;
        Vertex v;
        auto operator<=>(const Ord&) const = default;
    };
    auto ord = [](const Vertex& v, const Node& n) {
        return Ord{n.dist, v.kind == LsaType::kNetwork ? 0 : 1, v};
    };
    using NodeIt = std::map<Vertex, Node>::iterator;
    std::priority_queue<Ord, std::vector<Ord>, std::greater<Ord>> work;
    ++run_id_;
    auto push = [&](NodeIt it) {
        if (it->second.processed_run == run_id_) return;
        it->second.processed_run = run_id_;
        work.push(ord(it->first, it->second));
    };
    for (const Vertex& v : seeds) {
        auto it = nodes_.find(v);
        if (it != nodes_.end() && it->second.dist != kInf) push(it);
    }

    const Vertex root{LsaType::kRouter, root_};
    size_t visits = 0;
    std::vector<NodeIt> later;
    while (!work.empty()) {
        const Ord o = work.top();
        work.pop();
        const Vertex& v = o.v;
        Node& n = nodes_.at(v);
        ++visits;
        // Claimed adjacencies are symmetric at the adjacency level, so v's
        // own targets are exactly its possible in- and out-neighbours.
        net::NexthopSet4 hops;
        later.clear();
        for (const Vertex& u : raw_targets(v)) {
            if (u == v) continue;
            auto uit = nodes_.find(u);
            if (uit == nodes_.end() || uit->second.dist == kInf) continue;
            const Node& un = uit->second;
            if (o < ord(u, un)) {
                later.push_back(uit);
                continue;
            }
            if (v == root) continue;
            auto w = edge_weight(u, v);
            if (!w) continue;
            if (sat_add(un.dist, *w) != n.dist) continue;
            if (u == root || un.nexthop == net::IPv4()) {
                // Hop decided at this edge: root's own link, or a parent
                // reached with no gateway (directly attached segment)
                // whose child address is the hop.
                hops.insert(first_hop(u, v));
            } else {
                hops.merge(un.hops);
            }
        }
        // A direct attachment (hop 0) at equal cost beats gateways — and
        // the sentinel composes with nothing else.
        if (hops.contains(net::IPv4()))
            hops = net::NexthopSet4::single(net::IPv4());
        hops.clamp(max_paths_);
        net::IPv4 primary =
            hops.empty() || hops.primary() == net::IPv4() ? net::IPv4()
                                                          : hops.primary();
        if (hops == n.hops && primary == n.nexthop) continue;
        if (changed) changed->insert(v);
        n.hops = std::move(hops);
        n.nexthop = primary;
        // Only later vertices can inherit from v.
        for (NodeIt it : later) push(it);
    }
    stats_.last_hop_visits = visits;
}

void SpfEngine::rebuild_snapshot(const Lsdb& db) {
    snap_.clear();
    net_idx_.clear();
    db.for_each([&](const Lsa& lsa) {
        snap_[lsa.key()] = lsa;
        if (lsa.type == LsaType::kNetwork) net_idx_[lsa.id] = lsa.key();
    });
}

const RouteMap& SpfEngine::run_full(const Lsdb& db) {
    rebuild_snapshot(db);
    nodes_.clear();
    contrib_.clear();
    vertex_prefixes_.clear();
    // Every prefix routed before or after this run may have moved.
    for (const auto& [p, r] : routes_) moved_.insert(p);
    routes_.clear();
    ++run_id_;
    size_t visited = 0;
    stats_.last_hop_visits = 0;
    Vertex root{LsaType::kRouter, root_};
    if (router_lsa(root_)) {
        std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                            std::greater<QueueEntry>>
            pq;
        Node& rn = nodes_[root];
        rn.dist = 0;
        rn.processed_run = run_id_;
        ++visited;
        relax(root, pq);
        while (!pq.empty()) {
            auto [d, v] = pq.top();
            pq.pop();
            Node& n = nodes_[v];
            if (n.processed_run == run_id_ || d > n.dist) continue;
            n.processed_run = run_id_;
            ++visited;
            relax(v, pq);
        }
        std::vector<Vertex> all;
        all.reserve(nodes_.size());
        for (const auto& [v, n] : nodes_) all.push_back(v);
        derive_hops(all, nullptr);
        for (const auto& [v, n] : nodes_) add_contributions(v, nullptr);
    }
    for (const auto& [p, m] : contrib_) {
        routes_[p] = winner_for(m);
        moved_.insert(p);
    }
    stats_.last_visited = visited;
    ++stats_.full_runs;
    has_run_ = true;
    return routes_;
}

const RouteMap& SpfEngine::run_incremental(const Lsdb& db,
                                           const std::vector<LsaKey>& changed) {
    // No prior tree, or the change is too broad for the bookkeeping to pay
    // off — a full run visits everything once and is cache-friendly.
    if (!has_run_ || changed.size() > std::max<size_t>(8, snap_.size() / 4)) {
        ++stats_.fallbacks;
        return run_full(db);
    }

    // 1. Reduce `changed` to real topology deltas: drop duplicates,
    // refresh-only instances (same content, new seq), and keys that were
    // absent on both sides.
    struct Delta {
        LsaKey key;
        bool had = false, has = false;
        Lsa new_lsa;
    };
    std::vector<Delta> deltas;
    std::set<LsaKey> seen;
    for (const LsaKey& k : changed) {
        if (!seen.insert(k).second) continue;
        auto oit = snap_.find(k);
        const Lsa* nl = db.lookup(k);
        bool had = oit != snap_.end();
        if (!had && !nl) continue;
        if (had && nl && nl->same_content(oit->second)) continue;
        Delta d{k, had, nl != nullptr, {}};
        if (nl) d.new_lsa = *nl;
        deltas.push_back(std::move(d));
    }
    ++stats_.incremental_runs;
    if (deltas.empty()) {
        stats_.last_visited = 0;
        stats_.last_hop_visits = 0;
        return routes_;
    }

    auto vertex_of = [](const LsaKey& k) {
        return Vertex{k.type,
                      k.type == LsaType::kRouter ? k.adv_router : k.id};
    };
    auto targets_of = [](const Lsa& l, std::set<Vertex>& out) {
        if (l.type == LsaType::kRouter) {
            for (const RouterLink& lk : l.links) {
                if (lk.type == LinkType::kPointToPoint)
                    out.insert({LsaType::kRouter, lk.id});
                else if (lk.type == LinkType::kTransit)
                    out.insert({LsaType::kNetwork, lk.id});
            }
        } else {
            for (net::IPv4 r : l.attached) out.insert({LsaType::kRouter, r});
        }
    };

    // 2. Candidate directed edges touched by the deltas, with their weights
    // under the OLD snapshot (both directions — back-link validity means a
    // one-sided LSA change can create or destroy either direction).
    std::set<Vertex> delta_vertices;
    std::map<std::pair<Vertex, Vertex>, std::optional<uint32_t>> old_w;
    for (const Delta& d : deltas) {
        Vertex x = vertex_of(d.key);
        delta_vertices.insert(x);
        std::set<Vertex> cand;
        for (const Vertex& t : raw_targets(x)) cand.insert(t);  // old view
        if (d.has) targets_of(d.new_lsa, cand);
        for (const Vertex& t : cand) {
            old_w.try_emplace({x, t}, edge_weight(x, t));
            old_w.try_emplace({t, x}, edge_weight(t, x));
        }
    }

    // 3. Apply the deltas to the snapshot.
    for (const Delta& d : deltas) {
        if (d.has) {
            snap_[d.key] = d.new_lsa;
            if (d.key.type == LsaType::kNetwork) net_idx_[d.key.id] = d.key;
        } else {
            snap_.erase(d.key);
            if (d.key.type == LsaType::kNetwork) {
                auto ni = net_idx_.find(d.key.id);
                if (ni != net_idx_.end() && ni->second == d.key)
                    net_idx_.erase(ni);
            }
        }
    }

    // 4. Classify each candidate edge. Decreases (including newly valid
    // edges) become relaxation seeds; increases and removals matter only
    // when the edge was on the shortest-path tree, in which case the whole
    // subtree below it must be re-settled. The head of every changed edge
    // seeds the hop pass: its set of tight in-edges may have moved.
    std::vector<std::tuple<Vertex, Vertex, uint32_t>> decreases;
    std::set<Vertex> invalid_roots;
    std::vector<Vertex> hop_seeds(delta_vertices.begin(),
                                  delta_vertices.end());
    for (const auto& [e, wo] : old_w) {
        auto wn = edge_weight(e.first, e.second);
        if (wo == wn) continue;
        hop_seeds.push_back(e.second);
        uint32_t o = wo ? *wo : kInf;
        uint32_t w = wn ? *wn : kInf;
        if (w < o) {
            decreases.emplace_back(e.first, e.second, w);
        } else {
            auto bit = nodes_.find(e.second);
            if (bit != nodes_.end() && bit->second.has_parent &&
                bit->second.parent == e.first)
                invalid_roots.insert(e.second);
        }
    }

    // 5. Invalidated region A: the closure of tree children below each
    // invalid root. Everything outside A keeps its distance (a worsened
    // non-tree edge can't affect anyone's shortest path). A tree child
    // is still among its parent's claimed targets: had the parent's claim
    // gone, that tree edge changed and the child is an invalid root.
    std::set<Vertex> A;
    std::vector<Vertex> stack(invalid_roots.begin(), invalid_roots.end());
    while (!stack.empty()) {
        Vertex v = stack.back();
        stack.pop_back();
        if (!A.insert(v).second) continue;
        for (const Vertex& c : raw_targets(v)) {
            auto cit = nodes_.find(c);
            if (cit != nodes_.end() && cit->second.has_parent &&
                cit->second.parent == v)
                stack.push_back(c);
        }
    }
    for (const Vertex& v : A) {
        Node& n = nodes_[v];
        n.dist = kInf;
        n.has_parent = false;
    }

    // 6. Seed a restricted Dijkstra: decrease edges, plus every edge
    // entering A from the stable region.
    ++run_id_;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        pq;
    auto seed = [&](const Vertex& from, const Vertex& to, uint32_t w) {
        if (A.count(from)) return;  // relaxed when/if `from` re-settles
        auto fit = nodes_.find(from);
        if (fit == nodes_.end() || fit->second.dist == kInf) return;
        uint32_t nd = sat_add(fit->second.dist, w);
        Node& tn = nodes_[to];
        if (nd < tn.dist) {
            tn.dist = nd;
            tn.parent = from;
            tn.has_parent = true;
            pq.push({nd, to});
        }
    };
    for (const auto& [a, b, w] : decreases) seed(a, b, w);
    for (const Vertex& x : A)
        // x's claimed adjacencies are exactly its possible in-neighbours
        // (every edge type here is symmetric at the adjacency level).
        for (const Vertex& t : raw_targets(x))
            if (auto w = edge_weight(t, x)) seed(t, x, *w);

    // 7. Settle. Pops are nondecreasing in distance.
    std::set<Vertex> touched(A.begin(), A.end());
    while (!pq.empty()) {
        auto [d, v] = pq.top();
        pq.pop();
        Node& n = nodes_[v];
        if (n.processed_run == run_id_ || d > n.dist) continue;
        n.processed_run = run_id_;
        touched.insert(v);
        relax(v, pq);
    }
    // 7b. Re-derive equal-cost hop sets where they can move. Hop sets are
    // inherited along tight edges, so besides the re-settled vertices the
    // pass seeds their claimed neighbours (whose tight in-edges may have
    // appeared or gone), every delta vertex (first hops read its link
    // addresses) and the heads of changed edges; from there it spreads
    // only while a set moves. Vertices whose set moved join `touched` so
    // their prefix contributions refresh.
    for (const Vertex& v : touched) {
        hop_seeds.push_back(v);
        for (const Vertex& t : raw_targets(v)) hop_seeds.push_back(t);
    }
    derive_hops(hop_seeds, &touched);

    // Stub-only changes never enter the graph phase but still move
    // prefixes.
    for (const Vertex& x : delta_vertices) touched.insert(x);
    stats_.last_visited = touched.size();

    // 8. Refresh prefix contributions for every vertex whose distance,
    // next hop, or LSA content moved; recompute winners for the prefixes
    // involved. Vertices that ended up unreachable are dropped.
    std::set<net::IPv4Net> touched_prefixes;
    for (const Vertex& v : touched) {
        drop_contributions(v, &touched_prefixes);
        auto nit = nodes_.find(v);
        if (nit == nodes_.end()) continue;
        if (nit->second.dist == kInf)
            nodes_.erase(nit);
        else
            add_contributions(v, &touched_prefixes);
    }
    recompute_winners(touched_prefixes);
    moved_.merge(touched_prefixes);
    return routes_;
}

}  // namespace xrp::ospf
