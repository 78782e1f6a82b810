#include "sim/ospf_topology.hpp"

namespace xrp::sim {

using net::IPv4;
using net::IPv4Net;

OspfTopology::OspfTopology(ev::EventLoop& loop, fea::VirtualNetwork& net,
                           ospf::OspfProcess::Config base)
    : loop_(loop), net_(net), base_(base) {}

size_t OspfTopology::add_router() {
    size_t idx = nodes_.size();
    auto n = std::make_unique<Node>();
    n->router_id = IPv4((192u << 24) | (168u << 16) |
                        static_cast<uint32_t>(idx + 1));
    const std::string node = "r" + std::to_string(idx);
    n->fea = std::make_unique<fea::Fea>(loop_,
                                        "fea" + std::to_string(idx));
    n->fea->set_node(node);
    n->rib = std::make_unique<rib::Rib>(
        loop_, std::make_unique<rib::DirectFeaHandle>(*n->fea));
    n->rib->set_node(node);
    ospf::OspfProcess::Config cfg = base_;
    cfg.router_id = n->router_id;
    n->ospf = std::make_unique<ospf::OspfProcess>(
        loop_, *n->fea, cfg,
        std::make_unique<rib::DirectRibClient>(*n->rib));
    n->ospf->set_node(node);
    nodes_.push_back(std::move(n));
    return idx;
}

OspfTopology::Segment& OspfTopology::new_segment(
    const std::vector<size_t>& members) {
    Segment seg;
    seg.link_id = net_.add_link();
    int sn = next_subnet_++;
    seg.subnet = IPv4Net(IPv4((10u << 24) | static_cast<uint32_t>(sn << 8)),
                         24);
    seg.ifname = "s" + std::to_string(seg.link_id);
    seg.members = members;
    segments_.push_back(std::move(seg));
    return segments_.back();
}

size_t OspfTopology::connect(size_t a, size_t b, uint32_t cost_a,
                             uint32_t cost_b) {
    Segment& seg = new_segment({a, b});
    size_t idx = segments_.size() - 1;
    uint32_t costs[2] = {cost_a, cost_b};
    for (size_t k = 0; k < 2; ++k) {
        Node& n = *nodes_[seg.members[k]];
        IPv4 host = IPv4(seg.subnet.masked_addr().to_host() |
                         static_cast<uint32_t>(k + 1));
        n.fea->interfaces().add_interface(seg.ifname, host, 24);
        n.fea->attach_to_network(&net_, seg.link_id, seg.ifname);
        n.ospf->enable_interface(seg.ifname, costs[k]);
    }
    return idx;
}

size_t OspfTopology::connect_lan(const std::vector<size_t>& members,
                                 uint32_t cost) {
    Segment& seg = new_segment(members);
    size_t idx = segments_.size() - 1;
    for (size_t k = 0; k < seg.members.size(); ++k) {
        Node& n = *nodes_[seg.members[k]];
        IPv4 host = IPv4(seg.subnet.masked_addr().to_host() |
                         static_cast<uint32_t>(k + 1));
        n.fea->interfaces().add_interface(seg.ifname, host, 24);
        n.fea->attach_to_network(&net_, seg.link_id, seg.ifname);
        n.ospf->enable_interface(seg.ifname, cost);
    }
    return idx;
}

IPv4Net OspfTopology::add_stub(size_t r, uint32_t cost) {
    Segment& seg = new_segment({r});
    Node& n = *nodes_[r];
    IPv4 host =
        IPv4(seg.subnet.masked_addr().to_host() | 1u);
    n.fea->interfaces().add_interface(seg.ifname, host, 24);
    n.fea->attach_to_network(&net_, seg.link_id, seg.ifname);
    n.ospf->enable_interface(seg.ifname, cost);
    return seg.subnet;
}

bool OspfTopology::all_adjacencies_full() const {
    for (const Segment& seg : segments_) {
        for (size_t a : seg.members) {
            for (size_t b : seg.members) {
                if (a == b) continue;
                if (nodes_[a]->ospf->neighbor_state(
                        seg.ifname, nodes_[b]->router_id) !=
                    ospf::NeighborState::kFull)
                    return false;
            }
        }
    }
    return true;
}

}  // namespace xrp::sim
