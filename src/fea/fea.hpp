// Fea: the Forwarding Engine Abstraction process (§3).
//
// "The FEA provides a stable API for communicating with a forwarding
// engine or engines" — here the simulated forwarding plane — and, per the
// security design (§7), acts as the relay for all network access:
// "rather than sending UDP packets directly, RIP sends and receives
// packets using XRL calls to the FEA", so routing processes never need
// raw sockets or root privileges.
//
// Profiling points: "fea_in" (route arriving at the FEA) and "kernel_in"
// (route entering the kernel/forwarding plane) — the last two points of
// the paper's Figures 10-12 pipeline.
#ifndef XRP_FEA_FEA_HPP
#define XRP_FEA_FEA_HPP

#include <map>
#include <memory>

#include "ev/eventloop.hpp"
#include "fea/iftable.hpp"
#include "fea/simfib.hpp"
#include "fea/simnet.hpp"
#include "stage/batch.hpp"

namespace xrp::fea {

class Fea {
public:
    explicit Fea(ev::EventLoop& loop, std::string name = "fea")
        : loop_(loop), name_(std::move(name)) {}
    Fea(const Fea&) = delete;
    Fea& operator=(const Fea&) = delete;

    ev::EventLoop& loop() { return loop_; }
    const std::string& name() const { return name_; }
    IfTable& interfaces() { return interfaces_; }
    const IfTable& interfaces() const { return interfaces_; }
    SimForwardingPlane& fib() { return fib_; }
    const SimForwardingPlane& fib() const { return fib_; }

    // ---- forwarding table API (used by the RIB) ------------------------
    // The egress interface is resolved from the nexthop's subnet; a route
    // whose nexthop matches no interface is installed interface-less
    // (recursive routes — the RIB has already resolved reachability).
    void add_route(const net::IPv4Net& net, net::IPv4 nexthop);
    // Multipath install: each member's egress resolves independently and
    // flows are spread across members by lookup_flow(). A 0/1-member set
    // degrades to the scalar install above.
    void add_route(const net::IPv4Net& net, const net::NexthopSet4& nexthops);
    bool delete_route(const net::IPv4Net& net);
    // Bulk install: one call applies a whole RIB delta in entry order.
    // Per-entry FIB journaling is preserved — the convergence analyzer
    // replays individual kFibAdd/kFibDelete events — so the saving is the
    // transport round-trips, not the journal.
    void apply_batch(const stage::RouteBatch4& batch);
    const FibEntry* lookup(net::IPv4 addr) const { return fib_.lookup(addr); }

    // Monotonic churn counters: every install/removal that reached the
    // forwarding plane, ever. A hitless restart or upgrade must hold
    // fib_deletes() constant — the 0-flinch gate reads these, because a
    // transient dip in fib().size() could be masked by a same-tick re-add
    // while a delete+add pair cannot hide from a monotonic counter.
    uint64_t fib_adds() const { return fib_adds_; }
    uint64_t fib_deletes() const { return fib_deletes_; }

    // ---- virtual network attachment -------------------------------------
    void attach_to_network(VirtualNetwork* network, int link_id,
                           const std::string& ifname);

    // ---- the §7 UDP relay ---------------------------------------------
    using UdpReceiveCallback =
        std::function<void(const std::string& ifname, const Datagram&)>;
    // Opens a relay socket bound to `port` on every interface. Returns a
    // socket id (>0), or 0 if the port is taken.
    int udp_open(uint16_t port, UdpReceiveCallback cb);
    void udp_close(int sock);
    bool udp_send(int sock, const std::string& ifname, net::IPv4 dst,
                  uint16_t dst_port, std::vector<uint8_t> payload);

    // Called by the VirtualNetwork when a datagram reaches one of our
    // attached interfaces.
    void receive(const std::string& ifname, const Datagram& dgram);

    // Router identity stamped on journal events; empty = unbound.
    void set_node(std::string node) { node_ = std::move(node); }
    const std::string& node() const { return node_; }

private:
    // The "Arriving at FEA" trace point (kFeaIn); "Entering kernel" is
    // the journal's fib_add/fib_delete.
    void trace_in(const net::IPv4Net& net, const char* op);

    struct RelaySocket {
        uint16_t port = 0;
        UdpReceiveCallback cb;
    };
    struct Attachment {
        VirtualNetwork* network = nullptr;
        int link_id = 0;
    };

    ev::EventLoop& loop_;
    std::string name_;
    std::string node_;
    IfTable interfaces_;
    SimForwardingPlane fib_;
    std::map<int, RelaySocket> sockets_;
    std::map<std::string, Attachment> attachments_;  // by ifname
    int next_sock_ = 1;
    uint64_t fib_adds_ = 0;
    uint64_t fib_deletes_ = 0;
};

}  // namespace xrp::fea

#endif
