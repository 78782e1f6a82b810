// OspfProcess: the OSPFv2 link-state routing protocol process (RFC 2328,
// reduced to what the simulated network exercises).
//
// Faithful to the paper's architecture the same way RIP is:
//   - all I/O rides the FEA's UDP relay (§7) — the process never touches
//     a socket, so it can run fully sandboxed;
//   - it is event-driven (§4): adjacency loss on link-down is immediate,
//     flooding is triggered, and SPF runs behind a short debounce plus a
//     hold-down instead of any periodic recompute.
//
// Every attached segment is modelled as a broadcast (transit) network: the
// highest router-id among fully adjacent routers is the Designated Router
// and originates the segment's Network LSA. Reliability comes from
// per-neighbour retransmit lists re-scanned on a timer: Update/Request/
// DbDesc packets lost to simnet loss are re-sent until acknowledged.
//
// Learned routes feed the RIB through a rib::RibClient ("ospf" protocol,
// admin distance 110): each SPF run sends the prefixes it moved as one
// batch.
#ifndef XRP_OSPF_OSPF_HPP
#define XRP_OSPF_OSPF_HPP

#include <memory>
#include <set>

#include "fea/fea.hpp"
#include "ospf/packet.hpp"
#include "ospf/spf.hpp"
#include "rib/rib_client.hpp"
#include "telemetry/metrics.hpp"

namespace xrp::ospf {

enum class NeighborState : uint8_t {
    kDown = 0,
    kInit,      // heard their Hello; they haven't listed us yet
    kExchange,  // bidirectional; database descriptions exchanged
    kLoading,   // requesting the LSAs their summary showed fresher
    kFull,      // databases synchronized — the adjacency counts for SPF
};

const char* neighbor_state_name(NeighborState s);

class OspfProcess {
public:
    struct Config {
        net::IPv4 router_id{};  // 0 = derive from first enabled interface
        ev::Duration hello_interval = std::chrono::seconds(10);
        ev::Duration dead_interval = std::chrono::seconds(40);
        ev::Duration retransmit_interval = std::chrono::seconds(5);
        // SPF debounce: a burst of flooded LSAs costs one recompute...
        ev::Duration spf_delay = std::chrono::milliseconds(200);
        // ...and consecutive recomputes are at least this far apart.
        ev::Duration spf_holddown = std::chrono::seconds(1);
        ev::Duration lsa_refresh = std::chrono::minutes(30);
        ev::Duration age_scan_interval = std::chrono::seconds(30);
        uint16_t max_age_secs = 3600;
        // ECMP width: equal-cost successor sets are clamped to this many
        // members; 1 disables multipath. Config leaf "max-paths".
        uint32_t max_paths = 8;
    };

    OspfProcess(ev::EventLoop& loop, fea::Fea& fea, Config config,
                std::unique_ptr<rib::RibClient> rib = nullptr);
    // Defaults-everything convenience (defined out of class: in-class
    // default args may not use Config's member initializers).
    OspfProcess(ev::EventLoop& loop, fea::Fea& fea);
    ~OspfProcess();
    OspfProcess(const OspfProcess&) = delete;
    OspfProcess& operator=(const OspfProcess&) = delete;

    // Pins the router id explicitly (config "router-id"). Only allowed
    // before the first interface is enabled — LSAs already flooded under
    // the old identity can't be recalled.
    bool set_router_id(net::IPv4 id);

    // Runs OSPF on an FEA interface with the given output cost.
    bool enable_interface(const std::string& ifname, uint32_t cost = 1);
    void disable_interface(const std::string& ifname);
    bool set_interface_cost(const std::string& ifname, uint32_t cost);
    // Changes the ECMP width at runtime; successor sets are re-derived by
    // a scheduled full SPF.
    void set_max_paths(uint32_t k);

    net::IPv4 router_id() const { return router_id_; }
    const Config& config() const { return config_; }

    const Lsdb& lsdb() const { return db_; }
    const SpfEngine& spf() const { return engine_; }
    // Routes currently injected into the RIB (nexthop-bearing only).
    const RouteMap& installed_routes() const { return installed_; }

    NeighborState neighbor_state(const std::string& ifname,
                                 net::IPv4 router_id) const;
    size_t neighbor_count() const { return neighbors_.size(); }
    size_t full_neighbor_count() const;
    // "ifname router_id state" lines, for the XRL target and diagnostics.
    std::string describe_neighbors() const;
    std::string describe_lsdb() const;

    struct Stats {
        uint64_t packets_in = 0;
        uint64_t bad_packets = 0;
        uint64_t hellos_sent = 0;
        uint64_t floods_sent = 0;   // LsUpdate transmissions (fan-out)
        uint64_t retransmits = 0;
        uint64_t spf_runs = 0;
    };
    const Stats& stats() const { return stats_; }

    // Router identity stamped on journal events; empty = unbound.
    void set_node(std::string node) { node_ = std::move(node); }
    const std::string& node() const { return node_; }

private:
    struct Neighbor {
        net::IPv4 router_id{};
        net::IPv4 addr{};  // their address on the segment
        std::string ifname;
        NeighborState state = NeighborState::kDown;
        bool got_dbdesc = false;  // processed their DbDesc this round
        std::set<LsaKey> requested;        // still needed from them
        std::map<LsaKey, Lsa> retransmit;  // sent, not yet acknowledged
        ev::Timer dead_timer;
    };
    using NeighborKey = std::pair<std::string, net::IPv4>;

    // -- packet handling -------------------------------------------------
    void on_datagram(const std::string& ifname, const fea::Datagram& dgram);
    void handle_hello(const std::string& ifname, const fea::Datagram& dgram,
                      const OspfPacket& pkt);
    void handle_dbdesc(Neighbor& n, const OspfPacket& pkt);
    void handle_lsrequest(Neighbor& n, const OspfPacket& pkt);
    void handle_lsupdate(Neighbor& n, const std::string& ifname,
                         const OspfPacket& pkt);
    void handle_lsack(Neighbor& n, const OspfPacket& pkt);

    // -- adjacency machinery ----------------------------------------------
    void send_hello(const std::string& ifname);
    void send_dbdesc(Neighbor& n);
    void send_lsrequest(Neighbor& n);
    void enter_exchange(Neighbor& n);
    void become_full(Neighbor& n);
    void reset_neighbor(Neighbor& n);  // regress to Init (one-way seen)
    void neighbor_dead(const NeighborKey& key);
    void drop_interface_neighbors(const std::string& ifname);
    void on_interface_change(const fea::Interface& itf, bool up);
    void restart_dead_timer(Neighbor& n);
    net::IPv4 dr_for(const std::string& ifname) const;

    // -- flooding ----------------------------------------------------------
    void flood(const Lsa& lsa, const std::string& except_ifname);
    void send_update(const std::string& ifname, net::IPv4 dst,
                     std::vector<Lsa> lsas);
    void retransmit_scan();

    // -- origination -------------------------------------------------------
    void schedule_origination();
    void run_origination();
    void premature_age(const LsaKey& key, uint32_t min_seq);
    uint32_t next_seq(const LsaKey& key);
    void refresh_own_lsas();
    void age_scan();

    // -- SPF ---------------------------------------------------------------
    void schedule_spf(const LsaKey& key);
    void run_spf();

    bool iface_active(const std::string& ifname) const;

    ev::EventLoop& loop_;
    fea::Fea& fea_;
    std::string node_;
    Config config_;
    std::unique_ptr<rib::RibClient> rib_;
    net::IPv4 router_id_{};
    int sock_ = 0;
    uint64_t iftable_listener_ = 0;

    std::map<std::string, uint32_t> iface_cost_;  // enabled interfaces
    std::map<NeighborKey, Neighbor> neighbors_;
    Lsdb db_;
    SpfEngine engine_;
    RouteMap installed_;
    std::map<LsaKey, uint32_t> own_seq_;

    std::vector<LsaKey> pending_spf_;
    bool spf_scheduled_ = false;
    bool origination_scheduled_ = false;
    bool have_spf_time_ = false;
    ev::TimePoint last_spf_time_{};

    ev::Timer hello_timer_;
    ev::Timer retransmit_timer_;
    ev::Timer age_timer_;
    ev::Timer refresh_timer_;
    ev::Timer origination_timer_;
    ev::Timer spf_timer_;

    Stats stats_;
    telemetry::Counter* m_spf_full_ = nullptr;
    telemetry::Counter* m_spf_incr_ = nullptr;
    telemetry::Histogram* m_spf_latency_ = nullptr;
    telemetry::Gauge* m_lsa_count_ = nullptr;
    telemetry::Counter* m_flood_tx_ = nullptr;
};

}  // namespace xrp::ospf

#endif
