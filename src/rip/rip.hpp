// RipProcess: the RIPv2 routing protocol process.
//
// Faithful to the paper's architecture in two specific ways:
//   - all network I/O goes through the FEA's UDP relay (§7): RIP never
//     touches a socket, so it can run fully sandboxed;
//   - it is event-driven (§4): triggered updates fire within a bounded
//     small delay of a route change, link-down events expire routes
//     immediately, and nothing waits for the 30-second periodic timer
//     except the periodic full advertisement RFC 2453 requires.
//
// Learned routes feed the RIB through a rib::RibClient ("rip" protocol,
// admin distance 120 by default). The changes one entry point makes — a
// received datagram, an interface change, enable/originate/withdraw —
// reach the RIB as one batch; a timer expiry is one batch of its own.
#ifndef XRP_RIP_RIP_HPP
#define XRP_RIP_RIP_HPP

#include <memory>
#include <set>

#include "fea/fea.hpp"
#include "rib/rib_client.hpp"
#include "rip/routedb.hpp"

namespace xrp::rip {

class RipProcess {
public:
    struct Config {
        ev::Duration update_interval = std::chrono::seconds(30);
        ev::Duration timeout = std::chrono::seconds(180);
        ev::Duration gc = std::chrono::seconds(120);
        // Triggered updates are delayed a short random-ish interval to
        // coalesce bursts (RFC 2453 §3.10.1); deterministic here.
        ev::Duration triggered_delay = std::chrono::milliseconds(200);
        bool split_horizon_poison = true;
    };

    RipProcess(ev::EventLoop& loop, fea::Fea& fea, Config config,
               std::unique_ptr<rib::RibClient> rib = nullptr);
    // Defaults-everything convenience (defined out of class: in-class
    // default args may not use Config's member initializers).
    RipProcess(ev::EventLoop& loop, fea::Fea& fea);
    ~RipProcess();
    RipProcess(const RipProcess&) = delete;
    RipProcess& operator=(const RipProcess&) = delete;

    // Runs RIP on an FEA interface. On enable, sends a whole-table
    // request so convergence doesn't wait for neighbours' periodic timers.
    bool enable_interface(const std::string& ifname);
    void disable_interface(const std::string& ifname);

    // Locally-originated routes (e.g. redistributed or connected).
    void originate(const net::IPv4Net& net, uint32_t metric = 1);
    void withdraw(const net::IPv4Net& net);

    const RouteDb& routes() const { return db_; }
    size_t route_count() const { return db_.live_count(); }
    const RipRoute* find_route(const net::IPv4Net& net) const {
        return db_.find(net);
    }

    struct Stats {
        uint64_t updates_sent = 0;
        uint64_t triggered_sent = 0;
        uint64_t packets_in = 0;
        uint64_t bad_packets = 0;
    };
    const Stats& stats() const { return stats_; }

private:
    void on_datagram(const std::string& ifname, const fea::Datagram& dgram);
    void process_response(const std::string& ifname,
                          const fea::Datagram& dgram);
    void send_full_table(const std::string& ifname, net::IPv4 dst,
                         uint16_t dst_port);
    void send_routes(const std::string& ifname, net::IPv4 dst,
                     uint16_t dst_port, const std::vector<RipRoute>& routes);
    void periodic_update();
    void schedule_triggered();
    void fire_triggered();
    void on_route_change(bool is_add, const RipRoute& r);
    void on_interface_change(const fea::Interface& itf, bool up);
    // Runs one entry point with RouteDb's changes gathered into
    // rib_pending_, then pushes them to the RIB as one batch.
    template <class F>
    void batched(F&& fn) {
        gathering_ = true;
        fn();
        gathering_ = false;
        flush_rib();
    }
    void flush_rib();

    ev::EventLoop& loop_;
    fea::Fea& fea_;
    Config config_;
    std::unique_ptr<rib::RibClient> rib_;
    RouteDb db_;
    std::set<std::string> enabled_;
    int sock_ = 0;
    uint64_t iftable_listener_ = 0;
    ev::Timer update_timer_;
    ev::Timer triggered_timer_;
    bool triggered_pending_ = false;
    stage::RouteBatch4 rib_pending_;
    bool gathering_ = false;
    Stats stats_;
};

}  // namespace xrp::rip

#endif
