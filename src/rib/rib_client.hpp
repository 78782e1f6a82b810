// RibClient: how route changes reach the RIB. Every in-tree sender uses
// one: BGP's XrlRibHandle, OSPF, RIP and the Router Manager's connected
// and static routes. A change set crosses as one RouteBatch4 under one
// origin protocol, whatever its size:
//   - DirectRibClient: same address space, calls Rib::push_batch;
//   - XrlRibClient: a (possibly remote) RIB over rib/1.0/add_routes_bulk;
//   - NullRibClient: standalone operation, drops everything.
#ifndef XRP_RIB_RIB_CLIENT_HPP
#define XRP_RIB_RIB_CLIENT_HPP

#include "ipc/router.hpp"
#include "rib/rib.hpp"

namespace xrp::rib {

class RibClient {
public:
    virtual ~RibClient() = default;
    // One ordered delta for `protocol`'s origin table.
    virtual void push_batch(const std::string& protocol,
                            stage::RouteBatch4&& batch) = 0;
};

class NullRibClient final : public RibClient {
public:
    void push_batch(const std::string&, stage::RouteBatch4&&) override {}
};

class DirectRibClient final : public RibClient {
public:
    explicit DirectRibClient(Rib& rib) : rib_(rib) {}
    void push_batch(const std::string& protocol,
                    stage::RouteBatch4&& batch) override {
        rib_.push_batch(protocol, std::move(batch));
    }

private:
    Rib& rib_;
};

class XrlRibClient final : public RibClient {
public:
    explicit XrlRibClient(ipc::XrlRouter& router,
                          std::string rib_target = "rib")
        : router_(router), target_(std::move(rib_target)) {}

    // Route pushes are idempotent, so the reliable contract may retry them
    // through drops; one-way calls to one target stay FIFO.
    void push_batch(const std::string& protocol,
                    stage::RouteBatch4&& batch) override {
        send(protocol, std::move(batch), [this](const xrl::Xrl& x) {
            router_.call_oneway(x, ipc::CallOptions::reliable());
        });
    }

    // The acknowledged form, for a feeder that must know when the RIB has
    // taken everything: each XRL is a call under `opts` whose reply goes to
    // `done`. Returns how many XRLs the batch took.
    size_t push_batch(const std::string& protocol, stage::RouteBatch4&& batch,
                      const ipc::CallOptions& opts,
                      const ipc::ResponseCallback& done) {
        return send(protocol, std::move(batch), [&](const xrl::Xrl& x) {
            router_.call(x, opts, done);
        });
    }

private:
    // Coalescing is safe at this boundary (the RIB origin cares about the
    // net effect, not transients); the delta then leaves in chunks.
    template <class Emit>
    size_t send(const std::string& protocol, stage::RouteBatch4&& batch,
                Emit&& emit) {
        batch.coalesce();
        size_t sent = 0;
        stage::RouteBatch4 chunk;
        auto flush = [&] {
            if (chunk.empty()) return;
            xrl::XrlArgs args;
            args.add("protocol", protocol).add("routes", chunk.encode_bytes());
            emit(xrl::Xrl::generic(target_, "rib", "1.0", "add_routes_bulk",
                                   std::move(args)));
            ++sent;
            chunk.clear();
        };
        for (auto& e : batch.entries()) {
            chunk.push(std::move(e));
            if (chunk.size() >= kBulkChunkEntries) flush();
        }
        flush();
        return sent;
    }

    // Entries per add_routes_bulk message: bounds any one XRL's payload
    // (and the receiver's decode allocation) without meaningfully
    // increasing the message count at 1M-route scale.
    static constexpr size_t kBulkChunkEntries = 8192;

    ipc::XrlRouter& router_;
    std::string target_;
};

}  // namespace xrp::rib

#endif
