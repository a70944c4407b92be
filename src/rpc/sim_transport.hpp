/// \file sim_transport.hpp
/// \brief Transport implementation over the in-process SimNetwork.
///
/// Synchronous round trips are dispatched inline on the calling thread —
/// exactly how the seed's direct calls worked — but both directions
/// charge the *actual encoded frame sizes* to the NIC bandwidth gates
/// instead of the hand-estimated byte constants the seed used.
///
/// call_async() runs the same wire model on a small per-transport worker
/// pool (created lazily on first use), so many requests progress through
/// the simulated network concurrently — the async client API gets real
/// overlap under simulation, with the same modeled costs per call.
///
/// Fault injection (kill/partition/degrade) applies unchanged:
/// SimNetwork::call_sized throws RpcError when an endpoint is dead or
/// partitioned, which is precisely a real transport's failure surface.
/// A node killed mid-flight therefore fails *every* async call currently
/// traversing it — each one trips the reachability check on its own
/// response path — matching a real connection dying with many requests
/// outstanding.

#pragma once

#include <memory>
#include <mutex>

#include "common/future.hpp"
#include "common/thread_pool.hpp"
#include "net/sim_network.hpp"
#include "rpc/dispatcher.hpp"
#include "rpc/transport.hpp"

namespace blobseer::rpc {

class SimTransport final : public Transport {
  public:
    /// \param self the network identity traffic is charged to.
    SimTransport(net::SimNetwork& net, NodeId self, Dispatcher& dispatcher)
        : net_(net), self_(self), dispatcher_(dispatcher) {}

    [[nodiscard]] Buffer roundtrip(NodeId dst, ConstBytes frame) override {
        return roundtrip_via(self_, dst, frame);
    }

    [[nodiscard]] Buffer roundtrip_via(NodeId via, NodeId dst,
                                       ConstBytes frame) override {
        if (dst == kControlNode) {
            // Control-plane bootstrap: answered by the dispatcher itself,
            // no per-node wire cost.
            return dispatcher_.dispatch(frame);
        }
        try {
            return net_.call_sized(via, dst, frame.size(), [&] {
                return dispatcher_.dispatch(frame);
            });
        } catch (const InvalidArgument& e) {
            // An unknown destination is a delivery failure from the
            // transport's point of view, same as a dead peer.
            throw RpcError(e.what());
        }
    }

    [[nodiscard]] Future<Buffer> call_async(NodeId dst,
                                            ConstBytes frame) override {
        return call_async_via(self_, dst, frame);
    }

    [[nodiscard]] Future<Buffer> call_async_via(NodeId via, NodeId dst,
                                                ConstBytes frame) override {
        auto promise = std::make_shared<Promise<Buffer>>();
        Future<Buffer> fut = promise->future();
        // The frame is copied: the simulated wire traversal happens
        // later, on a pool thread, after the caller's buffer is gone.
        pool().post(
            [this, via, dst, frame = Buffer(frame.begin(), frame.end()),
             promise] {
                settle(*promise,
                       [&] { return roundtrip_via(via, dst, frame); });
            });
        return fut;
    }

    [[nodiscard]] NodeId self() const noexcept { return self_; }

  private:
    /// Async calls mostly sleep in the wire model, so a modest pool
    /// carries a deep in-flight window; it is created lazily because
    /// most SimTransports (sync-only tests, short-lived clients) never
    /// issue an async call.
    static constexpr std::size_t kAsyncThreads = 16;

    [[nodiscard]] ThreadPool& pool() {
        std::call_once(pool_once_, [this] {
            pool_ = std::make_unique<ThreadPool>(kAsyncThreads);
        });
        return *pool_;
    }

    net::SimNetwork& net_;
    const NodeId self_;
    Dispatcher& dispatcher_;

    std::once_flag pool_once_;
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace blobseer::rpc
