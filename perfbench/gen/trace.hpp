/// \file trace.hpp
/// \brief The traced run's instruments, all outside the program:
///
///  * TimingTransport decorates a client's rpc::Transport (the public
///    ClientEnv::transport seam). It reads the MsgType and trace context
///    from each request frame's header and completes a span through
///    Future::on_ready before the caller's future completes, so every
///    span of an operation is recorded by the time the operation returns.
///  * OpRecord collects the spans of one benchmark operation; the thread
///    running the operation installs it in a thread-local slot.
///  * ServerProbe drains the daemons' span rings (kTraceDump) often
///    enough that they never wrap, and samples the gauges that only
///    exist as instantaneous values (worker backlog, publish backlog).

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/client.hpp"
#include "rpc/transport.hpp"

namespace perfbench {

/// One client-side RPC, times in steady-clock nanoseconds.
struct RpcSpan {
    std::uint16_t type = 0;
    std::uint32_t span_id = 0;
    std::uint64_t trace_id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t bytes_in = 0;
    bool ok = false;
};

/// Spans of one benchmark operation. Completions arrive on the client's
/// event-loop thread, hence the mutex.
struct OpRecord {
    std::mutex mu;
    std::vector<RpcSpan> spans;  // guarded by mu
};

/// The operation the calling thread is running (null outside one).
/// Shared so that a completion can never outlive the record it writes.
std::shared_ptr<OpRecord>& current_op();

[[nodiscard]] std::int64_t steady_ns();

class TimingTransport final : public blobseer::rpc::Transport {
  public:
    explicit TimingTransport(std::shared_ptr<blobseer::rpc::Transport> inner)
        : inner_(std::move(inner)) {}

    blobseer::Future<blobseer::Buffer> call_async(
        blobseer::NodeId dst, blobseer::ConstBytes frame) override;
    blobseer::Future<blobseer::Buffer> call_async_via(
        blobseer::NodeId via, blobseer::NodeId dst,
        blobseer::ConstBytes frame) override;

    /// RPCs issued outside any benchmark operation (none expected).
    [[nodiscard]] std::uint64_t unattributed() const noexcept {
        return unattributed_.load(std::memory_order_relaxed);
    }

  private:
    template <typename Call>
    blobseer::Future<blobseer::Buffer> timed(blobseer::ConstBytes frame,
                                             Call&& call);

    std::shared_ptr<blobseer::rpc::Transport> inner_;
    std::atomic<std::uint64_t> unattributed_{0};
};

/// Server half of a span, as drained from a daemon's ring.
struct ServerSpan {
    std::uint64_t queue_us = 0;
    std::uint64_t duration_us = 0;
};

class ServerProbe {
  public:
    /// \p control is a client that no benchmark operation uses; \p nodes
    /// address one daemon each (the manager's control node first).
    ServerProbe(blobseer::core::BlobSeerClient& control,
                std::vector<blobseer::NodeId> nodes);
    ~ServerProbe();
    ServerProbe(const ServerProbe&) = delete;
    ServerProbe& operator=(const ServerProbe&) = delete;

    /// One metrics snapshot per daemon, in node order.
    [[nodiscard]] std::vector<blobseer::MetricsSnapshot> snapshot_metrics();

    void start();
    /// Stop sampling and drain every ring one last time. Throws when a
    /// drain or sample failed while running.
    void stop();

    /// Server spans keyed by (trace id, span id).
    [[nodiscard]] const std::map<std::pair<std::uint64_t, std::uint32_t>,
                                 ServerSpan>&
    server_spans() const {
        return server_spans_;
    }
    /// Distinct spans of any kind collected from the rings.
    [[nodiscard]] std::uint64_t collected() const { return seen_.size(); }
    /// Largest sampled value of a gauge, over all daemons.
    [[nodiscard]] std::uint64_t sampled_peak(const std::string& name) const;
    /// kMetricsDump + kTraceDump RPCs the probe sent to daemon \p i.
    [[nodiscard]] std::uint64_t control_rpcs(std::size_t i) const {
        return control_rpcs_.at(i);
    }

  private:
    void drain_all();
    void loop(std::stop_token stop);

    blobseer::core::BlobSeerClient& control_;
    std::vector<blobseer::NodeId> nodes_;
    std::vector<std::uint64_t> control_rpcs_;
    std::map<std::pair<std::uint64_t, std::uint32_t>, ServerSpan> server_spans_;
    std::set<std::tuple<std::size_t, std::uint64_t, std::uint32_t, std::uint8_t>>
        seen_;
    std::map<std::string, std::uint64_t> peaks_;
    std::string error_;  // written by the sampling thread before it exits
    std::jthread thread_;  // last: joined before the members it uses die
};

}  // namespace perfbench
