#include "trace.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "rpc/protocol.hpp"

namespace perfbench {

using blobseer::Buffer;
using blobseer::ConstBytes;
using blobseer::Future;
using blobseer::NodeId;
using blobseer::Promise;

std::shared_ptr<OpRecord>& current_op() {
    thread_local std::shared_ptr<OpRecord> op;
    return op;
}

std::int64_t steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

template <typename Call>
Future<Buffer> TimingTransport::timed(ConstBytes frame, Call&& call) {
    std::shared_ptr<OpRecord> op = current_op();
    if (op == nullptr || frame.size() < blobseer::rpc::kFrameHeaderSize) {
        unattributed_.fetch_add(1, std::memory_order_relaxed);
        return call();
    }
    RpcSpan span;
    std::memcpy(&span.type, frame.data() + 6, 2);
    const auto ctx = blobseer::rpc::frame_trace(frame);
    span.trace_id = ctx.trace_id;
    span.span_id = ctx.span_id;
    span.bytes_out = frame.size();
    span.start_ns = steady_ns();
    Future<Buffer> inner = call();

    // The caller's future completes only after the span is stored, so an
    // operation never returns with one of its spans still in flight.
    auto promise = std::make_shared<Promise<Buffer>>();
    Future<Buffer> out = promise->future();
    inner.on_ready([inner, promise, op, span]() mutable {
        span.end_ns = steady_ns();
        try {
            Buffer resp = inner.get();
            span.bytes_in = resp.size();
            span.ok = blobseer::rpc::frame_status(resp) == blobseer::rpc::Status::kOk;
            {
                const std::scoped_lock lock(op->mu);
                op->spans.push_back(span);
            }
            promise->set_value(std::move(resp));
        } catch (...) {
            {
                const std::scoped_lock lock(op->mu);
                op->spans.push_back(span);
            }
            promise->set_exception(std::current_exception());
        }
    });
    return out;
}

Future<Buffer> TimingTransport::call_async(NodeId dst, ConstBytes frame) {
    return timed(frame, [&] { return inner_->call_async(dst, frame); });
}

Future<Buffer> TimingTransport::call_async_via(NodeId via, NodeId dst,
                                               ConstBytes frame) {
    return timed(frame, [&] { return inner_->call_async_via(via, dst, frame); });
}

ServerProbe::ServerProbe(blobseer::core::BlobSeerClient& control,
                         std::vector<NodeId> nodes)
    : control_(control), nodes_(std::move(nodes)), control_rpcs_(nodes_.size(), 0) {}

ServerProbe::~ServerProbe() {
    if (thread_.joinable()) {
        thread_.request_stop();
        thread_.join();
    }
}

std::vector<blobseer::MetricsSnapshot> ServerProbe::snapshot_metrics() {
    std::vector<blobseer::MetricsSnapshot> out;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        out.push_back(control_.services().metrics_dump(nodes_[i]));
        ++control_rpcs_[i];
    }
    return out;
}

void ServerProbe::start() {
    thread_ = std::jthread([this](std::stop_token stop) { loop(stop); });
}

void ServerProbe::stop() {
    thread_.request_stop();
    thread_.join();
    if (!error_.empty()) {
        throw std::runtime_error("server probe: " + error_);
    }
    drain_all();
}

std::uint64_t ServerProbe::sampled_peak(const std::string& name) const {
    const auto it = peaks_.find(name);
    return it == peaks_.end() ? 0 : it->second;
}

void ServerProbe::drain_all() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const auto spans = control_.services().trace_dump(0, 0, nodes_[i]);
        ++control_rpcs_[i];
        for (const auto& s : spans) {
            if (!seen_.emplace(i, s.trace_id, s.span_id, s.kind).second) {
                continue;
            }
            if (s.kind == blobseer::trace::SpanRecord::kServer) {
                server_spans_[{s.trace_id, s.span_id}] =
                    ServerSpan{s.queue_us, s.duration_us};
            }
        }
    }
}

void ServerProbe::loop(std::stop_token stop) {
    // A ring holds 4096 spans. Drain at a period that keeps each drain
    // well under a quarter ring of new spans; sample gauges every 50 ms.
    auto period = std::chrono::milliseconds(20);
    auto next_sample = std::chrono::steady_clock::now();
    while (!stop.stop_requested()) try {
        const std::size_t before = seen_.size();
        drain_all();
        const std::size_t fresh = seen_.size() - before;
        if (fresh > 1024 && period > std::chrono::milliseconds(5)) {
            period /= 2;
        } else if (fresh < 256 && period < std::chrono::milliseconds(80)) {
            period *= 2;
        }
        if (std::chrono::steady_clock::now() >= next_sample) {
            next_sample += std::chrono::milliseconds(50);
            for (const auto& snap : snapshot_metrics()) {
                for (const auto& s : snap.samples) {
                    if (s.name == "rpc_server_worker_backlog" ||
                        s.name == "vm_publish_backlog") {
                        auto& peak = peaks_[s.name];
                        peak = std::max(peak, s.value);
                    }
                }
            }
        }
        std::this_thread::sleep_for(period);
    } catch (const std::exception& e) {
        error_ = e.what();  // read by stop() after the join
        return;
    }
}

}  // namespace perfbench
