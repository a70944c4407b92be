#include "rpc/service_client.hpp"

#include <algorithm>
#include <optional>

#include "rpc/protocol.hpp"

namespace blobseer::rpc {

namespace {

/// The client half of one traced RPC: stamps a fresh child span into
/// the frame, then record() writes the span once the call is over. The
/// server half shares the span id and is merged in by the trace viewer.
struct ClientSpan {
    ClientSpan(Buffer& frame, const trace::TraceContext& parent,
               MsgType type, NodeId dst)
        : child(parent),
          parent_span(parent.span_id),
          type(type),
          dst(dst),
          sent(frame.size()) {
        child.span_id = trace::new_span_id();
        set_frame_trace(frame, child);
    }

    void record(std::uint64_t received, Status status) const {
        const auto us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - started)
                .count());
        if (!trace::TraceBuffer::should_record(child.sampled(), us)) {
            return;
        }
        trace::SpanRecord span;
        span.trace_id = child.trace_id;
        span.span_id = child.span_id;
        span.parent_span = parent_span;
        span.start_unix_us = start_unix_us;
        span.duration_us = us;
        span.bytes = sent + received;
        span.node = dst;
        span.kind = trace::SpanRecord::kClient;
        span.status = static_cast<std::uint8_t>(status);
        span.set_op(to_string(type));
        trace::buffer().record(span);
    }

    trace::TraceContext child;
    std::uint32_t parent_span;
    MsgType type;
    NodeId dst;
    std::uint64_t sent;
    std::uint64_t start_unix_us = trace::now_unix_us();
    TimePoint started = Clock::now();
};

}  // namespace

WireReader detail::open_reply(const Buffer& frame, MsgType expect) {
    const FrameView f = parse_frame(frame);
    if (!f.response) {
        throw RpcError("request frame where a response was expected");
    }
    if (f.status() != Status::kOk) {
        WireReader r(f.payload);
        throw_status(f.status(), r.str());
    }
    if (f.type != expect) {
        throw RpcError(std::string("response type mismatch: expected ") +
                       to_string(expect) + ", got " + to_string(f.type));
    }
    return WireReader(f.payload);
}

ServiceClient::ServiceClient(Transport& transport,
                             std::vector<NodeId> vm_nodes, NodeId pm_node,
                             NodeId self)
    : transport_(transport),
      vm_nodes_(std::move(vm_nodes)),
      pm_node_(pm_node),
      self_(self) {
    if (vm_nodes_.empty()) {
        throw InvalidArgument("deployment advertises no version-manager");
    }
    if (vm_nodes_.size() > kMaxBlobShards) {
        throw InvalidArgument("deployment advertises " +
                              std::to_string(vm_nodes_.size()) +
                              " version-manager shards (max " +
                              std::to_string(kMaxBlobShards) + ")");
    }
    if (vm_nodes_.size() > 1) {
        for (const NodeId node : vm_nodes_) {
            vm_ring_.add_node(node);
        }
    }
}

NodeId ServiceClient::vm_node_of(BlobId blob) const {
    const std::uint32_t shard = blob_shard(blob);
    if (shard >= vm_nodes_.size()) {
        throw InvalidArgument("blob " + std::to_string(blob) +
                              " names version-manager shard " +
                              std::to_string(shard) + " of " +
                              std::to_string(vm_nodes_.size()));
    }
    return vm_nodes_[shard];
}

NodeId ServiceClient::pick_create_node() {
    if (vm_nodes_.size() == 1) {
        return vm_nodes_.front();
    }
    // (client id, creation#) hashed onto the shard ring: deterministic
    // per client, uniform across clients — no coordination needed.
    const std::uint64_t seq = create_seq_.fetch_add(1);
    return vm_ring_.owner(
        mix64((static_cast<std::uint64_t>(self_) << 32) ^ seq));
}

Buffer ServiceClient::invoke(MsgType type, NodeId dst, WireWriter&& body,
                             NodeId via) {
    Buffer frame = seal_request(type, dst, std::move(body));
    const auto send = [&] {
        return via != kInvalidNode ? transport_.roundtrip_via(via, dst, frame)
                                   : transport_.roundtrip(dst, frame);
    };
    const trace::TraceContext parent = trace::current();
    if (!parent.active()) {
        return send();
    }
    // Traced: mint a child span for this RPC and carry it in the frame.
    const ClientSpan span(frame, parent, type, dst);
    try {
        Buffer resp = send();
        span.record(resp.size(), frame_status(resp));
        return resp;
    } catch (...) {
        span.record(0, Status::kRpcError);
        throw;
    }
}

Future<Buffer> ServiceClient::invoke_async(MsgType type, NodeId dst,
                                           WireWriter&& body, NodeId via) {
    Buffer frame = seal_request(type, dst, std::move(body));
    const trace::TraceContext parent = trace::current();
    std::optional<ClientSpan> span;
    if (parent.active()) {
        span.emplace(frame, parent, type, dst);
    }
    Future<Buffer> fut = via != kInvalidNode
                             ? transport_.call_async_via(via, dst, frame)
                             : transport_.call_async(dst, frame);
    if (!span) {
        return fut;
    }
    // The adapter runs only when the future succeeds, so async client
    // spans cover successful RPCs; failures still surface as the server
    // half of the span (and in the error counters).
    return map_future<Buffer>(std::move(fut),
                              [span = *span](Buffer resp) {
                                  span.record(resp.size(), frame_status(resp));
                                  return resp;
                              });
}

// ---- streaming transfers ---------------------------------------------------

void ServiceClient::push_chunk(NodeId dp, const chunk::ChunkKey& key,
                               ConstBytes payload, std::size_t slice_bytes,
                               NodeId via) {
    if (slice_bytes == 0) {
        throw InvalidArgument("push_chunk: zero slice size");
    }
    const std::uint64_t xfer = push_start(dp, key, payload.size());
    for (std::size_t off = 0; off < payload.size(); off += slice_bytes) {
        const std::size_t n = std::min(slice_bytes, payload.size() - off);
        push_some(dp, xfer, off, payload.subspan(off, n), via);
    }
    push_end(dp, xfer);
}

Buffer ServiceClient::pull_chunk(NodeId dp, const chunk::ChunkKey& key,
                                 std::size_t slice_bytes) {
    if (slice_bytes == 0) {
        throw InvalidArgument("pull_chunk: zero slice size");
    }
    Buffer out;
    const std::uint64_t total = pull_start(dp, key);
    out.reserve(total);
    while (out.size() < total) {
        const std::uint64_t n =
            std::min<std::uint64_t>(slice_bytes, total - out.size());
        ChunkSlice slice = pull_some(dp, key, out.size(), n);
        if (slice.bytes.empty()) {
            throw ConsistencyError("pull of " + key.to_string() +
                                   " stalled at offset " +
                                   std::to_string(out.size()));
        }
        out.insert(out.end(), slice.bytes.begin(), slice.bytes.end());
    }
    return out;
}

// ---- control plane ---------------------------------------------------------

Topology fetch_topology(Transport& transport) {
    return detail::decode_reply<op::Topology>(transport.roundtrip(
        kControlNode,
        seal_request(MsgType::kTopology, kControlNode, WireWriter())));
}

}  // namespace blobseer::rpc
