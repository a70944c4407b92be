/// \file service_client.hpp
/// \brief Typed client stubs: one method per RPC, each a call<Op> of the
///        op table (ops.hpp): encode → transport → decode.
///
/// call<Op> and call_async<Op> are the only place where request bodies
/// are encoded and response bodies decoded on the client side;
/// BlobSeerClient and MetaDht call the named methods and never touch
/// frames themselves. Error responses are
/// re-thrown as the original exception type (protocol.hpp Status
/// mapping), so callers keep the exact failure-handling semantics they
/// had with direct in-process calls: RpcError means "the node or wire
/// failed, fail over", NotFoundError means "the replica lacks the data",
/// and so on.
///
/// The hot data-path RPCs (put_chunk, get_chunk, meta_put, meta_get)
/// additionally come as *_async variants returning futures: many may be
/// in flight on one multiplexed connection, and a failed delivery
/// surfaces as the same exception — from the future's get() instead of
/// the call itself. The sync methods are plain .get() wrappers over
/// them. Arguments are fully encoded before an async call returns, so
/// callers may release payload buffers immediately.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "chunk/chunk_key.hpp"
#include "common/buffer.hpp"
#include "common/clock.hpp"
#include "common/future.hpp"
#include "common/types.hpp"
#include "dht/ring.hpp"
#include "meta/meta_node.hpp"
#include "meta/write_descriptor.hpp"
#include "provider/data_provider.hpp"
#include "provider/provider_manager.hpp"
#include "rpc/messages.hpp"
#include "rpc/ops.hpp"
#include "rpc/protocol.hpp"
#include "rpc/transport.hpp"
#include "version/version_manager.hpp"

namespace blobseer::rpc {

namespace detail {

/// Parse a response frame; throw the mapped exception on error status;
/// return a reader positioned at the payload.
[[nodiscard]] WireReader open_reply(const Buffer& frame, MsgType expect);

/// Payload bytes an argument adds (byte strings), so a request's writer
/// is sized once.
template <class T>
[[nodiscard]] std::size_t bulk_bytes(const T& arg) {
    if constexpr (std::is_same_v<T, ConstBytes>) {
        return arg.size();
    } else {
        return 0;
    }
}

/// Encode \p args as the request fields of op \p O (each argument is
/// converted to its declared field type first).
template <class O, class... A>
[[nodiscard]] WireWriter encode_request(const A&... args) {
    using Req = typename O::Request;
    static_assert(sizeof...(A) == std::tuple_size_v<Req>,
                  "arguments do not match the op's request fields");
    WireWriter w(64 + (std::size_t{0} + ... + bulk_bytes(args)));
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        (encode<std::tuple_element_t<I, Req>>(w, args), ...);
    }(std::index_sequence_for<A...>{});
    return w;
}

/// Decode the response frame of op \p O. Chunk slices steal the frame:
/// the payload slides to the front and the buffer shrinks to it.
template <class O>
[[nodiscard]] typename O::Response decode_reply(Buffer&& frame) {
    using R = typename O::Response;
    WireReader r = open_reply(frame, O::type);
    if constexpr (std::is_void_v<R>) {
        r.expect_end();
    } else if constexpr (std::is_same_v<R, ChunkSlice>) {
        ChunkSlice out;
        out.chunk_size = r.u64();
        const ConstBytes bytes = r.blob();
        r.expect_end();
        const auto off = static_cast<std::size_t>(bytes.data() - frame.data());
        std::memmove(frame.data(), frame.data() + off, bytes.size());
        frame.resize(bytes.size());
        out.bytes = std::move(frame);
        return out;
    } else {
        R out = decode<R>(r);
        r.expect_end();
        return out;
    }
}

}  // namespace detail

class ServiceClient {
  public:
    /// \param vm_nodes version-manager shard nodes, indexed by shard
    ///        (per-blob calls route by blob_shard(id)); \param pm_node
    ///        the provider manager. \param self this client's node id —
    ///        it seeds the shard choice for create_blob so different
    ///        clients spread their blobs over different shards.
    ServiceClient(Transport& transport, std::vector<NodeId> vm_nodes,
                  NodeId pm_node, NodeId self = kInvalidNode);

    [[nodiscard]] Transport& transport() noexcept { return transport_; }

    /// The deployment's version-manager shard nodes (shard-indexed).
    [[nodiscard]] const std::vector<NodeId>& vm_nodes() const noexcept {
        return vm_nodes_;
    }

    /// Shard node owning \p blob. Throws InvalidArgument when the id
    /// names a shard this deployment does not run.
    [[nodiscard]] NodeId vm_node_of(BlobId blob) const;

    /// Where one call goes: the serving node, and optionally the node the
    /// transfer is charged to (pipelined replication).
    struct Dest {
        NodeId node;
        NodeId via = kInvalidNode;
        Dest(NodeId n, NodeId v = kInvalidNode) : node(n), via(v) {}  // NOLINT
    };

    /// Round-trip one op of the table; \p args are its request fields.
    template <class O, class... A>
    typename O::Response call(Dest dst, const A&... args) {
        return detail::decode_reply<O>(
            invoke(O::type, dst.node, detail::encode_request<O>(args...),
                   dst.via));
    }

    /// Start one op of the table; the future completes with its decoded
    /// response (or the mapped exception).
    template <class O, class... A>
    [[nodiscard]] Future<typename O::Response> call_async(Dest dst,
                                                          const A&... args) {
        return map_future<typename O::Response>(
            invoke_async(O::type, dst.node,
                         detail::encode_request<O>(args...), dst.via),
            [](Buffer&& resp) {
                return detail::decode_reply<O>(std::move(resp));
            });
    }

    // ---- version manager -------------------------------------------------

    [[nodiscard]] version::BlobInfo create_blob(std::uint64_t chunk_size,
                                                std::uint32_t replication) {
        return call<op::BlobCreate>(pick_create_node(), chunk_size,
                                    replication);
    }
    /// Single-shard clone (source and destination on the owning shard of
    /// \p src). Multi-shard deployments use the client-driven
    /// get_version + pin + clone_from protocol instead (DESIGN.md §10.3).
    [[nodiscard]] version::BlobInfo clone_blob(BlobId src, Version version) {
        return call<op::BlobClone>(vm_node_of(src), src, version);
    }
    /// Create a blob aliasing the resolved published snapshot \p origin
    /// on a shard picked by the create-routing policy.
    [[nodiscard]] version::BlobInfo clone_from(std::uint64_t chunk_size,
                                               std::uint32_t replication,
                                               const meta::TreeRef& origin) {
        return call<op::BlobCloneFrom>(pick_create_node(), chunk_size,
                                       replication, origin);
    }
    /// Observability snapshot of the shard living on \p vm_node.
    [[nodiscard]] version::ShardStatus vm_status(NodeId vm_node) {
        return call<op::VmStatus>(vm_node);
    }
    [[nodiscard]] version::BlobInfo blob_info(BlobId blob) {
        return call<op::BlobInfo>(vm_node_of(blob), blob);
    }
    [[nodiscard]] version::AssignResult assign(
        BlobId blob, std::optional<std::uint64_t> offset, std::uint64_t size) {
        return call<op::Assign>(vm_node_of(blob), blob, offset, size);
    }
    void commit(BlobId blob, Version v) {
        call<op::Commit>(vm_node_of(blob), blob, v);
    }
    [[nodiscard]] version::VersionInfo get_version(BlobId blob, Version v) {
        return call<op::GetVersion>(vm_node_of(blob), blob, v);
    }
    [[nodiscard]] version::VersionInfo wait_published(BlobId blob, Version v,
                                                      Duration timeout) {
        const auto timeout_ms = static_cast<std::uint64_t>(
            duration_cast<milliseconds>(timeout).count());
        return call<op::WaitPublished>(vm_node_of(blob), blob, v, timeout_ms);
    }
    [[nodiscard]] std::vector<version::VersionManager::VersionSummary>
    history(BlobId blob, Version from, Version to) {
        return call<op::History>(vm_node_of(blob), blob, from, to);
    }
    /// Returns true when this call created the pin (false = already
    /// pinned); see VersionManager::pin.
    bool pin(BlobId blob, Version v) {
        return call<op::Pin>(vm_node_of(blob), blob, v);
    }
    void unpin(BlobId blob, Version v) {
        call<op::Unpin>(vm_node_of(blob), blob, v);
    }
    [[nodiscard]] version::VersionManager::RetireInfo retire(
        BlobId blob, Version keep_from) {
        return call<op::Retire>(vm_node_of(blob), blob, keep_from);
    }
    [[nodiscard]] meta::WriteDescriptor descriptor_of(BlobId blob, Version v) {
        return call<op::DescriptorOf>(vm_node_of(blob), blob, v);
    }

    // ---- provider manager ------------------------------------------------

    [[nodiscard]] provider::PlacementPlan place(std::uint64_t n_chunks,
                                                std::uint32_t replication,
                                                std::uint64_t chunk_bytes) {
        return call<op::Place>(pm_node_, n_chunks, replication, chunk_bytes);
    }
    void mark_dead(NodeId node) { call<op::MarkDead>(pm_node_, node); }

    // ---- provider membership & repair (protocol v6) ----------------------

    /// Report a suspected-dead provider. The manager corroborates the
    /// report against recent heartbeats; returns true iff the suspect is
    /// (now) considered dead.
    bool report_failure(NodeId suspect) {
        return call<op::ReportFailure>(pm_node_, suspect, self_);
    }

    /// External provider daemon handshake: register by stable name and
    /// receive the node id to serve under (the same id again on re-join).
    [[nodiscard]] provider::ProviderManager::JoinResult provider_join(
        const std::string& name) {
        return call<op::ProviderJoin>(pm_node_, name);
    }

    /// Advertise a joined provider's dial endpoint and full inventory;
    /// this is what activates it for placement.
    void provider_announce(NodeId node, const std::string& host,
                           std::uint32_t port,
                           const std::vector<provider::ChunkHolding>&
                               inventory) {
        call<op::ProviderAnnounce>(pm_node_, node, host, port, inventory);
    }

    /// One heartbeat with inventory deltas since the last acknowledged
    /// beat. Returns false when the manager does not know the node
    /// (manager restart: the provider must re-join).
    [[nodiscard]] bool provider_beat(
        NodeId node, std::uint64_t seq,
        const std::vector<provider::ChunkHolding>& added,
        const std::vector<chunk::ChunkKey>& removed) {
        return call<op::ProviderBeat>(pm_node_, node, seq, added, removed);
    }

    /// Repair-queue gauges + per-provider membership snapshot.
    [[nodiscard]] provider::RepairStatus repair_status() {
        return call<op::RepairStatus>(pm_node_);
    }

    // ---- observability (protocol v7) -------------------------------------

    /// Full metrics-registry snapshot of the process serving \p node
    /// (default: the control pseudo-node, i.e. whatever process answers
    /// the default endpoint — address a data node to scrape an external
    /// provider daemon instead).
    [[nodiscard]] MetricsSnapshot metrics_dump(NodeId node = kControlNode) {
        return call<op::MetricsDump>(node);
    }

    /// Drain the span ring of the process serving \p node. \p trace_id 0
    /// matches all traces; \p max 0 means "everything retained".
    [[nodiscard]] std::vector<trace::SpanRecord> trace_dump(
        std::uint64_t trace_id = 0, std::uint64_t max = 0,
        NodeId node = kControlNode) {
        return call<op::TraceDump>(node, trace_id, max);
    }

    // ---- data providers --------------------------------------------------

    /// Upload one chunk replica to \p dp. \p via != kInvalidNode charges
    /// the transfer to that node (pipelined replication). Sync form of
    /// put_chunk_async.
    void put_chunk(NodeId dp, const chunk::ChunkKey& key, ConstBytes payload,
                   NodeId via = kInvalidNode) {
        put_chunk_async(dp, key, payload, via).get();
    }

    /// Start uploading one chunk replica; the future completes when the
    /// provider acknowledged (or failed) the store.
    [[nodiscard]] Future<void> put_chunk_async(NodeId dp,
                                               const chunk::ChunkKey& key,
                                               ConstBytes payload,
                                               NodeId via = kInvalidNode) {
        return call_async<op::ChunkPut>({dp, via}, key, payload);
    }

    using ChunkSlice = rpc::ChunkSlice;

    /// Fetch \p size bytes at \p offset of a chunk (size 0 = the whole
    /// chunk). The reply is clamped to the stored payload; chunk_size
    /// lets the caller detect truncated replicas. Sync form of
    /// get_chunk_async.
    [[nodiscard]] ChunkSlice get_chunk(NodeId dp, const chunk::ChunkKey& key,
                                       std::uint64_t offset,
                                       std::uint64_t size) {
        return get_chunk_async(dp, key, offset, size).get();
    }

    /// Start fetching a chunk slice.
    [[nodiscard]] Future<ChunkSlice> get_chunk_async(
        NodeId dp, const chunk::ChunkKey& key, std::uint64_t offset,
        std::uint64_t size) {
        return call_async<op::ChunkGet>(dp, key, offset, size);
    }

    void erase_chunk(NodeId dp, const chunk::ChunkKey& key) {
        call<op::ChunkErase>(dp, key);
    }

    // ---- content-addressed data-provider operations (protocol v5) --------

    /// Check-before-push: true iff \p dp already holds the chunk. On a
    /// hit with \p want_incref the provider records this caller's
    /// reference, so the caller must NOT push (and later releases the
    /// reference with chunk_decref). \p size_hint is the payload size
    /// the caller would have pushed (provider dedup accounting).
    [[nodiscard]] bool check_chunk(NodeId dp, const chunk::ChunkKey& key,
                                   bool want_incref,
                                   std::uint64_t size_hint) {
        return check_chunk_async(dp, key, want_incref, size_hint).get();
    }
    [[nodiscard]] Future<bool> check_chunk_async(NodeId dp,
                                                 const chunk::ChunkKey& key,
                                                 bool want_incref,
                                                 std::uint64_t size_hint) {
        return call_async<op::ChunkCheck>(dp, key, want_incref, size_hint);
    }

    /// Streaming upload: open a transfer of \p total bytes, append
    /// in-order slices, then complete (the provider verifies size and,
    /// for content keys, the SHA-256 before the chunk becomes visible).
    [[nodiscard]] std::uint64_t push_start(NodeId dp,
                                           const chunk::ChunkKey& key,
                                           std::uint64_t total) {
        return call<op::ChunkPushStart>(dp, key, total);
    }
    void push_some(NodeId dp, std::uint64_t xfer, std::uint64_t offset,
                   ConstBytes bytes, NodeId via = kInvalidNode) {
        call<op::ChunkPushSome>({dp, via}, xfer, offset, bytes);
    }
    void push_end(NodeId dp, std::uint64_t xfer) {
        call<op::ChunkPushEnd>(dp, xfer);
    }

    /// Whole streaming upload: push \p payload in \p slice_bytes frames.
    void push_chunk(NodeId dp, const chunk::ChunkKey& key, ConstBytes payload,
                    std::size_t slice_bytes, NodeId via = kInvalidNode);

    /// Ranged resumable download: size of the stored chunk, then slices.
    [[nodiscard]] std::uint64_t pull_start(NodeId dp,
                                           const chunk::ChunkKey& key) {
        return call<op::ChunkPullStart>(dp, key);
    }
    [[nodiscard]] ChunkSlice pull_some(NodeId dp, const chunk::ChunkKey& key,
                                       std::uint64_t offset,
                                       std::uint64_t size) {
        return call<op::ChunkPullSome>(dp, key, offset, size);
    }

    /// Whole streaming download in \p slice_bytes frames.
    [[nodiscard]] Buffer pull_chunk(NodeId dp, const chunk::ChunkKey& key,
                                    std::size_t slice_bytes);

    /// Release one reference to a chunk; returns the remaining count
    /// (0 = the provider reclaimed it).
    std::uint64_t chunk_decref(NodeId dp, const chunk::ChunkKey& key) {
        return call<op::ChunkDecref>(dp, key);
    }

    /// Dedup/GC observability snapshot of one data provider.
    [[nodiscard]] provider::DataProvider::DedupStatus dedup_status(NodeId dp) {
        return call<op::DedupStatus>(dp);
    }

    // ---- metadata providers ----------------------------------------------

    void meta_put(NodeId mp, const meta::MetaKey& key,
                  const meta::MetaNode& node) {
        meta_put_async(mp, key, node).get();
    }
    [[nodiscard]] Future<void> meta_put_async(NodeId mp,
                                              const meta::MetaKey& key,
                                              const meta::MetaNode& node) {
        return call_async<op::MetaPut>(mp, key, node);
    }
    [[nodiscard]] meta::MetaNode meta_get(NodeId mp, const meta::MetaKey& key) {
        return meta_get_async(mp, key).get();
    }
    [[nodiscard]] Future<meta::MetaNode> meta_get_async(
        NodeId mp, const meta::MetaKey& key) {
        return call_async<op::MetaGet>(mp, key);
    }
    [[nodiscard]] std::optional<meta::MetaNode> meta_try_get(
        NodeId mp, const meta::MetaKey& key) {
        return call<op::MetaTryGet>(mp, key);
    }
    void meta_erase(NodeId mp, const meta::MetaKey& key) {
        call<op::MetaErase>(mp, key);
    }

  private:
    /// Round-trip one request; returns the whole response frame after
    /// checking its status (error statuses throw).
    [[nodiscard]] Buffer invoke(MsgType type, NodeId dst, WireWriter&& body,
                                NodeId via = kInvalidNode);

    /// Start one request; the future completes with the raw response
    /// frame (status still unchecked — the decode adapter does that).
    [[nodiscard]] Future<Buffer> invoke_async(MsgType type, NodeId dst,
                                              WireWriter&& body,
                                              NodeId via = kInvalidNode);

    /// Shard node for the next create_blob/clone_from: consistent-hash
    /// the (client, creation#) pair over the shard ring so creations
    /// spread without any cross-client coordination.
    [[nodiscard]] NodeId pick_create_node();

    Transport& transport_;
    const std::vector<NodeId> vm_nodes_;
    const NodeId pm_node_;
    const NodeId self_;
    /// Ring over vm_nodes_ (empty when there is only one shard).
    dht::Ring vm_ring_;
    std::atomic<std::uint64_t> create_seq_{0};
};

/// Fetch the cluster topology over a transport (the bootstrap RPC of a
/// remote client; addressed to rpc::kControlNode, not to a real node).
[[nodiscard]] Topology fetch_topology(Transport& transport);

}  // namespace blobseer::rpc
