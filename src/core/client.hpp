/// \file client.hpp
/// \brief The BlobSeer client library — the paper's access interface.
///
/// Paper §I-B.1: "A client of BlobSeer manipulates a blob through a simple
/// access interface that enables creating a blob, reading/writing a
/// subsequence of size bytes from/to the blob starting at offset and
/// appending a sequence of size bytes to the blob. This access interface
/// is designed to support versioning explicitly."
///
/// Semantics:
///  * WRITE/APPEND produce a new snapshot version and return its number;
///    only the difference is stored (chunks of the written range + O(log)
///    metadata nodes).
///  * READ addresses any published snapshot; kLatestVersion resolves to
///    the newest published one. Reads of a still-pending version wait for
///    its publication (bounded); reads of aborted versions throw.
///  * All operations are linearizable: writes at their version-manager
///    assign, reads at their version-resolution query.
///
/// Every cross-node operation is an encoded RPC over a pluggable
/// rpc::Transport: in-process deployments inject SimTransport (simulated
/// wire costs, fault injection), remote clients inject TcpTransport
/// against a blobseer_serverd daemon. The client itself is
/// transport-agnostic — it only sees ClientEnv.
///
/// The data path is asynchronous under the hood (DESIGN.md §9): writes
/// and reads stripe their chunk RPCs through a bounded in-flight window
/// (ClientEnv::max_inflight_chunks) on one multiplexed connection per
/// peer, instead of blocking one I/O thread per chunk. write_async/
/// append_async/read_async expose the same overlap across *operations*;
/// the sync calls are their blocking equivalents.
///
/// Alignment contract (see DESIGN.md §4.1): write offsets are
/// chunk-aligned; a write may end unaligned only at (or past) the blob's
/// current end. append() has no alignment restriction — appending to an
/// unaligned end transparently rewrites the trailing chunk (which requires
/// waiting for the predecessor version's publication; chunk-aligned
/// appends never wait).
///
/// CLONE (extension): O(1) snapshot of a published version into a new,
/// independently writable blob sharing all storage with its origin.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/buffer.hpp"
#include "common/clock.hpp"
#include "common/future.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "dht/meta_dht.hpp"
#include "dht/ring.hpp"
#include "meta/meta_cache.hpp"
#include "meta/tree_reader.hpp"
#include "rpc/service_client.hpp"
#include "rpc/transport.hpp"
#include "version/version_manager.hpp"

namespace blobseer::core {

/// Everything a client needs to operate against a deployment, local or
/// remote: a transport, the manager node ids, the DHT membership and the
/// client-side knobs. Cluster::make_client fills this in for in-process
/// deployments; rpc::connect_tcp-style bootstrap (tools/blobseer_cli.cpp)
/// fills it from a kTopology RPC.
struct ClientEnv {
    std::shared_ptr<rpc::Transport> transport;
    NodeId self = kInvalidNode;
    /// Version-manager shard nodes, indexed by shard: per-blob calls
    /// route to vm_nodes[blob_shard(id)].
    std::vector<NodeId> vm_nodes;
    NodeId pm_node = kInvalidNode;
    /// Data-provider nodes (static per deployment). Content-addressed
    /// placement consistent-hashes chunk digests over these so identical
    /// content lands on identical providers regardless of which client
    /// writes it — the property provider-side dedup depends on.
    std::vector<NodeId> data_nodes;
    /// Address chunks by SHA-256 content digest (wire protocol v5):
    /// writes hash each chunk, skip transfers the target already holds,
    /// and every chunk reference is counted for GC. Requires data_nodes.
    bool content_addressed = false;
    /// Metadata DHT membership (static per deployment).
    dht::Ring meta_ring;
    std::uint32_t meta_replication = 1;
    std::uint32_t default_replication = 1;
    bool pipelined_replication = false;
    std::size_t meta_cache_nodes = 4096;
    /// Threads driving whole client-level async operations
    /// (write_async/read_async) — NOT per-chunk transfer parallelism,
    /// which comes from max_inflight_chunks.
    std::size_t io_threads = 4;
    /// Bound on chunk RPCs (puts or gets) a single write/read keeps in
    /// flight at once through the multiplexed transport.
    std::size_t max_inflight_chunks = 64;
    Duration publish_timeout = seconds(30);
    /// Deployment boot epoch for chunk-uid allocation (see next_uid():
    /// client ids repeat across daemon restarts, the epoch must not).
    std::uint64_t uid_epoch = 0;
    /// Originate a sampled distributed trace (protocol v7) around every
    /// top-level write/append/read, so the whole RPC fan-out is
    /// recorded in the deployment's span rings and retrievable with
    /// trace_dump / `blobseer_cli trace`.
    bool trace = false;
};

/// Client-side operation counters surfaced to experiments.
struct ClientStats {
    Counter writes;
    Counter appends;
    Counter reads;
    Counter bytes_written;
    Counter bytes_read;
    Counter chunk_put_rpcs;
    Counter chunk_get_rpcs;
    Counter chunk_retries;  ///< replica failovers (reads + writes)
    /// Reads salvaged by probing providers outside the metadata leaf's
    /// replica list (a repair moved the chunk after the leaf was sealed).
    Counter chunk_locates;
    Counter cas_chunks;         ///< content-addressed chunks uploaded
    Counter cas_dedup_hits;     ///< check-before-push hits (no transfer)
    Counter cas_bytes_skipped;  ///< payload bytes dedup kept off the wire
    Counter cas_bytes_sent;     ///< payload bytes actually transferred
    Counter cas_stream_pushes;  ///< uploads that used the streaming path
    /// Chunk RPCs currently in flight across all of this client's
    /// operations; high_water() reports the deepest window ever reached.
    Gauge inflight_chunk_rpcs;
    Histogram write_latency_us;
    Histogram read_latency_us;
};

/// Data-locality record returned by locate() — the Hadoop-style "which
/// nodes hold this range" API that BSFS exposes to schedulers (§IV-D).
struct SegmentLocation {
    ByteRange range;
    bool hole = false;
    std::vector<NodeId> providers;
};

class Blob;

class BlobSeerClient {
  public:
    /// Built by Cluster::make_client() (SimTransport) or from a fetched
    /// topology (TcpTransport).
    explicit BlobSeerClient(ClientEnv env);

    [[nodiscard]] NodeId node() const noexcept { return env_.self; }

    // ---- blob lifecycle ---------------------------------------------------

    /// Create a blob with the given chunk size; replication defaults to
    /// the cluster's configuration.
    [[nodiscard]] Blob create(std::uint64_t chunk_size,
                              std::optional<std::uint32_t> replication = {});

    /// Open an existing blob by id.
    [[nodiscard]] Blob open(BlobId id);

    /// O(1) clone of (\p src, \p version) into a new blob.
    [[nodiscard]] Blob clone(BlobId src, Version version = kLatestVersion);

    // ---- data path (also reachable through Blob) ----------------------------

    /// Write \p data at \p offset; returns the new snapshot's version.
    Version write(BlobId blob, std::uint64_t offset, ConstBytes data);

    /// Append \p data at the blob's current end.
    Version append(BlobId blob, ConstBytes data);

    /// Read out.size() bytes at \p offset of \p version into \p out.
    /// Returns bytes read (== out.size(); strict bounds). Holes read as
    /// zeros.
    std::size_t read(BlobId blob, Version version, std::uint64_t offset,
                     MutableBytes out);

    /// Clipped read: reads min(out.size(), snapshot_size - offset) bytes.
    std::size_t read_available(BlobId blob, Version version,
                               std::uint64_t offset, MutableBytes out);

    // ---- asynchronous data path -------------------------------------------
    //
    // Each returns immediately; the operation runs on the client's I/O
    // pool and streams its chunks through the bounded in-flight window.
    // The caller must keep the data/out buffer alive and untouched until
    // the future completes; exceptions surface from Future::get() with
    // the same types the sync calls throw.

    /// Start a write; completes with the new snapshot's version.
    [[nodiscard]] Future<Version> write_async(BlobId blob,
                                              std::uint64_t offset,
                                              ConstBytes data);

    /// Start an append; completes with the new snapshot's version.
    [[nodiscard]] Future<Version> append_async(BlobId blob, ConstBytes data);

    /// Start a read; completes with the bytes read (== out.size()).
    [[nodiscard]] Future<std::size_t> read_async(BlobId blob, Version version,
                                                 std::uint64_t offset,
                                                 MutableBytes out);

    /// Snapshot metadata (resolves kLatestVersion).
    [[nodiscard]] version::VersionInfo stat(BlobId blob,
                                            Version version = kLatestVersion);

    /// Block until \p version publishes (or aborts — throws then).
    version::VersionInfo wait_published(BlobId blob, Version version);

    /// Which providers hold each segment of a range (no data transfer).
    [[nodiscard]] std::vector<SegmentLocation> locate(BlobId blob,
                                                      Version version,
                                                      ByteRange range);

    /// Best-effort cleanup of an aborted version's chunks and metadata.
    /// Returns the number of metadata nodes removed.
    std::size_t gc_aborted_version(BlobId blob, Version version);

    // ---- history, diff & retirement ---------------------------------------

    /// Version history of a blob (ascending), clamped to what exists.
    [[nodiscard]] std::vector<version::VersionManager::VersionSummary>
    history(BlobId blob, Version from = 1, Version to = kLatestVersion);

    /// Byte ranges that differ between snapshots \p from and \p to
    /// (from < to): the union of every range written by versions in
    /// (from, to], merged and sorted. O(#versions) — no data is read.
    [[nodiscard]] std::vector<ByteRange> changed_ranges(BlobId blob,
                                                        Version from,
                                                        Version to);

    /// Pin/unpin a published snapshot against retirement.
    void pin(BlobId blob, Version version);
    void unpin(BlobId blob, Version version);

    struct RetireStats {
        std::size_t versions = 0;
        std::size_t meta_nodes = 0;
        std::size_t chunks = 0;
    };

    /// Retire every unpinned snapshot older than \p keep_from and
    /// physically reclaim the chunks and metadata nodes no surviving
    /// snapshot references. See VersionManager::retire for semantics.
    RetireStats retire_versions(BlobId blob, Version keep_from);

    struct DeleteStats {
        std::size_t versions = 0;    ///< snapshots torn down
        std::size_t meta_nodes = 0;  ///< metadata nodes erased
        std::size_t chunks = 0;      ///< chunk references released
    };

    /// Delete a blob's storage: retire its unpinned history, then walk
    /// the latest snapshot's tree releasing one reference per chunk
    /// replica and erasing every metadata node this blob owns. Subtrees
    /// borrowed across a clone boundary (ChildRef.blob differs) are
    /// skipped — the origin blob still owns those references, which is
    /// exactly why content-addressed chunks are reference-counted:
    /// deleting one of two blobs holding identical data reclaims only
    /// the deleted blob's references, never the survivor's bytes.
    /// Deleting a blob that other blobs were cloned from while those
    /// clones are still alive is undefined (pin the cloned version).
    DeleteStats delete_blob(BlobId blob);

    // ---- QoS feedback ----------------------------------------------------------

    /// Install a provider-health snapshot (pushed by the QoS feedback
    /// loop, §IV-E). Reads prefer replicas on healthy providers;
    /// providers below 0.5 are used only when no healthy replica
    /// responds.
    void update_health_view(std::unordered_map<NodeId, double> view);

    // ---- introspection ---------------------------------------------------------

    [[nodiscard]] const ClientStats& stats() const noexcept { return stats_; }
    /// Trace id of the most recent traced operation (0 when tracing is
    /// off or nothing ran yet) — what `blobseer_cli --trace` prints and
    /// then feeds to trace_dump.
    [[nodiscard]] std::uint64_t last_trace_id() const noexcept {
        return last_trace_id_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] meta::MetaCache& meta_cache() noexcept { return cache_; }
    [[nodiscard]] rpc::ServiceClient& services() noexcept { return svc_; }
    /// The deployment's data-provider nodes (dedup-stats sweeps them).
    [[nodiscard]] const std::vector<NodeId>& data_nodes() const noexcept {
        return env_.data_nodes;
    }
    /// True when this client writes content-addressed chunks.
    [[nodiscard]] bool content_addressed() const noexcept {
        return cas_enabled();
    }

  private:
    friend class Blob;

    struct UploadedChunk {
        chunk::ChunkKey key{};
        std::vector<NodeId> replicas;
        std::uint32_t bytes = 0;
    };

    /// Shared implementation of write/append.
    Version write_impl(BlobId blob, std::optional<std::uint64_t> offset,
                       ConstBytes data);

    /// Upload every chunk payload to its planned replicas through the
    /// bounded in-flight window, with failover re-placement on provider
    /// death. Returns the achieved replica sets in \p parts order.
    std::vector<UploadedChunk> upload_all(
        BlobId blob, const std::vector<ConstBytes>& parts,
        const provider::PlacementPlan& plan);

    /// Content-addressed upload (protocol v5): hash each part, place its
    /// replicas by consistent-hashing the digest over the data ring, and
    /// for each target check-before-push — a hit records the reference
    /// server-side and skips the transfer, a miss pushes the bytes
    /// (streaming for large parts). Returns replica sets in parts order.
    std::vector<UploadedChunk> upload_all_cas(
        const std::vector<ConstBytes>& parts, std::uint32_t replication);

    /// True when this client writes content-addressed chunks.
    [[nodiscard]] bool cas_enabled() const noexcept {
        return env_.content_addressed && data_ring_.node_count() > 0;
    }

    /// delete_blob's tree walk: depth-first over this blob's own nodes,
    /// releasing leaf chunk references and erasing the nodes behind it.
    void delete_walk(BlobId blob, const meta::ChildRef& ref,
                     const meta::SlotRange& r, DeleteStats& out);

    /// Fetch every non-hole segment of a read plan into its slice of
    /// \p out, windowed, with per-segment replica failover.
    void fetch_all(const std::vector<meta::ReadSegment>& segments,
                   std::uint64_t offset, MutableBytes out);

    /// Replica preference order for one segment: load-spread start
    /// rotation, healthy providers first.
    [[nodiscard]] std::vector<NodeId> replica_order(
        const meta::ReadSegment& seg) const;

    /// Fetch the chunk slice a read segment needs into \p out
    /// (sequential; the tail-merge path uses it).
    void fetch_segment(const meta::ReadSegment& seg, MutableBytes out);

    /// Last-resort chunk locate: probe every data node NOT on the leaf's
    /// replica list. Metadata leaves are sealed at write time, so when
    /// repair re-replicated a chunk after its holders died the live
    /// copies sit on nodes the leaf does not name. Returns true when a
    /// probe produced the bytes.
    bool fetch_from_any_provider(const meta::ReadSegment& seg,
                                 MutableBytes out);

    /// Best-effort failure report to the provider manager (protocol v6):
    /// the manager corroborates against heartbeats and triggers repair
    /// if the death is real. Deduplicated per client so a wide read over
    /// a dead provider costs one RPC, not one per chunk.
    void report_provider_failure(NodeId target);

    /// Run \p fn on the I/O pool, surfacing its result as a Future.
    template <typename T, typename F>
    [[nodiscard]] Future<T> submit_async(F fn) {
        auto promise = std::make_shared<Promise<T>>();
        Future<T> fut = promise->future();
        io_pool_.post([promise, fn = std::move(fn)]() mutable {
            settle(*promise, fn);
        });
        return fut;
    }

    /// Read the published predecessor's bytes [slot_start,
    /// slot_start+out.size()) for the unaligned-append merge.
    void read_tail_for_merge(BlobId blob, const version::VersionInfo& vi,
                             std::uint64_t slot_start, MutableBytes out);

    /// Fresh globally-unique chunk id.
    [[nodiscard]] std::uint64_t next_uid();

    /// Blob parameters are immutable, so they are fetched once and cached.
    version::BlobInfo blob_info(BlobId blob);

    /// A published snapshot's info (size, tree ref) can never change;
    /// cache it so pinned-version reads skip the version-manager RPC.
    std::optional<version::VersionInfo> cached_version(BlobId blob,
                                                       Version v);
    void remember_version(BlobId blob, const version::VersionInfo& vi);

    const ClientEnv env_;
    rpc::ServiceClient svc_;
    dht::MetaDht dht_;
    meta::MetaCache cache_;
    /// Ring over env_.data_nodes for content-addressed placement (empty
    /// when the deployment is not content-addressed).
    dht::Ring data_ring_;
    /// 64-bit allocation counter (a 32-bit one silently wraps after 2^32
    /// chunks and recycles uids — see next_uid()).
    std::atomic<std::uint64_t> uid_counter_{0};
    ClientStats stats_;
    /// Registry bindings for stats_; declared right after it so they
    /// unbind before the counters destruct.
    MetricsGroup metrics_;
    std::atomic<std::uint64_t> last_trace_id_{0};

    std::mutex info_mu_;  // guards info_cache_ and version_cache_
    std::unordered_map<BlobId, version::BlobInfo> info_cache_;
    std::map<std::pair<BlobId, Version>, version::VersionInfo>
        version_cache_;

    mutable std::mutex health_mu_;  // guards health_view_
    std::unordered_map<NodeId, double> health_view_;

    std::mutex reported_mu_;  // guards reported_dead_
    /// Providers this client already reported as failed (cleared when a
    /// later call to them succeeds is unnecessary: the manager's own
    /// membership decides revival, a stale local entry only suppresses
    /// duplicate reports).
    std::unordered_set<NodeId> reported_dead_;

    /// Declared LAST: its destructor drains queued write_async/
    /// read_async tasks, which touch stats_, the caches and their
    /// mutexes — all of which must still be alive (members are
    /// destroyed in reverse declaration order).
    ThreadPool io_pool_;

    [[nodiscard]] bool is_healthy(NodeId node) const;
};

/// Convenience handle combining a client and a blob id.
class Blob {
  public:
    Blob(BlobSeerClient& client, version::BlobInfo info)
        : client_(&client), info_(info) {}

    [[nodiscard]] BlobId id() const noexcept { return info_.id; }
    [[nodiscard]] std::uint64_t chunk_size() const noexcept {
        return info_.chunk_size;
    }
    [[nodiscard]] std::uint32_t replication() const noexcept {
        return info_.replication;
    }

    Version write(std::uint64_t offset, ConstBytes data) {
        return client_->write(info_.id, offset, data);
    }
    Version append(ConstBytes data) {
        return client_->append(info_.id, data);
    }
    std::size_t read(Version version, std::uint64_t offset,
                     MutableBytes out) {
        return client_->read(info_.id, version, offset, out);
    }
    /// Async variants; buffer-lifetime rules of BlobSeerClient apply.
    [[nodiscard]] Future<Version> write_async(std::uint64_t offset,
                                              ConstBytes data) {
        return client_->write_async(info_.id, offset, data);
    }
    [[nodiscard]] Future<Version> append_async(ConstBytes data) {
        return client_->append_async(info_.id, data);
    }
    [[nodiscard]] Future<std::size_t> read_async(Version version,
                                                 std::uint64_t offset,
                                                 MutableBytes out) {
        return client_->read_async(info_.id, version, offset, out);
    }
    [[nodiscard]] version::VersionInfo stat(
        Version version = kLatestVersion) {
        return client_->stat(info_.id, version);
    }
    /// Size of the latest published snapshot.
    [[nodiscard]] std::uint64_t size() { return stat().size; }
    /// Latest published version.
    [[nodiscard]] Version latest() { return stat().version; }

  private:
    BlobSeerClient* client_;
    version::BlobInfo info_;
};

}  // namespace blobseer::core
