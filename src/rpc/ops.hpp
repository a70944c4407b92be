/// \file ops.hpp
/// \brief The op table: one declaration per RPC.
///
/// Each entry names an op's MsgType tag, its telemetry name, the service
/// that serves it and its signature — the response type and the request
/// fields in wire order. Everything else is generated from the table:
///   * the request and response codecs (messages.hpp walks the types);
///   * the client calls, ServiceClient::call<Op> / call_async<Op>;
///   * the dispatcher's route, service lookup and fault gate (ops served
///     by the Dispatcher itself are control ops, reachable on a node the
///     deployment considers down);
///   * rpc::to_string(MsgType), the label of the per-op metric series.
///
/// Adding an op takes one entry here (plus its line in OpTable) and one
/// serve() handler in dispatcher.cpp; a missing handler fails to compile.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/buffer.hpp"
#include "rpc/messages.hpp"
#include "rpc/protocol.hpp"

namespace blobseer::dht {
class MetadataProvider;
}

namespace blobseer::rpc {

class Dispatcher;

/// Response of the two chunk-read ops: the chunk's stored size, then one
/// slice of it as a byte string. Clients receive the slice in the
/// response frame itself (payload slid to the front, no second buffer);
/// servers send it from store memory without copying (dispatcher.cpp).
struct ChunkSlice {
    Buffer bytes;                  ///< the requested slice
    std::uint64_t chunk_size = 0;  ///< total stored payload of the chunk
};

template <MsgType Tag, FixedString Name, class Service, class Signature>
struct Op;

template <MsgType Tag, FixedString Name, class S, class R, class... Fields>
struct Op<Tag, Name, S, R(Fields...)> {
    static constexpr MsgType type = Tag;
    static constexpr const char* name = Name.chars;
    using Service = S;
    using Request = std::tuple<Fields...>;
    using Response = R;
};

/// Tags index flat per-op arrays (routes, names, telemetry).
inline constexpr std::size_t kTagLimit = 128;

namespace op {

using enum MsgType;
using provider::DataProvider;
using provider::ProviderManager;
using version::VersionManager;
using ChunkKey = chunk::ChunkKey;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

// ---- data provider service -------------------------------------------------
using ChunkPut = Op<kChunkPut, "chunk-put", DataProvider,
                    void(ChunkKey, ConstBytes payload)>;
using ChunkGet = Op<kChunkGet, "chunk-get", DataProvider,
                    ChunkSlice(ChunkKey, u64 offset, u64 size)>;
using ChunkErase =
    Op<kChunkErase, "chunk-erase", DataProvider, void(ChunkKey)>;
using ChunkCheck = Op<kChunkCheck, "chunk-check", DataProvider,
                      bool(ChunkKey, bool want_incref, u64 size_hint)>;
using ChunkPushStart = Op<kChunkPushStart, "chunk-push-start", DataProvider,
                          u64(ChunkKey, u64 total)>;
using ChunkPushSome = Op<kChunkPushSome, "chunk-push-some", DataProvider,
                         void(u64 xfer, u64 offset, ConstBytes bytes)>;
using ChunkPushEnd =
    Op<kChunkPushEnd, "chunk-push-end", DataProvider, void(u64 xfer)>;
using ChunkPullStart =
    Op<kChunkPullStart, "chunk-pull-start", DataProvider, u64(ChunkKey)>;
using ChunkPullSome = Op<kChunkPullSome, "chunk-pull-some", DataProvider,
                         ChunkSlice(ChunkKey, u64 offset, u64 size)>;
using ChunkDecref =
    Op<kChunkDecref, "chunk-decref", DataProvider, u64(ChunkKey)>;
using DedupStatus = Op<kDedupStatus, "dedup-status", DataProvider,
                       DataProvider::DedupStatus()>;

// ---- version manager service -----------------------------------------------
using BlobCreate = Op<kBlobCreate, "blob-create", VersionManager,
                      version::BlobInfo(u64 chunk_size, u32 replication)>;
using BlobClone = Op<kBlobClone, "blob-clone", VersionManager,
                     version::BlobInfo(BlobId src, Version)>;
using BlobInfo =
    Op<kBlobInfo, "blob-info", VersionManager, version::BlobInfo(BlobId)>;
using Assign =
    Op<kAssign, "assign", VersionManager,
       version::AssignResult(BlobId, std::optional<u64> offset, u64 size)>;
using Commit = Op<kCommit, "commit", VersionManager, void(BlobId, Version)>;
using GetVersion = Op<kGetVersion, "get-version", VersionManager,
                      version::VersionInfo(BlobId, Version)>;
using WaitPublished = Op<kWaitPublished, "wait-published", VersionManager,
                         version::VersionInfo(BlobId, Version, u64 ms)>;
using History = Op<kHistory, "history", VersionManager,
                   std::vector<VersionManager::VersionSummary>(
                       BlobId, Version from, Version to)>;
using Pin = Op<kPin, "pin", VersionManager, bool(BlobId, Version)>;
using Unpin = Op<kUnpin, "unpin", VersionManager, void(BlobId, Version)>;
using Retire = Op<kRetire, "retire", VersionManager,
                  VersionManager::RetireInfo(BlobId, Version keep_from)>;
using DescriptorOf = Op<kDescriptorOf, "descriptor-of", VersionManager,
                        meta::WriteDescriptor(BlobId, Version)>;
using BlobCloneFrom =
    Op<kBlobCloneFrom, "blob-clone-from", VersionManager,
       version::BlobInfo(u64 chunk_size, u32 replication, meta::TreeRef)>;
using VmStatus =
    Op<kVmStatus, "vm-status", VersionManager, version::ShardStatus()>;

// ---- metadata DHT member service -------------------------------------------
using MetaPut = Op<kMetaPut, "meta-put", dht::MetadataProvider,
                   void(meta::MetaKey, meta::MetaNode)>;
using MetaGet = Op<kMetaGet, "meta-get", dht::MetadataProvider,
                   meta::MetaNode(meta::MetaKey)>;
using MetaTryGet = Op<kMetaTryGet, "meta-try-get", dht::MetadataProvider,
                      std::optional<meta::MetaNode>(meta::MetaKey)>;
using MetaErase = Op<kMetaErase, "meta-erase", dht::MetadataProvider,
                     void(meta::MetaKey)>;

// ---- provider manager service ----------------------------------------------
using Place = Op<kPlace, "place", ProviderManager,
                 provider::PlacementPlan(u64 n_chunks, u32 replication,
                                         u64 chunk_bytes)>;
using MarkDead = Op<kMarkDead, "mark-dead", ProviderManager, void(NodeId)>;
using ProviderJoin = Op<kProviderJoin, "provider-join", ProviderManager,
                        ProviderManager::JoinResult(std::string name)>;
using ProviderAnnounce =
    Op<kProviderAnnounce, "provider-announce", ProviderManager,
       void(NodeId, std::string host, u32 port,
            std::vector<provider::ChunkHolding> inventory)>;
using ProviderBeat =
    Op<kProviderBeat, "provider-beat", ProviderManager,
       bool(NodeId, u64 seq, std::vector<provider::ChunkHolding> added,
            std::vector<ChunkKey> removed)>;
using ReportFailure = Op<kReportFailure, "report-failure", ProviderManager,
                         bool(NodeId suspect, NodeId reporter)>;
using RepairStatus = Op<kRepairStatus, "repair-status", ProviderManager,
                        provider::RepairStatus()>;

// ---- control plane (served by the Dispatcher itself) -----------------------
using Topology = Op<kTopology, "topology", Dispatcher, rpc::Topology()>;
using MetricsDump =
    Op<kMetricsDump, "metrics-dump", Dispatcher, MetricsSnapshot()>;
using TraceDump = Op<kTraceDump, "trace-dump", Dispatcher,
                     std::vector<trace::SpanRecord>(u64 trace_id, u64 max)>;

}  // namespace op

template <class... Ops>
struct OpList {};

/// Every op of the protocol.
using OpTable = OpList<
    op::ChunkPut, op::ChunkGet, op::ChunkErase, op::ChunkCheck,
    op::ChunkPushStart, op::ChunkPushSome, op::ChunkPushEnd,
    op::ChunkPullStart, op::ChunkPullSome, op::ChunkDecref, op::DedupStatus,
    op::BlobCreate, op::BlobClone, op::BlobInfo, op::Assign, op::Commit,
    op::GetVersion, op::WaitPublished, op::History, op::Pin, op::Unpin,
    op::Retire, op::DescriptorOf, op::BlobCloneFrom, op::VmStatus,
    op::MetaPut, op::MetaGet, op::MetaTryGet, op::MetaErase, op::Place,
    op::MarkDead, op::ProviderJoin, op::ProviderAnnounce, op::ProviderBeat,
    op::ReportFailure, op::RepairStatus, op::Topology, op::MetricsDump,
    op::TraceDump>;

/// True when \p t is a tag of the table (anything else is a corrupt or
/// foreign frame).
[[nodiscard]] bool known_op(MsgType t) noexcept;

}  // namespace blobseer::rpc
