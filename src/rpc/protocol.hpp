/// \file protocol.hpp
/// \brief Frame layout, message-type tags and the error status mapping of
///        the BlobSeer wire protocol.
///
/// Frame layout (DESIGN.md §7.1), fixed 40-byte header + payload:
///
///   offset  size  field
///   0       4     magic 0x42535250 ("BSRP" little-endian)
///   4       1     wire version (kWireVersion)
///   5       1     kind: 0 = request, 1 = response
///   6       2     message type tag (MsgType)
///   8       4     request: destination node id / response: status code
///   12      4     payload length in bytes
///   16      8     correlation id (response echoes its request's)
///   24      8     trace id (0 = untraced)
///   32      4     span id of the carrying RPC
///   36      1     trace flags (bit 0: sampled)
///   37      3     reserved, zero
///   40      ...   payload (the op's request or response, see ops.hpp)
///
/// The correlation id is what lets one connection carry many in-flight
/// requests with out-of-order responses (protocol v3): a multiplexing
/// transport stamps each outgoing request with a per-connection unique
/// id, the dispatcher echoes it into the response, and the transport's
/// reader matches responses back to their futures by id. Transports
/// that dispatch inline (SimTransport) may leave it 0 everywhere.
///
/// The trace context (protocol v7, DESIGN.md §13) follows the same
/// stamped-after-seal pattern: ServiceClient writes the calling thread's
/// trace id + a fresh span id into each outgoing request, the dispatcher
/// installs them around the handler so nested RPCs inherit the trace,
/// and responses echo the request's context back for symmetry. All-zero
/// means untraced and costs nothing beyond the header bytes.
///
/// The destination node id travels *in the frame* so that a single
/// listening endpoint (the all-in-one blobseer_serverd daemon) can host
/// many logical nodes and route internally; transports that connect
/// per-node simply ignore it. Responses replace the node field with a
/// Status: non-OK responses carry a UTF-8 error string as payload, which
/// the client maps back onto the exception hierarchy of common/error.hpp.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "rpc/wire.hpp"

namespace blobseer::rpc {

inline constexpr std::uint32_t kFrameMagic = 0x42535250;  // "PRSB" LE
/// v2: Topology gained a trailing uid_epoch u64 (incompatible payload
/// change — cross-version peers get a clean version-mismatch error
/// instead of a mid-field decode failure).
/// v3: the header grew an 8-byte request-correlation id (multiplexed
/// transports match out-of-order responses by it).
/// v4: the version-manager layer is sharded — Topology advertises a
/// vm_nodes list instead of a single vm_node, and the version-manager
/// block gained kBlobCloneFrom (cross-shard clone) and kVmStatus
/// (per-shard observability).
/// v5: content-addressed storage — ChunkKey carries a kind byte (uid vs
/// SHA-256-derived content key), meta-node leaves a flags byte plus the
/// digest's high half, Topology a content_addressed flag, and the data
/// provider block gained kChunkCheck (check-before-push dedup),
/// streaming kChunkPushStart/Some/End, ranged kChunkPullStart/Some,
/// kChunkDecref (refcounted GC) and kDedupStatus.
/// v6: active membership — the provider manager block gained
/// kProviderJoin / kProviderAnnounce / kProviderBeat (external provider
/// daemons register, advertise their endpoint + inventory and heartbeat
/// with incremental inventory deltas), kReportFailure (clients report
/// suspected deaths for corroboration) and kRepairStatus (repair-queue
/// observability); Topology advertises provider endpoints after the
/// content_addressed flag so remote clients can dial providers directly.
/// v7: observability — the header grew a 16-byte trace context (trace
/// id, span id, sampled flag, reserved bytes; offsets 24-39) so one
/// client operation can be followed across every nested RPC, and the
/// control block gained kMetricsDump (full metrics-registry snapshot
/// from any node) and kTraceDump (drain the node's span ring).
/// v8: kMetaPut carries a batch — a count-prefixed list of (key, node)
/// pairs — so a writer stores its whole tree with one request per
/// metadata provider.
inline constexpr std::uint8_t kWireVersion = 8;
inline constexpr std::size_t kFrameHeaderSize = 40;
/// Byte offset of the MsgType tag (u16) within the header.
inline constexpr std::size_t kFrameTypeOffset = 6;
/// Byte offset of the correlation id within the header.
inline constexpr std::size_t kFrameCorrOffset = 16;
/// Byte offset of the trace context (trace id u64, span id u32, flags
/// u8, 3 reserved) within the header.
inline constexpr std::size_t kFrameTraceOffset = 24;

/// Upper bound on a frame payload; anything larger is a corrupt or
/// hostile frame and is rejected before its length is trusted for an
/// allocation. The largest legitimate payload is one chunk plus a few
/// dozen header bytes; 256 MiB leaves generous headroom over any chunk
/// size the experiments use while bounding what a hostile header can
/// make a receiver allocate.
inline constexpr std::uint32_t kMaxPayload = 256u << 20;

/// Destination pseudo-node for control-plane requests (kTopology). Not a
/// real cluster node: transports route it to the deployment's dispatcher
/// without charging any per-node wire cost.
inline constexpr NodeId kControlNode = 0xfffffffeu;

/// Every request/response type in the protocol. Values are wire ABI: new
/// types must be appended within their service block, never renumbered.
/// Each one has exactly one entry in the op table (ops.hpp).
enum class MsgType : std::uint16_t {
    // data provider service
    kChunkPut = 1,
    kChunkGet = 2,
    kChunkErase = 3,
    kChunkCheck = 4,
    kChunkPushStart = 5,
    kChunkPushSome = 6,
    kChunkPushEnd = 7,
    kChunkPullStart = 8,
    kChunkPullSome = 9,
    kChunkDecref = 10,
    kDedupStatus = 11,

    // version manager service
    kBlobCreate = 16,
    kBlobClone = 17,
    kBlobInfo = 18,
    kAssign = 19,
    kCommit = 20,
    kGetVersion = 21,
    kWaitPublished = 22,
    kHistory = 23,
    kPin = 24,
    kUnpin = 25,
    kRetire = 26,
    kDescriptorOf = 27,
    kBlobCloneFrom = 28,
    kVmStatus = 29,

    // metadata DHT member service
    kMetaPut = 48,
    kMetaGet = 49,
    kMetaTryGet = 50,
    kMetaErase = 51,

    // provider manager service
    kPlace = 64,
    kMarkDead = 65,
    kProviderJoin = 66,
    kProviderAnnounce = 67,
    kProviderBeat = 68,
    kReportFailure = 69,
    kRepairStatus = 70,

    // control plane
    kTopology = 80,
    kMetricsDump = 81,
    kTraceDump = 82,
};

/// Telemetry and log name of a message type ("get-version"), generated
/// from the op table (ops.hpp); "?" for a tag the table lacks.
[[nodiscard]] const char* to_string(MsgType t) noexcept;

/// Wire status of a response. Mirrors the exception hierarchy in
/// common/error.hpp so a server-side throw resurfaces client-side as the
/// same type.
enum class Status : std::uint32_t {
    kOk = 0,
    kRpcError = 1,
    kTimeout = 2,
    kNotFound = 3,
    kConsistency = 4,
    kInvalidArgument = 5,
    kVersionAborted = 6,
    kVersionRetired = 7,
    kError = 8,  ///< any other server-side failure
};

/// Re-throw a non-OK response status as the matching exception.
[[noreturn]] inline void throw_status(Status s, const std::string& what) {
    switch (s) {
        case Status::kOk: break;  // not an error; fall through to throw
        case Status::kRpcError: throw RpcError(what);
        case Status::kTimeout: throw TimeoutError(what);
        case Status::kNotFound: throw NotFoundError(what);
        case Status::kConsistency: throw ConsistencyError(what);
        case Status::kInvalidArgument: throw InvalidArgument(what);
        case Status::kVersionAborted: throw VersionAborted(what);
        case Status::kVersionRetired: throw VersionRetired(what);
        case Status::kError: throw Error(what);
    }
    throw RpcError("protocol: throw_status on OK response");
}

/// Parsed view of one frame; payload borrows the frame buffer.
struct FrameView {
    MsgType type = MsgType::kTopology;
    bool response = false;
    /// Request: destination node id. Response: Status.
    std::uint32_t dst_or_status = 0;
    /// Request-correlation id (0 on non-multiplexed paths).
    std::uint64_t corr = 0;
    /// Trace context (all zero when the operation is untraced).
    std::uint64_t trace_id = 0;
    std::uint32_t span_id = 0;
    std::uint8_t trace_flags = 0;
    ConstBytes payload;

    [[nodiscard]] NodeId dst() const noexcept { return dst_or_status; }
    [[nodiscard]] Status status() const noexcept {
        return static_cast<Status>(dst_or_status);
    }
};

/// Validate and parse a whole frame (header + payload in one buffer).
[[nodiscard]] inline FrameView parse_frame(ConstBytes frame) {
    WireReader r(frame);
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("frame decode: short frame (" +
                       std::to_string(frame.size()) + " bytes)");
    }
    if (r.u32() != kFrameMagic) {
        throw RpcError("frame decode: bad magic");
    }
    if (const std::uint8_t v = r.u8(); v != kWireVersion) {
        throw RpcError("frame decode: unsupported wire version " +
                       std::to_string(v));
    }
    const std::uint8_t kind = r.u8();
    if (kind > 1) {
        throw RpcError("frame decode: bad frame kind");
    }
    FrameView out;
    out.response = kind == 1;
    out.type = static_cast<MsgType>(r.u16());
    out.dst_or_status = r.u32();
    const std::uint32_t len = r.u32();
    out.corr = r.u64();
    out.trace_id = r.u64();
    out.span_id = r.u32();
    out.trace_flags = r.u8();
    (void)r.u8();  // 3 reserved bytes
    (void)r.u8();
    (void)r.u8();
    if (len > kMaxPayload) {
        throw RpcError("frame decode: payload length " + std::to_string(len) +
                       " exceeds limit");
    }
    if (len != r.remaining()) {
        throw RpcError("frame decode: payload length mismatch (header says " +
                       std::to_string(len) + ", frame carries " +
                       std::to_string(r.remaining()) + ")");
    }
    out.payload = frame.subspan(kFrameHeaderSize, len);
    return out;
}

namespace detail {

[[nodiscard]] inline Buffer seal(MsgType type, bool response,
                                 std::uint32_t dst_or_status,
                                 WireWriter&& payload,
                                 std::size_t tail_bytes = 0) {
    Buffer body = payload.take();
    if (body.size() + tail_bytes > kMaxPayload) {
        // Fail at the sender with a clear error — a receiver would just
        // drop the connection, and a >4 GiB body would silently
        // truncate in the header's 32-bit length field.
        throw InvalidArgument(
            std::string("rpc payload of ") +
            std::to_string(body.size() + tail_bytes) +
            " bytes exceeds the frame limit (" + to_string(type) + ")");
    }
    const std::uint32_t len =
        static_cast<std::uint32_t>(body.size() + tail_bytes);
    // Prepend the header in place — one memmove into the writer's spare
    // capacity instead of allocating and copying a second buffer (this
    // sits on the per-RPC hot path of both client and server).
    body.insert(body.begin(), kFrameHeaderSize, 0);
    std::uint8_t* h = body.data();
    std::memcpy(h, &kFrameMagic, 4);  // LE store, as WireWriter's fixed()
    h[4] = kWireVersion;
    h[5] = response ? 1 : 0;
    const std::uint16_t tag = static_cast<std::uint16_t>(type);
    std::memcpy(h + 6, &tag, 2);
    std::memcpy(h + 8, &dst_or_status, 4);
    std::memcpy(h + 12, &len, 4);
    // Bytes 16..40 stay zero: the correlation id and trace context are
    // stamped later by set_frame_corr / set_frame_trace.
    return body;
}

}  // namespace detail

/// Read the correlation id straight out of a sealed frame.
[[nodiscard]] inline std::uint64_t frame_corr(ConstBytes frame) {
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("frame decode: short frame (" +
                       std::to_string(frame.size()) + " bytes)");
    }
    std::uint64_t corr = 0;
    std::memcpy(&corr, frame.data() + kFrameCorrOffset, sizeof corr);
    return corr;
}

/// Stamp \p corr into a sealed frame (request at send time, response at
/// dispatch time).
inline void set_frame_corr(MutableBytes frame, std::uint64_t corr) {
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("frame encode: short frame (" +
                       std::to_string(frame.size()) + " bytes)");
    }
    std::memcpy(frame.data() + kFrameCorrOffset, &corr, sizeof corr);
}

/// Read the trace context out of a sealed frame without a full parse
/// (the tracing hot path touches only these 13 bytes).
[[nodiscard]] inline trace::TraceContext frame_trace(ConstBytes frame) {
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("frame decode: short frame (" +
                       std::to_string(frame.size()) + " bytes)");
    }
    trace::TraceContext ctx;
    std::memcpy(&ctx.trace_id, frame.data() + kFrameTraceOffset, 8);
    std::memcpy(&ctx.span_id, frame.data() + kFrameTraceOffset + 8, 4);
    ctx.flags = frame[kFrameTraceOffset + 12];
    return ctx;
}

/// Stamp a trace context into a sealed frame (requests at send time,
/// responses at dispatch time). Reserved bytes stay zero from seal.
inline void set_frame_trace(MutableBytes frame,
                            const trace::TraceContext& ctx) {
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("frame encode: short frame (" +
                       std::to_string(frame.size()) + " bytes)");
    }
    std::memcpy(frame.data() + kFrameTraceOffset, &ctx.trace_id, 8);
    std::memcpy(frame.data() + kFrameTraceOffset + 8, &ctx.span_id, 4);
    frame[kFrameTraceOffset + 12] = ctx.flags;
}

/// Read a sealed response frame's Status without a full parse (used by
/// the client-side span recorder; requests return their dst instead).
[[nodiscard]] inline Status frame_status(ConstBytes frame) noexcept {
    if (frame.size() < kFrameHeaderSize) {
        return Status::kRpcError;
    }
    std::uint32_t s = 0;
    std::memcpy(&s, frame.data() + 8, 4);
    return static_cast<Status>(s);
}

/// Seal a request frame addressed to logical node \p dst.
[[nodiscard]] inline Buffer seal_request(MsgType type, NodeId dst,
                                         WireWriter&& payload) {
    return detail::seal(type, false, dst, std::move(payload));
}

/// Seal a successful response frame.
[[nodiscard]] inline Buffer seal_response(MsgType type,
                                          WireWriter&& payload) {
    return detail::seal(type, true, static_cast<std::uint32_t>(Status::kOk),
                        std::move(payload));
}

/// Seal a successful response whose payload continues for \p tail_bytes
/// past the sealed buffer: the header's length field covers body + tail,
/// but only the body is materialized here. The caller ships the tail as
/// a separate iovec (zero-copy scatter-gather responses); the receiver
/// sees one ordinary contiguous frame.
[[nodiscard]] inline Buffer seal_response_with_tail(MsgType type,
                                                    WireWriter&& payload,
                                                    std::size_t tail_bytes) {
    return detail::seal(type, true, static_cast<std::uint32_t>(Status::kOk),
                        std::move(payload), tail_bytes);
}

/// Seal an error response; the payload is the error string.
[[nodiscard]] inline Buffer seal_error(MsgType type, Status status,
                                       std::string_view what) {
    WireWriter w(what.size() + 8);
    w.str(what);
    return detail::seal(type, true, static_cast<std::uint32_t>(status),
                        std::move(w));
}

}  // namespace blobseer::rpc
