#include "rpc/dispatcher.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/trace.hpp"
#include "dht/metadata_provider.hpp"
#include "provider/data_provider.hpp"
#include "provider/provider_manager.hpp"
#include "version/version_manager.hpp"

namespace blobseer::rpc {

namespace {

[[nodiscard]] std::uint64_t us_between(TimePoint from, TimePoint to) {
    if (to <= from) {
        return 0;
    }
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(to - from)
            .count());
}

/// A tag-indexed array over the op table: out[tag] = pick<Op>() for every
/// op, null elsewhere.
template <class T, class Pick, class... Ops>
[[nodiscard]] constexpr std::array<T, kTagLimit> per_op(OpList<Ops...>,
                                                        Pick pick) {
    std::array<T, kTagLimit> out{};
    ((out[static_cast<std::size_t>(Ops::type)] =
          pick.template operator()<Ops>()),
     ...);
    return out;
}

constexpr auto kNames =
    per_op<const char*>(OpTable{}, []<class O>() { return O::name; });
constexpr auto kBlocking =
    per_op<bool>(OpTable{}, []<class O>() { return O::blocks; });

/// What a chunk-read handler returns in place of a ChunkSlice: the slice
/// borrowed from store memory, shipped as the response's scatter-gather
/// tail (zero copy); the wire bytes are exactly those of a ChunkSlice.
struct ServedSlice {
    std::uint64_t chunk_size = 0;
    SharedSlice bytes;
};

// ---- handlers: the server half of each op, one function per table entry --

using chunk::ChunkKey;
using dht::MetadataProvider;
using meta::MetaKey;
using meta::MetaNode;
using provider::ChunkHolding;
using provider::DataProvider;
using provider::ProviderManager;
using version::BlobInfo;
using version::VersionInfo;
using version::VersionManager;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

void serve(op::ChunkPut, DataProvider& dp, const ChunkKey& key,
           ConstBytes payload) {
    // The one copy of the payload: out of the frame into the store.
    dp.put_chunk(key, std::make_shared<const Buffer>(payload.begin(),
                                                     payload.end()));
}

/// Clamp [offset, offset + size) to the \p total bytes of \p ref (size 0 =
/// the rest of the chunk) and borrow that slice.
ServedSlice slice_of(u64 total, chunk::ChunkRef ref, u64 offset, u64 size) {
    const u64 begin = std::min(offset, total);
    const u64 n = size == 0 ? total - begin : std::min(size, total - begin);
    return {total, SharedSlice(ref.bytes.subspan(begin, n),
                               std::move(ref.keepalive))};
}

ServedSlice serve(op::ChunkGet, DataProvider& dp, const ChunkKey& key,
                  u64 offset, u64 size) {
    chunk::ChunkRef ref = dp.get_chunk_ref(key);
    const u64 total = ref.bytes.size();
    return slice_of(total, std::move(ref), offset, size);
}

void serve(op::ChunkErase, DataProvider& dp, const ChunkKey& key) {
    dp.erase_chunk(key);
}

bool serve(op::ChunkCheck, DataProvider& dp, const ChunkKey& key,
           bool want_incref, u64 size_hint) {
    return dp.check_chunk(key, want_incref, size_hint);
}

u64 serve(op::ChunkPushStart, DataProvider& dp, const ChunkKey& k, u64 total) {
    return dp.begin_push(k, total);
}

void serve(op::ChunkPushSome, DataProvider& dp, u64 xfer, u64 offset,
           ConstBytes bytes) {
    dp.push_some(xfer, offset, bytes);
}

void serve(op::ChunkPushEnd, DataProvider& dp, u64 xfer) {
    dp.end_push(xfer);
}

u64 serve(op::ChunkPullStart, DataProvider& dp, const ChunkKey& key) {
    return dp.chunk_size(key);
}

ServedSlice serve(op::ChunkPullSome, DataProvider& dp, const ChunkKey& key,
                  u64 offset, u64 size) {
    auto [total, ref] = dp.get_chunk_range_ref(key, offset, size);
    return slice_of(total, std::move(ref), offset, size);
}

u64 serve(op::ChunkDecref, DataProvider& dp, const ChunkKey& key) {
    return dp.decref_chunk(key);
}

DataProvider::DedupStatus serve(op::DedupStatus, DataProvider& dp) {
    return dp.dedup_status();
}

BlobInfo serve(op::BlobCreate, VersionManager& vm, u64 chunk_size, u32 rep) {
    return vm.create_blob(chunk_size, rep);
}

BlobInfo serve(op::BlobClone, VersionManager& vm, BlobId src, Version v) {
    return vm.clone_blob(src, v);
}

BlobInfo serve(op::BlobInfo, VersionManager& vm, BlobId blob) {
    return vm.blob_info(blob);
}

version::AssignResult serve(op::Assign, VersionManager& vm, BlobId blob,
                            std::optional<u64> offset, u64 size) {
    return vm.assign(blob, offset, size);
}

void serve(op::Commit, VersionManager& vm, BlobId blob, Version v) {
    vm.commit(blob, v);
}

VersionInfo serve(op::GetVersion, VersionManager& vm, BlobId blob, Version v) {
    return vm.get_version(blob, v);
}

VersionInfo serve(op::WaitPublished, VersionManager& vm, BlobId blob,
                  Version v, u64 timeout_ms) {
    return vm.wait_published(blob, v, milliseconds(timeout_ms));
}

std::vector<VersionManager::VersionSummary> serve(
    op::History, VersionManager& vm, BlobId blob, Version from, Version to) {
    return vm.history(blob, from, to);
}

bool serve(op::Pin, VersionManager& vm, BlobId blob, Version v) {
    return vm.pin(blob, v);
}

void serve(op::Unpin, VersionManager& vm, BlobId blob, Version v) {
    vm.unpin(blob, v);
}

VersionManager::RetireInfo serve(op::Retire, VersionManager& vm, BlobId blob,
                                 Version keep_from) {
    return vm.retire(blob, keep_from);
}

meta::WriteDescriptor serve(op::DescriptorOf, VersionManager& vm,
                            BlobId blob, Version v) {
    return vm.descriptor_of(blob, v);
}

BlobInfo serve(op::BlobCloneFrom, VersionManager& vm, u64 chunk_size,
               u32 rep, const meta::TreeRef& origin) {
    return vm.clone_from(chunk_size, rep, origin);
}

version::ShardStatus serve(op::VmStatus, VersionManager& vm) {
    return vm.status();
}

void serve(op::MetaPut, MetadataProvider& mp,
           const std::vector<meta::KeyedNode>& nodes) {
    // Node by node, so the service gate charges every node as before.
    for (const auto& [key, node] : nodes) {
        mp.put(key, node);
    }
}

MetaNode serve(op::MetaGet, MetadataProvider& mp, const MetaKey& key) {
    return mp.get(key);
}

std::optional<MetaNode> serve(op::MetaTryGet, MetadataProvider& mp,
                              const MetaKey& key) {
    return mp.try_get(key);
}

void serve(op::MetaErase, MetadataProvider& mp, const MetaKey& key) {
    mp.erase(key);
}

provider::PlacementPlan serve(op::Place, ProviderManager& pm, u64 n_chunks,
                              u32 rep, u64 chunk_bytes) {
    return pm.place(n_chunks, rep, chunk_bytes);
}

void serve(op::MarkDead, ProviderManager& pm, NodeId node) {
    pm.mark_dead(node);
}

ProviderManager::JoinResult serve(op::ProviderJoin, ProviderManager& pm,
                                  const std::string& name) {
    return pm.join(name);
}

void serve(op::ProviderAnnounce, ProviderManager& pm, NodeId node,
           const std::string& host, u32 port,
           const std::vector<ChunkHolding>& inventory) {
    pm.announce(node, host, port, inventory);
}

bool serve(op::ProviderBeat, ProviderManager& pm, NodeId node, u64 seq,
           const std::vector<ChunkHolding>& added,
           const std::vector<ChunkKey>& removed) {
    return pm.heartbeat(node, seq, added, removed);
}

bool serve(op::ReportFailure, ProviderManager& pm, NodeId suspect,
           NodeId reporter) {
    return pm.report_failure(suspect, reporter);
}

provider::RepairStatus serve(op::RepairStatus, ProviderManager& pm) {
    return pm.repair_status();
}

Topology serve(op::Topology, Dispatcher& d) {
    return d.topology_for_new_client();
}

MetricsSnapshot serve(op::MetricsDump, Dispatcher& /*d*/) {
    return MetricsRegistry::instance().snapshot();
}

std::vector<trace::SpanRecord> serve(op::TraceDump, Dispatcher& /*d*/,
                                     u64 trace_id, u64 max) {
    return trace::buffer().snapshot(
        trace_id, max == 0 ? trace::TraceBuffer::kDefaultCapacity : max);
}

template <class S>
[[nodiscard]] S& find_service(const std::unordered_map<NodeId, S*>& services,
                              NodeId node, const char* what) {
    const auto it = services.find(node);
    if (it == services.end()) {
        throw RpcError(std::string("no ") + what + " service on node " +
                       std::to_string(node));
    }
    return *it->second;
}

}  // namespace

/// The generated routes: tag -> (decode request, find service, serve,
/// encode response).
struct OpRouter {
    using Route = RpcResponse (*)(Dispatcher&, const FrameView&);

    template <class S>
    [[nodiscard]] static S& service(Dispatcher& d, NodeId node) {
        if constexpr (std::is_same_v<S, Dispatcher>) {
            return d;
        } else if constexpr (std::is_same_v<S, provider::ProviderManager>) {
            return find_service(d.provider_managers_, node,
                                "provider-manager");
        } else if constexpr (std::is_same_v<S, version::VersionManager>) {
            return find_service(d.version_managers_, node, "version-manager");
        } else if constexpr (std::is_same_v<S, provider::DataProvider>) {
            return find_service(d.data_providers_, node, "data-provider");
        } else {
            return find_service(d.meta_providers_, node, "metadata-provider");
        }
    }

    template <class O>
    [[nodiscard]] static RpcResponse route(Dispatcher& d,
                                           const FrameView& f) {
        using S = typename O::Service;
        using R = typename O::Response;
        // Fault gate: a request addressed to a node the deployment
        // considers down fails exactly like a dead simulated endpoint, so
        // TCP clients observe the same fault semantics as in-process
        // ones. Control ops (served by the dispatcher itself) stay
        // reachable on a "dead" deployment — exactly when operators
        // need them.
        if constexpr (!std::is_same_v<S, Dispatcher>) {
            if (d.fault_check_ && !d.fault_check_(f.dst())) {
                throw RpcError("target node " + std::to_string(f.dst()) +
                               " is down");
            }
        }
        S& service = OpRouter::service<S>(d, f.dst());
        typename O::Request req;
        WireReader r(f.payload);
        decode(r, req);
        r.expect_end();
        const auto call = [&service](auto&... fields) {
            return serve(O{}, service, fields...);
        };
        if constexpr (std::is_void_v<R>) {
            std::apply(call, req);
            return seal_response(O::type, WireWriter());
        } else if constexpr (std::is_same_v<R, ChunkSlice>) {
            // Zero copy: the head carries exactly the bytes encode() would
            // put before the slice (u64 size + the byte string's varint
            // length); the slice itself ships as the borrowed tail.
            ServedSlice s = std::apply(call, req);
            const std::size_t n = s.bytes.size();
            WireWriter w(16);
            w.u64(s.chunk_size);
            w.varint(n);
            return RpcResponse(
                seal_response_with_tail(O::type, std::move(w), n),
                std::move(s.bytes));
        } else {
            const R out = std::apply(call, req);
            WireWriter w;
            encode(w, out);
            return seal_response(O::type, std::move(w));
        }
    }

    static constexpr auto kRoutes = per_op<Route>(
        OpTable{}, []<class O>() -> Route { return &route<O>; });
};

bool known_op(MsgType t) noexcept {
    const auto tag = static_cast<std::size_t>(t);
    return tag < kNames.size() && kNames[tag] != nullptr;
}

const char* to_string(MsgType t) noexcept {
    return known_op(t) ? kNames[static_cast<std::size_t>(t)] : "?";
}

bool Dispatcher::blocks_by_design(ConstBytes frame) noexcept {
    if (frame.size() < kFrameHeaderSize) {
        return false;
    }
    std::uint16_t tag = 0;
    std::memcpy(&tag, frame.data() + kFrameTypeOffset, sizeof tag);
    return tag < kBlocking.size() && kBlocking[tag];
}

Dispatcher::OpTelemetry* Dispatcher::telemetry_for(MsgType type) noexcept {
    if (!known_op(type)) {
        return nullptr;  // corrupt or foreign tag; no series for it
    }
    OpTelemetry& t = op_telemetry_[static_cast<std::size_t>(type)];
    if (t.latency.load(std::memory_order_acquire) == nullptr) {
        // First dispatch of this op in this dispatcher. The registry
        // get-or-creates by name+label, so every dispatcher in the
        // process resolves to the same shared series, and a racing
        // resolve stores the same pointers.
        auto& registry = MetricsRegistry::instance();
        const MetricLabels labels{{"op", to_string(type)}};
        t.requests.store(
            &registry.counter("rpc_server_requests_total", labels),
            std::memory_order_relaxed);
        t.errors.store(&registry.counter("rpc_server_errors_total", labels),
                       std::memory_order_relaxed);
        t.latency.store(&registry.histogram("rpc_server_latency_us", labels),
                        std::memory_order_release);
    }
    return &t;
}

Buffer Dispatcher::dispatch(ConstBytes frame,
                            TimePoint received_at) noexcept {
    RpcResponse resp = dispatch_sg(frame, received_at);
    if (!resp.tail.empty()) {
        // Flattening IS the copy the scatter-gather path avoids; count
        // the payload bytes so before/after is a counter diff.
        static Counter& bytes_copied = MetricsRegistry::instance().counter(
            "rpc_bytes_copied_total", {});
        bytes_copied.add(resp.tail.size());
    }
    return std::move(resp).flatten();
}

RpcResponse Dispatcher::dispatch_sg(ConstBytes frame,
                                    TimePoint received_at) noexcept {
    MsgType type = MsgType::kTopology;
    // The request's correlation id is echoed into whatever response —
    // success or error — leaves here, so a multiplexing transport can
    // match it. A frame too corrupt to parse keeps corr 0; its sender's
    // stream is beyond saving anyway.
    std::uint64_t corr = 0;
    Status status = Status::kOk;
    trace::TraceContext ctx;
    NodeId dst = kInvalidNode;
    std::uint64_t payload_bytes = 0;
    bool parsed = false;
    const TimePoint started = Clock::now();
    RpcResponse response;
    try {
        const FrameView f = parse_frame(frame);
        type = f.type;
        corr = f.corr;
        ctx.trace_id = f.trace_id;
        ctx.span_id = f.span_id;
        ctx.flags = f.trace_flags;
        dst = f.dst();
        payload_bytes = f.payload.size();
        parsed = true;
        if (f.response) {
            throw RpcError("dispatch of a response frame");
        }
        const OpRouter::Route route =
            known_op(f.type)
                ? OpRouter::kRoutes[static_cast<std::size_t>(f.type)]
                : nullptr;
        if (route == nullptr) {
            throw RpcError("unknown message type " +
                           std::to_string(static_cast<unsigned>(f.type)));
        }
        // Handlers run inside the frame's trace context, so every nested
        // RPC a service issues (DHT replica puts, CAS check→push chains,
        // repair copies) inherits the trace.
        const trace::TraceScope scope(ctx);
        response = route(*this, f);
    } catch (const RpcError& e) {
        status = Status::kRpcError;
        response = seal_error(type, status, e.what());
    } catch (const TimeoutError& e) {
        status = Status::kTimeout;
        response = seal_error(type, status, e.what());
    } catch (const NotFoundError& e) {
        status = Status::kNotFound;
        response = seal_error(type, status, e.what());
    } catch (const ConsistencyError& e) {
        status = Status::kConsistency;
        response = seal_error(type, status, e.what());
    } catch (const InvalidArgument& e) {
        status = Status::kInvalidArgument;
        response = seal_error(type, status, e.what());
    } catch (const VersionAborted& e) {
        status = Status::kVersionAborted;
        response = seal_error(type, status, e.what());
    } catch (const VersionRetired& e) {
        status = Status::kVersionRetired;
        response = seal_error(type, status, e.what());
    } catch (const std::exception& e) {
        status = Status::kError;
        response = seal_error(type, status, e.what());
    }
    set_frame_corr(response.head, corr);

    const std::uint64_t handle_us = us_between(started, Clock::now());
    if (parsed) {
        if (OpTelemetry* t = telemetry_for(type)) {
            t->requests.load(std::memory_order_relaxed)->add();
            t->latency.load(std::memory_order_relaxed)->record(handle_us);
            if (status != Status::kOk) {
                t->errors.load(std::memory_order_relaxed)->add();
            }
        }
    }

    if (ctx.active()) {
        // Echo the request's context so the client can sanity-check the
        // response belongs to its trace.
        set_frame_trace(response.head, ctx);
        if (trace::TraceBuffer::should_record(ctx.sampled(), handle_us)) {
            trace::SpanRecord span;
            span.trace_id = ctx.trace_id;
            span.span_id = ctx.span_id;  // shared with the client half
            span.start_unix_us = trace::now_unix_us() - handle_us;
            span.queue_us = us_between(received_at, started);
            span.duration_us = handle_us;
            span.bytes = payload_bytes;
            span.node = dst;
            span.kind = trace::SpanRecord::kServer;
            span.status = static_cast<std::uint8_t>(status);
            span.set_op(to_string(type));
            trace::buffer().record(span);
        }
    }
    return response;
}

}  // namespace blobseer::rpc
