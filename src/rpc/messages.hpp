/// \file messages.hpp
/// \brief The codec of every BlobSeer RPC body: one field list per type
///        and the generic encoder/decoder that walks it.
///
/// A composite type travels as its fields in the order its describe()
/// lists them; both ends run the same encode/decode over that one list,
/// so an encode/decode mismatch is structurally impossible. Built in:
///   * integers — fixed-width little endian; bool — one byte, 0 or 1;
///   * std::string, ConstBytes — varint length + bytes (ConstBytes
///     decodes as a view borrowing the frame);
///   * std::vector — varint count + elements (the count is checked
///     against the bytes left before anything is reserved);
///   * std::optional — presence byte + value; tuples and pairs — their
///     elements in order.
/// Types whose decoding must validate input from outside the program —
/// enum ranges, kind and flag bytes, the topology shard bound — keep a
/// hand-written Wire<T> codec instead (messages.cpp). Every decoder
/// throws RpcError on malformed input; the round-trip and corruption
/// tests in tests/test_rpc_codec.cpp pin that down.

#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "chunk/chunk_key.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "meta/meta_node.hpp"
#include "meta/write_descriptor.hpp"
#include "provider/data_provider.hpp"
#include "provider/provider_manager.hpp"
#include "rpc/wire.hpp"
#include "version/version_manager.hpp"

namespace blobseer::rpc {

/// Everything a remote client needs to bootstrap against a cluster it
/// cannot see: service node ids, DHT membership, replication parameters
/// and a freshly allocated client identity.
struct Topology {
    /// Version-manager shard nodes, indexed by shard (blob_shard(id)
    /// names the owning entry). Single-shard deployments advertise one.
    std::vector<NodeId> vm_nodes;
    NodeId pm_node = kInvalidNode;
    std::vector<NodeId> data_nodes;
    std::vector<NodeId> meta_nodes;
    std::uint32_t meta_replication = 1;
    std::uint32_t default_replication = 1;
    std::uint64_t publish_timeout_ms = 30000;
    /// Client node id allocated by the server for the requesting client.
    NodeId client_id = kInvalidNode;
    /// Chunk-uid allocation epoch of this deployment boot. Client ids
    /// restart from the same base after a daemon restart, so without an
    /// epoch a restarted deployment would re-mint pre-restart chunk
    /// uids and idempotent puts would silently keep the old bytes.
    std::uint64_t uid_epoch = 0;
    /// v5: deployment stores chunks content-addressed — clients hash
    /// locally, place by digest and use check-before-push dedup.
    bool content_addressed = false;

    /// v6: dial endpoint of a data provider that runs as its own daemon
    /// (in-process providers live behind the main endpoint and are not
    /// listed). Remote clients add these as transport routes so chunk
    /// RPCs reach the provider directly.
    struct ProviderEndpoint {
        NodeId node = kInvalidNode;
        std::string host;
        std::uint32_t port = 0;

        friend bool operator==(const ProviderEndpoint&,
                               const ProviderEndpoint&) = default;
    };
    std::vector<ProviderEndpoint> provider_endpoints;

    friend bool operator==(const Topology&, const Topology&) = default;
};

// ---- hand-written codecs (validating) --------------------------------------

/// Hand-written codec of T: static put() and get(), plus `min_bytes` (T's
/// smallest encoding, which bounds the count prefix of a vector of T)
/// where T travels in vectors.
template <class T>
struct Wire;

/// A string literal as a template argument.
template <std::size_t N>
struct FixedString {
    constexpr FixedString(const char (&s)[N]) { std::copy_n(s, N, chars); }
    char chars[N];
};

/// One-byte enum whose decoder rejects values past \p Last.
template <class E, E Last, FixedString What>
struct BoundedEnum {
    static constexpr std::size_t min_bytes = 1;
    static void put(WireWriter& w, E e) { w.u8(static_cast<std::uint8_t>(e)); }
    static E get(WireReader& r) {
        const std::uint8_t v = r.u8();
        if (v > static_cast<std::uint8_t>(Last)) {
            throw RpcError(std::string("frame decode: bad ") + What.chars +
                           " " + std::to_string(v));
        }
        return static_cast<E>(v);
    }
};

template <>
struct Wire<chunk::ChunkKey::Kind>
    : BoundedEnum<chunk::ChunkKey::Kind, chunk::ChunkKey::Kind::kContent,
                  "chunk-key kind"> {};
template <>
struct Wire<version::VersionStatus>
    : BoundedEnum<version::VersionStatus, version::VersionStatus::kRetired,
                  "version status"> {};
template <>
struct Wire<MetricKind>
    : BoundedEnum<MetricKind, MetricKind::kCallback, "metric kind"> {};

template <>
struct Wire<meta::MetaNode> {
    static void put(WireWriter& w, const meta::MetaNode& n);
    static meta::MetaNode get(WireReader& r);  ///< validates kind + flags
};

template <>
struct Wire<trace::SpanRecord> {
    static constexpr std::size_t min_bytes = 51;  // fixed fields + empty op
    static void put(WireWriter& w, const trace::SpanRecord& s);
    static trace::SpanRecord get(WireReader& r);  ///< validates the kind
};

template <>
struct Wire<Topology> {
    static void put(WireWriter& w, const Topology& t);
    static Topology get(WireReader& r);  ///< validates the shard count
};

// ---- field lists -----------------------------------------------------------

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

inline auto describe(Is<chunk::ChunkKey> auto& k) {
    return std::tie(k.kind, k.blob, k.uid);
}
inline auto describe(Is<meta::MetaKey> auto& k) {
    return std::tie(k.blob, k.version, k.range.first, k.range.count);
}
inline auto describe(Is<meta::TreeRef> auto& t) {
    return std::tie(t.blob, t.version, t.size);
}
inline auto describe(Is<meta::WriteDescriptor> auto& d) {
    return std::tie(d.version, d.offset, d.size, d.size_before,
                    d.size_after);
}
inline auto describe(Is<version::BlobInfo> auto& b) {
    return std::tie(b.id, b.chunk_size, b.replication);
}
inline auto describe(Is<version::VersionInfo> auto& v) {
    return std::tie(v.version, v.size, v.status, v.tree);
}
inline auto describe(Is<version::AssignResult> auto& a) {
    return std::tie(a.version, a.offset, a.size_before, a.size_after, a.base,
                    a.concurrent, a.chunk_size, a.replication);
}
inline auto describe(Is<version::VersionManager::VersionSummary> auto& s) {
    return std::tie(s.version, s.status, s.offset, s.size, s.size_after);
}
inline auto describe(Is<version::VersionManager::RetireInfo> auto& i) {
    return std::tie(i.retired, i.descriptors, i.pinned, i.keep_from);
}
inline auto describe(Is<version::ShardStatus> auto& s) {
    return std::tie(s.shard, s.blobs, s.assigns, s.commits, s.aborts,
                    s.publishes, s.backlog, s.backlog_high_water);
}
inline auto describe(Is<provider::ChunkHolding> auto& h) {
    return std::tie(h.key, h.bytes);
}
inline auto describe(Is<provider::ProviderHealth> auto& h) {
    return std::tie(h.node, h.alive, h.heartbeating, h.beats,
                    h.last_beat_age_ms, h.chunks, h.bytes);
}
inline auto describe(Is<provider::RepairStatus> auto& s) {
    return std::tie(s.backlog, s.high_water, s.enqueued, s.completed,
                    s.skipped, s.failed, s.deferred, s.under_replicated,
                    s.providers);
}
inline auto describe(Is<provider::ProviderManager::JoinResult> auto& j) {
    return std::tie(j.node, j.rejoin);
}
inline auto describe(Is<provider::DataProvider::DedupStatus> auto& s) {
    return std::tie(s.chunks_stored, s.stored_bytes, s.check_hits,
                    s.check_misses, s.bytes_skipped, s.dup_puts, s.decrefs,
                    s.reclaimed_chunks, s.reclaimed_bytes);
}
inline auto describe(Is<MetricSample> auto& s) {
    return std::tie(s.name, s.labels, s.kind, s.value, s.high_water, s.count,
                    s.sum, s.min, s.max, s.buckets);
}
inline auto describe(Is<MetricsSnapshot> auto& s) {
    return std::tie(s.samples);
}
inline auto describe(Is<Topology::ProviderEndpoint> auto& e) {
    return std::tie(e.node, e.host, e.port);
}
inline auto describe(Is<Topology> auto& t) {
    return std::tie(t.vm_nodes, t.pm_node, t.data_nodes, t.meta_nodes,
                    t.meta_replication, t.default_replication,
                    t.publish_timeout_ms, t.client_id, t.uid_epoch,
                    t.content_addressed, t.provider_endpoints);
}

// ---- the generic codec -----------------------------------------------------

namespace detail {

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <class T>
inline constexpr bool kIsTuple = false;
template <class... T>
inline constexpr bool kIsTuple<std::tuple<T...>> = true;
template <class A, class B>
inline constexpr bool kIsTuple<std::pair<A, B>> = true;

}  // namespace detail

template <class T>
concept HandWritten = requires(WireReader& r) { Wire<T>::get(r); };

/// Smallest encoding of T in bytes.
template <class T>
[[nodiscard]] constexpr std::size_t wire_min() {
    if constexpr (HandWritten<T>) {
        return Wire<T>::min_bytes;
    } else if constexpr (std::is_integral_v<T>) {
        return sizeof(T);
    } else if constexpr (detail::kIsTuple<T>) {
        return []<std::size_t... I>(std::index_sequence<I...>) {
            return (std::size_t{0} + ... +
                    wire_min<
                        std::remove_cvref_t<std::tuple_element_t<I, T>>>());
        }(std::make_index_sequence<std::tuple_size_v<T>>{});
    } else if constexpr (requires(T& t) { describe(t); }) {
        return wire_min<decltype(describe(std::declval<T&>()))>();
    } else {
        return 1;  // strings, byte strings, vectors, optionals: a prefix
    }
}

template <class T>
void encode(WireWriter& w, const T& v) {
    if constexpr (HandWritten<T>) {
        Wire<T>::put(w, v);
    } else if constexpr (std::is_same_v<T, bool>) {
        w.u8(v ? 1 : 0);
    } else if constexpr (std::is_integral_v<T>) {
        w.fixed(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        w.str(v);
    } else if constexpr (std::is_same_v<T, ConstBytes>) {
        w.blob(v);
    } else if constexpr (detail::kIsVector<T>) {
        w.varint(v.size());
        for (const auto& e : v) {
            encode(w, e);
        }
    } else if constexpr (detail::kIsOptional<T>) {
        w.u8(v.has_value() ? 1 : 0);
        if (v) {
            encode(w, *v);
        }
    } else if constexpr (detail::kIsTuple<T>) {
        std::apply([&w](const auto&... f) { (encode(w, f), ...); }, v);
    } else {
        encode(w, describe(v));
    }
}

template <class T>
void decode(WireReader& r, T& v) {
    if constexpr (HandWritten<T>) {
        v = Wire<T>::get(r);
    } else if constexpr (std::is_same_v<T, bool>) {
        v = r.u8() != 0;
    } else if constexpr (std::is_integral_v<T>) {
        v = r.fixed<T>();
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = r.str();
    } else if constexpr (std::is_same_v<T, ConstBytes>) {
        v = r.blob();
    } else if constexpr (detail::kIsVector<T>) {
        using E = typename T::value_type;
        const std::uint64_t n = r.varint_count(wire_min<E>());
        v.clear();
        v.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            decode(r, v.emplace_back());
        }
    } else if constexpr (detail::kIsOptional<T>) {
        v.reset();
        if (r.u8() != 0) {
            decode(r, v.emplace());
        }
    } else if constexpr (detail::kIsTuple<T>) {
        std::apply([&r](auto&... f) { (decode(r, f), ...); }, v);
    } else {
        auto fields = describe(v);
        decode(r, fields);
    }
}

template <class T>
[[nodiscard]] T decode(WireReader& r) {
    T v{};
    decode(r, v);
    return v;
}

// ---- named codecs ----------------------------------------------------------

/// put_x / get_x: the codec of one composite type under its own name,
/// for code that writes message bodies by hand (tests, raw-frame tools).
#define BLOBSEER_RPC_NAMED_CODEC(x, T)                                    \
    inline void put_##x(WireWriter& w, const T& v) { encode(w, v); }      \
    [[nodiscard]] inline T get_##x(WireReader& r) { return decode<T>(r); }

BLOBSEER_RPC_NAMED_CODEC(chunk_key, chunk::ChunkKey)
BLOBSEER_RPC_NAMED_CODEC(chunk_keys, std::vector<chunk::ChunkKey>)
BLOBSEER_RPC_NAMED_CODEC(chunk_holdings, std::vector<provider::ChunkHolding>)
BLOBSEER_RPC_NAMED_CODEC(meta_node, meta::MetaNode)
BLOBSEER_RPC_NAMED_CODEC(version_status, version::VersionStatus)
BLOBSEER_RPC_NAMED_CODEC(assign_result, version::AssignResult)
BLOBSEER_RPC_NAMED_CODEC(retire_info, version::VersionManager::RetireInfo)
BLOBSEER_RPC_NAMED_CODEC(placement_plan, provider::PlacementPlan)
BLOBSEER_RPC_NAMED_CODEC(provider_health, provider::ProviderHealth)
BLOBSEER_RPC_NAMED_CODEC(repair_status, provider::RepairStatus)
BLOBSEER_RPC_NAMED_CODEC(metric_sample, MetricSample)
BLOBSEER_RPC_NAMED_CODEC(metrics_snapshot, MetricsSnapshot)
BLOBSEER_RPC_NAMED_CODEC(span_record, trace::SpanRecord)
BLOBSEER_RPC_NAMED_CODEC(span_records, std::vector<trace::SpanRecord>)
BLOBSEER_RPC_NAMED_CODEC(topology, Topology)

#undef BLOBSEER_RPC_NAMED_CODEC

}  // namespace blobseer::rpc
