/// \file meta_node.hpp
/// \brief Keys and contents of versioned segment-tree nodes.
///
/// Node identity is the decisive design point of BlobSeer's metadata
/// scheme: a node is named by (blob, version, slot range), which is fully
/// *deterministic*. Any process that knows a version's write descriptor can
/// compute which nodes that version creates — without reading anything.
/// This is what lets concurrent writers "weave" references to each other's
/// not-yet-written nodes (paper §I-B.3, versioning-based concurrency
/// control) instead of synchronizing.
///
/// Nodes are immutable once written; they are only ever added, never
/// modified (the property that decouples readers from writers).

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chunk/chunk_key.hpp"
#include "common/hash.hpp"
#include "common/types.hpp"
#include "meta/slot_range.hpp"

namespace blobseer::meta {

/// DHT key of a tree node.
struct MetaKey {
    BlobId blob = kInvalidBlob;
    Version version = 0;
    SlotRange range;

    friend bool operator==(const MetaKey&, const MetaKey&) = default;

    [[nodiscard]] std::uint64_t hash() const noexcept {
        return mix64(hash_combine(
            hash_combine(hash_combine(blob, version), range.first),
            range.count));
    }

    [[nodiscard]] std::string to_string() const {
        return "node(b" + std::to_string(blob) + ",v" +
               std::to_string(version) + "," + range.to_string() + ")";
    }
};

struct MetaKeyHash {
    std::size_t operator()(const MetaKey& k) const noexcept {
        return static_cast<std::size_t>(k.hash());
    }
};

/// Reference from an inner node to the node covering one of its halves.
/// The child's slot range is implied by the parent (left/right half), so
/// only the owning blob and creating version are stored. A default
/// ChildRef (blob == kInvalidBlob) is a *hole*: that half contains no data
/// and reads as zeros.
///
/// The blob id is almost always the parent's blob; it differs only across
/// a CLONE boundary, where a cloned blob's tree borrows subtrees from its
/// origin.
struct ChildRef {
    BlobId blob = kInvalidBlob;
    Version version = 0;

    [[nodiscard]] bool is_hole() const noexcept {
        return blob == kInvalidBlob;
    }

    friend bool operator==(const ChildRef&, const ChildRef&) = default;
};

/// A stored tree node: either an inner node (two child refs) or a leaf
/// (the replica set of the chunk written into this slot by this node's
/// version). A leaf with an empty replica set is a hole leaf (can appear
/// at slot 0 when the first write of a blob starts past slot 0).
struct MetaNode {
    enum class Kind : std::uint8_t { kInner, kLeaf };

    Kind kind = Kind::kInner;

    // Inner payload.
    ChildRef left;
    ChildRef right;

    // Leaf payload: data providers holding replicas of this slot's chunk.
    std::vector<NodeId> replicas;

    /// Unique id of the stored chunk (see chunk::ChunkKey). For a
    /// content-addressed leaf (cas below) this is the low half of the
    /// chunk digest instead.
    std::uint64_t chunk_uid = 0;

    /// Actual payload bytes stored in the chunk (<= chunk_size; smaller
    /// only for the blob's trailing chunk).
    std::uint32_t chunk_bytes = 0;

    /// Content-addressed leaf: the chunk is named by its SHA-256
    /// truncation (chunk_uid_hi, chunk_uid) rather than by an owning
    /// (blob, uid) pair, so identical data in different blobs shares one
    /// stored chunk.
    bool cas = false;
    std::uint64_t chunk_uid_hi = 0;

    [[nodiscard]] bool is_leaf() const noexcept { return kind == Kind::kLeaf; }

    /// The chunk this leaf points at; \p owner is the blob the leaf was
    /// reached through (only used for uid-addressed leaves).
    [[nodiscard]] chunk::ChunkKey chunk_key(BlobId owner) const noexcept {
        return cas ? chunk::ChunkKey::content(chunk_uid_hi, chunk_uid)
                   : chunk::ChunkKey{owner, chunk_uid};
    }

    /// Wire size estimate used to charge the simulated network.
    [[nodiscard]] std::uint64_t serialized_size() const noexcept {
        return is_leaf() ? 24 + 4 * replicas.size() + (cas ? 8 : 0) : 40;
    }

    [[nodiscard]] static MetaNode inner(ChildRef l, ChildRef r) {
        MetaNode n;
        n.kind = Kind::kInner;
        n.left = l;
        n.right = r;
        return n;
    }

    [[nodiscard]] static MetaNode leaf(std::vector<NodeId> replicas,
                                       std::uint64_t chunk_uid,
                                       std::uint32_t chunk_bytes) {
        MetaNode n;
        n.kind = Kind::kLeaf;
        n.replicas = std::move(replicas);
        n.chunk_uid = chunk_uid;
        n.chunk_bytes = chunk_bytes;
        return n;
    }

    [[nodiscard]] static MetaNode cas_leaf(std::vector<NodeId> replicas,
                                           std::uint64_t digest_hi,
                                           std::uint64_t digest_lo,
                                           std::uint32_t chunk_bytes) {
        MetaNode n = leaf(std::move(replicas), digest_lo, chunk_bytes);
        n.cas = true;
        n.chunk_uid_hi = digest_hi;
        return n;
    }
};

/// A node together with its DHT key: the unit of a batched store.
using KeyedNode = std::pair<MetaKey, MetaNode>;

/// Wire size of a key (for network charging).
inline constexpr std::uint64_t kMetaKeyWireSize = 32;

}  // namespace blobseer::meta
