/// \file log_meta_store.hpp
/// \brief Persistent metadata node store backed by the log engine.
///
/// Paper §IV-B: "We also introduced persistent data and metadata
/// storage". Tree nodes are tiny (tens of bytes), so they serialize with
/// a fixed binary layout (serialize_node/deserialize_node below) and
/// append to an engine::LogEngine (DESIGN.md §8) keyed by the 32-byte
/// MetaKey encoding; restart recovery is the engine's checkpoint load.
/// Every node read or written is mirrored in a RAM map — the paper keeps
/// the RAM scheme "as an underlying caching mechanism" — and
/// lose_volatile() drops only that cache; get() then falls back to the
/// engine.

#pragma once

#include <filesystem>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "engine/log_engine.hpp"
#include "meta/meta_store.hpp"

namespace blobseer::meta {

/// Binary node serialization (little-endian, fixed layout).
[[nodiscard]] inline Buffer serialize_node(const MetaNode& node) {
    Buffer out;
    auto put64 = [&out](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
        }
    };
    auto put32 = [&out](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
        }
    };
    out.push_back(node.is_leaf() ? 1 : 0);
    // Flags byte (was a zero pad before v5, so old records decode as
    // flags = 0): bit 0 marks a content-addressed leaf.
    out.push_back(node.cas ? 1 : 0);
    out.push_back(0);
    out.push_back(0);
    if (node.is_leaf()) {
        put64(node.chunk_uid);
        if (node.cas) {
            put64(node.chunk_uid_hi);
        }
        put32(node.chunk_bytes);
        put32(static_cast<std::uint32_t>(node.replicas.size()));
        for (const NodeId r : node.replicas) {
            put32(r);
        }
    } else {
        put64(node.left.blob);
        put64(node.left.version);
        put64(node.right.blob);
        put64(node.right.version);
    }
    return out;
}

[[nodiscard]] inline MetaNode deserialize_node(ConstBytes in) {
    std::size_t pos = 0;
    auto get64 = [&in, &pos]() {
        if (pos + 8 > in.size()) {
            throw ConsistencyError("truncated metadata node");
        }
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(in[pos++]) << (i * 8);
        }
        return v;
    };
    auto get32 = [&in, &pos]() {
        if (pos + 4 > in.size()) {
            throw ConsistencyError("truncated metadata node");
        }
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(in[pos++]) << (i * 8);
        }
        return v;
    };
    if (in.empty()) {
        throw ConsistencyError("empty metadata node");
    }
    const bool leaf = in[0] == 1;
    const bool cas = in.size() > 1 && (in[1] & 1) != 0;
    pos = 4;
    MetaNode node;
    if (leaf) {
        const std::uint64_t uid = get64();
        const std::uint64_t hi = cas ? get64() : 0;
        const std::uint32_t bytes = get32();
        const std::uint32_t n = get32();
        std::vector<NodeId> replicas;
        replicas.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            replicas.push_back(get32());
        }
        node = cas ? MetaNode::cas_leaf(std::move(replicas), hi, uid, bytes)
                   : MetaNode::leaf(std::move(replicas), uid, bytes);
    } else {
        ChildRef left{get64(), get64()};
        ChildRef right{get64(), get64()};
        node = MetaNode::inner(left, right);
    }
    return node;
}

class LogMetaStore final : public LocalMetaStore {
  public:
    explicit LogMetaStore(std::filesystem::path dir)
        : LogMetaStore(make_config(std::move(dir))) {}

    explicit LogMetaStore(engine::EngineConfig cfg) : engine_(std::move(cfg)) {}

    void put(const MetaKey& key, const MetaNode& node) override {
        {
            const std::scoped_lock lock(mu_);
            if (cache_.contains(key)) {
                return;  // immutable nodes: idempotent
            }
        }
        // Atomic with the durable-existence check, so a post-crash
        // re-put (or a concurrent duplicate) never appends twice.
        (void)engine_.put_if_absent(encode_key(key), serialize_node(node));
        const std::scoped_lock lock(mu_);
        cache_.emplace(key, node);
    }

    [[nodiscard]] MetaNode get(const MetaKey& key) override {
        {
            const std::scoped_lock lock(mu_);
            const auto it = cache_.find(key);
            if (it != cache_.end()) {
                return it->second;
            }
        }
        // RAM tier lost (crash) or first touch since reopen: the engine
        // is the durable source.
        const auto raw = engine_.get(encode_key(key));
        if (!raw) {
            throw NotFoundError(key.to_string());
        }
        MetaNode node = deserialize_node(*raw);
        const std::scoped_lock lock(mu_);
        cache_.emplace(key, node);
        return node;
    }

    [[nodiscard]] std::optional<MetaNode> try_get(
        const MetaKey& key) override {
        try {
            return get(key);
        } catch (const NotFoundError&) {
            return std::nullopt;
        }
    }

    void erase(const MetaKey& key) override {
        {
            const std::scoped_lock lock(mu_);
            cache_.erase(key);
        }
        engine_.remove(encode_key(key));
    }

    /// RAM-tier population: count of cached nodes, which equals the
    /// durable count except right after lose_volatile.
    [[nodiscard]] std::size_t count() const override {
        const std::scoped_lock lock(mu_);
        return cache_.size();
    }

    /// Durable node count regardless of cache population.
    [[nodiscard]] std::size_t durable_count() { return engine_.count(); }

    /// Crash: the RAM tier evaporates; the log survives.
    void lose_volatile() override {
        const std::scoped_lock lock(mu_);
        cache_.clear();
    }

    [[nodiscard]] engine::LogEngine& engine() noexcept { return engine_; }

    /// 32-byte little-endian (blob, version, first, count) key.
    [[nodiscard]] static std::string encode_key(const MetaKey& key) {
        Buffer out;
        out.reserve(32);
        engine::put_u64(out, key.blob);
        engine::put_u64(out, key.version);
        engine::put_u64(out, key.range.first);
        engine::put_u64(out, key.range.count);
        return {out.begin(), out.end()};
    }

  private:
    [[nodiscard]] static engine::EngineConfig make_config(
        std::filesystem::path dir) {
        engine::EngineConfig cfg;
        cfg.dir = std::move(dir);
        return cfg;
    }

    engine::LogEngine engine_;
    mutable std::mutex mu_;  // guards cache_
    std::unordered_map<MetaKey, MetaNode, MetaKeyHash> cache_;
};

}  // namespace blobseer::meta
