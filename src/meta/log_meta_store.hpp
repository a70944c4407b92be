/// \file log_meta_store.hpp
/// \brief Persistent metadata node store backed by the log engine.
///
/// Paper §IV-B: "We also introduced persistent data and metadata
/// storage". Tree nodes are tiny (tens of bytes), so they serialize with
/// a fixed binary layout (serialize_node/deserialize_node below) and
/// append to an engine::LogEngine (DESIGN.md §8) keyed by the 32-byte
/// MetaKey encoding; restart recovery is the engine's checkpoint load.
/// Gets are served from the engine (index lookup + one CRC-checked
/// pread). The RAM caching the paper keeps "as an underlying caching
/// mechanism" lives on the client side (MetaCache), where it saves a
/// round trip; a provider-side mirror of every node would only double
/// the provider's memory per node.

#pragma once

#include <filesystem>
#include <optional>
#include <string>
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
        // Atomic with the durable-existence check, so a re-put of an
        // immutable node (post-crash replay, a concurrent duplicate)
        // never appends twice.
        (void)engine_.put_if_absent(encode_key(key), serialize_node(node));
    }

    [[nodiscard]] MetaNode get(const MetaKey& key) override {
        const auto raw = engine_.get(encode_key(key));
        if (!raw) {
            throw NotFoundError(key.to_string());
        }
        return deserialize_node(*raw);
    }

    [[nodiscard]] std::optional<MetaNode> try_get(
        const MetaKey& key) override {
        const auto raw = engine_.get(encode_key(key));
        if (!raw) {
            return std::nullopt;
        }
        return deserialize_node(*raw);
    }

    void erase(const MetaKey& key) override {
        engine_.remove(encode_key(key));
    }

    /// Durable node count.
    [[nodiscard]] std::size_t count() const override {
        return engine_.count();
    }

    /// Crash: nothing volatile to lose; the log is the store.
    void lose_volatile() override {}

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
};

}  // namespace blobseer::meta
