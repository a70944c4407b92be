/// \file meta_store.hpp
/// \brief Abstract access to the metadata node store, plus an in-memory
///        implementation used by unit tests and by single metadata
///        providers.
///
/// The production implementation is dht::MetaDht (replicated puts
/// and gets over the metadata-provider DHT, with network costs); the tree
/// algorithms in tree_builder/tree_reader are written against this
/// interface so they can be property-tested exhaustively without a
/// cluster.

#pragma once

#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "meta/meta_node.hpp"

namespace blobseer::meta {

class MetaStore {
  public:
    virtual ~MetaStore() = default;

    /// Store a node. Nodes are immutable: storing the same key twice is
    /// idempotent (always the identical content by construction).
    virtual void put(const MetaKey& key, const MetaNode& node) = 0;

    /// Store a batch of nodes; on return every node is stored, exactly as
    /// if each had been put() in turn. Stores that pay a round trip per
    /// request override this to send the batch in as few requests as
    /// they can.
    virtual void put_all(std::span<const KeyedNode> nodes) {
        for (const auto& [key, node] : nodes) {
            put(key, node);
        }
    }

    /// Fetch a node. Throws NotFoundError if absent — on a healthy
    /// cluster that means the caller followed a reference into an
    /// unpublished or aborted version, which is a protocol violation.
    [[nodiscard]] virtual MetaNode get(const MetaKey& key) = 0;

    /// Lookup without throwing (used by invariant checkers).
    [[nodiscard]] virtual std::optional<MetaNode> try_get(
        const MetaKey& key) = 0;

    /// Remove a node (garbage collection of aborted versions).
    virtual void erase(const MetaKey& key) = 0;
};

/// A store that physically owns node data on one node (as opposed to the
/// client-side composites MetaDht/MetaCache): adds capacity queries and
/// crash simulation.
class LocalMetaStore : public MetaStore {
  public:
    /// Number of nodes stored.
    [[nodiscard]] virtual std::size_t count() const = 0;

    /// Drop volatile state (RAM stores lose everything; disk stores keep
    /// their files).
    virtual void lose_volatile() = 0;
};

/// Plain map-backed store. Thread-safe.
class InMemoryMetaStore final : public LocalMetaStore {
  public:
    void put(const MetaKey& key, const MetaNode& node) override {
        const std::scoped_lock lock(mu_);
        map_.try_emplace(key, node);
        puts_.add();
    }

    [[nodiscard]] MetaNode get(const MetaKey& key) override {
        gets_.add();
        const std::scoped_lock lock(mu_);
        const auto it = map_.find(key);
        if (it == map_.end()) {
            throw NotFoundError(key.to_string());
        }
        return it->second;
    }

    [[nodiscard]] std::optional<MetaNode> try_get(
        const MetaKey& key) override {
        const std::scoped_lock lock(mu_);
        const auto it = map_.find(key);
        if (it == map_.end()) {
            return std::nullopt;
        }
        return it->second;
    }

    void erase(const MetaKey& key) override {
        const std::scoped_lock lock(mu_);
        map_.erase(key);
    }

    /// Drop everything (crash simulation for RAM-resident metadata).
    void clear() {
        const std::scoped_lock lock(mu_);
        map_.clear();
    }

    void lose_volatile() override { clear(); }

    [[nodiscard]] std::size_t count() const override {
        const std::scoped_lock lock(mu_);
        return map_.size();
    }

    [[nodiscard]] std::uint64_t puts() const { return puts_.get(); }
    [[nodiscard]] std::uint64_t gets() const { return gets_.get(); }

  private:
    mutable std::mutex mu_;  // guards map_
    std::unordered_map<MetaKey, MetaNode, MetaKeyHash> map_;
    Counter puts_;
    Counter gets_;
};

}  // namespace blobseer::meta
