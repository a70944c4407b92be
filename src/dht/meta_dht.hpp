/// \file meta_dht.hpp
/// \brief Client-side view of the metadata DHT.
///
/// Implements meta::MetaStore over the metadata providers: each node key
/// is consistent-hashed to its owners; puts go to every replica (one
/// request per owner for a whole batch), gets try owners in order and
/// fail over on provider death. Every operation is a real encode →
/// transport → decode round trip (rpc::ServiceClient), so
/// the metadata traffic the tree algorithms generate is charged at its
/// actual serialized size under SimTransport and travels real sockets
/// under TcpTransport.
///
/// With a single registered provider this degenerates into the
/// *centralized* metadata scheme the paper compares against (§IV-C) — the
/// baseline configuration reuses this class unchanged.

#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "dht/ring.hpp"
#include "meta/meta_store.hpp"
#include "rpc/service_client.hpp"

namespace blobseer::dht {

class MetaDht final : public meta::MetaStore {
  public:
    /// \param svc        RPC stubs carrying this client's identity.
    /// \param ring       DHT membership (not owned; must outlive this).
    /// \param replication copies per node key (>= 1).
    MetaDht(rpc::ServiceClient& svc, const Ring& ring,
            std::uint32_t replication)
        : svc_(svc),
          ring_(ring),
          replication_(replication == 0 ? 1 : replication) {}

    void put(const meta::MetaKey& key, const meta::MetaNode& node) override {
        const meta::KeyedNode one{key, node};
        put_all({&one, 1});
    }

    /// One meta-put per owner, carrying every node of the batch that
    /// owner stores, with all owners in flight at once: a write's whole
    /// tree costs one round trip, not one per node. A node counts as
    /// stored once any of its owners acknowledged its batch (a dead
    /// replica target is tolerable as long as one copy lands; readers
    /// fail over the same way). Throws RpcError when some node has no
    /// acknowledging owner.
    void put_all(std::span<const meta::KeyedNode> nodes) override {
        struct Batch {
            NodeId owner;
            std::vector<meta::KeyedNode> nodes;
            bool acked = false;
        };
        std::vector<Batch> batches;
        // homes[i]: the batches that carry nodes[i].
        std::vector<std::vector<std::size_t>> homes(nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            for (const NodeId owner :
                 ring_.owners(nodes[i].first.hash(), replication_)) {
                std::size_t b = 0;
                while (b < batches.size() && batches[b].owner != owner) {
                    ++b;
                }
                if (b == batches.size()) {
                    batches.push_back({owner, {}, false});
                }
                batches[b].nodes.push_back(nodes[i]);
                homes[i].push_back(b);
            }
        }

        std::vector<std::pair<std::size_t, Future<void>>> sent;
        sent.reserve(batches.size());
        for (std::size_t b = 0; b < batches.size(); ++b) {
            try {
                sent.emplace_back(b, svc_.meta_put_async(batches[b].owner,
                                                         batches[b].nodes));
            } catch (const RpcError& e) {
                // call_async can fail synchronously (connection
                // refused): same per-replica tolerance as an async
                // failure.
                log_debug("meta-dht", std::string("put replica failed: ") +
                                          e.what());
            }
        }
        for (auto& [b, fut] : sent) {
            try {
                fut.get();
                batches[b].acked = true;
            } catch (const RpcError& e) {
                log_debug("meta-dht", std::string("put replica failed: ") +
                                          e.what());
            }
        }
        puts_.add(nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (std::none_of(homes[i].begin(), homes[i].end(),
                             [&](std::size_t b) { return batches[b].acked; })) {
                throw RpcError("no metadata replica stored for " +
                               nodes[i].first.to_string());
            }
        }
    }

    [[nodiscard]] meta::MetaNode get(const meta::MetaKey& key) override {
        const auto owners = ring_.owners(key.hash(), replication_);
        gets_.add();
        std::string last_error = "no owners";
        for (const NodeId owner : owners) {
            try {
                return svc_.meta_get(owner, key);
            } catch (const RpcError& e) {
                last_error = e.what();
            } catch (const NotFoundError& e) {
                last_error = e.what();
            }
        }
        throw NotFoundError("metadata " + key.to_string() + " unavailable (" +
                            last_error + ")");
    }

    [[nodiscard]] std::optional<meta::MetaNode> try_get(
        const meta::MetaKey& key) override {
        const auto owners = ring_.owners(key.hash(), replication_);
        for (const NodeId owner : owners) {
            try {
                auto r = svc_.meta_try_get(owner, key);
                if (r) {
                    return r;
                }
            } catch (const RpcError&) {
                // try next replica
            }
        }
        return std::nullopt;
    }

    void erase(const meta::MetaKey& key) override {
        const auto owners = ring_.owners(key.hash(), replication_);
        for (const NodeId owner : owners) {
            try {
                svc_.meta_erase(owner, key);
            } catch (const RpcError&) {
                // best effort
            }
        }
    }

    [[nodiscard]] std::uint64_t puts() const { return puts_.get(); }
    [[nodiscard]] std::uint64_t gets() const { return gets_.get(); }

  private:
    rpc::ServiceClient& svc_;
    const Ring& ring_;
    const std::uint32_t replication_;

    Counter puts_;
    Counter gets_;
};

}  // namespace blobseer::dht
