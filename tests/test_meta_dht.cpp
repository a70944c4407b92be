/// \file test_meta_dht.cpp
/// \brief Focused tests of the replicated metadata DHT client: owner
///        selection, replica failover on reads, degraded puts, erase
///        semantics, traffic accounting, and the batched tree store
///        (put_all: one meta-put per owner) on a whole cluster.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "core/client.hpp"
#include "core/cluster.hpp"
#include "dht/meta_dht.hpp"
#include "dht/metadata_provider.hpp"
#include "meta/meta_cache.hpp"
#include "net/sim_network.hpp"
#include "rpc/dispatcher.hpp"
#include "rpc/protocol.hpp"
#include "rpc/sim_transport.hpp"
#include "testing_util.hpp"

namespace blobseer::dht {
namespace {

meta::MetaKey key_of(std::uint64_t i) {
    return meta::MetaKey{4, 2, {i, 1}};
}

class MetaDhtFixture : public ::testing::Test {
  protected:
    static constexpr std::size_t kProviders = 3;

    MetaDhtFixture() : net_({.latency = {}, .node_bandwidth_bps = 0}) {
        client_node_ = net_.add_node("client");
        for (std::size_t i = 0; i < kProviders; ++i) {
            const NodeId node = net_.add_node("mp-" + std::to_string(i));
            providers_.push_back(
                std::make_unique<MetadataProvider>(node, 0));
            by_node_[node] = providers_.back().get();
            dispatcher_.add_metadata_provider(node,
                                              providers_.back().get());
            ring_.add_node(node);
        }
        transport_ = std::make_unique<rpc::SimTransport>(net_, client_node_,
                                                         dispatcher_);
        svc_ = std::make_unique<rpc::ServiceClient>(
            *transport_, std::vector<NodeId>{kInvalidNode}, kInvalidNode);
    }

    [[nodiscard]] MetaDht make_client(std::uint32_t replication) {
        return MetaDht(*svc_, ring_, replication);
    }

    [[nodiscard]] std::size_t total_stored() const {
        std::size_t n = 0;
        for (const auto& p : providers_) {
            n += p->stored_nodes();
        }
        return n;
    }

    net::SimNetwork net_;
    NodeId client_node_ = kInvalidNode;
    std::vector<std::unique_ptr<MetadataProvider>> providers_;
    std::unordered_map<NodeId, MetadataProvider*> by_node_;
    Ring ring_;
    rpc::Dispatcher dispatcher_;
    std::unique_ptr<rpc::SimTransport> transport_;
    std::unique_ptr<rpc::ServiceClient> svc_;
};

TEST_F(MetaDhtFixture, PutStoresReplicationCopies) {
    auto dht = make_client(2);
    dht.put(key_of(1), meta::MetaNode::inner({1, 1}, {1, 1}));
    EXPECT_EQ(total_stored(), 2u);
    auto single = make_client(1);
    single.put(key_of(2), meta::MetaNode::inner({1, 1}, {1, 1}));
    EXPECT_EQ(total_stored(), 3u);
}

TEST_F(MetaDhtFixture, ReplicationClampedToRingSize) {
    auto dht = make_client(10);
    dht.put(key_of(1), meta::MetaNode::inner({}, {}));
    EXPECT_EQ(total_stored(), kProviders);
}

TEST_F(MetaDhtFixture, GetFailsOverToSurvivingReplica) {
    auto dht = make_client(2);
    dht.put(key_of(1), meta::MetaNode::leaf({9}, 55, 64));
    // Kill the primary owner.
    const NodeId primary = ring_.owners(key_of(1).hash(), 1).front();
    net_.kill(primary);
    const auto node = dht.get(key_of(1));
    EXPECT_EQ(node.chunk_uid, 55u);
    EXPECT_TRUE(dht.try_get(key_of(1)).has_value());
}

TEST_F(MetaDhtFixture, GetThrowsWhenAllReplicasDead) {
    auto dht = make_client(2);
    dht.put(key_of(1), meta::MetaNode::inner({}, {}));
    const auto owners = ring_.owners(key_of(1).hash(), 2);
    for (const NodeId o : owners) {
        net_.kill(o);
    }
    EXPECT_THROW((void)dht.get(key_of(1)), NotFoundError);
    EXPECT_FALSE(dht.try_get(key_of(1)).has_value());
}

TEST_F(MetaDhtFixture, MissingKeyIsNotFound) {
    auto dht = make_client(2);
    EXPECT_THROW((void)dht.get(key_of(42)), NotFoundError);
    EXPECT_FALSE(dht.try_get(key_of(42)).has_value());
}

TEST_F(MetaDhtFixture, PutToleratesOneDeadReplica) {
    auto dht = make_client(2);
    const auto owners = ring_.owners(key_of(1).hash(), 2);
    net_.kill(owners[1]);
    EXPECT_NO_THROW(dht.put(key_of(1), meta::MetaNode::inner({}, {})));
    EXPECT_EQ(total_stored(), 1u);
    // Reads still work through the copy that landed.
    EXPECT_NO_THROW(dht.get(key_of(1)));
}

TEST_F(MetaDhtFixture, PutFailsWhenNoReplicaLands) {
    auto dht = make_client(2);
    const auto owners = ring_.owners(key_of(1).hash(), 2);
    for (const NodeId o : owners) {
        net_.kill(o);
    }
    EXPECT_THROW(dht.put(key_of(1), meta::MetaNode::inner({}, {})),
                 RpcError);
}

TEST_F(MetaDhtFixture, EraseRemovesAllReplicas) {
    auto dht = make_client(3);
    dht.put(key_of(1), meta::MetaNode::inner({}, {}));
    EXPECT_EQ(total_stored(), 3u);
    dht.erase(key_of(1));
    EXPECT_EQ(total_stored(), 0u);
    EXPECT_FALSE(dht.try_get(key_of(1)).has_value());
}

TEST_F(MetaDhtFixture, KeysSpreadAcrossProviders) {
    auto dht = make_client(1);
    for (std::uint64_t i = 0; i < 300; ++i) {
        dht.put(key_of(i), meta::MetaNode::inner({}, {}));
    }
    for (const auto& p : providers_) {
        EXPECT_GT(p->stored_nodes(), 40u)
            << "provider " << p->node() << " starved";
    }
}

TEST_F(MetaDhtFixture, TrafficAccounting) {
    auto dht = make_client(2);
    dht.put(key_of(1), meta::MetaNode::inner({}, {}));
    (void)dht.get(key_of(1));
    EXPECT_EQ(dht.puts(), 1u);
    EXPECT_EQ(dht.gets(), 1u);
    // Two request legs for the put replicas + one for the get.
    EXPECT_GE(net_.node(client_node_).msgs_out.get(), 3u);
}

TEST_F(MetaDhtFixture, IdempotentReplicatedPut) {
    auto dht = make_client(2);
    dht.put(key_of(1), meta::MetaNode::leaf({1}, 7, 8));
    dht.put(key_of(1), meta::MetaNode::leaf({1}, 7, 8));
    EXPECT_EQ(total_stored(), 2u);
}

TEST_F(MetaDhtFixture, PutAllStoresEveryNodeOnItsOwners) {
    auto dht = make_client(2);
    std::vector<meta::KeyedNode> batch;
    for (std::uint64_t i = 0; i < 50; ++i) {
        batch.emplace_back(key_of(i), meta::MetaNode::leaf({1}, i, 8));
    }
    dht.put_all(batch);
    EXPECT_EQ(total_stored(), 2 * batch.size());
    for (const auto& [key, node] : batch) {
        for (const NodeId owner : ring_.owners(key.hash(), 2)) {
            EXPECT_TRUE(by_node_.at(owner)->try_get(key).has_value())
                << key.to_string();
        }
    }
    EXPECT_EQ(dht.puts(), batch.size());
}

// ---- the batched tree store on a whole cluster ------------------------------

/// Dispatches inline into a cluster's Dispatcher and records the
/// destination of every request of one type.
class CountingTransport final : public rpc::Transport {
  public:
    CountingTransport(rpc::Dispatcher& d, rpc::MsgType counted)
        : dispatcher_(d), counted_(counted) {}

    Future<Buffer> call_async(NodeId dst, ConstBytes frame) override {
        if (rpc::parse_frame(frame).type == counted_) {
            const std::scoped_lock lock(mu_);
            ++sent_[dst];
        }
        Promise<Buffer> p;
        Future<Buffer> f = p.future();
        p.set_value(dispatcher_.dispatch(frame));
        return f;
    }

    /// Requests of the counted type per destination since the last call.
    std::map<NodeId, std::size_t> take() {
        const std::scoped_lock lock(mu_);
        return std::exchange(sent_, {});
    }

  private:
    rpc::Dispatcher& dispatcher_;
    const rpc::MsgType counted_;
    std::mutex mu_;  // guards sent_ (clients call from several threads)
    std::map<NodeId, std::size_t> sent_;
};

class BatchedTreeStore : public ::testing::Test {
  protected:
    static constexpr std::uint64_t kChunk = 64;
    static constexpr std::size_t kChunks = 16;
    static constexpr std::uint32_t kReplication = 2;

    static core::ClusterConfig config() {
        core::ClusterConfig cfg = blobseer::testing::fast_config();
        cfg.metadata_providers = 4;
        cfg.meta_replication = kReplication;
        return cfg;
    }

    BatchedTreeStore() : cluster_(config()) {}

    /// Index of the metadata provider serving \p node.
    [[nodiscard]] std::size_t provider_index(NodeId node) {
        for (std::size_t i = 0; i < cluster_.metadata_provider_count(); ++i) {
            if (cluster_.metadata_provider(i).node() == node) {
                return i;
            }
        }
        ADD_FAILURE() << "no metadata provider on node " << node;
        return 0;
    }

    core::Cluster cluster_;
};

TEST_F(BatchedTreeStore, WriteCommitsWithOneMetadataProviderDead) {
    auto writer = cluster_.make_client();
    core::Blob blob = writer->create(kChunk);
    blob.write(0, make_pattern(blob.id(), 1, 0, kChunk * kChunks));
    cluster_.kill_metadata_provider(1);

    const Buffer data = make_pattern(blob.id(), 2, 0, kChunk * kChunks);
    const Version v = blob.write(0, data);
    EXPECT_EQ(cluster_.version_manager().get_version(blob.id(), v).status,
              version::VersionStatus::kPublished);

    auto reader = cluster_.make_client();  // cold cache: reads the DHT
    Buffer out(data.size());
    EXPECT_EQ(reader->read(blob.id(), v, 0, out), data.size());
    EXPECT_EQ(out, data);
}

TEST_F(BatchedTreeStore, WriteFailsWhenEveryOwnerOfSomeNodeIsDead) {
    auto writer = cluster_.make_client();
    core::Blob blob = writer->create(kChunk);
    blob.write(0, make_pattern(blob.id(), 1, 0, kChunk * kChunks));

    // The next write is version 2 and creates the root over all 16
    // slots; kill both of its owners.
    const meta::MetaKey root{blob.id(), 2, {0, kChunks}};
    for (const NodeId owner :
         cluster_.meta_ring().owners(root.hash(), kReplication)) {
        cluster_.kill_metadata_provider(provider_index(owner));
    }
    EXPECT_THROW(
        blob.write(0, make_pattern(blob.id(), 2, 0, kChunk * kChunks)),
        RpcError);
    const auto status =
        cluster_.version_manager().get_version(blob.id(), 2).status;
    EXPECT_NE(status, version::VersionStatus::kCommitted);
    EXPECT_NE(status, version::VersionStatus::kPublished);
}

TEST_F(BatchedTreeStore, PutAllFillsTheClientCache) {
    const NodeId self = cluster_.network().add_node("cache-test");
    rpc::SimTransport transport(cluster_.network(), self,
                                cluster_.dispatcher());
    rpc::ServiceClient svc(transport, cluster_.version_manager_nodes(),
                           cluster_.provider_manager_node(), self);
    MetaDht dht(svc, cluster_.meta_ring(), kReplication);
    meta::MetaCache cache(dht, 1024);

    std::vector<meta::KeyedNode> batch;
    for (std::uint64_t i = 0; i < 31; ++i) {
        batch.emplace_back(meta::MetaKey{5, 1, {i, 1}},
                           meta::MetaNode::leaf({2}, i, 64));
    }
    cache.put_all(batch);
    // With every provider gone, only the cache can answer.
    for (std::size_t i = 0; i < cluster_.metadata_provider_count(); ++i) {
        cluster_.kill_metadata_provider(i);
    }
    for (const auto& [key, node] : batch) {
        EXPECT_EQ(cache.get(key).chunk_uid, node.chunk_uid);
    }
    EXPECT_EQ(cache.hits(), batch.size());
    EXPECT_EQ(cache.misses(), 0u);
}

TEST_F(BatchedTreeStore, WriteSendsAtMostOneMetaPutPerOwner) {
    auto transport = std::make_shared<CountingTransport>(
        cluster_.dispatcher(), rpc::MsgType::kMetaPut);
    const rpc::Topology topo = rpc::fetch_topology(*transport);
    core::ClientEnv env;
    env.transport = transport;
    env.self = topo.client_id;
    env.vm_nodes = topo.vm_nodes;
    env.pm_node = topo.pm_node;
    env.data_nodes = topo.data_nodes;
    env.meta_ring = cluster_.meta_ring();
    env.meta_replication = topo.meta_replication;
    core::BlobSeerClient client(std::move(env));

    core::Blob blob = client.create(kChunk);
    (void)transport->take();
    const Buffer data = make_pattern(blob.id(), 1, 0, kChunk * kChunks);
    blob.write(0, data);
    const auto sent = transport->take();

    // 31 nodes (16 leaves + 15 inner), two copies each, over 4 owners.
    std::size_t total = 0;
    for (const auto& [owner, n] : sent) {
        EXPECT_EQ(n, 1u) << "owner " << owner;
        total += n;
    }
    EXPECT_GE(total, 1u);
    EXPECT_LE(total, cluster_.metadata_provider_count() * kReplication);

    Buffer out(data.size());
    EXPECT_EQ(client.read(blob.id(), 1, 0, out), data.size());
    EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace blobseer::dht
