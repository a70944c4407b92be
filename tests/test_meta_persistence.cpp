/// \file test_meta_persistence.cpp
/// \brief Tests of the persistent metadata path (§IV-B): node
///        serialization, the log store's recovery semantics, and
///        end-to-end clusters whose metadata — and, with the log engine,
///        whose entire state — survives crashes and full restarts.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "engine/log_engine.hpp"
#include "meta/log_meta_store.hpp"
#include "testing_util.hpp"
#include "version/version_manager.hpp"

namespace blobseer::meta {
namespace {

class TempDir {
  public:
    TempDir() {
        dir_ = std::filesystem::temp_directory_path() /
               ("blobseer-meta-" + std::to_string(counter_++) + "-" +
                std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
    }
    ~TempDir() { std::filesystem::remove_all(dir_); }
    [[nodiscard]] const std::filesystem::path& path() const { return dir_; }

  private:
    static inline int counter_ = 0;
    std::filesystem::path dir_;
};

TEST(NodeSerialization, InnerRoundTrip) {
    const MetaNode inner = MetaNode::inner({7, 42}, {kInvalidBlob, 0});
    const MetaNode back = deserialize_node(serialize_node(inner));
    EXPECT_FALSE(back.is_leaf());
    EXPECT_EQ(back.left.blob, 7u);
    EXPECT_EQ(back.left.version, 42u);
    EXPECT_TRUE(back.right.is_hole());
}

TEST(NodeSerialization, LeafRoundTrip) {
    const MetaNode leaf = MetaNode::leaf({3, 9, 27}, 0xDEADBEEF, 65536);
    const MetaNode back = deserialize_node(serialize_node(leaf));
    EXPECT_TRUE(back.is_leaf());
    EXPECT_EQ(back.chunk_uid, 0xDEADBEEFu);
    EXPECT_EQ(back.chunk_bytes, 65536u);
    EXPECT_EQ(back.replicas, (std::vector<NodeId>{3, 9, 27}));
}

TEST(NodeSerialization, EmptyReplicaLeaf) {
    const MetaNode hole = MetaNode::leaf({}, 0, 0);
    const MetaNode back = deserialize_node(serialize_node(hole));
    EXPECT_TRUE(back.is_leaf());
    EXPECT_TRUE(back.replicas.empty());
}

TEST(NodeSerialization, TruncatedInputRejected) {
    const Buffer raw = serialize_node(MetaNode::leaf({1, 2}, 5, 10));
    EXPECT_THROW(deserialize_node(ConstBytes(raw).first(raw.size() - 3)),
                 ConsistencyError);
    EXPECT_THROW(deserialize_node({}), ConsistencyError);
}

std::string hex(ConstBytes b) {
    std::string out;
    out.reserve(b.size() * 2);
    for (const std::uint8_t c : b) {
        char two[3];
        std::snprintf(two, sizeof two, "%02x", c);
        out += two;
    }
    return out;
}

// LogMetaStore records persist these exact bytes; a layout change must
// come with a format version bump, not slip in through a refactor.
TEST(NodeSerialization, GoldenBytes) {
    EXPECT_EQ(
        hex(serialize_node(MetaNode::inner({7, 42}, {kInvalidBlob, 0}))),
              "00000000"
              "0700000000000000"
              "2a00000000000000"
              "ffffffffffffffff"
              "0000000000000000");
    EXPECT_EQ(
        hex(serialize_node(MetaNode::leaf({3, 9, 27}, 0xDEADBEEF, 65536))),
              "01000000"
              "efbeadde00000000"
              "00000100"
              "03000000"
              "03000000090000001b000000");
    EXPECT_EQ(hex(serialize_node(MetaNode::cas_leaf(
                  {4}, 0x0123456789ABCDEF, 0xFEDCBA9876543210, 4096))),
              "01010000"
              "1032547698badcfe"
              "efcdab8967452301"
              "00100000"
              "01000000"
              "04000000");
    EXPECT_EQ(hex(serialize_node(MetaNode::leaf({}, 0, 0))),
              "01000000"
              "0000000000000000"
              "00000000"
              "00000000");
}

MetaKey key_of(std::uint64_t i) { return MetaKey{9, 3, {i * 2, 2}}; }

// ---- LogMetaStore -----------------------------------------------------------

TEST(LogMetaStore, PersistsAcrossReopen) {
    TempDir dir;
    {
        LogMetaStore store(dir.path());
        store.put(key_of(1), MetaNode::inner({1, 1}, {1, 2}));
        store.put(key_of(2), MetaNode::leaf({5}, 77, 64));
        EXPECT_EQ(store.count(), 2u);
    }
    LogMetaStore reopened(dir.path());
    EXPECT_EQ(reopened.count(), 2u);
    EXPECT_EQ(reopened.get(key_of(1)).left.version, 1u);
    EXPECT_EQ(reopened.get(key_of(2)).chunk_uid, 77u);
}

TEST(LogMetaStore, VolatileLossFallsBackToLog) {
    TempDir dir;
    LogMetaStore store(dir.path());
    store.put(key_of(1), MetaNode::leaf({5}, 123, 64));
    store.lose_volatile();
    EXPECT_EQ(store.get(key_of(1)).chunk_uid, 123u);  // the log serves
}

TEST(LogMetaStore, EraseIsDurable) {
    TempDir dir;
    {
        LogMetaStore store(dir.path());
        store.put(key_of(1), MetaNode::inner({}, {}));
        store.erase(key_of(1));
        EXPECT_FALSE(store.try_get(key_of(1)).has_value());
    }
    LogMetaStore reopened(dir.path());
    EXPECT_EQ(reopened.count(), 0u);
    EXPECT_FALSE(reopened.try_get(key_of(1)).has_value());
}

TEST(LogMetaStore, IdempotentPut) {
    TempDir dir;
    LogMetaStore store(dir.path());
    store.put(key_of(1), MetaNode::leaf({1}, 5, 8));
    store.put(key_of(1), MetaNode::leaf({1}, 5, 8));
    EXPECT_EQ(store.count(), 1u);
    EXPECT_EQ(store.engine().stats().appends, 1u);

    // Idempotent even when only the log knows the node (post-crash put
    // replay must not append a duplicate record).
    store.lose_volatile();
    store.put(key_of(1), MetaNode::leaf({1}, 5, 8));
    EXPECT_EQ(store.engine().stats().appends, 1u);
}

TEST(ClusterLogPersistence, MetadataSurvivesVolatileCrash) {
    TempDir dir;
    auto cfg = blobseer::testing::fast_config();
    cfg.meta_store = core::ClusterConfig::MetaBackend::kLog;
    cfg.disk_root = dir.path();
    cfg.meta_replication = 1;  // no DHT replica to hide behind
    core::Cluster cluster(cfg);
    auto client = cluster.make_client();
    core::Blob blob = client->create(64);
    const Buffer data = make_pattern(blob.id(), 1, 0, 64 * 16);
    blob.write(0, data);

    // Crash every metadata provider, losing all volatile state. With
    // RAM-backed metadata this kills the blob (see
    // Fault.MetadataLossWithoutReplicationBreaksReads); with log-backed
    // metadata reads recover from the engine.
    for (std::size_t i = 0; i < cluster.metadata_provider_count(); ++i) {
        cluster.metadata_provider(i).lose_state();
    }

    auto reader = cluster.make_client();  // cold cache: must hit providers
    Buffer out(data.size());
    EXPECT_EQ(reader->read(blob.id(), 1, 0, out), data.size());
    EXPECT_EQ(out, data);
}

/// The whole-deployment restart path: chunk data, metadata trees and the
/// version manager's journal all live in log engines under one disk
/// root; tearing the cluster down and rebuilding it on the same root
/// must serve every published version byte-identically.
TEST(ClusterLogPersistence, FullRestartRoundTrip) {
    TempDir dir;
    auto cfg = blobseer::testing::fast_config();
    cfg.store = core::StoreBackend::kLog;
    cfg.meta_store = core::ClusterConfig::MetaBackend::kLog;
    cfg.durable_version_manager = true;
    cfg.disk_root = dir.path();
    cfg.default_replication = 2;

    const std::uint64_t chunk = 64;
    const std::size_t v1_size = chunk * 16;
    const std::size_t append_size = chunk * 4;
    BlobId blob_id = kInvalidBlob;
    {
        core::Cluster cluster(cfg);
        auto client = cluster.make_client();
        core::Blob blob = client->create(chunk);
        blob_id = blob.id();
        blob.write(0, make_pattern(blob_id, 1, 0, v1_size));
        blob.append(make_pattern(blob_id, 2, 0, append_size));
    }  // daemon restart: everything volatile is gone

    core::Cluster restarted(cfg);
    auto client = restarted.make_client();

    const auto latest = client->stat(blob_id, kLatestVersion);
    EXPECT_EQ(latest.version, 2u);
    EXPECT_EQ(latest.size, v1_size + append_size);

    Buffer v1(v1_size);
    EXPECT_EQ(client->read(blob_id, 1, 0, v1), v1_size);
    EXPECT_TRUE(blobseer::testing::matches(blob_id, 1, 0, v1));

    Buffer tail(append_size);
    EXPECT_EQ(client->read(blob_id, 2, v1_size, tail), append_size);
    EXPECT_TRUE(blobseer::testing::matches(blob_id, 2, 0, tail));

    // And the restarted deployment keeps writing correctly: the
    // post-restart client re-mints the same client id and counter as
    // the pre-restart one, so without the per-boot uid epoch its first
    // chunks would collide with v1's and the idempotent put would
    // silently keep the OLD bytes. Reading v3 back catches that.
    core::Blob blob = client->open(blob_id);
    const Version v3 = blob.append(make_pattern(blob_id, 3, 0, chunk));
    EXPECT_EQ(v3, 3u);
    Buffer v3_tail(chunk);
    EXPECT_EQ(client->read(blob_id, 3, v1_size + append_size, v3_tail),
              chunk);
    EXPECT_TRUE(blobseer::testing::matches(blob_id, 3, 0, v3_tail));

    // Overwriting v1's range after restart must also store fresh bytes.
    const Version v4 = blob.write(0, make_pattern(blob_id, 4, 0, v1_size));
    EXPECT_EQ(v4, 4u);
    Buffer v4_head(v1_size);
    EXPECT_EQ(client->read(blob_id, 4, 0, v4_head), v1_size);
    EXPECT_TRUE(blobseer::testing::matches(blob_id, 4, 0, v4_head));
    // The old snapshot still reads its own bytes (no uid collision
    // overwrote them).
    Buffer v1_again(v1_size);
    EXPECT_EQ(client->read(blob_id, 1, 0, v1_again), v1_size);
    EXPECT_TRUE(blobseer::testing::matches(blob_id, 1, 0, v1_again));
}

/// kOpClone replay: a same-shard clone journaled by one session must be
/// rebuilt by the next — the origin alias, version-0 size, and the pin
/// that protects the origin snapshot from retirement.
TEST(VmJournal, CloneReplaysAcrossRestart) {
    TempDir dir;
    engine::EngineConfig jc;
    jc.dir = dir.path() / "vm-0";
    jc.background_compaction = false;
    jc.checkpoint_interval_records = 0;

    BlobId src = kInvalidBlob;
    BlobId clone = kInvalidBlob;
    {
        version::VersionManager vm;
        vm.attach_journal(std::make_shared<engine::LogEngine>(jc));
        const auto b = vm.create_blob(8, 2);
        src = b.id;
        const auto a = vm.assign(src, 0, 24);
        vm.commit(src, a.version);
        clone = vm.clone_blob(src, 1).id;
    }  // restart: in-memory state gone, journal remains

    version::VersionManager vm;
    vm.attach_journal(std::make_shared<engine::LogEngine>(jc));
    EXPECT_EQ(vm.blob_count(), 2u);

    const auto v0 = vm.get_version(clone, 0);
    EXPECT_EQ(v0.size, 24u);
    EXPECT_EQ(v0.tree.blob, src);
    EXPECT_EQ(v0.tree.version, 1u);
    EXPECT_EQ(vm.pinned(src), (std::vector<Version>{1}));

    // The rebuilt state keeps functioning: an append to the clone bases
    // on the restored alias.
    const auto ca = vm.assign(clone, std::nullopt, 8);
    EXPECT_EQ(ca.offset, 24u);
    EXPECT_EQ(ca.base.blob, src);
}

/// kOpCloneFrom replay: with a sharded version-manager deployment every
/// client clone goes through the resolve + pin + clone_from protocol; a
/// full cluster restart must replay both shards' journals and restore
/// the clone's cross-shard origin alias end to end (byte-identical
/// readback through the origin's tree).
TEST(VmJournal, ShardedClusterRestartReplaysClientClone) {
    TempDir dir;
    auto cfg = blobseer::testing::fast_config();
    cfg.store = core::StoreBackend::kLog;
    cfg.meta_store = core::ClusterConfig::MetaBackend::kLog;
    cfg.durable_version_manager = true;
    cfg.disk_root = dir.path();
    cfg.num_version_managers = 2;

    const std::uint64_t chunk = 64;
    const std::size_t size = chunk * 8;
    BlobId src = kInvalidBlob;
    BlobId clone = kInvalidBlob;
    {
        core::Cluster cluster(cfg);
        auto client = cluster.make_client();
        core::Blob blob = client->create(chunk);
        src = blob.id();
        blob.write(0, make_pattern(src, 1, 0, size));
        clone = client->clone(src).id();
    }

    core::Cluster restarted(cfg);
    auto client = restarted.make_client();

    // The clone's version 0 reads the origin's bytes through the
    // replayed alias.
    Buffer out(size);
    EXPECT_EQ(client->read(clone, 0, 0, out), size);
    EXPECT_TRUE(blobseer::testing::matches(src, 1, 0, out));

    // Writing to the restored clone diverges it without touching the
    // origin.
    core::Blob ch = client->open(clone);
    EXPECT_EQ(ch.write(0, make_pattern(clone, 2, 0, chunk)), 1u);
    Buffer head(chunk);
    EXPECT_EQ(client->read(clone, 1, 0, head), chunk);
    EXPECT_TRUE(blobseer::testing::matches(clone, 2, 0, head));
    Buffer src_head(chunk);
    EXPECT_EQ(client->read(src, 1, 0, src_head), chunk);
    EXPECT_TRUE(blobseer::testing::matches(src, 1, 0, src_head));

    // The origin snapshot came back pinned on its shard, so retiring
    // the source blob can never pull the tree out from under the clone.
    auto& src_vm =
        restarted.version_manager(blob_shard(src));
    EXPECT_EQ(src_vm.pinned(src), (std::vector<Version>{1}));
}

}  // namespace
}  // namespace blobseer::meta
