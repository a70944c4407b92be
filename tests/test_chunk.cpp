/// \file test_chunk.cpp
/// \brief Tests of the chunk storage backends: RAM, the log-structured
///        store (with restart recovery) and the tiered RAM / compressed
///        file caches over a backend.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "cache/compressed_file_cache.hpp"
#include "chunk/log_store.hpp"
#include "chunk/ram_store.hpp"
#include "chunk/tiered_store.hpp"
#include "common/buffer.hpp"

namespace blobseer::chunk {
namespace {

ChunkData payload(BlobId blob, std::uint64_t uid, std::size_t size) {
    return std::make_shared<Buffer>(make_pattern(blob, uid, 0, size));
}

class TempDir {
  public:
    TempDir() {
        dir_ = std::filesystem::temp_directory_path() /
               ("blobseer-test-" + std::to_string(counter_++) + "-" +
                std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
    }
    ~TempDir() { std::filesystem::remove_all(dir_); }
    [[nodiscard]] const std::filesystem::path& path() const { return dir_; }

  private:
    static inline int counter_ = 0;
    std::filesystem::path dir_;
};

// ---- RamStore -------------------------------------------------------------

TEST(RamStore, PutGetRoundTrip) {
    RamStore store;
    const ChunkKey key{1, 100};
    store.put(key, payload(1, 100, 64));
    const auto got = store.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(verify_pattern(1, 100, 0, **got), -1);
    EXPECT_TRUE(store.contains(key));
    EXPECT_EQ(store.count(), 1u);
    EXPECT_EQ(store.bytes(), 64u);
}

TEST(RamStore, MissingKeyIsEmpty) {
    RamStore store;
    EXPECT_FALSE(store.get({1, 2}).has_value());
    EXPECT_FALSE(store.contains({1, 2}));
}

TEST(RamStore, PutIsIdempotent) {
    RamStore store;
    const ChunkKey key{1, 5};
    store.put(key, payload(1, 5, 32));
    store.put(key, payload(1, 5, 32));
    EXPECT_EQ(store.count(), 1u);
    EXPECT_EQ(store.bytes(), 32u);
}

TEST(RamStore, EraseReclaims) {
    RamStore store;
    store.put({1, 1}, payload(1, 1, 16));
    store.put({1, 2}, payload(1, 2, 16));
    store.erase({1, 1});
    EXPECT_EQ(store.count(), 1u);
    EXPECT_EQ(store.bytes(), 16u);
    EXPECT_FALSE(store.contains({1, 1}));
    store.erase({1, 99});  // erasing absent key is a no-op
    EXPECT_EQ(store.count(), 1u);
}

TEST(RamStore, ClearLosesEverything) {
    RamStore store;
    for (std::uint64_t i = 0; i < 10; ++i) {
        store.put({1, i}, payload(1, i, 8));
    }
    store.clear();
    EXPECT_EQ(store.count(), 0u);
    EXPECT_EQ(store.bytes(), 0u);
}

TEST(RamStore, ConcurrentPutsAndGets) {
    RamStore store;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&store, t] {
            for (std::uint64_t i = 0; i < 200; ++i) {
                const ChunkKey key{static_cast<BlobId>(t), i};
                store.put(key, payload(t, i, 32));
                const auto got = store.get(key);
                ASSERT_TRUE(got.has_value());
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(store.count(), 800u);
}

// ---- LogStore ---------------------------------------------------------------

TEST(LogStore, PutGetRoundTrip) {
    TempDir dir;
    LogStore store(dir.path());
    store.put({1, 100}, payload(1, 100, 64));
    const auto got = store.get({1, 100});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(verify_pattern(1, 100, 0, **got), -1);
    EXPECT_TRUE(store.contains({1, 100}));
    EXPECT_EQ(store.count(), 1u);
    EXPECT_EQ(store.bytes(), 64u);
}

TEST(LogStore, PersistsAcrossReopen) {
    TempDir dir;
    {
        LogStore store(dir.path());
        store.put({7, 42}, payload(7, 42, 100));
        store.put({7, 43}, payload(7, 43, 50));
        store.erase({7, 43});
    }
    LogStore reopened(dir.path());
    EXPECT_EQ(reopened.count(), 1u);
    EXPECT_EQ(reopened.bytes(), 100u);
    const auto got = reopened.get({7, 42});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(verify_pattern(7, 42, 0, **got), -1);
    EXPECT_FALSE(reopened.contains({7, 43}));
}

TEST(LogStore, EraseIsDurable) {
    TempDir dir;
    {
        LogStore store(dir.path());
        store.put({1, 1}, payload(1, 1, 10));
        store.erase({1, 1});
        EXPECT_EQ(store.count(), 0u);
    }
    LogStore reopened(dir.path());
    EXPECT_EQ(reopened.count(), 0u);
    EXPECT_FALSE(reopened.get({1, 1}).has_value());
}

TEST(LogStore, PutIsIdempotent) {
    TempDir dir;
    LogStore store(dir.path());
    store.put({1, 5}, payload(1, 5, 32));
    store.put({1, 5}, payload(1, 5, 32));
    EXPECT_EQ(store.count(), 1u);
    EXPECT_EQ(store.bytes(), 32u);
    EXPECT_EQ(store.engine().stats().appends, 1u);  // second put skipped
}

TEST(LogStore, MissingKeyAndEmptyChunk) {
    TempDir dir;
    LogStore store(dir.path());
    EXPECT_FALSE(store.get({9, 9}).has_value());
    store.put({1, 1}, std::make_shared<Buffer>());
    const auto got = store.get({1, 1});
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE((*got)->empty());
}

TEST(LogStore, ConcurrentPutsAndGets) {
    TempDir dir;
    LogStore store(dir.path());
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&store, t] {
            for (std::uint64_t i = 0; i < 100; ++i) {
                const ChunkKey key{static_cast<BlobId>(t), i};
                store.put(key, payload(t, i, 48));
                const auto got = store.get(key);
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(verify_pattern(t, i, 0, **got), -1);
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(store.count(), 400u);
}

// ---- TieredStore (two-tier: RAM over a durable backend) --------------------

TEST(TieredStore, WriteThroughAndCacheHit) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path()), 1 << 20);
    store.put({1, 1}, payload(1, 1, 100));
    EXPECT_EQ(store.ram_bytes(), 100u);
    (void)store.get({1, 1});
    EXPECT_EQ(store.cache_hits(), 1u);
    EXPECT_EQ(store.cache_misses(), 0u);
}

TEST(TieredStore, FallsBackToDiskAfterCacheDrop) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path()), 1 << 20);
    store.put({1, 1}, payload(1, 1, 100));
    store.drop_cache();
    EXPECT_EQ(store.ram_bytes(), 0u);
    const auto got = store.get({1, 1});  // the durable tier serves
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(verify_pattern(1, 1, 0, **got), -1);
    EXPECT_EQ(store.cache_misses(), 1u);
    EXPECT_EQ(store.count(), 1u);
    // Re-populated on the miss path:
    EXPECT_EQ(store.ram_bytes(), 100u);
}

TEST(TieredStore, EvictsLruWithinBudget) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path()), 256);
    for (std::uint64_t i = 0; i < 8; ++i) {
        store.put({1, i}, payload(1, i, 64));
    }
    EXPECT_LE(store.ram_bytes(), 256u);
    // Everything still durable:
    EXPECT_EQ(store.count(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_TRUE(store.get({1, i}).has_value());
    }
}

TEST(TieredStore, LruKeepsHotEntry) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path()), 192);
    store.put({1, 0}, payload(1, 0, 64));
    store.put({1, 1}, payload(1, 1, 64));
    store.put({1, 2}, payload(1, 2, 64));
    // Touch key 0 so key 1 is the LRU victim of the next insert.
    (void)store.get({1, 0});
    store.put({1, 3}, payload(1, 3, 64));
    const auto misses_before = store.cache_misses();
    (void)store.get({1, 0});
    EXPECT_EQ(store.cache_misses(), misses_before);  // still cached
    (void)store.get({1, 1});
    EXPECT_EQ(store.cache_misses(), misses_before + 1);  // was evicted
}

TEST(TieredStore, EraseDropsBothTiers) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path()), 1 << 20);
    store.put({1, 1}, payload(1, 1, 50));
    store.erase({1, 1});
    EXPECT_FALSE(store.get({1, 1}).has_value());
    EXPECT_EQ(store.ram_bytes(), 0u);
    EXPECT_EQ(store.count(), 0u);
}

TEST(TieredStore, EvictionCounterAndByteBudget) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path()), 256);
    for (std::uint64_t i = 0; i < 8; ++i) {
        store.put({1, i}, payload(1, i, 64));
    }
    // 8 x 64 B through a 256 B budget: at least 4 evictions happened and
    // the budget held at every step.
    EXPECT_GE(store.cache_evictions(), 4u);
    EXPECT_LE(store.ram_bytes(), 256u);
    EXPECT_EQ(store.count(), 8u);  // backend keeps everything
}

TEST(TieredStore, RepopulatesFromBackendAfterEviction) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path()), 128);
    store.put({1, 0}, payload(1, 0, 64));
    store.put({1, 1}, payload(1, 1, 64));
    store.put({1, 2}, payload(1, 2, 64));  // evicts {1,0}
    const auto misses_before = store.cache_misses();
    const auto got = store.get({1, 0});  // miss -> backend -> repopulate
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(verify_pattern(1, 0, 0, **got), -1);
    EXPECT_EQ(store.cache_misses(), misses_before + 1);
    const auto hits_before = store.cache_hits();
    (void)store.get({1, 0});  // now cached again
    EXPECT_EQ(store.cache_hits(), hits_before + 1);
}

TEST(TieredStore, StatsConsistentUnderConcurrentGetPut) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path()), 4096);
    constexpr int kThreads = 4;
    constexpr std::uint64_t kOps = 200;
    std::atomic<std::uint64_t> gets{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < kOps; ++i) {
                const ChunkKey key{static_cast<BlobId>(t % 2), i % 32};
                store.put(key, payload(t % 2, i % 32, 64));
                const auto got = store.get(key);
                gets.fetch_add(1);
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(verify_pattern(t % 2, i % 32, 0, **got), -1);
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    // Every get was either a hit or a miss — no lost counts under
    // concurrency — and the budget survived the storm.
    EXPECT_EQ(store.cache_hits() + store.cache_misses(), gets.load());
    EXPECT_LE(store.ram_bytes(), 4096u);
    EXPECT_EQ(store.count(), 64u);
}

// Regression: cache_insert used to early-return when the key was already
// resident, so a re-put neither replaced the cached data nor refreshed
// the entry's recency — the RAM tier kept serving the old buffer and
// ram_bytes went stale when sizes differed.
TEST(TieredStore, RePutRefreshesCachedDataAndBytes) {
    TieredStore store(std::make_unique<RamStore>(), 1 << 20);
    store.put({1, 1}, payload(1, 1, 100));
    EXPECT_EQ(store.ram_bytes(), 100u);

    const auto fresh = payload(1, 1, 300);
    store.put({1, 1}, fresh);
    EXPECT_EQ(store.ram_bytes(), 300u);
    const auto got = store.get({1, 1});
    ASSERT_TRUE(got.has_value());
    // The RAM tier serves the newly-put buffer, not the first one.
    EXPECT_EQ(got->get(), fresh.get());
}

TEST(TieredStore, RePutRefreshesLruRecency) {
    // Budget fits exactly two 100-byte entries.
    TieredStore store(std::make_unique<RamStore>(), 200);
    store.put({1, 1}, payload(1, 1, 100));
    store.put({1, 2}, payload(1, 2, 100));
    // Re-put of {1,1} must make it most-recent, so inserting a third
    // entry evicts {1,2}. The pre-fix code left {1,1} coldest.
    store.put({1, 1}, payload(1, 1, 100));
    store.put({1, 3}, payload(1, 3, 100));
    (void)store.get({1, 1});
    EXPECT_EQ(store.cache_hits(), 1u);
    (void)store.get({1, 2});
    EXPECT_EQ(store.cache_misses(), 1u);
}

// ---- TieredStore with the compressed file-cache middle tier ---------------

[[nodiscard]] std::unique_ptr<cache::CompressedFileCache> file_cache(
    const TempDir& dir, std::uint64_t budget) {
    cache::FileCacheConfig cfg;
    cfg.dir = dir.path() / "file-cache";
    cfg.budget_bytes = budget;
    cfg.file_target_bytes = 64 << 10;
    return std::make_unique<cache::CompressedFileCache>(cfg);
}

TEST(ThreeTierStore, DemotesRamEvictionsAndPromotesOnHit) {
    TempDir dir;
    // RAM holds one 4 KiB chunk; everything else demotes to the file
    // cache on eviction.
    TieredStore store(std::make_unique<LogStore>(dir.path() / "log"),
                      4 << 10, file_cache(dir, 16 << 20));
    for (std::uint64_t uid = 0; uid < 8; ++uid) {
        store.put({7, uid}, payload(7, uid, 4 << 10));
    }
    EXPECT_GE(store.demotions(), 7u);
    ASSERT_TRUE(store.file_cache() != nullptr);
    EXPECT_GE(store.file_cache()->entries(), 7u);

    // Reading a demoted chunk: RAM miss, file-cache hit, promoted back.
    const auto got = store.get({7, 0});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(verify_pattern(7, 0, 0, **got), -1);
    EXPECT_GE(store.promotions(), 1u);
    // The miss/hit invariant counts the RAM tier only.
    EXPECT_EQ(store.cache_misses(), 1u);
}

TEST(ThreeTierStore, ServesWorkingSetLargerThanRamFromFileCache) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path() / "log"),
                      8 << 10, file_cache(dir, 16 << 20));
    constexpr std::uint64_t kChunks = 32;  // 16x the RAM budget
    for (std::uint64_t uid = 0; uid < kChunks; ++uid) {
        store.put({9, uid}, payload(9, uid, 4 << 10));
    }
    const auto engine_reads_before = store.promotions();
    for (std::uint64_t uid = 0; uid < kChunks; ++uid) {
        const auto got = store.get({9, uid});
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(verify_pattern(9, static_cast<std::uint64_t>(uid), 0,
                                 **got),
                  -1);
    }
    // The sweep was served by the middle tier, not the engine: nearly
    // every read promoted from the file cache.
    EXPECT_GE(store.promotions() - engine_reads_before, kChunks - 4);
}

TEST(ThreeTierStore, CorruptFileCacheFallsThroughToBackend) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path() / "log"),
                      4 << 10, file_cache(dir, 16 << 20));
    for (std::uint64_t uid = 0; uid < 8; ++uid) {
        store.put({3, uid}, payload(3, uid, 4 << 10));
    }
    // Flip a byte mid-file in every cache file.
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             dir.path() / "file-cache")) {
        if (!entry.is_regular_file()) {
            continue;
        }
        std::fstream f(entry.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(64);
        f.put(static_cast<char>(0xA5));
    }
    // Every chunk still reads back correct — CRC-rejected cache entries
    // fall through to the durable engine.
    for (std::uint64_t uid = 0; uid < 8; ++uid) {
        const auto got = store.get({3, uid});
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(verify_pattern(3, uid, 0, **got), -1);
    }
}

TEST(ThreeTierStore, DeletingCacheDirLosesNoData) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path() / "log"),
                      4 << 10, file_cache(dir, 16 << 20));
    for (std::uint64_t uid = 0; uid < 8; ++uid) {
        store.put({4, uid}, payload(4, uid, 4 << 10));
    }
    std::filesystem::remove_all(dir.path() / "file-cache");
    for (std::uint64_t uid = 0; uid < 8; ++uid) {
        const auto got = store.get({4, uid});
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(verify_pattern(4, uid, 0, **got), -1);
    }
    EXPECT_EQ(store.count(), 8u);
}

TEST(ThreeTierStore, EraseAndDecrefDropAllTiers) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path() / "log"),
                      4 << 10, file_cache(dir, 16 << 20));
    for (std::uint64_t uid = 0; uid < 4; ++uid) {
        store.put({6, uid}, payload(6, uid, 4 << 10));
    }
    store.erase({6, 0});
    EXPECT_FALSE(store.get({6, 0}).has_value());

    // decref to zero reclaims the chunk everywhere, including any
    // demoted file-cache copy.
    EXPECT_EQ(store.decref({6, 1}), 0u);
    EXPECT_FALSE(store.get({6, 1}).has_value());
    EXPECT_EQ(store.count(), 2u);
}

TEST(ThreeTierStore, DropCacheClearsRamAndFileTiers) {
    TempDir dir;
    TieredStore store(std::make_unique<LogStore>(dir.path() / "log"),
                      4 << 10, file_cache(dir, 16 << 20));
    for (std::uint64_t uid = 0; uid < 8; ++uid) {
        store.put({8, uid}, payload(8, uid, 4 << 10));
    }
    store.drop_cache();
    EXPECT_EQ(store.ram_bytes(), 0u);
    EXPECT_EQ(store.file_cache()->entries(), 0u);
    // Durable tier still serves everything.
    for (std::uint64_t uid = 0; uid < 8; ++uid) {
        const auto got = store.get({8, uid});
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(verify_pattern(8, uid, 0, **got), -1);
    }
}

TEST(ThreeTierStore, StatsConsistentUnderConcurrentGetPut) {
    TempDir dir;
    TieredStore store(std::make_unique<RamStore>(), 8 << 10,
                      file_cache(dir, 1 << 20));
    constexpr int kThreads = 4;
    constexpr int kOps = 300;
    std::atomic<std::uint64_t> gets{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, &gets, t] {
            for (int i = 0; i < kOps; ++i) {
                const auto uid = static_cast<std::uint64_t>(i % 32);
                const auto blob = static_cast<BlobId>(t % 2);
                store.put({blob, uid}, payload(blob, uid, 1024));
                const auto got = store.get({blob, uid});
                gets.fetch_add(1);
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(verify_pattern(blob, uid, 0, **got), -1);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(store.cache_hits() + store.cache_misses(), gets.load());
    EXPECT_LE(store.ram_bytes(), 8u << 10);
}

}  // namespace
}  // namespace blobseer::chunk
