/// \file test_engine.cpp
/// \brief Tests of the log-structured storage engine: record round-trips,
///        segment rollover, checkpointed reopen, compaction, CRC
///        corruption surfacing, and the crash-recovery property test
///        (arbitrary-byte torn tails recover exactly the committed
///        prefix). Format contract: DESIGN.md §8.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "engine/crc32c.hpp"
#include "engine/log_engine.hpp"

namespace blobseer::engine {
namespace {

namespace fs = std::filesystem;

class TempDir {
  public:
    TempDir() {
        dir_ = fs::temp_directory_path() /
               ("blobseer-engine-" + std::to_string(counter_++) + "-" +
                std::to_string(::getpid()));
        fs::remove_all(dir_);
    }
    ~TempDir() { fs::remove_all(dir_); }
    [[nodiscard]] const fs::path& path() const { return dir_; }

  private:
    static inline int counter_ = 0;
    fs::path dir_;
};

EngineConfig manual_config(const fs::path& dir) {
    EngineConfig cfg;
    cfg.dir = dir;
    cfg.checkpoint_interval_records = 0;  // checkpoints only when asked
    cfg.background_compaction = false;    // compaction only when asked
    return cfg;
}

Buffer bytes_of(const std::string& s) {
    return {s.begin(), s.end()};
}

std::string str_of(const Buffer& b) {
    return {b.begin(), b.end()};
}

// ---- basics -----------------------------------------------------------------

using Crc32cUpdate = std::uint32_t (*)(std::uint32_t, ConstBytes);

/// Every CRC32C update path this build can run on this CPU.
std::vector<std::pair<std::string, Crc32cUpdate>> crc32c_paths() {
    std::vector<std::pair<std::string, Crc32cUpdate>> paths{
        {"portable", &crc32c_update_portable},
        {"dispatched", &crc32c_update},
    };
#if defined(__x86_64__)
    if (crc32c_hw_available()) {
        paths.emplace_back("sse4.2", &crc32c_update_sse42);
    }
#endif
    return paths;
}

TEST(Crc32c, MatchesKnownVector) {
    // RFC 3720 appendix B.4 plus the iSCSI check value
    // crc32c("123456789") = 0xE3069283 pin the polynomial, the
    // slicing-by-8 table construction and the hardware path alike.
    std::vector<std::pair<Buffer, std::uint32_t>> vectors;
    vectors.emplace_back(Buffer(32, 0x00), 0x8A9136AAu);
    vectors.emplace_back(Buffer(32, 0xFF), 0x62A8AB43u);
    Buffer up(32);
    Buffer down(32);
    for (std::size_t i = 0; i < 32; ++i) {
        up[i] = static_cast<std::uint8_t>(i);
        down[i] = static_cast<std::uint8_t>(31 - i);
    }
    vectors.emplace_back(up, 0x46DD794Eu);
    vectors.emplace_back(down, 0x113FDB5Cu);
    const std::string msg = "123456789";
    const ConstBytes check(reinterpret_cast<const std::uint8_t*>(msg.data()),
                           msg.size());
    vectors.emplace_back(Buffer(check.begin(), check.end()), 0xE3069283u);
    for (const auto& [name, update] : crc32c_paths()) {
        for (const auto& [data, crc] : vectors) {
            EXPECT_EQ(crc32c_final(update(crc32c_init(), data)), crc)
                << name << " over " << data.size() << " bytes";
        }
        // Incremental form must agree regardless of the split point.
        EXPECT_EQ(crc32c_final(update(update(crc32c_init(), check.first(3)),
                                      check.subspan(3))),
                  0xE3069283u)
            << name;
    }
    EXPECT_EQ(crc32c(check), 0xE3069283u);
}

TEST(Crc32c, PathsAgreeAtEveryLengthAlignmentAndSplit) {
    std::mt19937_64 rng(0xc5c32);
    Buffer pool(4096 + 8);
    for (auto& b : pool) {
        b = static_cast<std::uint8_t>(rng());
    }
    const auto paths = crc32c_paths();
    for (std::size_t align = 0; align < 8; ++align) {
        for (std::size_t len = 0; len <= 4096;
             len += len < 64 ? 1 : 1 + rng() % 61) {
            const ConstBytes data(pool.data() + align, len);
            const std::uint32_t want =
                crc32c_update_portable(crc32c_init(), data);
            const std::size_t cut = len == 0 ? 0 : rng() % (len + 1);
            for (const auto& [name, update] : paths) {
                EXPECT_EQ(update(crc32c_init(), data), want)
                    << name << " len " << len << " align " << align;
                EXPECT_EQ(update(update(crc32c_init(), data.first(cut)),
                                 data.subspan(cut)),
                          want)
                    << name << " len " << len << " split at " << cut;
            }
        }
    }
}

TEST(LogEngine, PutGetRoundTrip) {
    TempDir dir;
    LogEngine eng(manual_config(dir.path()));
    eng.put("alpha", bytes_of("payload-1"));
    const auto got = eng.get("alpha");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(str_of(*got), "payload-1");
    EXPECT_TRUE(eng.contains("alpha"));
    EXPECT_FALSE(eng.contains("beta"));
    EXPECT_EQ(eng.count(), 1u);
    EXPECT_EQ(eng.live_value_bytes(), 9u);
}

TEST(LogEngine, OverwriteReplacesAndTracksDeadSpace) {
    TempDir dir;
    LogEngine eng(manual_config(dir.path()));
    eng.put("k", bytes_of("first"));
    eng.put("k", bytes_of("second!"));
    EXPECT_EQ(str_of(*eng.get("k")), "second!");
    EXPECT_EQ(eng.count(), 1u);
    EXPECT_EQ(eng.live_value_bytes(), 7u);
    EXPECT_EQ(eng.stats().overwrites, 1u);
}

TEST(LogEngine, RemoveWritesTombstone) {
    TempDir dir;
    LogEngine eng(manual_config(dir.path()));
    eng.put("k", bytes_of("v"));
    EXPECT_TRUE(eng.remove("k"));
    EXPECT_FALSE(eng.remove("k"));  // already gone: no tombstone appended
    EXPECT_FALSE(eng.get("k").has_value());
    EXPECT_EQ(eng.count(), 0u);
    EXPECT_EQ(eng.live_value_bytes(), 0u);
}

TEST(LogEngine, DoubleOpenOfOneDirectoryRejected) {
    TempDir dir;
    LogEngine eng(manual_config(dir.path()));
    eng.put("k", bytes_of("v"));
    // A second engine on the same directory would interleave appends at
    // overlapping offsets; the flock must fail the open cleanly.
    EXPECT_THROW(LogEngine second(manual_config(dir.path())), Error);
    EXPECT_EQ(str_of(*eng.get("k")), "v");  // first engine unharmed
}

TEST(LogEngine, PutIfAbsentIsAtomicIdempotence) {
    TempDir dir;
    LogEngine eng(manual_config(dir.path()));
    EXPECT_TRUE(eng.put_if_absent("k", bytes_of("first")));
    EXPECT_FALSE(eng.put_if_absent("k", bytes_of("second")));
    EXPECT_EQ(str_of(*eng.get("k")), "first");
    EXPECT_EQ(eng.stats().appends, 1u);
}

TEST(LogEngine, EmptyValueAllowed) {
    TempDir dir;
    LogEngine eng(manual_config(dir.path()));
    eng.put("empty", {});
    const auto got = eng.get("empty");
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->empty());
}

// ---- recovery ---------------------------------------------------------------

TEST(LogEngine, PersistsAcrossReopenByFullScan) {
    TempDir dir;
    {
        LogEngine eng(manual_config(dir.path()));
        eng.put("a", bytes_of("1"));
        eng.put("b", bytes_of("22"));
        eng.put("a", bytes_of("333"));  // overwrite
        EXPECT_TRUE(eng.remove("b"));
    }
    LogEngine eng(manual_config(dir.path()));
    EXPECT_FALSE(eng.stats().recovered_from_checkpoint);
    EXPECT_EQ(eng.count(), 1u);
    EXPECT_EQ(str_of(*eng.get("a")), "333");
    EXPECT_FALSE(eng.get("b").has_value());
}

TEST(LogEngine, CheckpointedReopen) {
    TempDir dir;
    {
        LogEngine eng(manual_config(dir.path()));
        for (int i = 0; i < 100; ++i) {
            eng.put("key-" + std::to_string(i),
                    bytes_of("value-" + std::to_string(i)));
        }
        eng.checkpoint();
        // Writes after the checkpoint are replayed from the watermark.
        eng.put("key-5", bytes_of("rewritten"));
        EXPECT_TRUE(eng.remove("key-6"));
        eng.put("late", bytes_of("arrival"));
    }
    LogEngine eng(manual_config(dir.path()));
    EXPECT_TRUE(eng.stats().recovered_from_checkpoint);
    EXPECT_EQ(eng.count(), 100u);  // 100 - 1 removed + 1 added
    EXPECT_EQ(str_of(*eng.get("key-5")), "rewritten");
    EXPECT_FALSE(eng.get("key-6").has_value());
    EXPECT_EQ(str_of(*eng.get("late")), "arrival");
    EXPECT_EQ(str_of(*eng.get("key-99")), "value-99");
}

TEST(LogEngine, CleanCloseWritesCheckpointWhenEnabled) {
    TempDir dir;
    EngineConfig cfg = manual_config(dir.path());
    cfg.checkpoint_interval_records = 1000;  // enabled, but far away
    {
        LogEngine eng(cfg);
        eng.put("x", bytes_of("y"));
    }  // destructor checkpoints
    LogEngine eng(cfg);
    EXPECT_TRUE(eng.stats().recovered_from_checkpoint);
    EXPECT_EQ(str_of(*eng.get("x")), "y");
}

TEST(LogEngine, SegmentRollover) {
    TempDir dir;
    EngineConfig cfg = manual_config(dir.path());
    cfg.segment_target_bytes = 256;
    LogEngine eng(cfg);
    for (int i = 0; i < 64; ++i) {
        eng.put("key-" + std::to_string(i), Buffer(32, 0xAB));
    }
    EXPECT_GT(eng.stats().segment_count, 4u);
    for (int i = 0; i < 64; ++i) {
        const auto got = eng.get("key-" + std::to_string(i));
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->size(), 32u);
    }
}

// ---- compaction -------------------------------------------------------------

TEST(LogEngine, CompactionReclaimsDeadSpace) {
    TempDir dir;
    EngineConfig cfg = manual_config(dir.path());
    cfg.segment_target_bytes = 1024;
    LogEngine eng(cfg);
    for (int i = 0; i < 200; ++i) {
        eng.put("key-" + std::to_string(i), Buffer(64, 0x11));
    }
    for (int i = 0; i < 180; ++i) {
        EXPECT_TRUE(eng.remove("key-" + std::to_string(i)));
    }
    const auto before = eng.stats();
    EXPECT_GT(eng.compact(), 0u);
    const auto after = eng.stats();
    EXPECT_LT(after.disk_bytes, before.disk_bytes);
    EXPECT_GT(after.reclaimed_bytes, 0u);
    EXPECT_EQ(after.live_keys, 20u);
    for (int i = 180; i < 200; ++i) {
        const auto got = eng.get("key-" + std::to_string(i));
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->size(), 64u);
    }
}

TEST(LogEngine, CompactedStateSurvivesReopen) {
    TempDir dir;
    EngineConfig cfg = manual_config(dir.path());
    cfg.segment_target_bytes = 512;
    {
        LogEngine eng(cfg);
        for (int i = 0; i < 100; ++i) {
            eng.put("key-" + std::to_string(i), Buffer(40, 0x22));
        }
        for (int i = 0; i < 70; ++i) {
            EXPECT_TRUE(eng.remove("key-" + std::to_string(i)));
        }
        eng.compact();
    }
    LogEngine eng(cfg);
    EXPECT_EQ(eng.count(), 30u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(eng.contains("key-" + std::to_string(i)), i >= 70)
            << "key-" << i;
    }
}

TEST(LogEngine, TombstoneShadowsOlderSegmentsThroughCompaction) {
    TempDir dir;
    EngineConfig cfg = manual_config(dir.path());
    cfg.segment_target_bytes = 128;  // puts and tombstones land in
                                     // different segments
    cfg.compact_min_live_ratio = 1.0;  // everything sealed is a victim
    {
        LogEngine eng(cfg);
        eng.put("victim", Buffer(100, 0x33));
        eng.put("keeper", Buffer(100, 0x44));
        EXPECT_TRUE(eng.remove("victim"));
        eng.put("filler", Buffer(100, 0x55));  // seals the tombstone's
                                               // segment
        eng.compact();
    }
    LogEngine eng(cfg);
    EXPECT_FALSE(eng.contains("victim"));
    EXPECT_TRUE(eng.contains("keeper"));
    EXPECT_TRUE(eng.contains("filler"));
}

TEST(LogEngine, CompactionReclaimsAfterReopen) {
    // Regression: recovered segments must come back sealed (an aggregate
    // -init field-order slip once left them sealed=false), or dead space
    // from before a restart is never reclaimable.
    TempDir dir;
    EngineConfig cfg = manual_config(dir.path());
    cfg.segment_target_bytes = 1024;
    {
        LogEngine eng(cfg);
        for (int i = 0; i < 200; ++i) {
            eng.put("key-" + std::to_string(i), Buffer(64, 0x11));
        }
        for (int i = 0; i < 180; ++i) {
            EXPECT_TRUE(eng.remove("key-" + std::to_string(i)));
        }
    }
    LogEngine eng(cfg);
    const auto before = eng.stats();
    EXPECT_GT(eng.compact(), 0u);
    EXPECT_LT(eng.stats().disk_bytes, before.disk_bytes);
    for (int i = 180; i < 200; ++i) {
        ASSERT_TRUE(eng.get("key-" + std::to_string(i)).has_value());
    }
}

TEST(LogEngine, PinnedReadSurvivesCompaction) {
    // get_ref() contract (DESIGN.md §15.3): a pinned view stays valid
    // and byte-identical even after the compactor rewrites and retires
    // its segment — the unlink is deferred to the last view release.
    TempDir dir;
    EngineConfig cfg = manual_config(dir.path());
    cfg.segment_target_bytes = 128;    // a couple of puts per segment
    cfg.compact_min_live_ratio = 1.0;  // any dead byte makes a victim
    LogEngine eng(cfg);
    for (int i = 0; i < 32; ++i) {
        eng.put("key-" + std::to_string(i),
                Buffer(64, static_cast<std::uint8_t>(i)));
    }
    // Dead space in the early segments so they become victims.
    for (int i = 0; i < 32; i += 2) {
        eng.put("key-" + std::to_string(i), Buffer(64, 0xEE));
    }

    auto count_files = [&] {
        std::size_t n = 0;
        for (const auto& e : fs::directory_iterator(dir.path())) {
            n += e.is_regular_file() ? 1 : 0;
        }
        return n;
    };

    auto ref = eng.get_ref("key-3");  // odd key: still in its sealed home
    ASSERT_TRUE(ref.has_value());
    ASSERT_EQ(ref->bytes.size(), 64u);
    EXPECT_GE(eng.stats().ref_gets_mmap, 1u);

    // Kill the pinned key itself: its segment is now certainly a victim,
    // yet the live view must not notice.
    EXPECT_TRUE(eng.remove("key-3"));

    EXPECT_GT(eng.compact(), 0u);
    EXPECT_GE(eng.stats().deferred_unlinks, 1u);
    const std::size_t files_pinned = count_files();

    // The view still reads the original bytes from the retired (but not
    // yet unlinked) segment's mapping, even though the key is gone.
    const Buffer expect(64, 3);
    EXPECT_EQ(0, std::memcmp(ref->bytes.data(), expect.data(), 64));
    EXPECT_FALSE(eng.get("key-3").has_value());

    ref.reset();  // last release fires the deferred unlink
    EXPECT_LT(count_files(), files_pinned);
    ASSERT_TRUE(eng.get("key-5").has_value());  // survivors intact
}

TEST(LogEngine, CleanCloseAdvancesCheckpointPastReplayedSuffix) {
    TempDir dir;
    EngineConfig cfg = manual_config(dir.path());
    cfg.checkpoint_interval_records = 1000;  // enabled; manual distance
    {
        LogEngine eng(cfg);
        eng.put("a", bytes_of("1"));
        eng.checkpoint();
        eng.put("b", bytes_of("2"));  // suffix past the watermark
    }  // clean close checkpoints the suffix too
    {
        LogEngine eng(cfg);  // replays ["b"], then must re-checkpoint
        EXPECT_TRUE(eng.stats().recovered_from_checkpoint);
    }
    LogEngine eng(cfg);
    // If the second close had skipped its checkpoint, this open would
    // still replay "b" from the log; instead the newest checkpoint
    // covers it (watermark == log end, zero records replayed — observed
    // here as a checkpoint recovery with both keys present).
    EXPECT_TRUE(eng.stats().recovered_from_checkpoint);
    EXPECT_EQ(str_of(*eng.get("a")), "1");
    EXPECT_EQ(str_of(*eng.get("b")), "2");
}

TEST(LogEngine, BackgroundCompactionRuns) {
    TempDir dir;
    EngineConfig cfg;
    cfg.dir = dir.path();
    cfg.checkpoint_interval_records = 0;
    cfg.segment_target_bytes = 512;
    cfg.background_compaction = true;
    cfg.compact_min_live_ratio = 0.9;
    LogEngine eng(cfg);
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 50; ++i) {
            eng.put("key-" + std::to_string(i), Buffer(48, 0x66));
        }
    }
    eng.wait_idle();
    EXPECT_GT(eng.stats().compactions, 0u);
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(eng.get("key-" + std::to_string(i)).has_value());
    }
}

// ---- corruption surfacing ---------------------------------------------------

void flip_byte(const fs::path& file, std::uint64_t offset) {
    std::FILE* f = std::fopen(file.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(offset), SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, static_cast<long>(offset), SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
}

fs::path only_segment(const fs::path& dir) {
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().filename().string().starts_with("seg-")) {
            return entry.path();
        }
    }
    return {};
}

TEST(LogEngine, CrcCorruptionSurfacedOnRead) {
    TempDir dir;
    LogEngine eng(manual_config(dir.path()));
    eng.put("key", Buffer(64, 0x77));
    // Flip a payload byte of the only record: header(24) + record
    // header(13) + klen(3) lands in the value.
    flip_byte(only_segment(dir.path()), 24 + 13 + 3 + 10);
    EXPECT_THROW((void)eng.get("key"), ConsistencyError);
    EXPECT_GT(eng.stats().crc_read_failures, 0u);
}

TEST(LogEngine, CorruptSealedSegmentRejectedAtOpen) {
    TempDir dir;
    EngineConfig cfg = manual_config(dir.path());
    cfg.segment_target_bytes = 64;  // first put seals segment 1
    fs::path first_seg;
    {
        LogEngine eng(cfg);
        eng.put("a", Buffer(64, 0x88));
        first_seg = only_segment(dir.path());
        eng.put("b", Buffer(64, 0x99));  // lives in segment 2
    }
    flip_byte(first_seg, 24 + 13 + 1 + 5);  // corrupt sealed segment 1
    EXPECT_THROW(LogEngine reopened(cfg), ConsistencyError);
}

// ---- crash recovery (property test) ----------------------------------------

/// Simulate a crash by truncating the single live segment at an arbitrary
/// byte; reopening must recover exactly the state after the last record
/// that fully fits, discarding the torn suffix.
TEST(LogEngineCrash, TornTailRecoversExactCommittedPrefix) {
    TempDir dir;
    EngineConfig cfg = manual_config(dir.path());
    cfg.segment_target_bytes = 1ULL << 40;  // one segment: offsets = sizes

    using State = std::map<std::string, Buffer>;
    std::vector<std::pair<std::uint64_t, State>> timeline;  // (log size, state)
    std::mt19937_64 rng(20260730);

    {
        LogEngine eng(cfg);
        timeline.emplace_back(eng.stats().disk_bytes, State{});
        State state;
        for (int op = 0; op < 250; ++op) {
            const std::string key =
                "key-" + std::to_string(rng() % 32);
            if (rng() % 4 == 0 && state.contains(key)) {
                ASSERT_TRUE(eng.remove(key));
                state.erase(key);
            } else {
                Buffer value(rng() % 120);
                for (auto& b : value) {
                    b = static_cast<std::uint8_t>(rng());
                }
                eng.put(key, value);
                state[key] = std::move(value);
            }
            timeline.emplace_back(eng.stats().disk_bytes, state);
        }
    }

    const fs::path seg = only_segment(dir.path());
    Buffer full;
    {
        std::FILE* f = std::fopen(seg.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        full.resize(static_cast<std::size_t>(std::ftell(f)));
        std::fseek(f, 0, SEEK_SET);
        ASSERT_EQ(std::fread(full.data(), 1, full.size(), f), full.size());
        std::fclose(f);
    }
    ASSERT_EQ(full.size(), timeline.back().first);

    std::vector<std::uint64_t> cut_points;
    for (int trial = 0; trial < 40; ++trial) {
        cut_points.push_back(rng() % (full.size() + 1));
    }
    // Edges: empty file, mid-header, exact record boundaries.
    cut_points.push_back(0);
    cut_points.push_back(12);
    cut_points.push_back(timeline[1].first);
    cut_points.push_back(timeline[timeline.size() / 2].first);
    cut_points.push_back(full.size());

    for (const std::uint64_t cut : cut_points) {
        TempDir crash_dir;
        EngineConfig crash_cfg = manual_config(crash_dir.path());
        crash_cfg.segment_target_bytes = cfg.segment_target_bytes;
        fs::create_directories(crash_dir.path());
        {
            std::FILE* f = std::fopen(
                (crash_dir.path() / seg.filename()).c_str(), "wb");
            ASSERT_NE(f, nullptr);
            if (cut > 0) {
                ASSERT_EQ(std::fwrite(full.data(), 1, cut, f), cut);
            }
            std::fclose(f);
        }

        // Expected: the state after the last op whose log end fits the cut.
        const State* expected = &timeline.front().second;
        std::uint64_t expected_size = timeline.front().first;
        for (const auto& [size, state] : timeline) {
            if (size <= cut) {
                expected = &state;
                expected_size = size;
            }
        }

        LogEngine eng(crash_cfg);
        const auto stats = eng.stats();
        EXPECT_EQ(stats.live_keys, expected->size()) << "cut=" << cut;
        if (cut >= 24) {  // torn records past the last committed one
            EXPECT_EQ(stats.torn_bytes_discarded, cut - expected_size)
                << "cut=" << cut;
        }
        for (const auto& [key, value] : *expected) {
            const auto got = eng.get(key);
            ASSERT_TRUE(got.has_value()) << "cut=" << cut << " key=" << key;
            EXPECT_EQ(*got, value) << "cut=" << cut << " key=" << key;
        }
    }
}

/// Torn tails interact correctly with checkpoints: a truncation *past*
/// the watermark keeps the checkpoint usable; a truncation *behind* it
/// invalidates the checkpoint and recovery falls back to the full scan.
TEST(LogEngineCrash, TornTailBehindCheckpointFallsBackToScan) {
    TempDir dir;
    EngineConfig cfg = manual_config(dir.path());
    std::uint64_t pre_checkpoint_size = 0;
    {
        LogEngine eng(cfg);
        eng.put("a", bytes_of("alpha"));
        eng.put("b", bytes_of("beta"));
        pre_checkpoint_size = eng.stats().disk_bytes;
        eng.put("c", bytes_of("gamma"));
        eng.checkpoint();
        eng.put("d", bytes_of("delta"));
    }
    const fs::path seg = only_segment(dir.path());

    // Cut behind the watermark: record "c" (covered by the checkpoint)
    // is gone, so the checkpoint must be rejected, not trusted.
    fs::resize_file(seg, pre_checkpoint_size);
    LogEngine eng(cfg);
    EXPECT_FALSE(eng.stats().recovered_from_checkpoint);
    EXPECT_EQ(eng.count(), 2u);
    EXPECT_EQ(str_of(*eng.get("a")), "alpha");
    EXPECT_EQ(str_of(*eng.get("b")), "beta");
    EXPECT_FALSE(eng.contains("c"));
    EXPECT_FALSE(eng.contains("d"));
}

// ---- scan (journal replay hook) --------------------------------------------

TEST(LogEngine, ScanVisitsLiveRecordsInAppendOrder) {
    TempDir dir;
    {
        LogEngine eng(manual_config(dir.path()));
        for (int i = 0; i < 20; ++i) {
            eng.put("seq-" + std::to_string(1000 + i),
                    bytes_of(std::to_string(i)));
        }
    }
    LogEngine eng(manual_config(dir.path()));
    std::vector<std::string> seen;
    eng.scan([&](std::string_view key, ConstBytes value) {
        seen.emplace_back(key);
        EXPECT_FALSE(value.empty());
    });
    ASSERT_EQ(seen.size(), 20u);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(seen[static_cast<std::size_t>(i)],
                  "seq-" + std::to_string(1000 + i));
    }
}

// ---- compact-time recompression (format v2, DESIGN.md §14.3) ---------------

/// Compressible value: long runs keyed by \p i so every key's bytes are
/// distinct but shrink well under LZ4.
Buffer runs_value(int i, std::size_t size) {
    Buffer v(size);
    for (std::size_t j = 0; j < size; ++j) {
        v[j] = static_cast<std::uint8_t>((j / 32) + static_cast<unsigned>(i));
    }
    return v;
}

/// Interleaved triple-puts: every segment is ~2/3 dead first-and-second
/// versions, comfortably past the 50% victim threshold, so compact()
/// relocates (and, with the flag on, recompresses) live records from
/// essentially every sealed segment.
void fill_with_dead_space(LogEngine& eng, int keys, std::size_t size,
                          bool compressible) {
    std::mt19937_64 rng(7);
    for (int i = 0; i < keys; ++i) {
        Buffer v = compressible ? runs_value(i, size) : Buffer(size);
        if (!compressible) {
            for (auto& b : v) {
                b = static_cast<std::uint8_t>(rng());
            }
        }
        eng.put("key-" + std::to_string(i), v);
        eng.put("key-" + std::to_string(i), v);  // goes dead
        eng.put("key-" + std::to_string(i), v);  // goes dead
    }
}

EngineConfig compress_config(const fs::path& dir) {
    EngineConfig cfg = manual_config(dir);
    cfg.segment_target_bytes = 2048;
    cfg.compress_on_compact = true;
    return cfg;
}

TEST(LogEngineCompression, CompactRecompressesColdRecordsAndReadsBack) {
    TempDir dir;
    LogEngine eng(compress_config(dir.path()));
    fill_with_dead_space(eng, 50, 300, /*compressible=*/true);
    EXPECT_EQ(eng.stats().compressed_live_records, 0u);

    EXPECT_GT(eng.compact(), 0u);
    const auto st = eng.stats();
    EXPECT_GT(st.compact_compressed_records, 0u);
    EXPECT_GT(st.compressed_live_records, 0u);
    EXPECT_GT(st.compressed_live_bytes, 0u);
    // The whole point: stored bytes shrank versus the raw bytes fed in.
    EXPECT_LT(st.compact_stored_bytes_out, st.compact_raw_bytes_in);

    for (int i = 0; i < 50; ++i) {
        const auto got = eng.get("key-" + std::to_string(i));
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, runs_value(i, 300));
    }
}

TEST(LogEngineCompression, ScanDecompressesTransparently) {
    TempDir dir;
    LogEngine eng(compress_config(dir.path()));
    fill_with_dead_space(eng, 20, 300, true);
    EXPECT_GT(eng.compact(), 0u);
    std::map<std::string, Buffer> seen;
    eng.scan([&seen](std::string_view key, ConstBytes value) {
        seen[std::string(key)] = Buffer(value.begin(), value.end());
    });
    ASSERT_EQ(seen.size(), 20u);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(seen["key-" + std::to_string(i)], runs_value(i, 300));
    }
}

TEST(LogEngineCompression, SurvivesReopenByScanAndByCheckpoint) {
    TempDir dir;
    EngineConfig cfg = compress_config(dir.path());
    std::uint64_t compressed = 0;
    {
        LogEngine eng(cfg);
        fill_with_dead_space(eng, 30, 300, true);
        EXPECT_GT(eng.compact(), 0u);
        compressed = eng.stats().compressed_live_records;
        EXPECT_GT(compressed, 0u);
    }  // no checkpoint: next open replays segments
    {
        LogEngine eng(cfg);
        EXPECT_FALSE(eng.stats().recovered_from_checkpoint);
        EXPECT_EQ(eng.stats().compressed_live_records, compressed);
        for (int i = 0; i < 30; ++i) {
            const auto got = eng.get("key-" + std::to_string(i));
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, runs_value(i, 300));
        }
        eng.checkpoint();  // persists the kPutCompressed kinds
    }
    LogEngine eng(cfg);
    EXPECT_TRUE(eng.stats().recovered_from_checkpoint);
    EXPECT_EQ(eng.stats().compressed_live_records, compressed);
    for (int i = 0; i < 30; ++i) {
        const auto got = eng.get("key-" + std::to_string(i));
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, runs_value(i, 300));
    }
}

TEST(LogEngineCompression, IncompressibleRecordsStayRaw) {
    TempDir dir;
    LogEngine eng(compress_config(dir.path()));
    fill_with_dead_space(eng, 30, 300, /*compressible=*/false);
    EXPECT_GT(eng.compact(), 0u);
    // encode_frame refuses frames that do not shrink, so random values
    // relocate as plain kPut records.
    EXPECT_EQ(eng.stats().compressed_live_records, 0u);
    EXPECT_EQ(eng.stats().compact_compressed_records, 0u);
    for (int i = 0; i < 30; ++i) {
        ASSERT_TRUE(eng.get("key-" + std::to_string(i)).has_value());
    }
}

TEST(LogEngineCompression, SmallRecordsBelowThresholdStayRaw) {
    TempDir dir;
    EngineConfig cfg = compress_config(dir.path());
    cfg.compress_min_bytes = 1024;  // all test values are below this
    LogEngine eng(cfg);
    fill_with_dead_space(eng, 30, 300, true);
    EXPECT_GT(eng.compact(), 0u);
    EXPECT_EQ(eng.stats().compressed_live_records, 0u);
    for (int i = 0; i < 30; ++i) {
        ASSERT_TRUE(eng.get("key-" + std::to_string(i)).has_value());
    }
}

TEST(LogEngineCompression, FlagOffProducesByteIdenticalV1Headers) {
    TempDir v1_dir;
    {
        // Default config (flag off): files must stay format v1 so a
        // deployment that never opts in is byte-identical to the seed.
        LogEngine eng(manual_config(v1_dir.path()));
        eng.put("k", Buffer(64, 0x42));
    }
    std::FILE* f = std::fopen(only_segment(v1_dir.path()).c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::uint8_t header[24] = {};
    ASSERT_EQ(std::fread(header, 1, sizeof header, f), sizeof header);
    std::fclose(f);
    EXPECT_EQ(get_u32(ConstBytes(header, sizeof header), 8), 1u);

    TempDir v2_dir;
    {
        LogEngine eng(compress_config(v2_dir.path()));
        eng.put("k", Buffer(64, 0x42));
    }
    f = std::fopen(only_segment(v2_dir.path()).c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(header, 1, sizeof header, f), sizeof header);
    std::fclose(f);
    EXPECT_EQ(get_u32(ConstBytes(header, sizeof header), 8), 2u);
}

/// Hand-build a segment file: \p version header plus one record per
/// (type, key, value) triple — the layout contract, written without the
/// engine's help.
void write_segment(const fs::path& file, std::uint32_t version,
                   const std::vector<std::tuple<RecordType, std::string,
                                                Buffer>>& records) {
    Buffer out = encode_segment_header(1, version);
    for (const auto& [type, key, value] : records) {
        const std::size_t crc_pos = out.size();
        put_u32(out, 0);  // CRC placeholder
        put_u32(out, static_cast<std::uint32_t>(key.size()));
        put_u32(out, static_cast<std::uint32_t>(value.size()));
        out.push_back(static_cast<std::uint8_t>(type));
        out.insert(out.end(), key.begin(), key.end());
        out.insert(out.end(), value.begin(), value.end());
        const std::uint32_t crc = crc32c(
            ConstBytes(out.data() + crc_pos + 4, out.size() - crc_pos - 4));
        poke_u32(out, crc_pos, crc);
    }
    std::FILE* f = std::fopen(file.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(out.data(), 1, out.size(), f), out.size());
    std::fclose(f);
}

TEST(LogEngineCompression, HandBuiltV1SegmentStillReadable) {
    TempDir dir;
    fs::create_directories(dir.path());
    write_segment(dir.path() / "seg-0000000001.log", 1,
                  {{RecordType::kPut, "old-key", Buffer(48, 0x33)}});
    LogEngine eng(manual_config(dir.path()));
    const auto got = eng.get("old-key");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, Buffer(48, 0x33));
}

TEST(LogEngineCompression, UndecodableCompressedRecordThrows) {
    TempDir dir;
    fs::create_directories(dir.path());
    // A kPutCompressed record whose CRC is valid but whose frame is
    // garbage: CRC passes, the codec rejects, and the engine must
    // surface ConsistencyError — never bogus bytes.
    Buffer bogus_frame;
    bogus_frame.push_back(0x01);          // "compressed" tag
    put_u32(bogus_frame, 4096);           // claimed raw size
    for (int i = 0; i < 32; ++i) {
        bogus_frame.push_back(0xEE);      // not a valid LZ4 block
    }
    write_segment(dir.path() / "seg-0000000001.log", 2,
                  {{RecordType::kPutCompressed, "bad", bogus_frame}});
    LogEngine eng(manual_config(dir.path()));
    EXPECT_THROW((void)eng.get("bad"), ConsistencyError);
    EXPECT_GT(eng.stats().crc_read_failures, 0u);
}

TEST(LogEngineCompression, CorruptCompressedRecordCaughtByCrc) {
    TempDir dir;
    EngineConfig cfg = compress_config(dir.path());
    cfg.segment_target_bytes = 1024;
    LogEngine eng(cfg);
    // Four puts of the one key: 3/4 of the sealed segment is dead, so it
    // is a compaction victim, and relocation re-appends the lone live
    // record — compressed — first into the empty active segment.
    for (int i = 0; i < 4; ++i) {
        eng.put("k", runs_value(1, 300));
    }
    EXPECT_GT(eng.compact(), 0u);
    ASSERT_GT(eng.stats().compressed_live_records, 0u);
    // Flip a byte inside the first record's value in every segment; the
    // compressed record must CRC-fail, never decompress garbage.
    for (const auto& entry : fs::directory_iterator(dir.path())) {
        if (entry.path().filename().string().starts_with("seg-") &&
            fs::file_size(entry.path()) > 24 + 13 + 1 + 6) {
            flip_byte(entry.path(), 24 + 13 + 1 + 5);
        }
    }
    EXPECT_THROW((void)eng.get("k"), ConsistencyError);
    EXPECT_GT(eng.stats().crc_read_failures, 0u);
}

}  // namespace
}  // namespace blobseer::engine
