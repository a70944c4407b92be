/// \file test_client_property.cpp
/// \brief Full-stack model check: random operation sequences through the
///        real client (network, providers, DHT, version manager, caches)
///        compared byte-for-byte against a flat reference model. Unlike
///        test_tree_property this exercises actual data movement,
///        including the unaligned-append merge path and short chunks.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "chunk/tiered_store.hpp"
#include "common/random.hpp"
#include "testing_util.hpp"

namespace blobseer::core {
namespace {

constexpr std::uint64_t kChunk = 32;

class FullStackProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FullStackProperty, RandomOpsMatchModel) {
    Rng rng(GetParam() * 31337);
    auto cfg = blobseer::testing::fast_config();
    cfg.data_providers = 3;
    cfg.metadata_providers = 2;
    cfg.meta_replication = 1;
    Cluster cluster(cfg);
    auto client = cluster.make_client();
    Blob blob = client->create(kChunk);

    // Model: full byte content per version (index 0 = version 1).
    std::vector<Buffer> model;
    auto content = [&]() -> Buffer {
        return model.empty() ? Buffer{} : model.back();
    };

    const int steps = 30;
    for (int s = 0; s < steps; ++s) {
        Buffer snapshot = content();
        const std::uint64_t cur = snapshot.size();
        const double dice = rng.uniform();
        std::uint64_t offset = 0;
        std::uint64_t size = 1 + rng.below(3 * kChunk);
        bool is_append = false;

        if (dice < 0.45 || cur == 0) {
            is_append = true;  // arbitrary size, possibly unaligned end
            offset = cur;
        } else if (dice < 0.8) {
            // Interior overwrite: aligned offset, whole chunks (or
            // reaching/passing the end).
            const std::uint64_t slots = ceil_div(cur, kChunk);
            const std::uint64_t first = rng.below(slots);
            offset = first * kChunk;
            const std::uint64_t max_whole = slots - first;
            const std::uint64_t count =
                1 + rng.below(std::min<std::uint64_t>(max_whole, 4));
            size = count * kChunk;
            if (offset + size > cur && rng.chance(0.5)) {
                // Shrink into a short tail, but never below the current
                // end (an interior write must cover whole chunks).
                const std::uint64_t slack = offset + size - cur;
                size -= rng.below(std::min(slack, kChunk / 2) + 1);
            }
        } else {
            // Sparse extension past the end.
            offset = (ceil_div(cur, kChunk) + rng.below(2)) * kChunk;
        }

        const Buffer data =
            make_pattern(blob.id(), 777 + s, offset, size);
        Version v;
        if (is_append) {
            v = blob.append(data);
        } else {
            v = blob.write(offset, data);
        }
        ASSERT_EQ(v, model.size() + 1);

        if (snapshot.size() < offset + size) {
            snapshot.resize(offset + size, 0);
        }
        std::copy(data.begin(), data.end(), snapshot.begin() + offset);
        model.push_back(std::move(snapshot));
    }

    // Every snapshot, full extent + random sub-ranges.
    for (Version v = 1; v <= model.size(); ++v) {
        const Buffer& expect = model[v - 1];
        Buffer got(expect.size());
        ASSERT_EQ(blob.read(v, 0, got), got.size());
        ASSERT_EQ(got, expect) << "version " << v;
        for (int i = 0; i < 3 && !expect.empty(); ++i) {
            const std::uint64_t off = rng.below(expect.size());
            const std::uint64_t len = 1 + rng.below(expect.size() - off);
            Buffer part(len);
            ASSERT_EQ(blob.read(v, off, part), len);
            ASSERT_TRUE(std::equal(part.begin(), part.end(),
                                   expect.begin() + off))
                << "version " << v << " range [" << off << ", "
                << off + len << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullStackProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

/// Same check with replication and a tiered, log-backed store whose
/// caches are small enough to evict: the data path must be
/// byte-identical regardless of backend.
using BackendParam = std::tuple<std::uint64_t, StoreBackend>;
class BackendProperty : public ::testing::TestWithParam<BackendParam> {};

TEST_P(BackendProperty, DiskBackedMatchesModel) {
    const auto [seed, backend] = GetParam();
    Rng rng(seed * 1009);
    auto cfg = blobseer::testing::fast_config();
    cfg.store = backend;
    cfg.ram_cache_budget = 4 * kChunk;   // force evictions
    cfg.file_cache_budget = 4 * kChunk;  // three-tier: the file cache too
    cfg.disk_root = std::filesystem::temp_directory_path() /
                    ("blobseer-prop-" + std::to_string(seed) + "-" +
                     std::to_string(static_cast<int>(backend)) + "-" +
                     std::to_string(::getpid()));
    std::filesystem::remove_all(cfg.disk_root);
    cfg.default_replication = 2;
    {
        Cluster cluster(cfg);
        auto client = cluster.make_client();
        Blob blob = client->create(kChunk);

        std::vector<Buffer> model;
        for (int s = 0; s < 15; ++s) {
            const std::uint64_t cur =
                model.empty() ? 0 : model.back().size();
            const std::uint64_t size = 1 + rng.below(2 * kChunk);
            const Buffer data = make_pattern(blob.id(), s, cur, size);
            blob.append(data);
            Buffer snapshot = model.empty() ? Buffer{} : model.back();
            snapshot.insert(snapshot.end(), data.begin(), data.end());
            model.push_back(std::move(snapshot));
        }
        for (Version v = 1; v <= model.size(); ++v) {
            Buffer got(model[v - 1].size());
            ASSERT_EQ(blob.read(v, 0, got), got.size());
            ASSERT_EQ(got, model[v - 1]) << "version " << v;
        }

        // The budgets really did push entries out of every cache tier.
        std::uint64_t ram_evictions = 0;
        std::uint64_t file_evictions = 0;
        for (std::size_t i = 0; i < cluster.data_provider_count(); ++i) {
            auto& tiered = dynamic_cast<chunk::TieredStore&>(
                cluster.data_provider(i).store());
            ram_evictions += tiered.cache_evictions();
            if (tiered.file_cache() != nullptr) {
                file_evictions += tiered.file_cache()->evictions();
            }
        }
        EXPECT_GT(ram_evictions, 0u);
        if (backend == StoreBackend::kThreeTierLog) {
            EXPECT_GT(file_evictions, 0u);
        }
    }
    std::filesystem::remove_all(cfg.disk_root);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BackendProperty,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 5),
                       ::testing::Values(StoreBackend::kTwoTierLog,
                                         StoreBackend::kThreeTierLog)));

/// Chunk-size sweep, including odd (non-power-of-two) chunk sizes: only
/// slot *counts* must be powers of two; the chunk size itself is free
/// (fixed per blob at creation, paper §I-B.3).
class ChunkSizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChunkSizeProperty, OddChunkSizesMatchModel) {
    const std::uint64_t chunk = GetParam();
    Rng rng(chunk * 7919);
    Cluster cluster(blobseer::testing::fast_config());
    auto client = cluster.make_client();
    Blob blob = client->create(chunk);

    Buffer model;
    for (int s = 0; s < 18; ++s) {
        const std::uint64_t cur = model.size();
        std::uint64_t offset;
        std::uint64_t size;
        if (rng.chance(0.5) || cur < 2 * chunk) {
            offset = cur;  // append, arbitrary size
            size = 1 + rng.below(3 * chunk);
        } else {
            const std::uint64_t slots = cur / chunk;
            offset = rng.below(slots) * chunk;
            size = chunk * (1 + rng.below(3));
            if (offset + size < cur) {
                // interior: keep whole chunks (already multiple) — fine
            }
        }
        const Buffer data = make_pattern(blob.id(), s, offset, size);
        if (offset == cur) {
            blob.append(data);
        } else {
            blob.write(offset, data);
        }
        if (model.size() < offset + size) {
            model.resize(offset + size, 0);
        }
        std::copy(data.begin(), data.end(), model.begin() + offset);
    }
    Buffer got(model.size());
    ASSERT_EQ(blob.read(blob.latest(), 0, got), got.size());
    EXPECT_EQ(got, model) << "chunk size " << chunk;
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkSizeProperty,
                         ::testing::Values(1, 3, 17, 64, 257, 1000));

}  // namespace
}  // namespace blobseer::core
