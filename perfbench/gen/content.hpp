/// \file content.hpp
/// \brief Seeded, self-describing chunk content.
///
/// Every logical chunk the benchmark writes is named by a 64-bit tag
/// (which workload object it is: pass and index, client and sequence
/// number, ...). Its bytes are a function of (seed, tag) only: a 16-byte
/// header holding the tag and a seed-keyed check word, then a slice of a
/// seeded pool picked by the tag. Filling is a memcpy, so generating the
/// load costs the client almost nothing, and every read can be checked
/// byte for byte by regenerating what the seed says belongs there.
///
/// Two pools: random bytes (incompressible) and text drawn from a small
/// seeded vocabulary (LZ4-compressible). The header makes
/// every tag's bytes distinct, so content addressing deduplicates only
/// chunks the workload deliberately copies.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

inline std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Deterministic generator for the workload's own random choices.
class Rng {
  public:
    explicit Rng(std::uint64_t seed) : state_(mix(seed)) {}
    std::uint64_t next() { return mix(state_++); }
    /// Uniform in [0, n).
    std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

  private:
    std::uint64_t state_;
};

/// Compose a tag from a kind byte and up to 56 bits of fields.
inline std::uint64_t make_tag(std::uint8_t kind, std::uint64_t fields) {
    return (static_cast<std::uint64_t>(kind) << 56) |
           (fields & 0x00ffffffffffffffULL);
}

class ContentPool {
  public:
    static constexpr std::size_t kHeader = 16;

    explicit ContentPool(std::uint64_t seed) : seed_(seed) {
        random_.resize(kPoolBytes);
        for (std::size_t i = 0; i < kPoolBytes; i += 8) {
            const std::uint64_t w = mix(seed ^ (0x5eed0000ULL + i));
            std::memcpy(random_.data() + i, &w, 8);
        }
        static const char* const kWords[] = {
            "block",  "chunk",   "version", "snapshot", "provider", "metadata",
            "append", "replica", "stripe",  "segment",  "image",    "clone",
            "tree",   "leaf",    "publish", "commit",   "disk",     "cache"};
        constexpr std::size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);
        text_.reserve(kPoolBytes + 16);
        std::uint64_t k = 0;
        while (text_.size() < kPoolBytes) {
            const char* w = kWords[mix(seed ^ (0x7e47ULL << 32) ^ k++) % kNumWords];
            text_.insert(text_.end(), w, w + std::strlen(w));
            text_.push_back(' ');
        }
        text_.resize(kPoolBytes);
    }

    /// Write the bytes of chunk \p tag into \p out.
    void fill(std::uint64_t tag, bool compressible,
              std::span<std::uint8_t> out) const {
        const std::uint64_t check = mix(seed_ ^ tag);
        std::uint8_t header[kHeader];
        std::memcpy(header, &tag, 8);
        std::memcpy(header + 8, &check, 8);
        const std::size_t h = std::min(out.size(), kHeader);
        std::memcpy(out.data(), header, h);
        if (out.size() <= kHeader) {
            return;
        }
        const std::size_t body = out.size() - kHeader;
        const auto& pool = compressible ? text_ : random_;
        const std::size_t span = kPoolBytes - body;
        const std::size_t off = static_cast<std::size_t>(check % (span + 1)) & ~std::size_t{7};
        std::memcpy(out.data() + kHeader, pool.data() + off, body);
    }

    /// True when \p got holds exactly chunk \p tag.
    [[nodiscard]] bool matches(std::uint64_t tag, bool compressible,
                               std::span<const std::uint8_t> got) const {
        thread_local std::vector<std::uint8_t> want;
        want.resize(got.size());
        fill(tag, compressible, want);
        return std::memcmp(want.data(), got.data(), got.size()) == 0;
    }

    /// The tag a self-describing chunk claims, if its check word is the
    /// one the seed gives that tag (the rest is for matches() to confirm).
    [[nodiscard]] std::optional<std::uint64_t> claimed_tag(
        std::span<const std::uint8_t> got) const {
        if (got.size() < kHeader) {
            return std::nullopt;
        }
        std::uint64_t tag = 0;
        std::uint64_t check = 0;
        std::memcpy(&tag, got.data(), 8);
        std::memcpy(&check, got.data() + 8, 8);
        if (check != mix(seed_ ^ tag)) {
            return std::nullopt;
        }
        return tag;
    }

  private:
    static constexpr std::size_t kPoolBytes = 4u << 20;

    std::uint64_t seed_;
    std::vector<std::uint8_t> random_;
    std::vector<std::uint8_t> text_;
};

}  // namespace perfbench
