/// \file crc32c.hpp
/// \brief CRC32C (Castagnoli) checksum for storage-engine records.
///
/// Every record and checkpoint the log engine writes is protected by
/// CRC32C (the polynomial used by iSCSI, ext4 and most storage engines,
/// chosen over CRC32 for its better error-detection properties on short
/// frames). The checksum is a real share of an engine put: slicing-by-8
/// runs at ~1.85 GB/s, ~35 µs per 64 KiB chunk, most of a ~54 µs put
/// (4-vCPU x86-64 guest). On x86-64 CPUs with SSE4.2, crc32c_update
/// therefore uses the CRC32 instruction (~7.8 GB/s, ~8.4 µs per 64 KiB),
/// chosen once at run time; slicing-by-8 is the portable fallback. Both compute the same function
/// (pinned against each other and the RFC 3720 vector in
/// tests/test_engine.cpp). The incremental init/update/final form lets
/// callers checksum a record spread over several buffers without
/// concatenating them. See DESIGN.md §8.1 for the on-disk format this
/// protects.

#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "common/buffer.hpp"

namespace blobseer::engine {

namespace detail {

/// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table;
/// table[k][i] advances a byte through k additional zero bytes, letting
/// the update loop fold 8 input bytes per iteration (~4-8x faster than
/// byte-at-a-time — reopen CRCs a whole multi-MB checkpoint).
[[nodiscard]] constexpr std::array<std::array<std::uint32_t, 256>, 8>
make_crc32c_tables() {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) != 0 ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
        }
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
        }
    }
    return t;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32cTables =
    make_crc32c_tables();

/// Little-endian 32-bit load via shifts (endian-portable; compiles to a
/// single load on little-endian targets).
[[nodiscard]] inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

/// Start an incremental CRC32C computation.
[[nodiscard]] constexpr std::uint32_t crc32c_init() noexcept {
    return 0xFFFFFFFFu;
}

/// Portable slicing-by-8 update (the fallback path).
[[nodiscard]] inline std::uint32_t crc32c_update_portable(
    std::uint32_t state, ConstBytes data) noexcept {
    const auto& t = detail::kCrc32cTables;
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    while (n >= 8) {
        const std::uint32_t lo = state ^ detail::load_le32(p);
        const std::uint32_t hi = detail::load_le32(p + 4);
        state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
                t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
                t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
                t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    while (n > 0) {
        state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
        ++p;
        --n;
    }
    return state;
}

#if defined(__x86_64__)
/// SSE4.2 CRC32 instruction update; call only where
/// crc32c_hw_available() holds.
[[nodiscard]] __attribute__((target("sse4.2"))) inline std::uint32_t
crc32c_update_sse42(std::uint32_t state, ConstBytes data) noexcept {
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    std::uint64_t s = state;
    while (n >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof word);
        s = _mm_crc32_u64(s, word);
        p += 8;
        n -= 8;
    }
    auto s32 = static_cast<std::uint32_t>(s);
    while (n > 0) {
        s32 = _mm_crc32_u8(s32, *p);
        ++p;
        --n;
    }
    return s32;
}

[[nodiscard]] inline bool crc32c_hw_available() noexcept {
    return __builtin_cpu_supports("sse4.2") != 0;
}
#else
[[nodiscard]] inline bool crc32c_hw_available() noexcept { return false; }
#endif

/// Fold \p data into an in-progress CRC32C state (hardware CRC32 when
/// the CPU has it, slicing-by-8 otherwise).
[[nodiscard]] inline std::uint32_t crc32c_update(std::uint32_t state,
                                                 ConstBytes data) noexcept {
#if defined(__x86_64__)
    static const bool hw = crc32c_hw_available();
    if (hw) {
        return crc32c_update_sse42(state, data);
    }
#endif
    return crc32c_update_portable(state, data);
}

/// Finish an incremental CRC32C computation.
[[nodiscard]] constexpr std::uint32_t crc32c_final(
    std::uint32_t state) noexcept {
    return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC32C of a byte span.
[[nodiscard]] inline std::uint32_t crc32c(ConstBytes data) noexcept {
    return crc32c_final(crc32c_update(crc32c_init(), data));
}

}  // namespace blobseer::engine
