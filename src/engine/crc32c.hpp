/// \file crc32c.hpp
/// \brief CRC32C (Castagnoli) checksum for storage-engine records.
///
/// Every record and hint file the log engine writes is protected by
/// CRC32C (the polynomial used by iSCSI, ext4 and most storage engines,
/// chosen over CRC32 for its better error-detection properties on short
/// frames). On x86-64 CPUs with SSE4.2 the update runs on the `crc32`
/// instruction, 8 bytes per step; elsewhere it uses slicing-by-8 tables.
/// The two paths are bit-identical (test_engine checks them against each
/// other), and the choice is made once per process by a cached
/// `__builtin_cpu_supports` probe. The incremental init/update/final form
/// lets callers checksum a record spread over several buffers without
/// concatenating them. See DESIGN.md §8.1 for the on-disk format this
/// protects.

#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define BLOBSEER_CRC32C_HW 1
#else
#define BLOBSEER_CRC32C_HW 0
#endif

#include "common/buffer.hpp"

namespace blobseer::engine {

namespace detail {

/// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table;
/// table[k][i] advances a byte through k additional zero bytes, letting
/// the update loop fold 8 input bytes per iteration (~4-8x faster than
/// byte-at-a-time — reopen CRCs whole multi-MB hint files).
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

/// Portable path: slicing-by-8 over the tables above.
[[nodiscard]] inline std::uint32_t crc32c_update_table(
    std::uint32_t state, ConstBytes data) noexcept {
    const auto& t = kCrc32cTables;
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    while (n >= 8) {
        const std::uint32_t lo = state ^ load_le32(p);
        const std::uint32_t hi = load_le32(p + 4);
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

#if BLOBSEER_CRC32C_HW
/// SSE4.2 path: the `crc32` instruction computes the same Castagnoli
/// CRC, 8 bytes per instruction. Only call when the CPU has SSE4.2.
[[nodiscard]] __attribute__((target("sse4.2"))) inline std::uint32_t
crc32c_update_hw(std::uint32_t state, ConstBytes data) noexcept {
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    std::uint64_t crc = state;
    while (n >= 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, sizeof word);
        crc = _mm_crc32_u64(crc, word);
        p += 8;
        n -= 8;
    }
    auto crc32 = static_cast<std::uint32_t>(crc);
    while (n > 0) {
        crc32 = _mm_crc32_u8(crc32, *p);
        ++p;
        --n;
    }
    return crc32;
}

[[nodiscard]] inline bool crc32c_hw_available() noexcept {
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sse4.2") != 0;
    }();
    return available;
}
#endif

}  // namespace detail

/// Start an incremental CRC32C computation.
[[nodiscard]] constexpr std::uint32_t crc32c_init() noexcept {
    return 0xFFFFFFFFu;
}

/// Fold \p data into an in-progress CRC32C state.
[[nodiscard]] inline std::uint32_t crc32c_update(std::uint32_t state,
                                                 ConstBytes data) noexcept {
#if BLOBSEER_CRC32C_HW
    if (detail::crc32c_hw_available()) {
        return detail::crc32c_update_hw(state, data);
    }
#endif
    return detail::crc32c_update_table(state, data);
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
