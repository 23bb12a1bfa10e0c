/// \file format.hpp
/// \brief On-disk layout of the log-structured storage engine.
///
/// Two file kinds live in an engine directory (DESIGN.md §8.1), beside
/// its LOCK file:
///
///   seg-<id>.log   bounded append-only segments. 24-byte header
///                  [magic 8B | format u32 | reserved u32 | id u64]
///                  followed by records:
///                  [crc32c u32 | klen u32 | vlen u32 | type u8 | key | value]
///                  The CRC covers every byte after itself (klen..value),
///                  so a torn or corrupted record can never be mistaken
///                  for a committed one.
///
///   seg-<id>.hint  per-segment hint (Bitcask's hint files): a 32-byte
///                  header [magic 8B | format u32 | reserved u32 |
///                  segment u64 | covered u64], then one entry
///                  [type u8 | klen u32 | vlen u32 | offset u64 | key]
///                  per record of seg-<id>.log in record order, describing
///                  exactly its first `covered` bytes, then a 12-byte
///                  trailer [count u64 | crc32c u32], the CRC over every
///                  byte before it. The trailer comes last so a hint can
///                  be streamed out while its segment is walked. Reopen
///                  applies a valid hint instead of reading those bytes
///                  and scans only the rest.
///
/// All integers are little-endian with explicit byte shuffling (the same
/// convention as the RPC wire format, DESIGN.md §7.1), so files are
/// portable across hosts.

#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/buffer.hpp"

namespace blobseer::engine {

inline constexpr std::array<std::uint8_t, 8> kSegmentMagic = {
    'B', 'S', 'L', 'G', 'S', 'E', 'G', '1'};
inline constexpr std::array<std::uint8_t, 8> kHintMagic = {
    'B', 'S', 'L', 'G', 'H', 'N', 'T', '1'};

/// On-disk format version, bumped on incompatible layout changes.
/// Version history:
///   1  original layout (record types kPut/kTombstone only).
///   2  adds the kPutCompressed record type: the value bytes are a
///      codec frame (codec/codec.hpp) instead of the raw value. The
///      record and hint-entry layouts are unchanged — the CRC
///      still covers the stored (compressed) bytes — so v1 readers of
///      the *structure* only differ in the extra type byte value.
/// Readers accept kMinFormatVersion..kFormatVersion; writers emit
/// version 2 only when compact-time compression is enabled, so a
/// deployment that never turns it on keeps producing byte-identical v1
/// files.
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint32_t kMinFormatVersion = 1;

[[nodiscard]] constexpr bool supported_format_version(
    std::uint32_t v) noexcept {
    return v >= kMinFormatVersion && v <= kFormatVersion;
}

inline constexpr std::size_t kSegmentHeaderSize = 24;
inline constexpr std::size_t kRecordHeaderSize = 13;  // crc + klen + vlen + type
inline constexpr std::size_t kHintHeaderSize = 32;
inline constexpr std::size_t kHintTrailerSize = 12;  // count + crc
inline constexpr std::size_t kHintEntryHeaderSize = 17;  // type + klen + vlen + offset

/// Sanity bounds applied while scanning: a length field beyond these is
/// treated as a torn/corrupt record rather than an allocation request.
inline constexpr std::uint32_t kMaxKeyLen = 1u << 20;         // 1 MiB
inline constexpr std::uint32_t kMaxValueLen = 1u << 30;       // 1 GiB

enum class RecordType : std::uint8_t {
    kPut = 1,        ///< key/value insertion (or overwrite)
    kTombstone = 2,  ///< deletion marker; value is empty
    /// Put whose value bytes are a codec frame (format v2; written by
    /// the compactor when cold-segment recompression is enabled). The
    /// CRC covers the stored frame; get() decompresses transparently.
    kPutCompressed = 3,
};

[[nodiscard]] constexpr bool valid_record_type(std::uint8_t t) noexcept {
    return t == static_cast<std::uint8_t>(RecordType::kPut) ||
           t == static_cast<std::uint8_t>(RecordType::kTombstone) ||
           t == static_cast<std::uint8_t>(RecordType::kPutCompressed);
}

/// Both flavors of live-value record.
[[nodiscard]] constexpr bool is_put_type(RecordType t) noexcept {
    return t == RecordType::kPut || t == RecordType::kPutCompressed;
}

// ---- little-endian primitives ----------------------------------------------

inline void put_u32(Buffer& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
    }
}

inline void put_u64(Buffer& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
    }
}

/// Caller guarantees pos + 4 <= in.size().
[[nodiscard]] inline std::uint32_t get_u32(ConstBytes in,
                                           std::size_t pos) noexcept {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(in[pos + static_cast<std::size_t>(i)])
             << (i * 8);
    }
    return v;
}

/// Caller guarantees pos + 8 <= in.size().
[[nodiscard]] inline std::uint64_t get_u64(ConstBytes in,
                                           std::size_t pos) noexcept {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(in[pos + static_cast<std::size_t>(i)])
             << (i * 8);
    }
    return v;
}

/// Overwrite 4 bytes at \p pos (used to patch a CRC placeholder).
inline void poke_u32(Buffer& out, std::size_t pos, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        out[pos + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (i * 8));
    }
}

// ---- framing helpers --------------------------------------------------------

[[nodiscard]] inline std::uint64_t record_size(std::uint32_t klen,
                                               std::uint32_t vlen) noexcept {
    return kRecordHeaderSize + klen + vlen;
}

/// 24-byte segment header for segment \p id, stamped \p version.
[[nodiscard]] inline Buffer encode_segment_header(
    std::uint64_t id, std::uint32_t version = kFormatVersion) {
    Buffer out;
    out.reserve(kSegmentHeaderSize);
    out.insert(out.end(), kSegmentMagic.begin(), kSegmentMagic.end());
    put_u32(out, version);
    put_u32(out, 0);  // reserved
    put_u64(out, id);
    return out;
}

/// Parse a segment header; returns the segment id or nullopt if the
/// bytes are not a well-formed header of a supported format version.
[[nodiscard]] inline std::optional<std::uint64_t> decode_segment_header(
    ConstBytes in) {
    if (in.size() < kSegmentHeaderSize) {
        return std::nullopt;
    }
    for (std::size_t i = 0; i < kSegmentMagic.size(); ++i) {
        if (in[i] != kSegmentMagic[i]) {
            return std::nullopt;
        }
    }
    if (!supported_format_version(get_u32(in, 8))) {
        return std::nullopt;
    }
    return get_u64(in, 16);
}

}  // namespace blobseer::engine
