#include "codec/lz4.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace blobseer::codec {

namespace {

// Format constants from lz4_Block_format.md.
constexpr std::size_t kMinMatch = 4;       // shortest encodable match
constexpr std::size_t kMfLimit = 12;       // no match starts in last 12 B
constexpr std::size_t kLastLiterals = 5;   // final 5 B are always literals
constexpr std::size_t kMaxOffset = 65535;  // u16 back-reference

// Single-probe hash table: 2^14 entries keeps the per-thread footprint at
// 64 KiB while still finding the matches that matter for chunk-sized
// (64 KiB..1 MiB) inputs. Slots start at position 0 rather than an
// "empty" marker: an unset slot is then just a candidate whose bytes are
// checked like any other. The probe is then one offset compare before
// the byte check; testing an empty marker first made encoding the
// benchmark's 2:1 content about 3x slower.
constexpr unsigned kHashLog = 14;

// LZ4's skip acceleration: after 2^kSkipTrigger consecutive misses the
// search step grows by one byte, so incompressible stretches are crossed
// quickly; a match resets it.
constexpr unsigned kSkipTrigger = 6;

/// Little-endian 32-bit load (the hash input, so the output is the same
/// on every host).
[[nodiscard]] std::uint32_t load_le32(const std::uint8_t* p) noexcept {
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) {
        v = __builtin_bswap32(v);
    }
    return v;
}

[[nodiscard]] std::uint64_t load64(const std::uint8_t* p) noexcept {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// Number of equal leading bytes (in memory order) of two 8-byte loads
/// whose XOR is \p diff != 0.
[[nodiscard]] std::size_t equal_prefix(std::uint64_t diff) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
        return static_cast<std::size_t>(std::countr_zero(diff)) / 8;
    } else {
        return static_cast<std::size_t>(std::countl_zero(diff)) / 8;
    }
}

[[nodiscard]] std::uint32_t hash32(std::uint32_t v) noexcept {
    return (v * 2654435761u) >> (32 - kHashLog);
}

/// Length of the match at \p ip against the earlier \p cand, knowing
/// the first kMinMatch bytes agree and that it may not reach \p limit.
[[nodiscard]] std::size_t match_length(const std::uint8_t* src,
                                       std::size_t cand, std::size_t ip,
                                       std::size_t limit) noexcept {
    std::size_t len = kMinMatch;
    const std::size_t max_len = limit - ip;
    while (len + 8 <= max_len) {
        const std::uint64_t diff =
            load64(src + cand + len) ^ load64(src + ip + len);
        if (diff != 0) {
            return len + equal_prefix(diff);
        }
        len += 8;
    }
    while (len < max_len && src[cand + len] == src[ip + len]) {
        ++len;
    }
    return len;
}

/// Write a length in the token-nibble + 255-run-extension encoding.
[[nodiscard]] std::uint8_t* put_length_ext(std::uint8_t* op,
                                           std::size_t len) noexcept {
    std::size_t rem = len - 15;
    while (rem >= 255) {
        *op++ = 0xFF;
        rem -= 255;
    }
    *op++ = static_cast<std::uint8_t>(rem);
    return op;
}

/// Emit one sequence at \p op: \p lit_len literals from \p lit and, if
/// offset != 0, a match of match_len bytes at offset back. Returns the
/// new output position.
[[nodiscard]] std::uint8_t* emit_sequence(std::uint8_t* op,
                                          const std::uint8_t* lit,
                                          std::size_t lit_len,
                                          std::size_t offset,
                                          std::size_t match_len) noexcept {
    std::uint8_t token = 0;
    token |= static_cast<std::uint8_t>((lit_len >= 15 ? 15 : lit_len) << 4);
    if (offset != 0) {
        const std::size_t m = match_len - kMinMatch;
        token |= static_cast<std::uint8_t>(m >= 15 ? 15 : m);
    }
    *op++ = token;
    if (lit_len >= 15) {
        op = put_length_ext(op, lit_len);
    }
    if (lit_len != 0) {
        std::memcpy(op, lit, lit_len);
        op += lit_len;
    }
    if (offset != 0) {
        *op++ = static_cast<std::uint8_t>(offset & 0xFF);
        *op++ = static_cast<std::uint8_t>(offset >> 8);
        if (match_len - kMinMatch >= 15) {
            op = put_length_ext(op, match_len - kMinMatch);
        }
    }
    return op;
}

/// The calling thread's hash table, allocated on its first compress and
/// reset (not reallocated) on every later one.
[[nodiscard]] std::uint32_t* reset_hash_table() {
    thread_local std::vector<std::uint32_t> table;
    table.assign(std::size_t{1} << kHashLog, 0);
    return table.data();
}

}  // namespace

Buffer Lz4Codec::compress(ConstBytes raw) const {
    const std::size_t n = raw.size();
    // LZ4's worst-case bound: every byte a literal, plus the token and
    // one length-extension byte per 255 literals.
    Buffer out(n + n / 255 + 16);
    const std::uint8_t* src = raw.data();
    std::uint8_t* op = out.data();
    std::size_t anchor = 0;
    if (n > kMfLimit) {
        std::uint32_t* table = reset_hash_table();
        const std::size_t match_limit = n - kMfLimit;  // last legal start
        const std::size_t end_limit = n - kLastLiterals;
        std::size_t ip = 0;
        std::size_t search = std::size_t{1} << kSkipTrigger;
        while (ip < match_limit) {
            const std::uint32_t seq = load_le32(src + ip);
            const std::uint32_t h = hash32(seq);
            const std::uint32_t cand = table[h];
            table[h] = static_cast<std::uint32_t>(ip);
            // One unsigned compare accepts offsets 1..kMaxOffset; an
            // unset slot (0) at ip == 0 wraps and is rejected.
            if (ip - cand - 1 < kMaxOffset &&
                load_le32(src + cand) == seq) {
                const std::size_t len =
                    match_length(src, cand, ip, end_limit);
                op = emit_sequence(op, src + anchor, ip - anchor, ip - cand,
                                   len);
                ip += len;
                anchor = ip;
                search = std::size_t{1} << kSkipTrigger;
            } else {
                ip += search++ >> kSkipTrigger;
            }
        }
    }
    op = emit_sequence(op, src + anchor, n - anchor, 0, 0);  // trailing
    out.resize(static_cast<std::size_t>(op - out.data()));
    return out;
}

Buffer Lz4Codec::decompress(ConstBytes block, std::size_t raw_size) const {
    // A sequence of k input bytes expands to fewer than 255*k output
    // bytes, so anything claiming more is malformed — reject before
    // allocating the output buffer.
    if (raw_size > 0 &&
        (block.empty() || raw_size / 255 > block.size())) {
        throw Error("lz4: claimed raw size impossible for block size");
    }
    Buffer out(raw_size);
    const std::size_t ie = block.size();
    std::size_t ip = 0;
    std::size_t op = 0;
    if (ie == 0) {
        if (raw_size != 0) {
            throw Error("lz4: empty block with nonzero raw size");
        }
        return out;
    }
    while (true) {
        if (ip >= ie) {
            throw Error("lz4: block ends mid-sequence");
        }
        const std::uint8_t token = block[ip++];
        std::size_t lit_len = token >> 4;
        if (lit_len == 15) {
            std::uint8_t b = 0;
            do {
                if (ip >= ie) {
                    throw Error("lz4: truncated literal-length extension");
                }
                b = block[ip++];
                lit_len += b;
            } while (b == 0xFF);
        }
        if (lit_len > ie - ip) {
            throw Error("lz4: literal run past end of block");
        }
        if (lit_len > raw_size - op) {
            throw Error("lz4: literal run past declared raw size");
        }
        if (lit_len != 0) {
            std::memcpy(out.data() + op, block.data() + ip, lit_len);
        }
        ip += lit_len;
        op += lit_len;
        if (ip == ie) {
            // Proper end of block: the last sequence is literals-only.
            if (op != raw_size) {
                throw Error("lz4: block decodes to wrong size");
            }
            return out;
        }
        if (ie - ip < 2) {
            throw Error("lz4: truncated match offset");
        }
        const std::size_t offset =
            static_cast<std::size_t>(block[ip]) |
            (static_cast<std::size_t>(block[ip + 1]) << 8);
        ip += 2;
        if (offset == 0) {
            throw Error("lz4: zero match offset");
        }
        if (offset > op) {
            throw Error("lz4: match offset before start of output");
        }
        std::size_t match_len = token & 0x0F;
        if (match_len == 15) {
            std::uint8_t b = 0;
            do {
                if (ip >= ie) {
                    throw Error("lz4: truncated match-length extension");
                }
                b = block[ip++];
                match_len += b;
            } while (b == 0xFF);
        }
        match_len += kMinMatch;
        if (match_len > raw_size - op) {
            throw Error("lz4: match past declared raw size");
        }
        // An overlapping match (offset < length) repeats the last
        // `offset` bytes. Copying from the match source in pieces of
        // (op - src) bytes keeps every memcpy non-overlapping: each piece
        // is a whole number of periods, and the piece doubles each time.
        const std::size_t src = op - offset;
        while (match_len != 0) {
            const std::size_t piece = std::min(op - src, match_len);
            std::memcpy(out.data() + op, out.data() + src, piece);
            op += piece;
            match_len -= piece;
        }
    }
}

}  // namespace blobseer::codec
