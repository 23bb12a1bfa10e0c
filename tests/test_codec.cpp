/// \file test_codec.cpp
/// \brief LZ4 block-format conformance: decode vectors pinned
///        byte-for-byte against the published format, pinned compressor
///        output (the matcher is deterministic), randomized round-trip
///        properties incl. zero-length / incompressible / >4 MiB inputs,
///        and a malformed-stream fuzz loop that must never read out of
///        bounds (CI runs this file under ASan+UBSan and TSan).

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

#include "codec/codec.hpp"
#include "codec/lz4.hpp"
#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"

namespace blobseer::codec {
namespace {

[[nodiscard]] Buffer bytes(std::initializer_list<int> xs) {
    Buffer out;
    for (const int x : xs) {
        out.push_back(static_cast<std::uint8_t>(x));
    }
    return out;
}

[[nodiscard]] Buffer ascii(const std::string& s) {
    return {s.begin(), s.end()};
}

// ---- pinned decode vectors (format conformance) ----------------------------
//
// Each block below is hand-assembled from lz4_Block_format.md; a decoder
// that deviates from the spec in token/extension/offset handling fails
// these byte-for-byte.

TEST(Lz4Format, LiteralsOnlyBlock) {
    // token 0x50: 5 literals, no match (last sequence is literals-only).
    const Lz4Codec c;
    const Buffer block = bytes({0x50, 'h', 'e', 'l', 'l', 'o'});
    EXPECT_EQ(c.decompress(block, 5), ascii("hello"));
}

TEST(Lz4Format, EmptyBlock) {
    // token 0x00: zero literals, no match — the empty input's encoding.
    const Lz4Codec c;
    EXPECT_EQ(c.decompress(bytes({0x00}), 0), Buffer{});
}

TEST(Lz4Format, ExtendedLiteralLength) {
    // 20 literals: high nibble 15, one extension byte 5 (15 + 5 = 20).
    const Lz4Codec c;
    Buffer block = bytes({0xF0, 0x05});
    Buffer raw;
    for (int i = 0; i < 20; ++i) {
        block.push_back(static_cast<std::uint8_t>('a' + i));
        raw.push_back(static_cast<std::uint8_t>('a' + i));
    }
    EXPECT_EQ(c.decompress(block, 20), raw);
}

TEST(Lz4Format, SimpleMatch) {
    // "abcd" x4: 4 literals, match offset 4 / length 8 (token low nibble
    // 8-4=4), then the mandatory literals-only tail.
    const Lz4Codec c;
    const Buffer block = bytes(
        {0x44, 'a', 'b', 'c', 'd', 0x04, 0x00, 0x40, 'a', 'b', 'c', 'd'});
    EXPECT_EQ(c.decompress(block, 16), ascii("abcdabcdabcdabcd"));
}

TEST(Lz4Format, OverlappingMatchIsRle) {
    // 1 literal 'a', match offset 1 / length 10: each copied byte is the
    // one just produced, i.e. run-length encoding. Tail: 5 literals.
    const Lz4Codec c;
    const Buffer block =
        bytes({0x16, 'a', 0x01, 0x00, 0x50, 'a', 'a', 'a', 'a', 'a'});
    EXPECT_EQ(c.decompress(block, 16), Buffer(16, 'a'));
}

TEST(Lz4Format, ExtendedMatchLength) {
    // Match length 25: nibble 15 + extension byte 6 (+ implicit 4).
    const Lz4Codec c;
    const Buffer block =
        bytes({0x1F, 'a', 0x01, 0x00, 0x06, 0x50, 'a', 'a', 'a', 'a', 'a'});
    EXPECT_EQ(c.decompress(block, 31), Buffer(31, 'a'));
}

TEST(Lz4Format, MultiByteLengthExtension) {
    // Literal length 15 + 255 + 9 = 279: extension run {0xFF, 0x09}.
    const Lz4Codec c;
    Buffer block = bytes({0xF0, 0xFF, 0x09});
    const Buffer raw(279, 'z');
    block.insert(block.end(), raw.begin(), raw.end());
    EXPECT_EQ(c.decompress(block, 279), raw);
}

// ---- pinned malformed blocks ------------------------------------------------

TEST(Lz4Format, RejectsZeroOffset) {
    const Lz4Codec c;
    const Buffer block =
        bytes({0x14, 'a', 0x00, 0x00, 0x50, 'a', 'a', 'a', 'a', 'a'});
    EXPECT_THROW((void)c.decompress(block, 14), Error);
}

TEST(Lz4Format, RejectsOffsetBeforeOutputStart) {
    // Offset 2 with only 1 byte produced so far.
    const Lz4Codec c;
    const Buffer block =
        bytes({0x14, 'a', 0x02, 0x00, 0x50, 'a', 'a', 'a', 'a', 'a'});
    EXPECT_THROW((void)c.decompress(block, 14), Error);
}

TEST(Lz4Format, RejectsTruncatedBlock) {
    const Lz4Codec c;
    // Literal run claims 5 bytes but only 2 follow.
    EXPECT_THROW((void)c.decompress(bytes({0x50, 'a', 'b'}), 5), Error);
    // Block ends right after a match: last sequence must be literals.
    EXPECT_THROW((void)c.decompress(bytes({0x44, 'a', 'b', 'c', 'd', 0x04,
                                           0x00}),
                                    12),
                 Error);
    // Offset cut in half.
    EXPECT_THROW((void)c.decompress(bytes({0x14, 'a', 0x01}), 10), Error);
}

TEST(Lz4Format, RejectsWrongDeclaredSize) {
    const Lz4Codec c;
    const Buffer block = bytes({0x50, 'h', 'e', 'l', 'l', 'o'});
    EXPECT_THROW((void)c.decompress(block, 4), Error);
    EXPECT_THROW((void)c.decompress(block, 6), Error);
    EXPECT_THROW((void)c.decompress(Buffer{}, 1), Error);
}

// ---- pinned compressor output ----------------------------------------------
//
// The greedy single-probe matcher is deterministic; pin its output so an
// accidental change to emission order or end-of-block handling shows up
// as a byte diff, not just a round-trip pass.

TEST(Lz4Compress, PinnedZeroRun) {
    const Lz4Codec c;
    // 32 zeros: 1 literal, match offset 1 len 26 (ext 22-15=7), 5-literal
    // tail — the format's mandatory last-12-bytes handling in miniature.
    const Buffer expect = bytes(
        {0x1F, 0x00, 0x01, 0x00, 0x07, 0x50, 0x00, 0x00, 0x00, 0x00, 0x00});
    EXPECT_EQ(c.compress(Buffer(32, 0x00)), expect);
}

TEST(Lz4Compress, PinnedSmallInputsAreLiterals) {
    const Lz4Codec c;
    EXPECT_EQ(c.compress(Buffer{}), bytes({0x00}));
    // <= 12 bytes can hold no match by the end-of-block rules.
    EXPECT_EQ(c.compress(ascii("xxxxx")),
              bytes({0x50, 'x', 'x', 'x', 'x', 'x'}));
}

// The encoder trades a little ratio for speed (skip acceleration on
// misses). Bound the trade on the benchmark's content shape: 64-byte
// lines alternating between random words and a repeated byte, ~2:1.
[[nodiscard]] Buffer two_to_one_content(std::uint64_t tag, std::size_t size) {
    Buffer out(size);
    for (std::size_t i = 0; i + 8 <= size; i += 8) {
        const std::uint64_t word = i / 8;
        const std::uint64_t line = mix64(tag ^ (word / 8));
        const std::uint64_t v = (line & 1) != 0
                                    ? mix64(hash_combine(tag, word))
                                    : 0x0101010101010101ULL * (line >> 56);
        std::memcpy(out.data() + i, &v, 8);
    }
    return out;
}

TEST(Lz4Compress, RatioWithinThreePercentOfPreviousEncoder) {
    const Lz4Codec c;
    // Frame size of this 64 KiB chunk under the previous encoder, which
    // probed every position.
    constexpr std::size_t kPreviousFrameBytes = 36653;
    const Buffer raw = two_to_one_content(1, 64 << 10);
    const Buffer frame = encode_frame(c, raw);
    EXPECT_LE(frame.size(), kPreviousFrameBytes * 103 / 100);
    EXPECT_LT(frame.size(), raw.size() * 6 / 10);
    EXPECT_EQ(decode_frame(c, frame), raw);
}

// ---- framing ----------------------------------------------------------------

TEST(CodecFrame, IncompressibleDataPassesThroughRaw) {
    const Lz4Codec c;
    std::mt19937_64 rng(7);
    Buffer raw(256);
    for (auto& b : raw) {
        b = static_cast<std::uint8_t>(rng());
    }
    const Buffer frame = encode_frame(c, raw);
    ASSERT_FALSE(frame.empty());
    EXPECT_EQ(frame[0], kFrameRaw);
    EXPECT_EQ(frame.size(), raw.size() + 1);  // one tag byte of overhead
    EXPECT_EQ(decode_frame(c, frame), raw);
    EXPECT_EQ(frame_raw_size(frame), raw.size());
}

TEST(CodecFrame, CompressibleDataShrinks) {
    const Lz4Codec c;
    const Buffer raw(64 * 1024, 0x42);
    const Buffer frame = encode_frame(c, raw);
    ASSERT_FALSE(frame.empty());
    EXPECT_EQ(frame[0], kFrameLz4);
    EXPECT_LT(frame.size(), raw.size() / 16);
    EXPECT_EQ(decode_frame(c, frame), raw);
    EXPECT_EQ(frame_raw_size(frame), raw.size());
}

TEST(CodecFrame, RejectsMalformedFrames) {
    const Lz4Codec c;
    EXPECT_THROW((void)decode_frame(c, Buffer{}), Error);
    EXPECT_THROW((void)decode_frame(c, bytes({0x02, 1, 2, 3})), Error);
    EXPECT_THROW((void)decode_frame(c, bytes({0x01, 4, 0})), Error);
    // Tamper with the declared raw size of a valid compressed frame.
    Buffer frame = encode_frame(c, Buffer(4096, 0x11));
    ASSERT_EQ(frame[0], kFrameLz4);
    frame[1] = static_cast<std::uint8_t>(frame[1] + 1);
    EXPECT_THROW((void)decode_frame(c, frame), Error);
}

// ---- randomized round-trip property ----------------------------------------

[[nodiscard]] Buffer random_payload(std::mt19937_64& rng, std::size_t size,
                                    int flavor) {
    Buffer out(size);
    switch (flavor) {
        case 0:  // incompressible
            for (auto& b : out) {
                b = static_cast<std::uint8_t>(rng());
            }
            break;
        case 1: {  // highly repetitive: short unit repeated
            std::uint8_t unit[7];
            for (auto& b : unit) {
                b = static_cast<std::uint8_t>(rng());
            }
            for (std::size_t i = 0; i < size; ++i) {
                out[i] = unit[i % sizeof unit];
            }
            break;
        }
        default:  // mixed: zero runs with random spikes
            for (std::size_t i = 0; i < size; ++i) {
                out[i] = (rng() % 13 == 0)
                             ? static_cast<std::uint8_t>(rng())
                             : 0x00;
            }
            break;
    }
    return out;
}

TEST(Lz4RoundTrip, PropertyOverSizesAndFlavors) {
    const Lz4Codec c;
    std::mt19937_64 rng(20260807);
    const std::size_t sizes[] = {0, 1, 4, 5, 12, 13, 64, 100,
                                 4096, 65536, 1 << 20};
    for (const std::size_t size : sizes) {
        for (int flavor = 0; flavor < 3; ++flavor) {
            const Buffer raw = random_payload(rng, size, flavor);
            const Buffer block = c.compress(raw);
            EXPECT_EQ(c.decompress(block, raw.size()), raw)
                << "size=" << size << " flavor=" << flavor;
            const Buffer frame = encode_frame(c, raw);
            EXPECT_EQ(decode_frame(c, frame), raw)
                << "size=" << size << " flavor=" << flavor;
        }
    }
}

TEST(Lz4RoundTrip, LargeInputsPast4MiB) {
    const Lz4Codec c;
    std::mt19937_64 rng(99);
    const std::size_t size = (4u << 20) + 4099;  // > 4 MiB, off-aligned
    for (const int flavor : {1, 0}) {
        const Buffer raw = random_payload(rng, size, flavor);
        const Buffer block = c.compress(raw);
        if (flavor == 1) {
            EXPECT_LT(block.size(), raw.size() / 8);
        }
        EXPECT_EQ(c.decompress(block, raw.size()), raw);
    }
}

// ---- malformed-stream fuzz --------------------------------------------------
//
// decode_frame / decompress must either return or throw Error on ANY
// input; the sanitizer jobs prove "never reads out of bounds". Seeded,
// so failures reproduce.

void fuzz_decode_one(const Lz4Codec& c, const Buffer& frame,
                     std::size_t claimed) {
    try {
        (void)decode_frame(c, frame);
    } catch (const Error&) {
    }
    try {
        (void)c.decompress(frame, claimed);
    } catch (const Error&) {
    }
}

TEST(Lz4Fuzz, MutatedAndGarbageStreamsNeverEscapeBounds) {
    const Lz4Codec c;
    std::mt19937_64 rng(0xB5EE5EED);
    for (int i = 0; i < 3000; ++i) {
        Buffer frame;
        if (i % 3 != 0) {
            // Start from a valid frame, then corrupt it.
            const Buffer raw =
                random_payload(rng, 1 + rng() % 512, static_cast<int>(rng() % 3));
            frame = encode_frame(c, raw);
            const std::size_t flips = 1 + rng() % 8;
            for (std::size_t f = 0; f < flips && !frame.empty(); ++f) {
                frame[rng() % frame.size()] ^=
                    static_cast<std::uint8_t>(1u << (rng() % 8));
            }
            if (rng() % 4 == 0 && !frame.empty()) {
                frame.resize(rng() % frame.size());  // truncate
            }
        } else {
            // Pure garbage claiming to be a block.
            frame.resize(rng() % 300);
            for (auto& b : frame) {
                b = static_cast<std::uint8_t>(rng());
            }
        }
        const std::size_t claimed = rng() % (1u << 20);
        fuzz_decode_one(c, frame, claimed);
    }
}

}  // namespace
}  // namespace blobseer::codec
