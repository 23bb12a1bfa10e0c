/// \file lz4.hpp
/// \brief Vendored, dependency-free LZ4 block-format codec.
///
/// Implements the public LZ4 block format (github.com/lz4/lz4,
/// doc/lz4_Block_format.md): a block is a run of sequences, each
///
///   [token 1B | lit-len ext* | literals | offset u16 LE | match-len ext*]
///
/// where the token's high nibble is the literal length (15 = extended by
/// 255-run bytes) and the low nibble is match length minus 4 (likewise
/// extended). A match copies `match length` bytes from `offset` bytes
/// back in the output (1..65535; overlap allowed, which is how RLE runs
/// compress). End-of-block rules: the last sequence is literals-only,
/// the final 5 bytes of input are always literals, and no match may
/// start within the last 12 bytes.
///
/// The compressor is the classic single-probe greedy matcher (a small
/// position hash table, no chains) with LZ4's skip acceleration on runs
/// of misses — deterministic, so its output can be pinned in tests. The
/// decompressor is strict and fully bounds-checked: any malformed block
/// throws Error and never touches memory outside the input span or the
/// output buffer (fuzzed under ASan in test_codec).

#pragma once

#include "codec/codec.hpp"

namespace blobseer::codec {

class Lz4Codec final : public Codec {
  public:
    [[nodiscard]] std::string name() const override { return "lz4"; }

    [[nodiscard]] Buffer compress(ConstBytes raw) const override;

    [[nodiscard]] Buffer decompress(ConstBytes block,
                                    std::size_t raw_size) const override;
};

}  // namespace blobseer::codec
