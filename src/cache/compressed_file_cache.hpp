/// \file compressed_file_cache.hpp
/// \brief On-disk LRU of compressed values: the middle storage tier.
///
/// Sits between the RAM cache and the log engine (DESIGN.md §14): values
/// evicted from RAM are *demoted* here in compressed form, and a hit
/// *promotes* them back. Entries are appended to bounded cache-<id>.dat
/// files as
///
///   [crc32c u32 | klen u32 | raw_len u32 | stored_len u32 | key | frame]
///
/// where `frame` is the codec-framed (possibly passthrough) value and the
/// CRC covers every byte after itself. The in-memory LruFileIndex is the
/// only record of what lives where — nothing is ever recovered from disk,
/// which makes the cache fully disposable: corrupt entries (CRC or codec
/// failure), missing files, even `rm -rf` of the whole directory just
/// turn hits into misses that fall through to the durable engine. Write
/// errors are swallowed and counted for the same reason: a cache that
/// cannot write is merely a smaller cache.
///
/// Eviction is byte-budgeted on *live compressed* bytes. Files are
/// append-only, so eviction is logical; a file's disk space is reclaimed
/// when its last live entry goes, and a physical bound (budget +
/// one file target, doubled) retires whole cold files early if logical
/// garbage accumulates faster than files drain.

#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "cache/lru_file_index.hpp"
#include "codec/lz4.hpp"
#include "common/buffer.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "engine/segment_file.hpp"

namespace blobseer::cache {

struct FileCacheConfig {
    std::filesystem::path dir;
    /// Max live compressed bytes; 0 = unlimited.
    std::uint64_t budget_bytes = 256ULL << 20;
    /// Rotate to a new cache file once the active one reaches this size.
    std::uint64_t file_target_bytes = 8ULL << 20;
};

class CompressedFileCache {
  public:
    /// Wipes and recreates cfg.dir: the cache never trusts leftover
    /// files (there is no on-disk index to interpret them with).
    explicit CompressedFileCache(FileCacheConfig cfg);

    CompressedFileCache(const CompressedFileCache&) = delete;
    CompressedFileCache& operator=(const CompressedFileCache&) = delete;

    /// Insert \p raw under \p key (compressing if it helps). Best-effort:
    /// I/O failures are counted, not thrown. A key already present is
    /// only freshened in recency, checked before any codec or CRC work
    /// and counted in put_present() — callers erase() before re-putting
    /// a key whose bytes changed. Returns true iff an entry was written.
    bool put(const std::string& key, ConstBytes raw);

    /// Fetch and decompress \p key. Any integrity failure (CRC, codec,
    /// size mismatch, short read) silently drops the entry and returns
    /// nullopt so the caller falls through to the durable tier.
    [[nodiscard]] std::optional<Buffer> get(const std::string& key);

    [[nodiscard]] bool contains(const std::string& key);

    void erase(const std::string& key);

    /// Forget everything and start over with an empty directory — what a
    /// process restart does implicitly (the index is never persisted).
    void clear();

    // ---- observability ----------------------------------------------------

    [[nodiscard]] std::size_t entries();
    [[nodiscard]] std::uint64_t stored_bytes();    ///< live compressed
    [[nodiscard]] std::uint64_t raw_bytes();       ///< live pre-compression
    [[nodiscard]] std::uint64_t physical_bytes();  ///< on-disk file bytes
    [[nodiscard]] std::size_t file_count();

    [[nodiscard]] std::uint64_t hits() const { return hits_.get(); }
    [[nodiscard]] std::uint64_t misses() const { return misses_.get(); }
    [[nodiscard]] std::uint64_t insertions() const {
        return insertions_.get();
    }
    [[nodiscard]] std::uint64_t evictions() const { return evictions_.get(); }
    /// put() calls that found the key resident and only freshened it.
    [[nodiscard]] std::uint64_t put_present() const {
        return put_present_.get();
    }
    [[nodiscard]] std::uint64_t crc_failures() const {
        return crc_failures_.get();
    }
    [[nodiscard]] std::uint64_t io_errors() const { return io_errors_.get(); }

    [[nodiscard]] const std::filesystem::path& dir() const {
        return cfg_.dir;
    }
    [[nodiscard]] std::uint64_t budget_bytes() const {
        return cfg_.budget_bytes;
    }

  private:
    /// [crc | klen | raw_len | stored_len] prefix of every entry.
    static constexpr std::size_t kEntryHeaderSize = 16;

    struct CacheFile {
        std::shared_ptr<engine::SegmentFile> file;
        std::size_t live_entries = 0;
    };

    /// Open a fresh active file, recreating the directory if it was
    /// deleted out from under us. Returns false (and counts an I/O
    /// error) if even that fails.
    bool open_active_locked();
    /// If \p key is resident, touch its recency and count a present put
    /// (callers hold mu_). False if absent.
    bool freshen_locked(const std::string& key);
    /// Drop one live entry's accounting from its file and retire the
    /// file when it drains (callers hold mu_).
    void release_entry_locked(const FileLocation& loc);
    /// Enforce the live-byte budget and the physical bound.
    void enforce_budgets_locked();
    [[nodiscard]] std::uint64_t physical_bytes_locked() const;

    const FileCacheConfig cfg_;
    const codec::Lz4Codec codec_;

    std::mutex mu_;  // guards index_, files_, active_*, next_file_id_
    LruFileIndex index_;
    std::map<std::uint64_t, CacheFile> files_;  // ordered: oldest first
    std::uint64_t next_file_id_ = 1;
    std::uint64_t active_file_id_ = 0;  // 0 = none (open failed)

    Counter hits_;
    Counter misses_;
    Counter insertions_;
    Counter put_present_;
    Counter evictions_;
    Counter crc_failures_;
    Counter io_errors_;

    MetricsGroup metrics_;  // declared last: unbinds before members die
};

}  // namespace blobseer::cache
