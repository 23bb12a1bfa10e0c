/// \file log_engine.hpp
/// \brief Log-structured key/value storage engine.
///
/// Replaces file-per-object persistence (one inode + one syscall pair per
/// object) with an append-only log: puts and tombstones are checksummed,
/// length-prefixed records appended to bounded segment files; an in-memory
/// index maps each live key to its (segment, offset, lengths) location.
/// Each segment gets a hint file when it seals (and the active one at
/// clean close) listing its records' keys and locations, so opening a
/// directory applies the hints in segment order and reads only the log
/// bytes no valid hint covers — O(records) of small entries instead of
/// O(log bytes), with nothing ever re-encoding the whole index. Recovery
/// tolerates a torn tail left by a crash mid-append (the torn suffix is
/// discarded; everything before it is recovered exactly). A background
/// compactor, driven by common::ThreadPool, rewrites low-liveness sealed
/// segments to reclaim space freed by overwrites and removes.
///
/// One engine serves three persistence layers: chunk::LogStore (data
/// providers), meta::LogMetaStore (metadata providers) and the version
/// manager's operation journal. On-disk format, invariants and the
/// crash-recovery contract: DESIGN.md §8.
///
/// Thread-safe. get() never serves bytes whose CRC does not match — it
/// throws ConsistencyError instead (corruption is surfaced, not masked).

#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "engine/format.hpp"
#include "engine/segment_file.hpp"

namespace blobseer::engine {

struct EngineConfig {
    /// Directory holding segments and their hints (created if absent).
    std::filesystem::path dir;

    /// Roll to a new segment once the active one reaches this size.
    std::uint64_t segment_target_bytes = 64ULL << 20;

    /// Sealed segments whose live fraction drops below this become
    /// compaction victims.
    double compact_min_live_ratio = 0.5;

    /// Run the compactor automatically on a background thread. Turn off
    /// for journal-style workloads that need scan() to preserve append
    /// order (compaction relocates records).
    bool background_compaction = true;

    /// fsync after every append. Off by default: records survive process
    /// crashes either way (the write hits the page cache synchronously);
    /// this knob buys power-failure durability at a large cost.
    bool fsync_appends = false;

    /// Cold-segment recompression (DESIGN.md §14.3): when the compactor
    /// relocates a live record out of a victim segment, store the value
    /// as an LZ4 codec frame if that shrinks it (kPutCompressed, format
    /// v2). Reads decompress transparently whether or not this is set;
    /// off by default so a deployment that never opts in keeps writing
    /// byte-identical v1 files.
    bool compress_on_compact = false;

    /// Values below this size skip the compression attempt when
    /// relocating (framing overhead dominates tiny values).
    std::uint32_t compress_min_bytes = 64;
};

/// Point-in-time observability snapshot (all counters monotonic except
/// the gauges in the first block).
struct EngineStatsSnapshot {
    std::uint64_t live_keys = 0;
    std::uint64_t live_value_bytes = 0;  ///< payload bytes of live records
    std::uint64_t disk_bytes = 0;        ///< total segment file bytes
    std::uint64_t segment_count = 0;

    std::uint64_t appends = 0;
    std::uint64_t overwrites = 0;
    std::uint64_t removes = 0;
    std::uint64_t gets = 0;

    std::uint64_t compactions = 0;
    std::uint64_t relocated_records = 0;
    std::uint64_t reclaimed_bytes = 0;

    /// get_ref() outcomes: served from a shared segment mapping vs.
    /// pread-copied (unsealed segment, compressed record, or mmap
    /// failure), and victim files whose unlink the compactor deferred to
    /// the last live pinned view.
    std::uint64_t ref_gets_mmap = 0;
    std::uint64_t ref_gets_copy = 0;
    std::uint64_t deferred_unlinks = 0;

    /// Compact-time recompression (zero unless compress_on_compact).
    std::uint64_t compressed_live_records = 0;  ///< gauge
    std::uint64_t compressed_live_bytes = 0;    ///< gauge, stored bytes
    std::uint64_t compact_compressed_records = 0;
    std::uint64_t compact_raw_bytes_in = 0;     ///< pre-compression bytes
    std::uint64_t compact_stored_bytes_out = 0; ///< post-compression bytes

    std::uint64_t hints_written = 0;
    std::uint64_t hint_bytes_written = 0;
    /// How the last open rebuilt the index: records applied from hint
    /// entries vs. records read back from the log itself.
    std::uint64_t hinted_records = 0;
    std::uint64_t scanned_records = 0;
    std::uint64_t torn_bytes_discarded = 0;
    std::uint64_t crc_read_failures = 0;
    /// Background chores that threw (their futures are discarded, so
    /// failures latch background compaction and hint writes off and
    /// count here; reads keep surfacing corruption per access).
    std::uint64_t background_failures = 0;
};

/// Per-segment pin coordinating live get_ref() views with the compactor's
/// unlink. Readers add() under the engine lock (so a pin always lands
/// before the compactor can retire the segment) and release() when the
/// last view owner drops; the compactor calls retire() instead of
/// unlinking directly. Whichever of "last release" and "retire" happens
/// second removes the file — the mutex-guarded path swap makes the unlink
/// exactly-once.
class SegmentPin {
  public:
    void add() noexcept { count_.fetch_add(1); }

    void release() noexcept {
        if (count_.fetch_sub(1) == 1 && retired_.load()) {
            unlink_now();
        }
    }

    /// Hand the file over for deferred deletion. Unlinks immediately when
    /// no view is pinned.
    void retire(std::filesystem::path path) {
        {
            const std::scoped_lock lock(mu_);
            path_ = std::move(path);
        }
        retired_.store(true);
        if (count_.load() == 0) {
            unlink_now();
        }
    }

    [[nodiscard]] bool pinned() const noexcept { return count_.load() > 0; }

  private:
    void unlink_now() noexcept {
        std::filesystem::path p;
        {
            const std::scoped_lock lock(mu_);
            p.swap(path_);
        }
        if (!p.empty()) {
            std::error_code ec;
            std::filesystem::remove(p, ec);
        }
    }

    std::atomic<std::uint64_t> count_{0};
    std::atomic<bool> retired_{false};
    std::mutex mu_;  // guards path_ (one-shot unlink handoff)
    std::filesystem::path path_;
};

/// Borrowed, CRC-verified view of a live value. `bytes` stays valid (and
/// byte-identical, even across compaction) for as long as `keepalive` is
/// held: it owns the segment mapping plus a SegmentPin reference that
/// defers the compactor's unlink. See DESIGN.md §15.3.
struct ValueRef {
    ConstBytes bytes{};
    std::shared_ptr<const void> keepalive{};
};

struct LogEngineTestPeer;

class LogEngine {
  public:
    /// Open (creating if needed) the engine rooted at cfg.dir, running
    /// crash recovery. Throws ConsistencyError if a *sealed* segment is
    /// corrupt (a torn tail on the newest segment is recovered silently).
    explicit LogEngine(EngineConfig cfg);

    /// Clean close: drains background work (queued hint writes included)
    /// and writes the active segment's hint, so the next open reads no
    /// record it already saw.
    ~LogEngine();

    LogEngine(const LogEngine&) = delete;
    LogEngine& operator=(const LogEngine&) = delete;

    // ---- data plane ------------------------------------------------------

    /// Insert or overwrite \p key.
    void put(std::string_view key, ConstBytes value);

    /// Insert \p key only if it is not live, atomically with the check
    /// (the idempotent-put primitive for immutable chunks/nodes: a
    /// concurrent duplicate never appends twice). Returns true if a
    /// record was appended.
    bool put_if_absent(std::string_view key, ConstBytes value);

    /// Fetch the live value of \p key, or nullopt if absent. Throws
    /// ConsistencyError if the stored record fails its CRC.
    [[nodiscard]] std::optional<Buffer> get(std::string_view key);

    /// Zero-copy variant of get(): returns a CRC-verified view served
    /// directly from the mmap'd segment when possible (sealed segment,
    /// uncompressed record), falling back to a pread copy otherwise.
    /// Either way the returned bytes are valid and immutable for the
    /// keepalive's lifetime — a pinned view defers the compactor's
    /// unlink of its segment file. Same error contract as get().
    [[nodiscard]] std::optional<ValueRef> get_ref(std::string_view key);

    [[nodiscard]] bool contains(std::string_view key);

    /// Append a tombstone for \p key. Returns false if the key was not
    /// live (no tombstone written).
    bool remove(std::string_view key);

    /// Live keys.
    [[nodiscard]] std::size_t count();

    /// Payload bytes of live records.
    [[nodiscard]] std::uint64_t live_value_bytes();

    // ---- maintenance -----------------------------------------------------

    /// Compact every victim segment now (foreground). Returns the number
    /// of segments rewritten.
    std::size_t compact();

    /// Block until queued background work (compaction, hint writes)
    /// drains.
    void wait_idle();

    [[nodiscard]] EngineStatsSnapshot stats();

    /// Visit every live record in log (append) order: the replay hook for
    /// journal consumers. Call only while no writer is active (e.g. at
    /// startup); the walk itself runs WITHOUT the engine lock so that
    /// callbacks may take consumer locks that are also held around put()
    /// at runtime (no lock-order inversion against the append path).
    void scan(const std::function<void(std::string_view key,
                                       ConstBytes value)>& fn);

    [[nodiscard]] const std::filesystem::path& directory() const noexcept {
        return cfg_.dir;
    }

  private:
    /// test_engine compares the index and segment accounting that two
    /// recoveries of one directory rebuild.
    friend struct LogEngineTestPeer;

    struct Location {
        std::uint64_t segment = 0;
        std::uint64_t offset = 0;  // of the record header within the file
        std::uint32_t klen = 0;
        std::uint32_t vlen = 0;  // stored bytes (the frame, if compressed)
        /// The stored value is a codec frame (record type kPutCompressed).
        bool compressed = false;

        [[nodiscard]] std::uint64_t size() const noexcept {
            return record_size(klen, vlen);
        }
    };

    struct Segment {
        std::shared_ptr<SegmentFile> file;
        /// Bytes of put records the index still references.
        std::uint64_t live_bytes = 0;
        /// Bytes of *current* tombstones (see dead_keys_). They count as
        /// live for compaction targeting — a tombstone must keep
        /// shadowing stale puts in older segments — except in the oldest
        /// segment, where nothing older exists and they are pure dead
        /// weight.
        std::uint64_t tomb_bytes = 0;
        bool sealed = false;
        /// Live get_ref() views of this segment; the compactor retires
        /// the file through it instead of unlinking directly.
        std::shared_ptr<SegmentPin> pin = std::make_shared<SegmentPin>();
    };

    struct ScanOutcome {
        std::uint64_t end_offset = 0;
        bool clean = false;
    };

    /// flock-held exclusive lock on the engine directory: two engines
    /// appending to the same segments would interleave records at
    /// overlapping offsets, so a double-open (operator double-start, a
    /// restart racing a dying daemon) must fail cleanly at construction.
    class DirLock {
      public:
        explicit DirLock(const std::filesystem::path& dir);
        ~DirLock();
        DirLock(const DirLock&) = delete;
        DirLock& operator=(const DirLock&) = delete;

      private:
        int fd_ = -1;
    };

    /// Rebuild the index from hints and the bytes they do not cover.
    /// Returns the sealed segments it had to scan, whose hints the
    /// background worker then writes.
    std::vector<std::uint64_t> recover();

    /// Walk records of one segment from \p from, invoking \p fn for each
    /// fully-committed one; stops at the first torn/corrupt record.
    ScanOutcome for_each_record(
        SegmentFile& file, std::uint64_t from,
        const std::function<void(std::uint64_t offset, RecordType type,
                                 std::string_view key, ConstBytes value)>& fn);

    /// Bounds-check one user key/value pair.
    static void validate_kv(std::string_view key, ConstBytes value);

    /// The unlocked half of get(): pread + CRC-verify + (if compressed)
    /// decode the record at \p loc. Throws ConsistencyError on mismatch.
    [[nodiscard]] Buffer read_value_checked(const Location& loc,
                                            SegmentFile& file,
                                            std::string_view key);

    // Append path (callers hold mu_).
    void append_locked(RecordType type, std::string_view key,
                       ConstBytes value);
    void open_fresh_segment_locked(std::uint64_t id);
    void roll_segment_if_needed_locked();
    void account_dead_put_locked(const Location& loc);
    void account_dead_tomb_locked(const Location& loc);

    /// Index/liveness effect of one scanned record (recovery replay and
    /// append share it). Returns true if a put replaced a live key.
    bool apply_record_locked(RecordType type, std::string_view key,
                             std::uint32_t vlen, const Location& loc);

    // Background work.
    [[nodiscard]] std::optional<std::uint64_t> pick_victim_locked() const;
    void maybe_schedule_compaction_locked();
    /// Queue the hint of sealed segment \p id for the background worker.
    /// Once background chores have failed it is dropped, and the next
    /// open scans that segment.
    void schedule_hint_write_locked(std::uint64_t id);
    /// Walk segment \p id's records (no engine lock: callers pass a
    /// segment no one appends to) and write its hint: tmp + fsync +
    /// rename. Callers hold compact_mu_ or run at close.
    void write_hint(std::uint64_t id, SegmentFile& file);
    bool compact_one();  ///< returns false when no victim remains

    /// Record a failed background chore and fail-stop further ones (the
    /// task's future is discarded, so this is the only surfacing path).
    void background_chore_failed(const char* what);

    [[nodiscard]] std::filesystem::path segment_path(std::uint64_t id) const;
    [[nodiscard]] std::filesystem::path hint_path(std::uint64_t id) const;

    const EngineConfig cfg_;
    DirLock dir_lock_;  // initialized right after cfg_, before recovery

    /// Transparent hashing: lookups take string_view without allocating
    /// a temporary std::string on the hot path.
    struct KeyHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const noexcept {
            return std::hash<std::string_view>{}(s);
        }
    };
    using KeyMap =
        std::unordered_map<std::string, Location, KeyHash, std::equal_to<>>;

    /// Segment/hint header version this engine writes (v2 only
    /// when compression may produce kPutCompressed records).
    [[nodiscard]] std::uint32_t write_version() const noexcept {
        return cfg_.compress_on_compact ? kFormatVersion : kMinFormatVersion;
    }

    std::mutex mu_;  // guards index_, segments_, gauges, scheduling flags
    KeyMap index_;
    /// Current tombstone of each removed key. Needed so compaction can
    /// tell a tombstone that still shadows stale puts (relocate it) from
    /// a superseded one (drop it).
    KeyMap dead_keys_;
    std::map<std::uint64_t, Segment> segments_;  // ordered by segment id
    std::uint64_t active_id_ = 0;
    std::uint64_t live_value_bytes_ = 0;
    std::uint64_t compressed_live_records_ = 0;  // gauges; guarded by mu_
    std::uint64_t compressed_live_bytes_ = 0;
    /// How far the active segment's hint on disk (written at a previous
    /// close) reaches: close rewrites it only if the segment grew since.
    std::uint64_t active_hint_covered_ = kSegmentHeaderSize;
    bool compaction_pending_ = false;
    bool background_failed_ = false;  // fail-stop latch for chores
    /// O(1) append-path gate for the O(#segments) victim scan: set when
    /// an event that can create a victim happens (a sealed segment lost
    /// liveness, or a segment sealed), cleared when a scan finds none.
    /// Starts true so post-recovery dead space gets one look.
    bool victim_hint_ = true;
    bool closing_ = false;
    std::uint64_t hinted_records_ = 0;  // set by recover()
    std::uint64_t scanned_records_ = 0;

    /// Serializes compactions, and a hint write with the compaction that
    /// may delete its segment (so no hint outlives its segment).
    std::mutex compact_mu_;

    Counter appends_;
    Counter overwrites_;
    Counter removes_;
    Counter gets_;
    Counter compactions_;
    Counter relocated_records_;
    Counter reclaimed_bytes_;
    Counter ref_gets_mmap_;
    Counter ref_gets_copy_;
    Counter deferred_unlinks_;
    Counter compact_compressed_records_;
    Counter compact_raw_bytes_in_;
    Counter compact_stored_bytes_out_;
    Counter hints_written_;
    Counter hint_bytes_;
    Histogram hint_write_us_;
    Counter torn_bytes_discarded_;
    Counter crc_read_failures_;
    Counter background_failures_;

    /// One worker is enough: compaction and hint writes are sequential
    /// background chores, not a parallel workload.
    std::unique_ptr<ThreadPool> pool_;
    /// Registry bindings; declared last so they unbind before the
    /// counters above destruct.
    MetricsGroup metrics_;
};

}  // namespace blobseer::engine
