/// \file version_manager.hpp
/// \brief The version manager: the only serialization point of BlobSeer.
///
/// Paper §I-B.2: "A central version manager is responsible of assigning
/// versions to writes and appends and exposing these versions to reads in
/// such way as to ensure consistency."
///
/// The design keeps the serialized step tiny: an assign() is a few dozen
/// bytes of bookkeeping — everything heavy (chunk upload, tree
/// construction) happens before and after, fully in parallel across
/// writers. Versions become visible to readers strictly in assignment
/// order (commit() merely marks completion; publication advances through
/// the contiguous committed prefix), which is what makes all operations
/// linearizable: a write linearizes at its assign, a read at its
/// version-resolution query.
///
/// Serialization is per blob, twice over (DESIGN.md §10):
///  * within one VersionManager instance, blob states live behind striped
///    locks and each blob carries its own publication condition variable,
///    so writers of unrelated blobs never contend and a publish wakes
///    only that blob's waiters;
///  * a deployment runs N VersionManager *shards*, each owning the blobs
///    whose id it minted (the owning shard index is embedded in the top
///    byte of every BlobId — see common/types.hpp blob_shard()).
///
/// Fault handling: a writer that dies between assign and commit blocks
/// publication. abort_stalled() implements the documented recovery policy
/// for one blob: the oldest stalled version and every version assigned
/// after it are aborted (later versions may have woven references into
/// the dead version's never-written metadata, so the whole tail must go),
/// and the blob's running size is rolled back. sweep_stalled() applies
/// the same policy incrementally across the shard's blobs, a bounded
/// batch per call, so a background sweeper never holds any lock for
/// O(total blobs).

#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "meta/tree_builder.hpp"
#include "meta/write_descriptor.hpp"

namespace blobseer::engine {
class LogEngine;
}  // namespace blobseer::engine

namespace blobseer::version {

/// Immutable per-blob parameters fixed at creation.
struct BlobInfo {
    BlobId id = kInvalidBlob;
    std::uint64_t chunk_size = 0;
    std::uint32_t replication = 1;
};

enum class VersionStatus : std::uint8_t {
    kPending,    ///< assigned, writer still working
    kCommitted,  ///< writer finished, waiting for in-order publication
    kPublished,  ///< visible to readers
    kAborted,    ///< writer declared dead; snapshot unreadable forever
    kRetired,    ///< old snapshot garbage-collected (storage reclaimed)
};

[[nodiscard]] inline const char* to_string(VersionStatus s) noexcept {
    switch (s) {
        case VersionStatus::kPending: return "pending";
        case VersionStatus::kCommitted: return "committed";
        case VersionStatus::kPublished: return "published";
        case VersionStatus::kAborted: return "aborted";
        case VersionStatus::kRetired: return "retired";
    }
    return "?";
}

/// Reply to an assign(): everything a writer needs to build its tree with
/// zero further coordination.
struct AssignResult {
    Version version = 0;
    std::uint64_t offset = 0;  ///< resolved offset (== old size for appends)
    std::uint64_t size_before = 0;
    std::uint64_t size_after = 0;
    /// Latest published tree at assign time (invalid for a fresh blob).
    meta::TreeRef base;
    /// Descriptors of unpublished versions in (base, version), ascending.
    std::vector<meta::WriteDescriptor> concurrent;
    /// The node behind each border range of the new tree
    /// (meta::border_ranges), from the blob's creator index. A range
    /// whose node lies in a clone origin's tree is left out; the builder
    /// descends the base tree for it.
    std::vector<meta::BorderRef> borders;
    std::uint64_t chunk_size = 0;
    std::uint32_t replication = 1;

    /// Wire-size estimate for network charging.
    [[nodiscard]] std::uint64_t serialized_size() const noexcept {
        return 96 + 40 * concurrent.size() + 32 * borders.size();
    }
};

/// Reply to a version query.
struct VersionInfo {
    Version version = 0;  ///< resolved (useful when querying kLatestVersion)
    std::uint64_t size = 0;
    VersionStatus status = VersionStatus::kPublished;
    /// Tree to descend for reading this snapshot. For a clone's version 0
    /// this points into the origin blob's tree.
    meta::TreeRef tree;
};

class VersionManager {
  public:
    /// \param shard this instance's shard index; every blob it creates
    ///        embeds it (see make_blob_id). \param shard_count total
    ///        shards in the deployment (bounds-checks \p shard only; the
    ///        instance never talks to its peers).
    explicit VersionManager(std::uint32_t shard = 0,
                            std::uint32_t shard_count = 1);

    // ---- blob lifecycle --------------------------------------------------

    /// Create a blob. \p chunk_size must be > 0; \p replication >= 1.
    BlobInfo create_blob(std::uint64_t chunk_size, std::uint32_t replication);

    /// O(1) snapshot clone (extension feature; see DESIGN.md): the new
    /// blob's version 0 is an alias of (\p src, \p src_version), which
    /// must be published AND live on this shard. Cross-shard clones go
    /// through clone_from().
    BlobInfo clone_blob(BlobId src, Version src_version);

    /// Cross-shard half of CLONE (DESIGN.md §10.3): create a blob whose
    /// version 0 aliases the already-resolved published snapshot
    /// \p origin (possibly owned by another shard). The caller — the
    /// client library — is responsible for having resolved \p origin via
    /// get_version() on the owning shard and for pinning it there so it
    /// survives retirement. An invalid \p origin creates an empty blob
    /// (the clone-of-a-fresh-blob case).
    BlobInfo clone_from(std::uint64_t chunk_size, std::uint32_t replication,
                        const meta::TreeRef& origin);

    [[nodiscard]] BlobInfo blob_info(BlobId blob) const;

    /// Number of blobs created so far.
    [[nodiscard]] std::size_t blob_count() const;

    /// Shard index of this instance.
    [[nodiscard]] std::uint32_t shard() const noexcept { return shard_; }

    // ---- write path -------------------------------------------------------

    /// Assign the next version for a write of \p size bytes at \p offset
    /// (nullopt = append at the current end). Validates the alignment
    /// contract: offset chunk-aligned; a write that ends before the
    /// current blob end must cover whole chunks.
    AssignResult assign(BlobId blob, std::optional<std::uint64_t> offset,
                        std::uint64_t size);

    /// Writer finished storing chunks and metadata for \p v; publish it as
    /// soon as every earlier version is published.
    void commit(BlobId blob, Version v);

    /// Abort \p v and cascade to every later assigned version. Explicit
    /// form of the policy used by abort_stalled (exposed for tests and for
    /// clients that know their write failed).
    void abort(BlobId blob, Version v);

    /// Apply the timeout policy: abort the tail starting at the oldest
    /// pending version older than \p max_age. Returns the number of
    /// versions aborted.
    std::size_t abort_stalled(BlobId blob, Duration max_age);

    /// Incremental shard-wide form of abort_stalled: apply the timeout
    /// policy to the next \p max_blobs blobs after an internal rotating
    /// cursor (wrapping), so repeated calls sweep the whole shard without
    /// ever doing O(total blobs) work under a lock. Returns the number of
    /// versions aborted in this batch.
    std::size_t sweep_stalled(Duration max_age, std::size_t max_blobs = 64);

    // ---- read path ----------------------------------------------------------

    /// Resolve \p v (or kLatestVersion) to snapshot info. Reading an
    /// unpublished version is allowed to *query* (status says pending);
    /// actually descending its tree before publication is a protocol
    /// violation the client library never commits.
    [[nodiscard]] VersionInfo get_version(BlobId blob, Version v) const;

    /// Latest published version number (0 = nothing published yet).
    [[nodiscard]] Version latest(BlobId blob) const;

    /// Block until \p v is published or aborted. Returns its final info.
    /// Throws TimeoutError after \p timeout.
    VersionInfo wait_published(BlobId blob, Version v, Duration timeout) const;

    /// Descriptor of an assigned version (GC and introspection).
    [[nodiscard]] meta::WriteDescriptor descriptor_of(BlobId blob,
                                                      Version v) const;

    // ---- history, pinning & retirement ----------------------------------

    /// Summary of one version for history listings.
    struct VersionSummary {
        Version version = 0;
        VersionStatus status = VersionStatus::kPending;
        std::uint64_t offset = 0;
        std::uint64_t size = 0;
        std::uint64_t size_after = 0;
    };

    /// Versions in [from, to] (clamped to what exists), ascending.
    [[nodiscard]] std::vector<VersionSummary> history(BlobId blob,
                                                      Version from,
                                                      Version to) const;

    /// Pin a published snapshot: it survives retirement (clones pin their
    /// origin automatically). Pins NEST — each pin() adds a count that
    /// one unpin() removes, so independent pinners never release each
    /// other's protection (a cross-shard clone that fails after pinning
    /// compensates with exactly one unpin). Returns true when this call
    /// created the version's first pin.
    bool pin(BlobId blob, Version v);
    /// Drop one pin count of \p v (no-op when unpinned).
    void unpin(BlobId blob, Version v);
    [[nodiscard]] std::vector<Version> pinned(BlobId blob) const;

    /// Everything a client needs to physically reclaim retired versions'
    /// storage (see retire()).
    struct RetireInfo {
        /// Versions whose status just flipped to kRetired.
        std::vector<Version> retired;
        /// Descriptors of every non-aborted version <= keep_from
        /// (retired + survivors), ascending — enough to decide which
        /// nodes/chunks lost their last reader.
        std::vector<meta::WriteDescriptor> descriptors;
        /// Pinned versions <= keep_from (they still read the old data).
        std::vector<Version> pinned;
        std::uint64_t keep_from = 0;
    };

    /// Retire every unpinned published version < \p keep_from.
    /// \p keep_from must itself be published. Reading a retired version
    /// throws; reads of keep_from and newer (and of pinned snapshots)
    /// are unaffected. The caller is responsible for the physical
    /// deletion pass (core::BlobSeerClient::reclaim_retired).
    RetireInfo retire(BlobId blob, Version keep_from);

    // ---- durability ------------------------------------------------------

    /// Make this version manager durable: replay the operation journal
    /// stored in \p journal (every prior session's state), then record
    /// every subsequent state-changing operation into it. The journal
    /// engine must have background compaction disabled (replay depends on
    /// append order) — core::Cluster configures this when
    /// ClusterConfig::durable is set. Each shard owns its own journal,
    /// so replay is deterministic per shard: journal order
    /// preserves per-blob operation order and blob-id allocation order
    /// (both appended under the lock that serialized the operation).
    /// Call before any concurrent use; throws ConsistencyError on a
    /// corrupt journal.
    void attach_journal(std::shared_ptr<engine::LogEngine> journal);

    // ---- stats ---------------------------------------------------------------

    [[nodiscard]] std::uint64_t assigns() const { return assigns_.get(); }
    [[nodiscard]] std::uint64_t commits() const { return commits_.get(); }
    [[nodiscard]] std::uint64_t aborts() const { return aborts_.get(); }
    [[nodiscard]] std::uint64_t publishes() const {
        return publishes_.get();
    }
    [[nodiscard]] std::uint64_t borders_served() const {
        return borders_served_.get();
    }
    [[nodiscard]] std::uint64_t borders_missing() const {
        return borders_missing_.get();
    }

    /// Assigned-but-unpublished versions across this shard's blobs, with
    /// high-water mark — the "is the serialized step keeping up" gauge.
    [[nodiscard]] const Gauge& publish_backlog() const noexcept {
        return publish_backlog_;
    }

  private:
    struct VersionRecord {
        meta::WriteDescriptor desc;
        VersionStatus status = VersionStatus::kPending;
        TimePoint assigned_at;
    };

    struct BlobState {
        BlobInfo info;
        /// Valid for clones: the aliased snapshot backing version 0.
        meta::TreeRef origin;
        std::uint64_t v0_size = 0;
        std::uint64_t size = 0;       ///< running size over assigned versions
        Version max_assigned = 0;
        Version published = 0;        ///< highest version visible to readers
        Version pub_cursor = 0;       ///< in-order publication scan position
        /// records[v-1] describes version v.
        std::vector<VersionRecord> records;
        /// Creator index: tree-node range (range_key) -> newest
        /// non-aborted version that creates it. Because aborts take the
        /// whole tail, that version's node is what every later tree holds
        /// at the range, so assign() answers border refs from it.
        std::unordered_map<std::uint64_t, Version> creators;
        /// Snapshots protected from retirement (explicit pins and clone
        /// origins), with a nesting count per version: independent
        /// pinners — e.g. concurrent cross-shard clones of the same
        /// snapshot — each hold their own pin, and one party's
        /// compensating unpin can never strip another's protection.
        std::map<Version, std::uint64_t> pinned;
        /// Waiters of wait_published() on THIS blob (used with the
        /// blob's stripe mutex): a publish elsewhere in the deployment —
        /// or even elsewhere in this shard — wakes nobody here.
        mutable std::condition_variable publish_cv;
    };
    using StatePtr = std::shared_ptr<BlobState>;

    /// Lock stripes over blob states. Every mutation/read of a
    /// BlobState's mutable fields holds the blob's stripe mutex; the
    /// stripe count only bounds false sharing between blobs, correctness
    /// needs just "same blob -> same mutex".
    static constexpr std::size_t kLockStripes = 32;
    static_assert(is_pow2(kLockStripes));

    [[nodiscard]] static std::size_t stripe_of(BlobId blob) noexcept {
        return static_cast<std::size_t>(mix64(blob)) & (kLockStripes - 1);
    }
    [[nodiscard]] std::mutex& stripe_mu(BlobId blob) const {
        return stripe_mu_[stripe_of(blob)];
    }

    /// Look the blob up (throws NotFoundError). Takes and releases the
    /// map lock; callers then lock the blob's stripe. Lock order is
    /// always stripe -> map -> journal (any subset, in that order).
    [[nodiscard]] StatePtr state_of(BlobId blob) const;

    /// Apply the stalled-tail policy to one blob. Caller holds the
    /// blob's stripe mutex. Returns versions aborted (0 = nothing
    /// stalled long enough).
    std::size_t abort_stalled_locked(BlobState& b, TimePoint cutoff);

    /// Advance the publication cursor through committed/aborted records.
    /// Caller holds the blob's stripe mutex.
    void advance_publication(BlobState& b);

    /// Abort the tail starting at version \p v. Caller holds the blob's
    /// stripe mutex.
    std::size_t abort_tail(BlobState& b, Version v);

    /// Record \p d's version as the creator of every node it creates.
    /// Caller holds the blob's stripe mutex.
    static void index_creator(BlobState& b, const meta::WriteDescriptor& d);

    /// Fill \p r.borders from the creator index. Caller holds the blob's
    /// stripe mutex.
    void fill_borders(const BlobState& b, AssignResult& r,
                      const meta::WriteDescriptor& d);

    /// Base tree of the latest published snapshot. Caller holds the
    /// blob's stripe mutex.
    [[nodiscard]] meta::TreeRef published_base(const BlobState& b) const;

    [[nodiscard]] std::uint64_t size_of_version(const BlobState& b,
                                                Version v) const;

    /// Append one operation record to the journal (no-op when detached or
    /// replaying). The caller holds whichever lock serialized the
    /// operation (the blob's stripe mutex for per-blob ops, the map lock
    /// for create/clone) — journal order must match the order operations
    /// were applied in for replay to rebuild the same state.
    void journal_append(std::uint8_t op,
                        std::initializer_list<std::uint64_t> args);

    /// journal_append for publication-advancing ops (commit/abort): on
    /// failure, wakes \p b's wait_published() blockers before rethrowing.
    void journal_append_waking(BlobState& b, std::uint8_t op,
                               std::initializer_list<std::uint64_t> args);

    /// Re-execute one journaled operation during attach_journal replay.
    void apply_journal_op(ConstBytes value);

    const std::uint32_t shard_;

    mutable std::array<std::mutex, kLockStripes> stripe_mu_;

    /// Guards blobs_, by_seq_ and next_seq_ (blob-id allocation).
    mutable std::shared_mutex map_mu_;
    std::unordered_map<BlobId, StatePtr> blobs_;
    /// Creation-ordered view for the incremental stalled sweep (blobs
    /// are never erased).
    std::vector<StatePtr> by_seq_;
    std::uint64_t next_seq_ = 1;
    /// Rotating sweep position (indexes by_seq_ modulo its size).
    std::atomic<std::uint64_t> sweep_cursor_{0};

    /// Guards the journal engine handle, sequence and fail latch.
    mutable std::mutex journal_mu_;
    std::shared_ptr<engine::LogEngine> journal_;  // null = volatile VM
    std::uint64_t journal_seq_ = 0;
    bool replaying_ = false;
    /// Latched on the first journal write failure: the op that failed is
    /// applied in memory but not journaled, so allowing later ops to
    /// journal would leave a gap replay cannot bridge. All further
    /// mutations throw instead; a restart recovers the journaled prefix.
    bool journal_failed_ = false;

    Counter assigns_;
    Counter commits_;
    Counter aborts_;
    Counter publishes_;
    Counter borders_served_;   ///< border refs named in assign replies
    Counter borders_missing_;  ///< border ranges left to descent (clones)
    Gauge publish_backlog_;
    /// Registry bindings; declared last so they unbind before the
    /// counters above destruct.
    MetricsGroup metrics_;
};

}  // namespace blobseer::version
