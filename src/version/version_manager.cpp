#include "version/version_manager.hpp"

#include <algorithm>

#include "engine/log_engine.hpp"
#include "rpc/protocol.hpp"

namespace blobseer::version {

namespace {

/// Journal operation codes. Append-only: never renumber, only add.
enum JournalOp : std::uint8_t {
    kOpCreate = 1,     ///< chunk_size, replication
    kOpClone = 2,      ///< src blob, resolved src version
    kOpAssign = 3,     ///< blob, has_offset, offset, size
    kOpCommit = 4,     ///< blob, version
    kOpAbort = 5,      ///< blob, version
    kOpPin = 6,        ///< blob, version
    kOpUnpin = 7,      ///< blob, version
    kOpRetire = 8,     ///< blob, keep_from
    kOpCloneFrom = 9,  ///< chunk_size, replication, origin blob/version/size
                       ///< (replay only: no longer written)
};

/// Unique key of a tree-node range: count is a power of two and divides
/// first, so 2*first + count = count * (2*(first/count) + 1) factors
/// back into both.
std::uint64_t range_key(const meta::SlotRange& r) noexcept {
    return 2 * r.first + r.count;
}

}  // namespace

VersionManager::VersionManager(std::uint32_t shard,
                               std::uint32_t shard_count)
    : shard_(shard) {
    if (shard_count == 0 || shard_count > kMaxBlobShards) {
        throw InvalidArgument("shard count " + std::to_string(shard_count) +
                              " outside [1, " +
                              std::to_string(kMaxBlobShards) + "]");
    }
    if (shard >= shard_count) {
        throw InvalidArgument("shard index " + std::to_string(shard) +
                              " >= shard count " +
                              std::to_string(shard_count));
    }

    const MetricLabels labels{{"shard", std::to_string(shard_)}};
    metrics_.counter("vm_assigns_total", labels, assigns_);
    metrics_.counter("vm_commits_total", labels, commits_);
    metrics_.counter("vm_aborts_total", labels, aborts_);
    metrics_.counter("vm_publishes_total", labels, publishes_);
    MetricLabels border = labels;
    border.emplace_back("outcome", "served");
    metrics_.counter("vm_border_refs_total", border, borders_served_);
    border.back().second = "missing";
    metrics_.counter("vm_border_refs_total", border, borders_missing_);
    metrics_.gauge("vm_publish_backlog", labels, publish_backlog_);
    metrics_.callback("vm_blobs", labels, [this] { return blob_count(); });
}

BlobInfo VersionManager::create_blob(std::uint64_t chunk_size,
                                     std::uint32_t replication) {
    if (chunk_size > rpc::kMaxChunkBytes) {
        throw InvalidArgument("chunk_size " + std::to_string(chunk_size) +
                              " exceeds the " +
                              std::to_string(rpc::kMaxChunkBytes) +
                              "-byte bound of one chunk frame");
    }
    return add_blob(chunk_size, replication, meta::TreeRef{}, kOpCreate,
                    {chunk_size, replication});
}

BlobInfo VersionManager::clone_blob(BlobId src, Version src_version) {
    const StatePtr src_st = state_of(src);
    // Hold the source's stripe across id allocation and the journal
    // append: replay must see the clone strictly after every source
    // operation it observed (and strictly before any it did not).
    const std::scoped_lock src_lock(stripe_mu(src));
    BlobState& s = *src_st;
    Version v = src_version == kLatestVersion ? s.published : src_version;
    if (v > s.published) {
        throw InvalidArgument("cannot clone unpublished version " +
                              std::to_string(v));
    }
    if (v > 0 && s.records[v - 1].status != VersionStatus::kPublished) {
        throw VersionAborted("cannot clone aborted version " +
                             std::to_string(v));
    }
    // Cloning version 0 of a clone chains to the original tree; cloning
    // version 0 of a fresh blob yields another empty blob.
    meta::TreeRef origin = s.origin;
    if (v > 0) {
        origin = meta::TreeRef{src, v, size_of_version(s, v)};
        // The clone reads through the origin's tree forever: protect that
        // snapshot from retirement (nested: one count per clone).
        ++s.pinned[v];
    }
    return add_blob(s.info.chunk_size, s.info.replication, origin,
                    kOpClone, {src, v});  // v resolved: replay-stable
}

BlobInfo VersionManager::add_blob(std::uint64_t chunk_size,
                                  std::uint32_t replication,
                                  const meta::TreeRef& origin,
                                  std::uint8_t op,
                                  std::initializer_list<std::uint64_t> args) {
    if (chunk_size == 0) {
        throw InvalidArgument("chunk_size must be > 0");
    }
    if (replication == 0) {
        throw InvalidArgument("replication must be >= 1");
    }
    auto st = std::make_shared<BlobState>();
    st->info = BlobInfo{kInvalidBlob, chunk_size, replication};
    if (origin.valid()) {
        st->origin = origin;
        st->size = origin.size;
    }

    const std::scoped_lock lock(map_mu_);
    st->info.id = make_blob_id(shard_, next_seq_++);
    const BlobInfo info = st->info;
    blobs_.emplace(info.id, st);
    by_seq_.push_back(std::move(st));
    journal_append(op, args);
    return info;
}

BlobInfo VersionManager::blob_info(BlobId blob) const {
    // info is immutable after creation; the map lock taken inside
    // state_of orders this read after the creating insert.
    return state_of(blob)->info;
}

std::size_t VersionManager::blob_count() const {
    const std::shared_lock lock(map_mu_);
    return blobs_.size();
}

AssignResult VersionManager::assign(BlobId blob,
                                    std::optional<std::uint64_t> offset_opt,
                                    std::uint64_t size) {
    if (size == 0) {
        throw InvalidArgument("zero-sized write");
    }
    const StatePtr st = state_of(blob);
    const std::scoped_lock lock(stripe_mu(blob));
    BlobState& b = *st;
    const std::uint64_t c = b.info.chunk_size;
    const std::uint64_t offset = offset_opt.value_or(b.size);

    // Alignment contract (see DESIGN.md §4.1 and core/client): explicit
    // writes need a chunk-aligned offset and a short trailing chunk is
    // only legal at the (new) end of the blob. Appends are exempt — they
    // start at the current end by construction and the client rewrites
    // the trailing chunk whole (merge path).
    if (offset_opt) {
        if (offset % c != 0) {
            throw InvalidArgument("write offset " + std::to_string(offset) +
                                  " not chunk-aligned (chunk " +
                                  std::to_string(c) + ")");
        }
        if (offset + size < b.size && size % c != 0) {
            throw InvalidArgument("interior write must cover whole chunks");
        }
    }
    const std::uint64_t end = offset + size;

    AssignResult r;
    r.version = ++b.max_assigned;
    r.offset = offset;
    r.size_before = b.size;
    r.size_after = std::max(b.size, end);
    r.base = published_base(b);
    r.chunk_size = c;
    r.replication = b.info.replication;

    VersionRecord rec;
    rec.desc = meta::WriteDescriptor{r.version, offset, size, r.size_before,
                                     r.size_after};
    rec.status = VersionStatus::kPending;
    rec.assigned_at = Clock::now();
    fill_borders(b, r, rec.desc);
    index_creator(b, rec.desc);
    b.records.push_back(rec);
    b.size = r.size_after;
    assigns_.add();
    publish_backlog_.add();
    // Appends journal has_offset=0 so replay recomputes the offset from
    // the rebuilt blob size (appends are exempt from alignment checks).
    journal_append(kOpAssign, {blob, offset_opt.has_value() ? 1u : 0u,
                               offset_opt.value_or(0), size});
    return r;
}

void VersionManager::commit(BlobId blob, Version v) {
    const StatePtr st = state_of(blob);
    {
        const std::scoped_lock lock(stripe_mu(blob));
        BlobState& b = *st;
        if (v == 0 || v > b.max_assigned) {
            throw InvalidArgument("commit of unassigned version " +
                                  std::to_string(v));
        }
        VersionRecord& rec = b.records[v - 1];
        switch (rec.status) {
            case VersionStatus::kPending:
                rec.status = VersionStatus::kCommitted;
                break;
            case VersionStatus::kAborted:
                throw VersionAborted("version " + std::to_string(v) +
                                     " was aborted before commit");
            case VersionStatus::kRetired:
                // Commit after retirement is impossible in-protocol
                // (retire only touches published versions), so treat it
                // as the caller following a stale handle.
                throw InvalidArgument("commit of retired version " +
                                      std::to_string(v));
            case VersionStatus::kCommitted:
            case VersionStatus::kPublished:
                return;  // idempotent
        }
        advance_publication(b);
        commits_.add();
        journal_append_waking(b, kOpCommit, {blob, v});
    }
    st->publish_cv.notify_all();
}

void VersionManager::abort(BlobId blob, Version v) {
    const StatePtr st = state_of(blob);
    {
        const std::scoped_lock lock(stripe_mu(blob));
        BlobState& b = *st;
        if (v == 0 || v > b.max_assigned) {
            throw InvalidArgument("abort of unassigned version " +
                                  std::to_string(v));
        }
        if (b.records[v - 1].status == VersionStatus::kPublished) {
            throw InvalidArgument("cannot abort published version " +
                                  std::to_string(v));
        }
        abort_tail(b, v);
        advance_publication(b);
        journal_append_waking(b, kOpAbort, {blob, v});
    }
    st->publish_cv.notify_all();
}

std::size_t VersionManager::abort_stalled_locked(BlobState& b,
                                                 TimePoint cutoff) {
    for (Version v = b.pub_cursor + 1; v <= b.max_assigned; ++v) {
        const VersionRecord& rec = b.records[v - 1];
        if (rec.status == VersionStatus::kPending &&
            rec.assigned_at < cutoff) {
            const std::size_t aborted = abort_tail(b, v);
            advance_publication(b);
            journal_append_waking(b, kOpAbort, {b.info.id, v});
            return aborted;
        }
        if (rec.status == VersionStatus::kPending) {
            // Oldest unpublished pending version is still fresh: the
            // tail behind it must keep waiting (in-order publication).
            break;
        }
    }
    return 0;
}

std::size_t VersionManager::abort_stalled(BlobId blob, Duration max_age) {
    const StatePtr st = state_of(blob);
    std::size_t aborted = 0;
    {
        const std::scoped_lock lock(stripe_mu(blob));
        aborted = abort_stalled_locked(*st, Clock::now() - max_age);
    }
    if (aborted > 0) {
        st->publish_cv.notify_all();
    }
    return aborted;
}

std::size_t VersionManager::sweep_stalled(Duration max_age,
                                          std::size_t max_blobs) {
    std::vector<StatePtr> batch;
    {
        const std::shared_lock lock(map_mu_);
        const std::size_t n = by_seq_.size();
        if (n == 0 || max_blobs == 0) {
            return 0;
        }
        const std::size_t take = std::min(max_blobs, n);
        const std::uint64_t start = sweep_cursor_.fetch_add(take);
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
            batch.push_back(by_seq_[(start + i) % n]);
        }
    }
    const TimePoint cutoff = Clock::now() - max_age;
    std::size_t aborted = 0;
    for (const StatePtr& st : batch) {
        std::size_t k = 0;
        {
            const std::scoped_lock lock(stripe_mu(st->info.id));
            k = abort_stalled_locked(*st, cutoff);
        }
        if (k > 0) {
            aborted += k;
            st->publish_cv.notify_all();
        }
    }
    return aborted;
}

VersionInfo VersionManager::get_version(BlobId blob, Version v) const {
    const StatePtr st = state_of(blob);
    const std::scoped_lock lock(stripe_mu(blob));
    const BlobState& b = *st;
    VersionInfo info;
    info.version = v == kLatestVersion ? b.published : v;
    if (info.version > b.max_assigned) {
        throw NotFoundError("version " + std::to_string(info.version) +
                            " of blob " + std::to_string(blob));
    }
    if (info.version == 0) {
        info.size = b.origin.size;
        info.status = VersionStatus::kPublished;
        info.tree = b.origin;  // invalid TreeRef for a fresh blob: no data
        return info;
    }
    const VersionRecord& rec = b.records[info.version - 1];
    info.size = rec.desc.size_after;
    info.status = rec.status;
    info.tree = meta::TreeRef{blob, info.version, info.size};
    return info;
}

Version VersionManager::latest(BlobId blob) const {
    const StatePtr st = state_of(blob);
    const std::scoped_lock lock(stripe_mu(blob));
    return st->published;
}

VersionInfo VersionManager::wait_published(BlobId blob, Version v,
                                           Duration timeout) const {
    if (v == 0) {
        return get_version(blob, 0);
    }
    const StatePtr st = state_of(blob);
    std::unique_lock lock(stripe_mu(blob));
    const BlobState& b = *st;
    const TimePoint deadline = Clock::now() + timeout;
    const auto done = [&] {
        if (v > b.max_assigned) {
            return false;
        }
        const VersionStatus s = b.records[v - 1].status;
        return s == VersionStatus::kPublished || s == VersionStatus::kAborted;
    };
    if (!b.publish_cv.wait_until(lock, deadline, done)) {
        throw TimeoutError("waiting for publication of version " +
                           std::to_string(v));
    }
    VersionInfo info;
    info.version = v;
    const VersionRecord& rec = b.records[v - 1];
    info.size = rec.desc.size_after;
    info.status = rec.status;
    info.tree = meta::TreeRef{blob, v, info.size};
    return info;
}

meta::WriteDescriptor VersionManager::descriptor_of(BlobId blob,
                                                    Version v) const {
    const StatePtr st = state_of(blob);
    const std::scoped_lock lock(stripe_mu(blob));
    const BlobState& b = *st;
    if (v == 0 || v > b.max_assigned) {
        throw NotFoundError("descriptor of version " + std::to_string(v));
    }
    return b.records[v - 1].desc;
}

std::vector<VersionManager::VersionSummary> VersionManager::history(
    BlobId blob, Version from, Version to) const {
    const StatePtr st = state_of(blob);
    const std::scoped_lock lock(stripe_mu(blob));
    const BlobState& b = *st;
    std::vector<VersionSummary> out;
    from = std::max<Version>(from, 1);
    to = std::min<Version>(to, b.max_assigned);
    for (Version v = from; v <= to; ++v) {
        const VersionRecord& rec = b.records[v - 1];
        out.push_back(VersionSummary{v, rec.status, rec.desc.offset,
                                     rec.desc.size, rec.desc.size_after});
    }
    return out;
}

bool VersionManager::pin(BlobId blob, Version v) {
    const StatePtr st = state_of(blob);
    const std::scoped_lock lock(stripe_mu(blob));
    BlobState& b = *st;
    if (v == 0 || v > b.max_assigned ||
        b.records[v - 1].status != VersionStatus::kPublished) {
        throw InvalidArgument("only published versions can be pinned");
    }
    const bool first = ++b.pinned[v] == 1;
    journal_append(kOpPin, {blob, v});
    return first;
}

void VersionManager::unpin(BlobId blob, Version v) {
    const StatePtr st = state_of(blob);
    const std::scoped_lock lock(stripe_mu(blob));
    const auto it = st->pinned.find(v);
    if (it != st->pinned.end() && --it->second == 0) {
        st->pinned.erase(it);
    }
    journal_append(kOpUnpin, {blob, v});
}

std::vector<Version> VersionManager::pinned(BlobId blob) const {
    const StatePtr st = state_of(blob);
    const std::scoped_lock lock(stripe_mu(blob));
    std::vector<Version> out;
    out.reserve(st->pinned.size());
    for (const auto& [v, count] : st->pinned) {
        out.push_back(v);
    }
    return out;
}

VersionManager::RetireInfo VersionManager::retire(BlobId blob,
                                                  Version keep_from) {
    const StatePtr st = state_of(blob);
    const std::scoped_lock lock(stripe_mu(blob));
    BlobState& b = *st;
    if (keep_from == 0 || keep_from > b.published) {
        throw InvalidArgument(
            "keep_from must name a published version (got " +
            std::to_string(keep_from) + ", published " +
            std::to_string(b.published) + ")");
    }
    RetireInfo info;
    info.keep_from = keep_from;
    for (Version v = 1; v < keep_from; ++v) {
        VersionRecord& rec = b.records[v - 1];
        if (rec.status == VersionStatus::kPublished &&
            !b.pinned.contains(v)) {
            rec.status = VersionStatus::kRetired;
            info.retired.push_back(v);
        }
    }
    for (Version v = 1; v <= keep_from; ++v) {
        const VersionRecord& rec = b.records[v - 1];
        if (rec.status != VersionStatus::kAborted) {
            info.descriptors.push_back(rec.desc);
        }
    }
    for (const auto& [p, count] : b.pinned) {
        if (p <= keep_from) {
            info.pinned.push_back(p);
        }
    }
    journal_append(kOpRetire, {blob, keep_from});
    return info;
}

VersionManager::StatePtr VersionManager::state_of(BlobId blob) const {
    const std::shared_lock lock(map_mu_);
    const auto it = blobs_.find(blob);
    if (it == blobs_.end()) {
        throw NotFoundError("blob " + std::to_string(blob));
    }
    return it->second;
}

void VersionManager::advance_publication(BlobState& b) {
    while (b.pub_cursor < b.max_assigned) {
        VersionRecord& rec = b.records[b.pub_cursor];
        if (rec.status == VersionStatus::kCommitted) {
            rec.status = VersionStatus::kPublished;
            ++b.pub_cursor;
            b.published = b.pub_cursor;
            publishes_.add();
            publish_backlog_.sub();
        } else if (rec.status == VersionStatus::kAborted) {
            // Version number consumed but unreadable; readers of "latest"
            // stay on the previous published snapshot.
            ++b.pub_cursor;
            publish_backlog_.sub();
        } else {
            break;
        }
    }
}

std::size_t VersionManager::abort_tail(BlobState& b, Version v) {
    std::size_t aborted = 0;
    for (Version w = v; w <= b.max_assigned; ++w) {
        VersionRecord& rec = b.records[w - 1];
        if (rec.status == VersionStatus::kPublished) {
            throw ConsistencyError(
                "abort cascade reached a published version");
        }
        if (rec.status != VersionStatus::kAborted) {
            rec.status = VersionStatus::kAborted;
            ++aborted;
            aborts_.add();
        }
    }
    // Roll the running size back to just before the first aborted version
    // so new writers do not build on vanished data.
    b.size = b.records[v - 1].desc.size_before;
    // The tail's nodes never appear in a later tree: rebuild the creator
    // index from the survivors (aborts are rare; this is O(records)).
    b.creators.clear();
    for (Version w = 1; w < v; ++w) {
        const VersionRecord& rec = b.records[w - 1];
        if (rec.status != VersionStatus::kAborted) {
            index_creator(b, rec.desc);
        }
    }
    return aborted;
}

void VersionManager::index_creator(BlobState& b,
                                   const meta::WriteDescriptor& d) {
    const meta::TreeGeometry geo(b.info.chunk_size);
    for (const meta::SlotRange& r : meta::created_ranges(d, geo)) {
        b.creators[range_key(r)] = d.version;
    }
}

void VersionManager::fill_borders(const BlobState& b, AssignResult& r,
                                  const meta::WriteDescriptor& d) {
    const meta::TreeGeometry geo(b.info.chunk_size);
    for (const meta::SlotRange& range : meta::border_ranges(d, geo)) {
        const auto it = b.creators.find(range_key(range));
        if (it == b.creators.end() && b.origin.valid()) {
            // The node lies in the origin's tree, which may live on
            // another shard: the writer descends for it.
            borders_missing_.add();
            continue;
        }
        // No creator and no origin: no version wrote here (a hole).
        const meta::ChildRef ref = it == b.creators.end()
                                       ? meta::ChildRef{}
                                       : meta::ChildRef{b.info.id, it->second};
        r.borders.push_back({range, ref});
        borders_served_.add();
    }
}

meta::TreeRef VersionManager::published_base(const BlobState& b) const {
    if (b.published >= 1) {
        return meta::TreeRef{b.info.id, b.published,
                             size_of_version(b, b.published)};
    }
    return b.origin;  // clone alias, or invalid for a fresh blob
}

std::uint64_t VersionManager::size_of_version(const BlobState& b,
                                              Version v) const {
    return v == 0 ? b.origin.size : b.records[v - 1].desc.size_after;
}

// ---- durability (operation journal) ------------------------------------------

void VersionManager::attach_journal(
    std::shared_ptr<engine::LogEngine> journal) {
    // Replay before any concurrent use: the public methods rebuild the
    // exact state because every one of them is deterministic given the
    // operation sequence (assign allocates versions and resolves append
    // offsets from rebuilt state). Per-blob order and blob-id allocation
    // order were preserved at append time, which is all replay needs.
    replaying_ = true;
    std::uint64_t records = 0;
    try {
        journal->scan([&](std::string_view, ConstBytes value) {
            ++records;
            apply_journal_op(value);
        });
    } catch (...) {
        replaying_ = false;
        throw;
    }
    replaying_ = false;
    const std::scoped_lock lock(journal_mu_);
    journal_ = std::move(journal);
    journal_seq_ = records;
}

void VersionManager::journal_append_waking(
    BlobState& b, std::uint8_t op,
    std::initializer_list<std::uint64_t> args) {
    try {
        journal_append(op, args);
    } catch (...) {
        // Publication already advanced in memory; blocked readers in
        // wait_published must still wake even when the journal write
        // fails (the caller's trailing notify is skipped by the throw).
        b.publish_cv.notify_all();
        throw;
    }
}

void VersionManager::journal_append(
    std::uint8_t op, std::initializer_list<std::uint64_t> args) {
    // Checked BEFORE taking journal_mu_: both fields only change during
    // single-threaded phases (attach_journal runs before any concurrent
    // use), and skipping the lock while replaying breaks the
    // engine-mutex -> journal_mu_ ordering edge the replay path would
    // otherwise create (LogEngine::scan holds the engine mutex around
    // its callback, while runtime appends acquire journal_mu_ and then
    // the engine mutex inside put()).
    if (journal_ == nullptr || replaying_) {
        return;
    }
    const std::scoped_lock jlock(journal_mu_);
    if (journal_failed_) {
        // A previous append failed: later ops must not keep journaling
        // past the gap (replay would rebuild a divergent state). Fail
        // mutations loudly until the operator restarts; a restart
        // recovers the journaled prefix consistently.
        throw Error(
            "version-manager journal is failed; restart to recover");
    }
    Buffer value;
    value.reserve(1 + 8 * args.size());
    value.push_back(op);
    for (const std::uint64_t a : args) {
        engine::put_u64(value, a);
    }
    Buffer key;
    key.reserve(8);
    engine::put_u64(key, journal_seq_++);
    try {
        journal_->put(
            std::string_view(reinterpret_cast<const char*>(key.data()),
                             key.size()),
            value);
    } catch (...) {
        journal_failed_ = true;
        throw;
    }
}

void VersionManager::apply_journal_op(ConstBytes value) {
    if (value.empty() || (value.size() - 1) % 8 != 0) {
        throw ConsistencyError("malformed version-manager journal record");
    }
    const std::size_t argc = (value.size() - 1) / 8;
    std::uint64_t a[5] = {0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < argc && i < 5; ++i) {
        a[i] = engine::get_u64(value, 1 + i * 8);
    }
    const auto need = [&](std::size_t n) {
        if (argc != n) {
            throw ConsistencyError(
                "version-manager journal record has wrong arity");
        }
    };
    switch (value[0]) {
        case kOpCreate:
            need(2);
            (void)add_blob(a[0], static_cast<std::uint32_t>(a[1]),
                           meta::TreeRef{}, kOpCreate, {a[0], a[1]});
            break;
        case kOpClone:
            need(2);
            (void)clone_blob(a[0], a[1]);
            break;
        case kOpCloneFrom:
            // Written before wire v14 by a cross-shard clone (its pin is
            // in the source shard's journal); replayed, never written.
            need(5);
            (void)add_blob(a[0], static_cast<std::uint32_t>(a[1]),
                           meta::TreeRef{a[2], a[3], a[4]}, kOpCloneFrom,
                           {});
            break;
        case kOpAssign:
            need(4);
            (void)assign(a[0],
                         a[1] != 0 ? std::optional<std::uint64_t>(a[2])
                                   : std::nullopt,
                         a[3]);
            break;
        case kOpCommit:
            need(2);
            commit(a[0], a[1]);
            break;
        case kOpAbort:
            need(2);
            abort(a[0], a[1]);
            break;
        case kOpPin:
            need(2);
            pin(a[0], a[1]);
            break;
        case kOpUnpin:
            need(2);
            unpin(a[0], a[1]);
            break;
        case kOpRetire:
            need(2);
            (void)retire(a[0], a[1]);
            break;
        default:
            throw ConsistencyError("unknown version-manager journal op " +
                                   std::to_string(value[0]));
    }
}

}  // namespace blobseer::version
