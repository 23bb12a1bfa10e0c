#include "engine/log_engine.hpp"

#include <sys/file.h>

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "codec/codec.hpp"
#include "codec/lz4.hpp"
#include "common/clock.hpp"
#include "engine/crc32c.hpp"

namespace blobseer::engine {

namespace {

/// Stateless; shared by every engine for transparent decompression (and
/// by the compactor for recompression when the config enables it).
const codec::Lz4Codec kLz4;

/// Encode one record: [crc32c | klen | vlen | type | key | value], CRC
/// over everything after the CRC field.
Buffer encode_record(RecordType type, std::string_view key,
                     ConstBytes value) {
    Buffer rec;
    rec.reserve(kRecordHeaderSize + key.size() + value.size());
    put_u32(rec, 0);  // CRC placeholder
    put_u32(rec, static_cast<std::uint32_t>(key.size()));
    put_u32(rec, static_cast<std::uint32_t>(value.size()));
    rec.push_back(static_cast<std::uint8_t>(type));
    rec.insert(rec.end(), key.begin(), key.end());
    rec.insert(rec.end(), value.begin(), value.end());
    poke_u32(rec, 0, crc32c(ConstBytes(rec).subspan(4)));
    return rec;
}

std::string pad10(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%010llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// Parse the numeric middle of "<prefix><number><suffix>" names.
std::optional<std::uint64_t> parse_numbered(const std::string& name,
                                            std::string_view prefix,
                                            std::string_view suffix) {
    if (!name.starts_with(prefix) || !name.ends_with(suffix) ||
        name.size() <= prefix.size() + suffix.size()) {
        return std::nullopt;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    try {
        return std::stoull(digits);
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

/// Walk the entries of hint file bytes \p raw, checking that they
/// describe segment \p id record by record from its header up to the
/// length the hint covers, and that this length is within the segment's
/// current \p seg_size. Returns the covered length, or nullopt for a
/// torn, foreign or stale hint (\p fn, if set, has then seen a prefix of
/// the entries — validate with an empty \p fn first).
std::optional<std::uint64_t> walk_hint(
    ConstBytes raw, std::uint64_t id, std::uint64_t seg_size,
    const std::function<void(RecordType type, std::string_view key,
                             std::uint32_t vlen, std::uint64_t offset)>& fn) {
    if (raw.size() < kHintHeaderSize + kHintTrailerSize) {
        return std::nullopt;
    }
    const std::size_t body = raw.size() - kHintTrailerSize;  // entries end
    if (crc32c(raw.first(raw.size() - 4)) != get_u32(raw, raw.size() - 4) ||
        !std::equal(kHintMagic.begin(), kHintMagic.end(), raw.begin()) ||
        !supported_format_version(get_u32(raw, 8)) || get_u64(raw, 16) != id) {
        return std::nullopt;
    }
    const std::uint64_t covered = get_u64(raw, 24);
    const std::uint64_t count = get_u64(raw, body);
    if (covered < kSegmentHeaderSize || covered > seg_size) {
        return std::nullopt;  // reaches past a (possibly truncated) log
    }
    std::size_t pos = kHintHeaderSize;
    std::uint64_t next = kSegmentHeaderSize;  // where the next record starts
    for (std::uint64_t i = 0; i < count; ++i) {
        if (pos + kHintEntryHeaderSize > body) {
            return std::nullopt;
        }
        const std::uint8_t type = raw[pos];
        const std::uint32_t klen = get_u32(raw, pos + 1);
        const std::uint32_t vlen = get_u32(raw, pos + 5);
        const std::uint64_t offset = get_u64(raw, pos + 9);
        pos += kHintEntryHeaderSize;
        if (!valid_record_type(type) || klen == 0 || klen > kMaxKeyLen ||
            vlen > kMaxValueLen || offset != next ||
            offset + record_size(klen, vlen) > covered ||
            pos + klen > body) {
            return std::nullopt;
        }
        if (fn) {
            fn(static_cast<RecordType>(type),
               std::string_view(reinterpret_cast<const char*>(&raw[pos]),
                                klen),
               vlen, offset);
        }
        pos += klen;
        next = offset + record_size(klen, vlen);
    }
    if (next != covered || pos != body) {
        return std::nullopt;
    }
    return covered;
}

/// The entry count in a hint's trailer, read without loading the hint;
/// 0 if unreadable. Only sizes the index, so it need not be validated
/// beyond what bounds the reservation.
std::uint64_t hint_entry_count(const std::filesystem::path& path) {
    try {
        const auto file = SegmentFile::open(path, false);
        Buffer trailer(kHintTrailerSize);
        if (file->size() < kHintHeaderSize + kHintTrailerSize ||
            !file->read_exact(file->size() - kHintTrailerSize, trailer)) {
            return 0;
        }
        return std::min(get_u64(trailer, 0),
                        file->size() / kHintEntryHeaderSize);
    } catch (const Error&) {
        return 0;
    }
}

Buffer read_whole_file(const std::filesystem::path& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        throw Error("cannot read " + path.string());
    }
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    Buffer buf(static_cast<std::size_t>(size));
    const std::size_t n =
        buf.empty() ? 0 : std::fread(buf.data(), 1, buf.size(), f);
    std::fclose(f);
    if (n != buf.size()) {
        throw Error("short read from " + path.string());
    }
    return buf;
}

}  // namespace

LogEngine::DirLock::DirLock(const std::filesystem::path& dir) {
    std::filesystem::create_directories(dir);
    const auto lock_path = dir / "LOCK";
    fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
    if (fd_ < 0) {
        throw Error("cannot open " + lock_path.string() + ": " +
                    std::strerror(errno));
    }
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
        ::close(fd_);
        fd_ = -1;
        throw Error("engine directory " + dir.string() +
                    " is locked by another instance (two engines on one "
                    "directory would corrupt the log)");
    }
}

LogEngine::DirLock::~DirLock() {
    if (fd_ >= 0) {
        ::close(fd_);  // releases the flock
    }
}

LogEngine::LogEngine(EngineConfig cfg)
    : cfg_(std::move(cfg)), dir_lock_(cfg_.dir) {
    const std::vector<std::uint64_t> unhinted = recover();
    pool_ = std::make_unique<ThreadPool>(1);
    {
        const std::scoped_lock lock(mu_);
        for (const std::uint64_t id : unhinted) {
            schedule_hint_write_locked(id);
        }
    }

    const MetricLabels labels{{"dir", cfg_.dir}};
    metrics_.counter("engine_appends_total", labels, appends_);
    metrics_.counter("engine_overwrites_total", labels, overwrites_);
    metrics_.counter("engine_removes_total", labels, removes_);
    metrics_.counter("engine_gets_total", labels, gets_);
    metrics_.counter("engine_compactions_total", labels, compactions_);
    metrics_.counter("engine_relocated_records_total", labels,
                     relocated_records_);
    metrics_.counter("engine_reclaimed_bytes_total", labels,
                     reclaimed_bytes_);
    metrics_.counter("engine_ref_gets_mmap_total", labels, ref_gets_mmap_);
    metrics_.counter("engine_ref_gets_copy_total", labels, ref_gets_copy_);
    metrics_.counter("engine_deferred_unlinks_total", labels,
                     deferred_unlinks_);
    metrics_.counter("engine_compact_compressed_records_total", labels,
                     compact_compressed_records_);
    metrics_.counter("engine_compact_raw_bytes_in_total", labels,
                     compact_raw_bytes_in_);
    metrics_.counter("engine_compact_stored_bytes_out_total", labels,
                     compact_stored_bytes_out_);
    metrics_.counter("engine_hints_written_total", labels, hints_written_);
    metrics_.counter("engine_hint_bytes_total", labels, hint_bytes_);
    metrics_.histogram("engine_hint_write_us", labels, hint_write_us_);
    metrics_.counter("engine_torn_bytes_discarded_total", labels,
                     torn_bytes_discarded_);
    metrics_.counter("engine_crc_read_failures_total", labels,
                     crc_read_failures_);
    metrics_.counter("engine_background_failures_total", labels,
                     background_failures_);
    metrics_.callback("engine_live_value_bytes", labels, [this] {
        const std::scoped_lock lock(mu_);
        return live_value_bytes_;
    });
    metrics_.callback("engine_segments", labels, [this] {
        const std::scoped_lock lock(mu_);
        return segments_.size();
    });
    // Compressed-vs-raw live bytes: with engine_live_value_bytes these
    // give the on-disk compression ratio as a /metrics series.
    metrics_.callback("engine_compressed_live_records", labels, [this] {
        const std::scoped_lock lock(mu_);
        return compressed_live_records_;
    });
    metrics_.callback("engine_compressed_live_bytes", labels, [this] {
        const std::scoped_lock lock(mu_);
        return compressed_live_bytes_;
    });
}

LogEngine::~LogEngine() {
    {
        const std::scoped_lock lock(mu_);
        closing_ = true;
    }
    pool_.reset();  // joins after draining queued chores (hint writes run)
    try {
        SegmentFile& active = *segments_.at(active_id_).file;
        if (active.size() > active_hint_covered_) {
            write_hint(active_id_, active);
        }
    } catch (...) {
        // The hint is an optimization; the next open scans instead.
        // Nothing (filesystem_error included) may escape a destructor.
    }
}

// ---- recovery ---------------------------------------------------------------

std::vector<std::uint64_t> LogEngine::recover() {
    std::vector<std::uint64_t> seg_ids;
    std::vector<std::uint64_t> hint_ids;
    for (const auto& entry : std::filesystem::directory_iterator(cfg_.dir)) {
        if (!entry.is_regular_file()) {
            continue;
        }
        const std::string name = entry.path().filename().string();
        if (const auto id = parse_numbered(name, "seg-", ".log")) {
            seg_ids.push_back(*id);
        } else if (const auto hid = parse_numbered(name, "seg-", ".hint")) {
            hint_ids.push_back(*hid);
        } else if (name.ends_with(".tmp") ||
                   parse_numbered(name, "ckpt-", ".idx")) {
            // A hint write that never reached its rename, or an index
            // checkpoint of the format before hints: this open scans.
            std::error_code ec;
            std::filesystem::remove(entry.path(), ec);
        }
    }
    std::sort(seg_ids.begin(), seg_ids.end());
    std::sort(hint_ids.begin(), hint_ids.end());

    for (const std::uint64_t id : seg_ids) {
        auto file = SegmentFile::open(segment_path(id), false);
        Buffer hdr(kSegmentHeaderSize);
        const bool header_ok =
            file->size() >= kSegmentHeaderSize &&
            file->read_exact(0, hdr) && decode_segment_header(hdr) == id;
        if (!header_ok) {
            if (id != seg_ids.back()) {
                throw ConsistencyError("bad header in sealed segment " +
                                       segment_path(id).string());
            }
            // Crash while creating the newest segment: reset it.
            torn_bytes_discarded_.add(file->size());
            file->truncate(0);
            file->append(encode_segment_header(id, write_version()));
        }
        segments_.emplace(
            id, Segment{.file = std::move(file), .sealed = true});
    }
    // Size the index once from the hints' trailers (an upper bound on
    // the live keys they hold); drop the hints of segments compacted
    // away.
    std::uint64_t hinted_entries = 0;
    for (const std::uint64_t id : hint_ids) {
        if (segments_.contains(id)) {
            hinted_entries += hint_entry_count(hint_path(id));
        } else {
            std::filesystem::remove(hint_path(id));
        }
    }
    index_.reserve(hinted_entries);

    // Segment order, as a full scan: a valid hint stands in for the bytes
    // it covers, and only the rest of the segment is read.
    std::vector<std::uint64_t> unhinted;
    for (auto& [id, seg] : segments_) {
        const auto apply = [&](RecordType type, std::string_view key,
                               std::uint32_t vlen, std::uint64_t offset) {
            apply_record_locked(
                type, key, vlen,
                Location{id, offset, static_cast<std::uint32_t>(key.size()),
                         vlen});
        };
        std::uint64_t from = kSegmentHeaderSize;
        if (std::binary_search(hint_ids.begin(), hint_ids.end(), id)) {
            std::optional<std::uint64_t> covered;
            Buffer raw;
            try {
                raw = read_whole_file(hint_path(id));
                covered = walk_hint(raw, id, seg.file->size(), {});
            } catch (const Error&) {
            }
            if (covered) {
                (void)walk_hint(raw, id, *covered,
                                [&](RecordType type, std::string_view key,
                                    std::uint32_t vlen, std::uint64_t offset) {
                                    ++hinted_records_;
                                    apply(type, key, vlen, offset);
                                });
                from = *covered;
            } else {
                // Torn, foreign, or stale after the log lost bytes it
                // describes: drop it before the segment can regrow past
                // it.
                std::filesystem::remove(hint_path(id));
            }
        }  // the hint's bytes are freed before the next segment's load
        const bool is_tail = id == segments_.rbegin()->first;
        const auto outcome = for_each_record(
            *seg.file, from,
            [&](std::uint64_t offset, RecordType type, std::string_view key,
                ConstBytes value) {
                ++scanned_records_;
                apply(type, key, static_cast<std::uint32_t>(value.size()),
                      offset);
            });
        if (!outcome.clean) {
            if (!is_tail) {
                throw ConsistencyError(
                    "corrupt record in sealed segment " +
                    seg.file->path().string() + " at offset " +
                    std::to_string(outcome.end_offset));
            }
            // Torn tail from a crash mid-append: discard the suffix.
            torn_bytes_discarded_.add(seg.file->size() - outcome.end_offset);
            seg.file->truncate(outcome.end_offset);
        }
        if (is_tail) {
            active_hint_covered_ = from;
        } else if (from < seg.file->size()) {
            unhinted.push_back(id);
        }
    }

    if (segments_.empty()) {
        open_fresh_segment_locked(1);
    } else {
        active_id_ = segments_.rbegin()->first;
        segments_[active_id_].sealed = false;
    }
    return unhinted;
}

LogEngine::ScanOutcome LogEngine::for_each_record(
    SegmentFile& file, std::uint64_t from,
    const std::function<void(std::uint64_t, RecordType, std::string_view,
                             ConstBytes)>& fn) {
    // Read the segment a window at a time instead of two preads per
    // record: metadata records are ~100 bytes.
    constexpr std::uint64_t kWindow = 1 << 20;
    const std::uint64_t end = file.size();
    Buffer window;  // the file's bytes [base, base + window.size())
    std::uint64_t base = from;
    std::uint64_t pos = from;
    // Make [pos, pos + n) resident; n never reaches past end.
    const auto fill = [&](std::uint64_t n) {
        if (pos + n <= base + window.size()) {
            return true;
        }
        base = pos;
        window.resize(std::min(std::max(n, kWindow), end - pos));
        return file.read_exact(pos, window);
    };
    while (pos < end) {
        if (pos + kRecordHeaderSize > end || !fill(kRecordHeaderSize)) {
            return {pos, false};
        }
        const ConstBytes hdr = ConstBytes(window).subspan(pos - base);
        const std::uint32_t crc = get_u32(hdr, 0);
        const std::uint32_t klen = get_u32(hdr, 4);
        const std::uint32_t vlen = get_u32(hdr, 8);
        const std::uint8_t type = hdr[12];
        if (!valid_record_type(type) || klen == 0 || klen > kMaxKeyLen ||
            vlen > kMaxValueLen ||
            pos + record_size(klen, vlen) > end) {
            return {pos, false};
        }
        const std::uint64_t size = record_size(klen, vlen);
        if (!fill(size)) {
            return {pos, false};
        }
        const ConstBytes rec = ConstBytes(window).subspan(pos - base, size);
        if (crc32c(rec.subspan(4)) != crc) {
            return {pos, false};
        }
        fn(pos, static_cast<RecordType>(type),
           std::string_view(
               reinterpret_cast<const char*>(&rec[kRecordHeaderSize]), klen),
           rec.subspan(kRecordHeaderSize + klen));
        pos += size;
    }
    return {pos, true};
}

// ---- data plane -------------------------------------------------------------

void LogEngine::validate_kv(std::string_view key, ConstBytes value) {
    if (key.empty() || key.size() > kMaxKeyLen) {
        throw InvalidArgument("engine key must be 1.." +
                              std::to_string(kMaxKeyLen) + " bytes");
    }
    if (value.size() > kMaxValueLen) {
        throw InvalidArgument("engine value exceeds " +
                              std::to_string(kMaxValueLen) + " bytes");
    }
}

void LogEngine::put(std::string_view key, ConstBytes value) {
    validate_kv(key, value);
    const std::scoped_lock lock(mu_);
    append_locked(RecordType::kPut, key, value);
    appends_.add();
}

bool LogEngine::put_if_absent(std::string_view key, ConstBytes value) {
    validate_kv(key, value);
    const std::scoped_lock lock(mu_);
    if (index_.contains(key)) {
        return false;
    }
    append_locked(RecordType::kPut, key, value);
    appends_.add();
    return true;
}

std::optional<Buffer> LogEngine::get(std::string_view key) {
    Location loc;
    std::shared_ptr<SegmentFile> file;
    {
        const std::scoped_lock lock(mu_);
        gets_.add();
        const auto it = index_.find(key);
        if (it == index_.end()) {
            return std::nullopt;
        }
        loc = it->second;
        file = segments_.at(loc.segment).file;
    }
    return read_value_checked(loc, *file, key);
}

Buffer LogEngine::read_value_checked(const Location& loc, SegmentFile& file,
                                     std::string_view key) {
    // Read and re-verify outside the lock: the record is immutable and the
    // caller's shared_ptr keeps the file alive even if the compactor
    // unlinks it. Two preads — header+key into a scratch buffer, value
    // straight into the returned Buffer — so the (up to chunk-sized)
    // value is never copied a second time; the incremental CRC covers
    // both pieces.
    Buffer head(kRecordHeaderSize + loc.klen);
    Buffer value(loc.vlen);
    if (!file.read_exact(loc.offset, head) ||
        !file.read_exact(loc.offset + head.size(), value)) {
        crc_read_failures_.add();
        throw ConsistencyError("short record read for engine key in " +
                               file.path().string());
    }
    const std::uint8_t expected_type = static_cast<std::uint8_t>(
        loc.compressed ? RecordType::kPutCompressed : RecordType::kPut);
    const std::uint32_t crc = get_u32(head, 0);
    std::uint32_t state = crc32c_init();
    state = crc32c_update(state, ConstBytes(head).subspan(4));
    state = crc32c_update(state, value);
    if (crc32c_final(state) != crc || get_u32(head, 4) != loc.klen ||
        get_u32(head, 8) != loc.vlen || head[12] != expected_type ||
        std::string_view(reinterpret_cast<const char*>(head.data()) +
                             kRecordHeaderSize,
                         loc.klen) != key) {
        crc_read_failures_.add();
        throw ConsistencyError("CRC mismatch reading engine record in " +
                               file.path().string() + " at offset " +
                               std::to_string(loc.offset));
    }
    if (!loc.compressed) {
        return value;
    }
    // The CRC covers the stored frame; a frame that then fails to decode
    // is corruption the CRC happened to bless — surface it identically.
    try {
        return codec::decode_frame(kLz4, value);
    } catch (const Error&) {
        crc_read_failures_.add();
        throw ConsistencyError("undecodable compressed engine record in " +
                               file.path().string() + " at offset " +
                               std::to_string(loc.offset));
    }
}

std::optional<ValueRef> LogEngine::get_ref(std::string_view key) {
    Location loc;
    std::shared_ptr<SegmentFile> file;
    std::shared_ptr<SegmentPin> pin;
    bool sealed = false;
    std::uint64_t seg_size = 0;
    {
        const std::scoped_lock lock(mu_);
        gets_.add();
        const auto it = index_.find(key);
        if (it == index_.end()) {
            return std::nullopt;
        }
        loc = it->second;
        const Segment& seg = segments_.at(loc.segment);
        file = seg.file;
        pin = seg.pin;
        sealed = seg.sealed;
        seg_size = seg.file->size();
        // Pin while locked: the compactor erases the segment (and
        // retires the file) only under this same mutex, so a view is
        // always pinned before its segment can be retired.
        pin->add();
    }

    // Release the pin unless the mmap path below takes ownership of it.
    struct PinRelease {
        std::shared_ptr<SegmentPin> pin;
        ~PinRelease() {
            if (pin) {
                pin->release();
            }
        }
    } guard{pin};

    if (sealed && !loc.compressed) {
        // A sealed segment's bytes and size are final, so one shared
        // full-size read-only mapping serves all readers; never map an
        // unsealed tail (touching pages past EOF is SIGBUS).
        if (auto map = file->map_prefix(seg_size)) {
            const ConstBytes seg_bytes = map->bytes();
            if (loc.offset + loc.size() > seg_bytes.size()) {
                crc_read_failures_.add();
                throw ConsistencyError(
                    "record extends past mapped segment " +
                    file->path().string());
            }
            const ConstBytes rec = seg_bytes.subspan(loc.offset, loc.size());
            const std::uint32_t crc = get_u32(rec, 0);
            const std::string_view stored_key(
                reinterpret_cast<const char*>(rec.data()) + kRecordHeaderSize,
                loc.klen);
            if (crc32c(rec.subspan(4)) != crc || get_u32(rec, 4) != loc.klen ||
                get_u32(rec, 8) != loc.vlen ||
                rec[12] != static_cast<std::uint8_t>(RecordType::kPut) ||
                stored_key != key) {
                crc_read_failures_.add();
                throw ConsistencyError(
                    "CRC mismatch reading engine record in " +
                    file->path().string() + " at offset " +
                    std::to_string(loc.offset));
            }
            ref_gets_mmap_.add();
            // The view owns the mapping AND the pin: bytes stay mapped
            // and the file stays on disk (unlink deferred) until the
            // last holder drops. Non-copyable with an in-place
            // make_shared: a copied temporary would run this destructor
            // early and release the pin while the view is still live.
            struct PinnedView {
                std::shared_ptr<const SegmentFile::Mapping> map;
                std::shared_ptr<SegmentPin> pin;
                PinnedView(std::shared_ptr<const SegmentFile::Mapping> m,
                           std::shared_ptr<SegmentPin> p)
                    : map(std::move(m)), pin(std::move(p)) {}
                PinnedView(const PinnedView&) = delete;
                PinnedView& operator=(const PinnedView&) = delete;
                ~PinnedView() { pin->release(); }
            };
            auto view = std::make_shared<const PinnedView>(
                std::move(map), std::move(guard.pin));
            return ValueRef{
                rec.subspan(kRecordHeaderSize + loc.klen, loc.vlen),
                std::move(view)};
        }
    }

    // Fallback — unsealed segment, compressed record, or mmap failure:
    // pread into an owned buffer. The pin is released by the guard (the
    // file shared_ptr alone keeps the inode readable); the copy is
    // self-contained.
    ref_gets_copy_.add();
    auto owned = std::make_shared<const Buffer>(
        read_value_checked(loc, *file, key));
    const ConstBytes bytes(*owned);
    return ValueRef{bytes, std::move(owned)};
}

bool LogEngine::contains(std::string_view key) {
    const std::scoped_lock lock(mu_);
    return index_.contains(key);
}

bool LogEngine::remove(std::string_view key) {
    const std::scoped_lock lock(mu_);
    if (!index_.contains(key)) {
        return false;
    }
    append_locked(RecordType::kTombstone, key, {});
    removes_.add();
    return true;
}

std::size_t LogEngine::count() {
    const std::scoped_lock lock(mu_);
    return index_.size();
}

std::uint64_t LogEngine::live_value_bytes() {
    const std::scoped_lock lock(mu_);
    return live_value_bytes_;
}

// ---- append path ------------------------------------------------------------

void LogEngine::append_locked(RecordType type, std::string_view key,
                              ConstBytes value) {
    const Buffer rec = encode_record(type, key, value);
    Segment& active = segments_.at(active_id_);
    const std::uint64_t offset = active.file->append(rec);
    if (cfg_.fsync_appends) {
        active.file->sync();
    }

    const bool overwrote = apply_record_locked(
        type, key, static_cast<std::uint32_t>(value.size()),
        Location{active_id_, offset, static_cast<std::uint32_t>(key.size()),
                 static_cast<std::uint32_t>(value.size())});
    if (overwrote) {
        overwrites_.add();
    }

    roll_segment_if_needed_locked();
    maybe_schedule_compaction_locked();
}

bool LogEngine::apply_record_locked(RecordType type, std::string_view key,
                                    std::uint32_t vlen, const Location& loc) {
    if (is_put_type(type)) {
        auto [it, inserted] = index_.try_emplace(std::string(key));
        if (!inserted) {
            account_dead_put_locked(it->second);
        }
        const auto dead = dead_keys_.find(key);
        if (dead != dead_keys_.end()) {
            // The key is live again: its tombstone stops shadowing
            // anything (a later put always wins the replay).
            account_dead_tomb_locked(dead->second);
            dead_keys_.erase(dead);
        }
        it->second = loc;
        it->second.compressed = type == RecordType::kPutCompressed;
        if (it->second.compressed) {
            ++compressed_live_records_;
            compressed_live_bytes_ += vlen;
        }
        segments_.at(loc.segment).live_bytes += loc.size();
        live_value_bytes_ += vlen;
        return !inserted;
    }
    const auto it = index_.find(key);
    if (it != index_.end()) {
        account_dead_put_locked(it->second);
        index_.erase(it);
    }
    auto [dead, inserted] = dead_keys_.try_emplace(std::string(key));
    if (!inserted) {
        account_dead_tomb_locked(dead->second);
    }
    dead->second = loc;
    segments_.at(loc.segment).tomb_bytes += loc.size();
    return false;
}

void LogEngine::open_fresh_segment_locked(std::uint64_t id) {
    auto file = SegmentFile::open(segment_path(id), true);
    if (file->size() != 0) {
        throw ConsistencyError("fresh segment " + segment_path(id).string() +
                               " already exists");
    }
    file->append(encode_segment_header(id, write_version()));
    segments_.emplace(
        id, Segment{.file = std::move(file), .sealed = false});
    active_id_ = id;
    active_hint_covered_ = kSegmentHeaderSize;
}

void LogEngine::roll_segment_if_needed_locked() {
    Segment& active = segments_.at(active_id_);
    if (active.file->size() < cfg_.segment_target_bytes) {
        return;
    }
    active.sealed = true;
    victim_hint_ = true;  // the freshly sealed segment may qualify
    schedule_hint_write_locked(active_id_);
    open_fresh_segment_locked(active_id_ + 1);
}

void LogEngine::account_dead_put_locked(const Location& loc) {
    const auto it = segments_.find(loc.segment);
    if (it != segments_.end()) {
        it->second.live_bytes -= loc.size();
        victim_hint_ |= it->second.sealed;
    }
    live_value_bytes_ -= loc.vlen;
    if (loc.compressed) {
        --compressed_live_records_;
        compressed_live_bytes_ -= loc.vlen;
    }
}

void LogEngine::account_dead_tomb_locked(const Location& loc) {
    const auto it = segments_.find(loc.segment);
    if (it != segments_.end()) {
        it->second.tomb_bytes -= loc.size();
        victim_hint_ |= it->second.sealed;
    }
}

// ---- compaction -------------------------------------------------------------

std::optional<std::uint64_t> LogEngine::pick_victim_locked() const {
    for (const auto& [id, seg] : segments_) {
        if (!seg.sealed) {
            continue;
        }
        const std::uint64_t record_bytes =
            seg.file->size() - kSegmentHeaderSize;
        // Current tombstones count as live — they must keep shadowing
        // stale puts in older segments — except in the oldest segment,
        // where nothing older exists and they are droppable dead weight.
        const bool oldest = id == segments_.begin()->first;
        const std::uint64_t effective_live =
            seg.live_bytes + (oldest ? 0 : seg.tomb_bytes);
        if (record_bytes == 0 ||
            static_cast<double>(effective_live) <
                cfg_.compact_min_live_ratio *
                    static_cast<double>(record_bytes)) {
            return id;
        }
    }
    return std::nullopt;
}

void LogEngine::maybe_schedule_compaction_locked() {
    if (!cfg_.background_compaction || compaction_pending_ || closing_ ||
        background_failed_ || pool_ == nullptr || !victim_hint_) {
        return;
    }
    // The hint says something *may* qualify; confirm with the full scan
    // (rare) so the per-append cost stays O(1).
    if (!pick_victim_locked().has_value()) {
        victim_hint_ = false;
        return;
    }
    victim_hint_ = false;
    compaction_pending_ = true;
    pool_->submit([this] {
        {
            const std::scoped_lock lock(mu_);
            compaction_pending_ = false;
            if (closing_) {
                return;
            }
        }
        try {
            compact();
        } catch (const std::exception& e) {
            // Nobody holds this task's future: surface the failure and
            // fail-stop the background chores instead of retrying the
            // same (likely corrupt) victim forever. Reads still verify
            // CRCs and throw per access; manual compact() rethrows.
            background_chore_failed(e.what());
        }
    });
}

void LogEngine::background_chore_failed(const char* what) {
    const std::scoped_lock lock(mu_);
    background_failed_ = true;
    background_failures_.add();
    std::fprintf(stderr,
                 "blobseer-engine[%s]: background chore failed, "
                 "disabling background compaction and hint writes: %s\n",
                 cfg_.dir.c_str(), what);
}

std::size_t LogEngine::compact() {
    const std::scoped_lock serialize(compact_mu_);
    std::size_t n = 0;
    while (compact_one()) {
        ++n;
    }
    return n;
}

bool LogEngine::compact_one() {
    std::uint64_t victim_id = 0;
    std::shared_ptr<SegmentFile> file;
    bool oldest = false;
    {
        const std::scoped_lock lock(mu_);
        if (closing_) {
            return false;
        }
        const auto victim = pick_victim_locked();
        if (!victim) {
            return false;
        }
        victim_id = *victim;
        file = segments_.at(victim_id).file;
        oldest = victim_id == segments_.begin()->first;
    }

    // The victim is sealed: its bytes are immutable, so scanning without
    // the lock is safe. Per record, re-check liveness under the lock and
    // re-append live records to the active segment (which updates the
    // index and marks the victim copy dead).
    const auto outcome = for_each_record(
        *file, kSegmentHeaderSize,
        [&](std::uint64_t offset, RecordType type, std::string_view key,
            ConstBytes value) {
            const std::scoped_lock lock(mu_);
            if (closing_) {
                return;
            }
            if (is_put_type(type)) {
                const auto it = index_.find(key);
                if (it == index_.end() || it->second.segment != victim_id ||
                    it->second.offset != offset) {
                    return;  // stale copy; the live one is elsewhere
                }
                if (type == RecordType::kPutCompressed) {
                    // Already a frame: relocate as-is, never re-frame.
                    append_locked(RecordType::kPutCompressed, key, value);
                } else if (cfg_.compress_on_compact &&
                           value.size() >= cfg_.compress_min_bytes) {
                    // Cold-segment recompression: this record survived at
                    // least one segment lifetime, so spend the CPU to
                    // shrink it — but only if framing actually wins.
                    const Buffer frame = codec::encode_frame(kLz4, value);
                    if (frame.size() < value.size()) {
                        append_locked(RecordType::kPutCompressed, key,
                                      frame);
                        compact_compressed_records_.add();
                        compact_raw_bytes_in_.add(value.size());
                        compact_stored_bytes_out_.add(frame.size());
                    } else {
                        append_locked(RecordType::kPut, key, value);
                    }
                } else {
                    append_locked(RecordType::kPut, key, value);
                }
                relocated_records_.add();
                return;
            }
            // Tombstone: only the *current* one of a still-dead key
            // matters (a superseded one is shadowed by a later record
            // either way). It must keep shadowing stale puts in older
            // segments, so relocate it — unless this is the oldest
            // segment, where nothing older exists and it can finally be
            // dropped.
            const auto dead = dead_keys_.find(key);
            if (dead == dead_keys_.end() ||
                dead->second.segment != victim_id ||
                dead->second.offset != offset) {
                return;
            }
            if (oldest) {
                account_dead_tomb_locked(dead->second);
                dead_keys_.erase(dead);
            } else {
                append_locked(RecordType::kTombstone, key, {});
                relocated_records_.add();
            }
        });
    if (!outcome.clean) {
        throw ConsistencyError("corrupt record while compacting " +
                               file->path().string());
    }

    std::shared_ptr<SegmentPin> pin;
    {
        const std::scoped_lock lock(mu_);
        if (closing_) {
            return false;
        }
        reclaimed_bytes_.add(file->size());
        compactions_.add();
        pin = segments_.at(victim_id).pin;
        segments_.erase(victim_id);
    }
    // Hand the unlink to the pin: immediate when no get_ref() view is
    // live, deferred to the last view release otherwise (a pinned mmap
    // view must keep reading byte-identical data — see DESIGN.md §15.3).
    // In-flight preads are safe either way; the SegmentFile shared_ptr
    // keeps the inode alive.
    if (pin->pinned()) {
        deferred_unlinks_.add();
    }
    pin->retire(file->path());
    // Any hint of the victim goes now (a pending write of it sees the
    // segment gone and skips); a leftover would be dropped at open.
    std::error_code ec;
    std::filesystem::remove(hint_path(victim_id), ec);
    return true;
}

// ---- hints ------------------------------------------------------------------

void LogEngine::schedule_hint_write_locked(std::uint64_t id) {
    if (pool_ == nullptr || background_failed_) {
        return;
    }
    pool_->submit([this, id] {
        try {
            const std::scoped_lock serialize(compact_mu_);
            std::shared_ptr<SegmentFile> file;
            {
                const std::scoped_lock lock(mu_);
                const auto it = segments_.find(id);
                if (it == segments_.end()) {
                    return;  // compacted away before its hint was due
                }
                file = it->second.file;
            }
            write_hint(id, *file);
        } catch (const std::exception& e) {
            background_chore_failed(e.what());
        }
    });
}

void LogEngine::write_hint(std::uint64_t id, SegmentFile& file) {
    constexpr std::size_t kBlockBytes = 64 << 10;
    const Stopwatch sw;
    const std::uint64_t covered = file.size();
    const auto final_path = hint_path(id);
    const auto tmp_path = std::filesystem::path(final_path.string() + ".tmp");
    auto out = SegmentFile::open(tmp_path, true);
    out->truncate(0);

    Buffer block;
    block.reserve(kBlockBytes);
    block.insert(block.end(), kHintMagic.begin(), kHintMagic.end());
    put_u32(block, write_version());
    put_u32(block, 0);  // reserved
    put_u64(block, id);
    put_u64(block, covered);
    std::uint32_t crc = crc32c_init();
    std::uint64_t bytes = 0;
    const auto flush = [&] {
        crc = crc32c_update(crc, block);
        out->append(block);
        bytes += block.size();
        block.clear();
    };
    std::uint64_t count = 0;
    const auto outcome = for_each_record(
        file, kSegmentHeaderSize,
        [&](std::uint64_t offset, RecordType type, std::string_view key,
            ConstBytes value) {
            block.push_back(static_cast<std::uint8_t>(type));
            put_u32(block, static_cast<std::uint32_t>(key.size()));
            put_u32(block, static_cast<std::uint32_t>(value.size()));
            put_u64(block, offset);
            block.insert(block.end(), key.begin(), key.end());
            ++count;
            if (block.size() >= kBlockBytes) {
                flush();
            }
        });
    if (!outcome.clean || outcome.end_offset != covered) {
        out.reset();
        std::filesystem::remove(tmp_path);
        throw ConsistencyError("corrupt record while writing the hint of " +
                               file.path().string() + " at offset " +
                               std::to_string(outcome.end_offset));
    }
    put_u64(block, count);
    flush();
    put_u32(block, crc32c_final(crc));
    out->append(block);
    bytes += block.size();
    out->sync();
    out.reset();
    std::filesystem::rename(tmp_path, final_path);
    hints_written_.add();
    hint_bytes_.add(bytes);
    hint_write_us_.record(sw.elapsed_us());
}

// ---- misc -------------------------------------------------------------------

void LogEngine::wait_idle() {
    for (;;) {
        pool_->submit([] {}).get();  // single worker: drains earlier tasks
        const std::scoped_lock lock(mu_);
        if (!compaction_pending_) {
            return;
        }
    }
}

EngineStatsSnapshot LogEngine::stats() {
    const std::scoped_lock lock(mu_);
    EngineStatsSnapshot s;
    s.live_keys = index_.size();
    s.live_value_bytes = live_value_bytes_;
    for (const auto& [id, seg] : segments_) {
        (void)id;
        s.disk_bytes += seg.file->size();
    }
    s.segment_count = segments_.size();
    s.appends = appends_.get();
    s.overwrites = overwrites_.get();
    s.removes = removes_.get();
    s.gets = gets_.get();
    s.compactions = compactions_.get();
    s.relocated_records = relocated_records_.get();
    s.reclaimed_bytes = reclaimed_bytes_.get();
    s.ref_gets_mmap = ref_gets_mmap_.get();
    s.ref_gets_copy = ref_gets_copy_.get();
    s.deferred_unlinks = deferred_unlinks_.get();
    s.compressed_live_records = compressed_live_records_;
    s.compressed_live_bytes = compressed_live_bytes_;
    s.compact_compressed_records = compact_compressed_records_.get();
    s.compact_raw_bytes_in = compact_raw_bytes_in_.get();
    s.compact_stored_bytes_out = compact_stored_bytes_out_.get();
    s.hints_written = hints_written_.get();
    s.hint_bytes_written = hint_bytes_.get();
    s.hinted_records = hinted_records_;
    s.scanned_records = scanned_records_;
    s.torn_bytes_discarded = torn_bytes_discarded_.get();
    s.crc_read_failures = crc_read_failures_.get();
    s.background_failures = background_failures_.get();
    return s;
}

void LogEngine::scan(
    const std::function<void(std::string_view, ConstBytes)>& fn) {
    // Snapshot the segment list under the lock, then walk WITHOUT it.
    // The contract (no concurrent writer; startup replay) makes the
    // unlocked walk safe, and it is required for deadlock-freedom:
    // consumer callbacks take their own locks (e.g. the version
    // manager's stripe/map mutexes), and those same locks are held
    // around put() at runtime — holding the engine mutex across the
    // callbacks would order it before every consumer lock, the exact
    // inversion of the append path.
    std::vector<std::pair<std::uint64_t, std::shared_ptr<SegmentFile>>>
        files;
    {
        const std::scoped_lock lock(mu_);
        files.reserve(segments_.size());
        for (const auto& [id, seg] : segments_) {
            files.emplace_back(id, seg.file);
        }
    }
    for (const auto& [id, file] : files) {
        const auto outcome = for_each_record(
            *file, kSegmentHeaderSize,
            [&](std::uint64_t offset, RecordType type, std::string_view key,
                ConstBytes value) {
                if (!is_put_type(type)) {
                    return;
                }
                // Unlocked index_ read: no writer is active by the
                // scan contract, so the index is frozen.
                const auto it = index_.find(key);
                if (it != index_.end() && it->second.segment == id &&
                    it->second.offset == offset) {
                    if (type == RecordType::kPutCompressed) {
                        // Consumers replay raw values; the frame is a
                        // storage detail.
                        const Buffer raw = codec::decode_frame(kLz4, value);
                        fn(key, raw);
                    } else {
                        fn(key, value);
                    }
                }
            });
        if (!outcome.clean) {
            // Hinted bytes were not re-verified at open (a hint vouches
            // for locations, not contents): a bad record here must fail
            // the scan loudly, not truncate the consumer's view of the
            // log.
            throw ConsistencyError("corrupt record while scanning " +
                                   file->path().string() +
                                   " at offset " +
                                   std::to_string(outcome.end_offset));
        }
    }
}

std::filesystem::path LogEngine::segment_path(std::uint64_t id) const {
    return cfg_.dir / ("seg-" + pad10(id) + ".log");
}

std::filesystem::path LogEngine::hint_path(std::uint64_t id) const {
    return cfg_.dir / ("seg-" + pad10(id) + ".hint");
}

}  // namespace blobseer::engine
