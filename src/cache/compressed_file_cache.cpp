#include "cache/compressed_file_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "engine/crc32c.hpp"
#include "engine/format.hpp"

namespace blobseer::cache {

namespace {

[[nodiscard]] std::filesystem::path file_path(const std::filesystem::path& dir,
                                              std::uint64_t id) {
    char name[32];
    std::snprintf(name, sizeof name, "cache-%010llu.dat",
                  static_cast<unsigned long long>(id));
    return dir / name;
}

}  // namespace

CompressedFileCache::CompressedFileCache(FileCacheConfig cfg)
    : cfg_(std::move(cfg)) {
    std::error_code ec;
    std::filesystem::remove_all(cfg_.dir, ec);  // disposable: never reuse
    std::filesystem::create_directories(cfg_.dir, ec);
    {
        const std::scoped_lock lock(mu_);
        (void)open_active_locked();
    }
    const MetricLabels labels{{"dir", cfg_.dir.string()}};
    metrics_.counter("file_cache_hits_total", labels, hits_);
    metrics_.counter("file_cache_misses_total", labels, misses_);
    metrics_.counter("file_cache_insertions_total", labels, insertions_);
    metrics_.counter("file_cache_put_present_total", labels, put_present_);
    metrics_.counter("file_cache_evictions_total", labels, evictions_);
    metrics_.counter("file_cache_crc_failures_total", labels, crc_failures_);
    metrics_.counter("file_cache_io_errors_total", labels, io_errors_);
    metrics_.callback("file_cache_entries", labels,
                      [this] { return static_cast<std::uint64_t>(entries()); });
    metrics_.callback("file_cache_stored_bytes", labels,
                      [this] { return stored_bytes(); });
    metrics_.callback("file_cache_raw_bytes", labels,
                      [this] { return raw_bytes(); });
    metrics_.callback("file_cache_physical_bytes", labels,
                      [this] { return physical_bytes(); });
}

bool CompressedFileCache::open_active_locked() {
    std::error_code ec;
    std::filesystem::create_directories(cfg_.dir, ec);  // may have been rm'd
    const std::uint64_t id = next_file_id_++;
    try {
        auto file = engine::SegmentFile::open(file_path(cfg_.dir, id), true);
        files_[id] = CacheFile{std::move(file), 0};
        active_file_id_ = id;
        return true;
    } catch (const Error&) {
        io_errors_.add();
        active_file_id_ = 0;
        return false;
    }
}

void CompressedFileCache::release_entry_locked(const FileLocation& loc) {
    const auto it = files_.find(loc.file_id);
    if (it == files_.end()) {
        return;
    }
    if (it->second.live_entries > 0) {
        --it->second.live_entries;
    }
    if (it->second.live_entries == 0 && loc.file_id != active_file_id_) {
        std::error_code ec;
        std::filesystem::remove(it->second.file->path(), ec);
        files_.erase(it);
    }
}

std::uint64_t CompressedFileCache::physical_bytes_locked() const {
    std::uint64_t total = 0;
    for (const auto& [id, f] : files_) {
        total += f.file->size();
    }
    return total;
}

void CompressedFileCache::enforce_budgets_locked() {
    if (cfg_.budget_bytes != 0) {
        while (index_.stored_bytes() > cfg_.budget_bytes) {
            auto victim = index_.pop_lru();
            if (!victim) {
                break;
            }
            release_entry_locked(victim->loc);
            evictions_.add();
        }
    }
    // Physical bound: logical eviction only reclaims a file when it
    // drains completely, so scattered survivors can pin disk space.
    // Retire whole cold files (oldest first) past 2x(budget + one file).
    if (cfg_.budget_bytes != 0) {
        const std::uint64_t physical_limit =
            2 * (cfg_.budget_bytes + cfg_.file_target_bytes);
        while (files_.size() > 1 && physical_bytes_locked() > physical_limit) {
            const auto it = files_.begin();
            if (it->first == active_file_id_) {
                break;
            }
            const std::size_t dropped = index_.erase_file(it->first);
            evictions_.add(dropped);
            std::error_code ec;
            std::filesystem::remove(it->second.file->path(), ec);
            files_.erase(it);
        }
    }
}

bool CompressedFileCache::put(const std::string& key, ConstBytes raw) {
    if (key.size() > engine::kMaxKeyLen || raw.size() > engine::kMaxValueLen) {
        return false;
    }
    {
        // Presence first: a resident key is only freshened, so re-putting
        // a value the cache already holds costs no codec or CRC work.
        const std::scoped_lock lock(mu_);
        if (freshen_locked(key)) {
            return false;
        }
    }
    const Buffer frame = codec::encode_frame(codec_, raw);
    if (cfg_.budget_bytes != 0 && frame.size() > cfg_.budget_bytes) {
        return false;  // would evict the whole cache for one entry
    }
    Buffer entry;
    entry.reserve(kEntryHeaderSize + key.size() + frame.size());
    engine::put_u32(entry, 0);  // CRC placeholder
    engine::put_u32(entry, static_cast<std::uint32_t>(key.size()));
    engine::put_u32(entry, static_cast<std::uint32_t>(raw.size()));
    engine::put_u32(entry, static_cast<std::uint32_t>(frame.size()));
    entry.insert(entry.end(), key.begin(), key.end());
    entry.insert(entry.end(), frame.begin(), frame.end());
    engine::poke_u32(entry, 0,
                     engine::crc32c(ConstBytes(entry).subspan(4)));

    const std::scoped_lock lock(mu_);
    if (freshen_locked(key)) {
        return false;  // a concurrent put of the same key won while we encoded
    }
    if (active_file_id_ == 0 && !open_active_locked()) {
        return false;
    }
    auto& active = files_.at(active_file_id_);
    std::uint64_t offset = 0;
    try {
        offset = active.file->append(entry);
    } catch (const Error&) {
        // The active file is suspect (disk full, deleted dir + stale fd
        // errors, ...): count it, retire the file, recover on next put.
        io_errors_.add();
        if (active.live_entries == 0) {
            std::error_code ec;
            std::filesystem::remove(active.file->path(), ec);
            files_.erase(active_file_id_);
        }
        active_file_id_ = 0;
        return false;
    }
    active.live_entries++;
    index_.insert(key, FileLocation{active_file_id_, offset,
                                    static_cast<std::uint32_t>(raw.size()),
                                    static_cast<std::uint32_t>(frame.size())});
    insertions_.add();
    if (active.file->size() >= cfg_.file_target_bytes) {
        (void)open_active_locked();  // rotate; old file drains via LRU
    }
    enforce_budgets_locked();
    return true;
}

bool CompressedFileCache::freshen_locked(const std::string& key) {
    if (!index_.find(key, /*touch=*/true)) {
        return false;
    }
    put_present_.add();
    return true;
}

std::optional<Buffer> CompressedFileCache::get(const std::string& key) {
    std::shared_ptr<engine::SegmentFile> file;
    FileLocation loc;
    {
        const std::scoped_lock lock(mu_);
        const auto found = index_.find(key, /*touch=*/true);
        if (!found) {
            misses_.add();
            return std::nullopt;
        }
        loc = *found;
        const auto it = files_.find(loc.file_id);
        if (it == files_.end()) {
            (void)index_.erase(key);
            misses_.add();
            return std::nullopt;
        }
        file = it->second.file;
    }

    // Read + verify outside the lock; the shared_ptr keeps the fd (and
    // therefore the inode, even if unlinked) alive.
    const std::size_t entry_size =
        kEntryHeaderSize + key.size() + loc.stored_len;
    Buffer entry(entry_size);
    bool ok = false;
    try {
        ok = file->read_exact(loc.offset, entry);
    } catch (const Error&) {
        ok = false;
    }
    if (ok) {
        const ConstBytes bytes(entry);
        ok = engine::get_u32(bytes, 0) == engine::crc32c(bytes.subspan(4)) &&
             engine::get_u32(bytes, 4) == key.size() &&
             engine::get_u32(bytes, 8) == loc.raw_len &&
             engine::get_u32(bytes, 12) == loc.stored_len &&
             // Compare as unsigned bytes: char is signed here, and a key
             // byte >= 0x80 must not read as a mismatch.
             std::equal(key.begin(), key.end(),
                        entry.begin() + kEntryHeaderSize,
                        [](char a, std::uint8_t b) {
                            return static_cast<std::uint8_t>(a) == b;
                        });
    }
    std::optional<Buffer> raw;
    if (ok) {
        try {
            raw = codec::decode_frame(
                codec_,
                ConstBytes(entry).subspan(kEntryHeaderSize + key.size()));
            if (raw->size() != loc.raw_len) {
                raw.reset();
            }
        } catch (const Error&) {
            raw.reset();
        }
    }
    if (!raw) {
        // Corrupt or unreadable: drop the entry so the caller's miss
        // falls through to the durable tier, and never trips again.
        const std::scoped_lock lock(mu_);
        if (const auto cur = index_.find(key, /*touch=*/false);
            cur && cur->file_id == loc.file_id &&
            cur->offset == loc.offset) {
            (void)index_.erase(key);
            release_entry_locked(loc);
        }
        crc_failures_.add();
        misses_.add();
        return std::nullopt;
    }
    hits_.add();
    return raw;
}

bool CompressedFileCache::contains(const std::string& key) {
    const std::scoped_lock lock(mu_);
    return index_.contains(key);
}

void CompressedFileCache::erase(const std::string& key) {
    const std::scoped_lock lock(mu_);
    if (const auto loc = index_.erase(key)) {
        release_entry_locked(*loc);
    }
}

void CompressedFileCache::clear() {
    const std::scoped_lock lock(mu_);
    index_.clear();
    for (auto& [id, f] : files_) {
        std::error_code ec;
        std::filesystem::remove(f.file->path(), ec);
    }
    files_.clear();
    active_file_id_ = 0;
    (void)open_active_locked();
}

std::size_t CompressedFileCache::entries() {
    const std::scoped_lock lock(mu_);
    return index_.size();
}

std::uint64_t CompressedFileCache::stored_bytes() {
    const std::scoped_lock lock(mu_);
    return index_.stored_bytes();
}

std::uint64_t CompressedFileCache::raw_bytes() {
    const std::scoped_lock lock(mu_);
    return index_.raw_bytes();
}

std::uint64_t CompressedFileCache::physical_bytes() {
    const std::scoped_lock lock(mu_);
    return physical_bytes_locked();
}

std::size_t CompressedFileCache::file_count() {
    const std::scoped_lock lock(mu_);
    return files_.size();
}

}  // namespace blobseer::cache
