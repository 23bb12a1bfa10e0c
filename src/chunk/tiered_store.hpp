/// \file tiered_store.hpp
/// \brief Generic storage tier stack: RAM LRU → compressed file cache →
///        durable backend.
///
/// Generalizes the paper's §IV-B two-tier scheme (RAM cache over
/// persistent storage) with an optional compressed middle tier
/// (DESIGN.md §14): values evicted from the RAM tier are *demoted* into
/// a CompressedFileCache instead of being forgotten, and a middle-tier
/// hit *promotes* the value back into RAM. Working sets well past the
/// RAM budget are then served at decompress-a-file-entry cost instead of
/// full engine-read cost, and the cliff at RAM exhaustion flattens.
///
/// Tier semantics (inclusive: a promotion leaves the file copy in place):
///  * put: write-through to the backend (durability), refresh the RAM
///    entry (an overwrite must never leave stale bytes servable — the
///    middle tier is invalidated too), demote RAM victims.
///  * get: RAM hit, else file-cache hit (decompress + promote), else
///    backend (repopulate RAM).
///  * RAM eviction: every victim is offered to the file tier. One it
///    already holds (a promotion no put has overwritten since) is only
///    freshened there, at the cost of a lookup; the others are
///    compressed in, and only those count as demotions.
///  * erase / last decref: drop from every tier.
/// The middle tier is disposable: corrupt/missing entries fall through
/// to the backend, and deleting its directory loses nothing.
///
/// core::make_chunk_store builds it over a LogStore when a durable
/// deployment sets a RAM budget, with the file cache when it also sets a
/// file-cache budget.

#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/compressed_file_cache.hpp"
#include "chunk/store.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"

namespace blobseer::chunk {

class TieredStore final : public ChunkStore {
  public:
    /// Two-tier form: RAM over \p backend, no middle tier.
    /// \param backend   durable store (owned).
    /// \param ram_budget max bytes kept in the RAM tier; 0 = unlimited.
    TieredStore(std::unique_ptr<ChunkStore> backend, std::uint64_t ram_budget)
        : TieredStore(std::move(backend), ram_budget, nullptr) {}

    /// Three-tier form: RAM over \p file_cache over \p backend.
    TieredStore(std::unique_ptr<ChunkStore> backend, std::uint64_t ram_budget,
                std::unique_ptr<cache::CompressedFileCache> file_cache)
        : backend_(std::move(backend)),
          file_cache_(std::move(file_cache)),
          ram_budget_(ram_budget) {
        metrics_.counter("tier_ram_hits_total", {}, hits_);
        metrics_.counter("tier_ram_misses_total", {}, misses_);
        metrics_.counter("tier_ram_evictions_total", {}, evictions_);
        metrics_.counter("tier_demotions_total", {}, demotions_);
        metrics_.counter("tier_promotions_total", {}, promotions_);
        metrics_.callback("tier_ram_bytes", {},
                          [this] { return ram_bytes(); });
    }

    void put(const ChunkKey& key, ChunkData data) override {
        backend_->put(key, data);
        if (file_cache_) {
            // The middle tier may hold a demoted copy of the old bytes.
            file_cache_->erase(file_key(key));
        }
        cache_insert(key, std::move(data));
    }

    [[nodiscard]] std::optional<ChunkData> get(const ChunkKey& key) override {
        {
            const std::scoped_lock lock(mu_);
            const auto it = map_.find(key);
            if (it != map_.end()) {
                hits_.add();
                lru_.splice(lru_.begin(), lru_, it->second);
                return it->second->data;
            }
        }
        misses_.add();
        if (file_cache_) {
            if (auto raw = file_cache_->get(file_key(key))) {
                promotions_.add();
                ChunkData data =
                    std::make_shared<Buffer>(std::move(*raw));
                cache_insert(key, data);
                return data;
            }
        }
        auto from_disk = backend_->get(key);
        if (from_disk) {
            cache_insert(key, *from_disk);
        }
        return from_disk;
    }

    [[nodiscard]] bool contains(const ChunkKey& key) override {
        {
            const std::scoped_lock lock(mu_);
            if (map_.contains(key)) {
                return true;
            }
        }
        if (file_cache_ && file_cache_->contains(file_key(key))) {
            return true;
        }
        return backend_->contains(key);
    }

    void erase(const ChunkKey& key) override {
        drop_cached(key);
        backend_->erase(key);
    }

    [[nodiscard]] std::size_t count() override { return backend_->count(); }

    [[nodiscard]] std::uint64_t bytes() override { return backend_->bytes(); }

    // Refcounts live in the durable tier; the caching tiers only need to
    // drop their copies when the last reference goes so a reclaimed
    // chunk cannot be served from RAM or from the file cache.
    std::uint64_t incref(const ChunkKey& key) override {
        return backend_->incref(key);
    }

    std::uint64_t decref(const ChunkKey& key) override {
        const std::uint64_t remaining = backend_->decref(key);
        if (remaining == 0) {
            drop_cached(key);
        }
        return remaining;
    }

    [[nodiscard]] std::uint64_t refcount(const ChunkKey& key) override {
        return backend_->refcount(key);
    }

    /// Bytes currently held in the RAM tier.
    [[nodiscard]] std::uint64_t ram_bytes() {
        const std::scoped_lock lock(mu_);
        return ram_bytes_;
    }

    [[nodiscard]] std::uint64_t cache_hits() const { return hits_.get(); }
    [[nodiscard]] std::uint64_t cache_misses() const { return misses_.get(); }
    [[nodiscard]] std::uint64_t cache_evictions() const {
        return evictions_.get();
    }
    [[nodiscard]] std::uint64_t demotions() const { return demotions_.get(); }
    [[nodiscard]] std::uint64_t promotions() const {
        return promotions_.get();
    }

    /// The middle tier, if configured (tests and stats plumbing).
    [[nodiscard]] cache::CompressedFileCache* file_cache() {
        return file_cache_.get();
    }
    [[nodiscard]] ChunkStore& backend() noexcept { return *backend_; }
    [[nodiscard]] std::uint64_t ram_budget() const noexcept {
        return ram_budget_;
    }

    /// Drop every volatile tier (crash of the caching layer; durable
    /// data stays). The file cache goes too: its index is in-memory, so
    /// a real restart empties it regardless of what is on disk.
    void drop_cache() {
        {
            const std::scoped_lock lock(mu_);
            lru_.clear();
            map_.clear();
            ram_bytes_ = 0;
        }
        if (file_cache_) {
            file_cache_->clear();
        }
    }

  private:
    struct Entry {
        ChunkKey key;
        ChunkData data;
    };
    using LruList = std::list<Entry>;

    /// Stable byte encoding of a ChunkKey for the file-cache tier (the
    /// same kind-prefix scheme LogStore uses for its persistent keys).
    [[nodiscard]] static std::string file_key(const ChunkKey& key) {
        std::string out;
        out.reserve(17);
        if (key.is_content()) {
            out.push_back('C');
        }
        for (int i = 0; i < 8; ++i) {
            out.push_back(static_cast<char>(key.blob >> (i * 8)));
        }
        for (int i = 0; i < 8; ++i) {
            out.push_back(static_cast<char>(key.uid >> (i * 8)));
        }
        return out;
    }

    /// Insert or refresh the RAM entry, then demote any evicted victims
    /// into the file cache (outside the lock — demotion compresses and
    /// writes a file, and must not stall concurrent RAM hits).
    void cache_insert(const ChunkKey& key, ChunkData data) {
        std::vector<Entry> victims;
        {
            const std::scoped_lock lock(mu_);
            if (const auto it = map_.find(key); it != map_.end()) {
                // Refresh in place: an overwriting put must replace the
                // cached bytes and their accounting, not keep the stale
                // copy servable.
                ram_bytes_ -= it->second->data->size();
                ram_bytes_ += data->size();
                it->second->data = std::move(data);
                lru_.splice(lru_.begin(), lru_, it->second);
            } else {
                ram_bytes_ += data->size();
                lru_.push_front(Entry{key, std::move(data)});
                map_[key] = lru_.begin();
            }
            while (ram_budget_ != 0 && ram_bytes_ > ram_budget_ &&
                   !lru_.empty()) {
                Entry& victim = lru_.back();
                ram_bytes_ -= victim.data->size();
                map_.erase(victim.key);
                if (file_cache_) {
                    victims.push_back(std::move(victim));
                }
                lru_.pop_back();
                evictions_.add();
            }
        }
        for (const Entry& victim : victims) {
            // A victim the file tier already holds is only freshened.
            if (file_cache_->put(file_key(victim.key), *victim.data)) {
                demotions_.add();
            }
        }
    }

    /// Remove \p key from the volatile tiers (not the backend).
    void drop_cached(const ChunkKey& key) {
        {
            const std::scoped_lock lock(mu_);
            const auto it = map_.find(key);
            if (it != map_.end()) {
                ram_bytes_ -= it->second->data->size();
                lru_.erase(it->second);
                map_.erase(it);
            }
        }
        if (file_cache_) {
            file_cache_->erase(file_key(key));
        }
    }

    std::unique_ptr<ChunkStore> backend_;
    std::unique_ptr<cache::CompressedFileCache> file_cache_;
    const std::uint64_t ram_budget_;

    std::mutex mu_;  // guards lru_, map_, ram_bytes_
    LruList lru_;
    std::unordered_map<ChunkKey, LruList::iterator, ChunkKeyHash> map_;
    std::uint64_t ram_bytes_ = 0;

    Counter hits_;
    Counter misses_;
    Counter evictions_;
    Counter demotions_;
    Counter promotions_;

    MetricsGroup metrics_;  // declared last: unbinds before members die
};

}  // namespace blobseer::chunk
