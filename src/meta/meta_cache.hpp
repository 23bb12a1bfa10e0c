/// \file meta_cache.hpp
/// \brief Client-side metadata cache.
///
/// Because tree nodes are immutable, a cached node can never go stale —
/// caching needs no invalidation protocol at all. This is the effect the
/// paper measured in the supernova-detection study (§IV-A, [15]): "our
/// results ... underline the benefits of metadata caching on the client
/// side". The cache wraps any MetaStore (normally the DHT client) and is
/// bounded by node count with LRU eviction.

#pragma once

#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/stats.hpp"
#include "meta/meta_store.hpp"

namespace blobseer::meta {

class MetaCache final : public MetaStore {
  public:
    /// \param backing   the real store (not owned; must outlive the cache).
    /// \param capacity  max cached nodes; 0 disables caching entirely.
    MetaCache(MetaStore& backing, std::size_t capacity)
        : backing_(backing), capacity_(capacity) {}

    void put_many(std::span<const KeyedNode> nodes) override {
        backing_.put_many(nodes);
        if (capacity_ != 0) {
            const std::scoped_lock lock(mu_);
            for (const KeyedNode& n : nodes) {
                insert(n.key, n.node);
            }
        }
    }

    [[nodiscard]] MetaNode get(const MetaKey& key) override {
        if (capacity_ != 0) {
            const std::scoped_lock lock(mu_);
            const auto it = map_.find(key);
            if (it != map_.end()) {
                hits_.add();
                lru_.splice(lru_.begin(), lru_, it->second);
                return it->second->second;
            }
        }
        misses_.add();
        MetaNode node = backing_.get(key);
        if (capacity_ != 0) {
            const std::scoped_lock lock(mu_);
            insert(key, node);
        }
        return node;
    }

    [[nodiscard]] std::optional<MetaNode> try_get(
        const MetaKey& key) override {
        if (capacity_ != 0) {
            const std::scoped_lock lock(mu_);
            const auto it = map_.find(key);
            if (it != map_.end()) {
                return it->second->second;
            }
        }
        return backing_.try_get(key);
    }

    void erase(const MetaKey& key) override {
        {
            const std::scoped_lock lock(mu_);
            const auto it = map_.find(key);
            if (it != map_.end()) {
                lru_.erase(it->second);
                map_.erase(it);
            }
        }
        backing_.erase(key);
    }

    [[nodiscard]] std::uint64_t hits() const { return hits_.get(); }
    [[nodiscard]] std::uint64_t misses() const { return misses_.get(); }

    void clear() {
        const std::scoped_lock lock(mu_);
        lru_.clear();
        map_.clear();
    }

  private:
    using LruList = std::list<std::pair<MetaKey, MetaNode>>;

    /// Caller holds mu_.
    void insert(const MetaKey& key, const MetaNode& node) {
        if (map_.contains(key)) {
            return;
        }
        lru_.emplace_front(key, node);
        map_[key] = lru_.begin();
        while (map_.size() > capacity_) {
            map_.erase(lru_.back().first);
            lru_.pop_back();
        }
    }

    MetaStore& backing_;
    const std::size_t capacity_;

    std::mutex mu_;  // guards lru_ and map_
    LruList lru_;
    std::unordered_map<MetaKey, LruList::iterator, MetaKeyHash> map_;

    Counter hits_;
    Counter misses_;
};

}  // namespace blobseer::meta
