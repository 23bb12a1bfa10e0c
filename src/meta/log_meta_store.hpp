/// \file log_meta_store.hpp
/// \brief Persistent metadata node store backed by the log engine.
///
/// The durable metadata backend (ClusterConfig::durable): tree nodes are
/// tiny (tens of bytes), so they serialize with serialize_node
/// (meta_node.hpp) and append to an engine::LogEngine (DESIGN.md §8)
/// keyed by the 32-byte MetaKey encoding; restart recovery applies the
/// engine's per-segment hint files. Every node read or written is mirrored in a
/// RAM map — the paper keeps the RAM scheme "as an underlying caching
/// mechanism" — and lose_volatile() drops only that cache; get() then
/// falls back to the engine.

#pragma once

#include <filesystem>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "engine/log_engine.hpp"
#include "meta/meta_store.hpp"

namespace blobseer::meta {

class LogMetaStore final : public LocalMetaStore {
  public:
    explicit LogMetaStore(std::filesystem::path dir)
        : LogMetaStore(make_config(std::move(dir))) {}

    explicit LogMetaStore(engine::EngineConfig cfg) : engine_(std::move(cfg)) {}

    [[nodiscard]] MetaNode get(const MetaKey& key) override {
        {
            const std::scoped_lock lock(mu_);
            const auto it = cache_.find(key);
            if (it != cache_.end()) {
                return it->second;
            }
        }
        // RAM tier lost (crash) or first touch since reopen: the engine
        // is the durable source.
        const auto raw = engine_.get(encode_key(key));
        if (!raw) {
            throw NotFoundError(key.to_string());
        }
        MetaNode node = deserialize_node(*raw);
        const std::scoped_lock lock(mu_);
        cache_.emplace(key, node);
        return node;
    }

    [[nodiscard]] std::optional<MetaNode> try_get(
        const MetaKey& key) override {
        try {
            return get(key);
        } catch (const NotFoundError&) {
            return std::nullopt;
        }
    }

    void erase(const MetaKey& key) override {
        {
            const std::scoped_lock lock(mu_);
            cache_.erase(key);
        }
        engine_.remove(encode_key(key));
    }

    /// RAM-tier population: count of cached nodes, which equals the
    /// durable count except right after lose_volatile.
    [[nodiscard]] std::size_t count() const override {
        const std::scoped_lock lock(mu_);
        return cache_.size();
    }

    /// Durable node count regardless of cache population.
    [[nodiscard]] std::size_t durable_count() { return engine_.count(); }

    /// Crash: the RAM tier evaporates; the log survives.
    void lose_volatile() override {
        const std::scoped_lock lock(mu_);
        cache_.clear();
    }

    [[nodiscard]] engine::LogEngine& engine() noexcept { return engine_; }

    /// 32-byte little-endian (blob, version, first, count) key.
    [[nodiscard]] static std::string encode_key(const MetaKey& key) {
        Buffer out;
        out.reserve(32);
        engine::put_u64(out, key.blob);
        engine::put_u64(out, key.version);
        engine::put_u64(out, key.range.first);
        engine::put_u64(out, key.range.count);
        return {out.begin(), out.end()};
    }

  private:
    void store_node(const MetaKey& key, const MetaNode& node) override {
        {
            const std::scoped_lock lock(mu_);
            if (cache_.contains(key)) {
                return;  // immutable nodes: idempotent
            }
        }
        // Atomic with the durable-existence check, so a post-crash
        // re-put (or a concurrent duplicate) never appends twice.
        (void)engine_.put_if_absent(encode_key(key), serialize_node(node));
        const std::scoped_lock lock(mu_);
        cache_.emplace(key, node);
    }

    [[nodiscard]] static engine::EngineConfig make_config(
        std::filesystem::path dir) {
        engine::EngineConfig cfg;
        cfg.dir = std::move(dir);
        return cfg;
    }

    engine::LogEngine engine_;
    mutable std::mutex mu_;  // guards cache_
    std::unordered_map<MetaKey, MetaNode, MetaKeyHash> cache_;
};

}  // namespace blobseer::meta
