/// \file meta_store.hpp
/// \brief Abstract access to the metadata node store, plus an in-memory
///        implementation used by unit tests and by single metadata
///        providers.
///
/// The production implementation is dht::MetaDht (replicated puts and
/// gets over the metadata-provider DHT, with network costs); the tree
/// algorithms in tree_builder/tree_reader are written against this
/// interface so they can be property-tested exhaustively without a
/// cluster.
///
/// Writes are batched: put_many is the one virtual write, and the tree
/// builder hands it every node a version creates in a single call, so a
/// networked store can ship the whole tree in one concurrent round (one
/// request per owning provider) instead of one round trip per node.

#pragma once

#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "meta/meta_node.hpp"

namespace blobseer::meta {

class MetaStore {
  public:
    virtual ~MetaStore() = default;

    /// Store a batch of nodes. Nodes are immutable: storing the same key
    /// twice is idempotent (always the identical content by
    /// construction). A throw may leave part of the batch stored, which
    /// is harmless: nothing references a version's nodes before it
    /// publishes.
    virtual void put_many(std::span<const KeyedNode> nodes) = 0;

    /// Store one node (a batch of one).
    void put(const MetaKey& key, const MetaNode& node) {
        const KeyedNode one{key, node};
        put_many({&one, 1});
    }

    /// Fetch a node. Throws NotFoundError if absent — on a healthy
    /// cluster that means the caller followed a reference into an
    /// unpublished or aborted version, which is a protocol violation.
    [[nodiscard]] virtual MetaNode get(const MetaKey& key) = 0;

    /// Lookup without throwing (used by invariant checkers).
    [[nodiscard]] virtual std::optional<MetaNode> try_get(
        const MetaKey& key) = 0;

    /// Remove a node (garbage collection of aborted versions).
    virtual void erase(const MetaKey& key) = 0;
};

/// A store that physically owns node data on one node (as opposed to the
/// client-side composites MetaDht/MetaCache): adds capacity queries and
/// crash simulation. Stores a batch node by node.
class LocalMetaStore : public MetaStore {
  public:
    void put_many(std::span<const KeyedNode> nodes) final {
        for (const KeyedNode& n : nodes) {
            store_node(n.key, n.node);
        }
    }

    /// Number of nodes stored.
    [[nodiscard]] virtual std::size_t count() const = 0;

    /// Drop volatile state (RAM stores lose everything; disk stores keep
    /// their files).
    virtual void lose_volatile() = 0;

  private:
    /// Store one node; idempotent per key.
    virtual void store_node(const MetaKey& key, const MetaNode& node) = 0;
};

/// Plain map-backed store. Thread-safe.
class InMemoryMetaStore final : public LocalMetaStore {
  public:
    [[nodiscard]] MetaNode get(const MetaKey& key) override {
        gets_.add();
        const std::scoped_lock lock(mu_);
        const auto it = map_.find(key);
        if (it == map_.end()) {
            throw NotFoundError(key.to_string());
        }
        return it->second;
    }

    [[nodiscard]] std::optional<MetaNode> try_get(
        const MetaKey& key) override {
        const std::scoped_lock lock(mu_);
        const auto it = map_.find(key);
        if (it == map_.end()) {
            return std::nullopt;
        }
        return it->second;
    }

    void erase(const MetaKey& key) override {
        const std::scoped_lock lock(mu_);
        map_.erase(key);
    }

    /// Drop everything (crash simulation for RAM-resident metadata).
    void clear() {
        const std::scoped_lock lock(mu_);
        map_.clear();
    }

    void lose_volatile() override { clear(); }

    [[nodiscard]] std::size_t count() const override {
        const std::scoped_lock lock(mu_);
        return map_.size();
    }

    [[nodiscard]] std::uint64_t puts() const { return puts_.get(); }
    [[nodiscard]] std::uint64_t gets() const { return gets_.get(); }

  private:
    void store_node(const MetaKey& key, const MetaNode& node) override {
        const std::scoped_lock lock(mu_);
        map_.try_emplace(key, node);
        puts_.add();
    }

    mutable std::mutex mu_;  // guards map_
    std::unordered_map<MetaKey, MetaNode, MetaKeyHash> map_;
    Counter puts_;
    Counter gets_;
};

}  // namespace blobseer::meta
