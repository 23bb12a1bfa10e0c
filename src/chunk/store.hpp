/// \file store.hpp
/// \brief Abstract chunk storage backend used by data providers.
///
/// Implementations: RamStore (the paper's original RAM-only prototype,
/// §IV-A), LogStore (persistent storage on the log engine, §IV-B) and
/// TieredStore (RAM, and optionally a compressed file cache, as caching
/// layers over LogStore — the combination §IV-B describes).
///
/// Chunks are immutable: put() of an existing key is idempotent (replicas
/// of the same chunk are bit-identical by construction) and get() returns
/// a shared read-only buffer so concurrent readers never copy under a
/// lock.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "chunk/chunk_key.hpp"
#include "common/buffer.hpp"

namespace blobseer::chunk {

/// Shared immutable chunk payload.
using ChunkData = std::shared_ptr<const Buffer>;

/// Borrowed chunk payload: bytes valid while `keepalive` is held. The
/// zero-copy read path (DESIGN.md §15) hands these from the backing
/// engine's segment mappings straight to the RPC response writer.
struct ChunkRef {
    ConstBytes bytes{};
    std::shared_ptr<const void> keepalive{};
};

class ChunkStore {
  public:
    virtual ~ChunkStore() = default;

    /// Store \p data under \p key. Idempotent for identical data.
    virtual void put(const ChunkKey& key, ChunkData data) = 0;

    /// Fetch the chunk, or nullopt if this store has never seen it.
    [[nodiscard]] virtual std::optional<ChunkData> get(
        const ChunkKey& key) = 0;

    /// Borrow the chunk without copying where the backend supports it.
    /// The default adapts get(): the shared ChunkData buffer itself is
    /// the keepalive, so RAM-backed stores are already copy-free here.
    [[nodiscard]] virtual std::optional<ChunkRef> get_ref(
        const ChunkKey& key) {
        auto data = get(key);
        if (!data) {
            return std::nullopt;
        }
        const ConstBytes bytes(**data);
        return ChunkRef{bytes, std::move(*data)};
    }

    /// True iff the chunk is retrievable from this store.
    [[nodiscard]] virtual bool contains(const ChunkKey& key) = 0;

    /// Remove a chunk (garbage collection of aborted versions).
    virtual void erase(const ChunkKey& key) = 0;

    /// Number of chunks retrievable.
    [[nodiscard]] virtual std::size_t count() = 0;

    /// Total payload bytes retrievable.
    [[nodiscard]] virtual std::uint64_t bytes() = 0;

    // ---- reference counting (content-addressed dedup & GC) ----
    //
    // A chunk that is present but has no explicit count record is at
    // implicit refcount 1 (its writer's reference). incref() records an
    // additional reference — a check-before-push hit on a deduplicated
    // content key. decref() releases one reference and erases the chunk
    // when the last one goes; decref of an implicitly-counted chunk is
    // therefore exactly erase(), which lets every client deletion path
    // use decref uniformly for uid and content keys alike.
    //
    // Invariants: the count never understates true references (a
    // retried incref may overstate, which only delays reclaim); a key
    // is managed EITHER through erase() OR through incref/decref, never
    // both. erase() nevertheless discards any count record (backends
    // call drop_ref()) so a later put of the same key restarts at the
    // implicit count instead of resurrecting a stale one. The default
    // implementation below keeps counts in memory; LogStore overrides
    // it to persist counts through the log engine so GC state survives
    // provider restart.

    /// Add one reference. Returns the new count, or 0 if the chunk is
    /// not present (nothing to reference).
    virtual std::uint64_t incref(const ChunkKey& key) {
        const std::scoped_lock lock(ref_mu_);
        if (!contains(key)) {
            return 0;
        }
        const auto it = refs_.find(key);
        const std::uint64_t c = (it == refs_.end() ? 1 : it->second) + 1;
        refs_[key] = c;
        return c;
    }

    /// Drop one reference; erases the chunk when the count reaches zero.
    /// Returns the remaining count (0 = gone). No-op on absent chunks.
    virtual std::uint64_t decref(const ChunkKey& key) {
        {
            const std::scoped_lock lock(ref_mu_);
            if (!contains(key)) {
                refs_.erase(key);
                return 0;
            }
            const auto it = refs_.find(key);
            const std::uint64_t c = it == refs_.end() ? 1 : it->second;
            if (c > 1) {
                if (c - 1 == 1) {
                    refs_.erase(it);  // back to the implicit count
                } else {
                    it->second = c - 1;
                }
                return c - 1;
            }
            refs_.erase(key);
        }
        // Last reference: reclaim outside ref_mu_ — erase() re-enters it
        // via drop_ref. Callers that must not race a fresh incref against
        // this window serialize above the store (DataProvider::cas_mu_).
        erase(key);
        return 0;
    }

    /// Current reference count (0 = not present, 1 = implicit).
    [[nodiscard]] virtual std::uint64_t refcount(const ChunkKey& key) {
        const std::scoped_lock lock(ref_mu_);
        if (!contains(key)) {
            return 0;
        }
        const auto it = refs_.find(key);
        return it == refs_.end() ? 1 : it->second;
    }

  protected:
    /// Backends call this from erase(): the count record dies with the
    /// chunk. Called outside the backend's own locks (refcount paths
    /// take ref_mu_ before backend locks, never the other way).
    void drop_ref(const ChunkKey& key) {
        const std::scoped_lock lock(ref_mu_);
        refs_.erase(key);
    }

  private:
    std::mutex ref_mu_;  // serializes refcount read-modify-write
    std::unordered_map<ChunkKey, std::uint64_t, ChunkKeyHash> refs_;
};

}  // namespace blobseer::chunk
