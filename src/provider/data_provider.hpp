/// \file data_provider.hpp
/// \brief Data-provider service: stores and serves chunks.
///
/// Paper §I-B.2: "Each blob is made up of fixed-sized chunks that are
/// distributed among data providers." The provider is deliberately dumb —
/// all intelligence (placement, replication, metadata) lives elsewhere —
/// which is what lets BlobSeer aggregate storage from many cheap nodes
/// with minimal overhead.
///
/// The service object is thread-safe; the simulated network invokes its
/// methods on client threads after charging transfer costs.

#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cas/sha256.hpp"
#include "chunk/ram_store.hpp"
#include "chunk/store.hpp"
#include "chunk/tiered_store.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "provider/location_index.hpp"

namespace blobseer::provider {

/// One slice of a stored chunk, borrowed from the store.
struct ChunkSliceRef {
    std::uint64_t chunk_size = 0;  ///< the chunk's whole stored payload
    SharedSlice slice;             ///< the served bytes, with their pin
};

class DataProvider {
  public:
    DataProvider(NodeId node, std::unique_ptr<chunk::ChunkStore> store)
        : node_(node), store_(std::move(store)) {
        const MetricLabels labels{{"service", "data-provider"},
                                  {"node", std::to_string(node_)}};
        bind_service_stats(metrics_, stats_, labels);
        metrics_.meter("provider_read_bytes", labels, read_meter_);
        metrics_.meter("provider_write_bytes", labels, write_meter_);
        metrics_.counter("dedup_check_hits_total", labels, check_hits_);
        metrics_.counter("dedup_check_misses_total", labels, check_misses_);
        metrics_.counter("dedup_bytes_skipped_total", labels, bytes_skipped_);
        metrics_.counter("dedup_dup_puts_total", labels, dup_puts_);
        metrics_.counter("cas_decrefs_total", labels, decrefs_);
        metrics_.counter("cas_reclaimed_chunks_total", labels,
                         reclaimed_chunks_);
        metrics_.counter("cas_reclaimed_bytes_total", labels,
                         reclaimed_bytes_);
        // Live store occupancy: ChunkStore serializes internally, the
        // callbacks are snapshot-time only. These, the dedup_* and the
        // cas_* series are what `blobseer_cli dedup-stats` renders.
        metrics_.callback("provider_chunks_stored", labels,
                          [this] { return store_->count(); });
        metrics_.callback("provider_stored_bytes", labels,
                          [this] { return store_->bytes(); });
    }

    [[nodiscard]] NodeId node() const noexcept { return node_; }

    /// Store one chunk replica. Idempotent (chunks are immutable).
    /// Content keys are reference-counted: a put that lands on an
    /// already-present chunk records the new reference instead of
    /// storing a second copy (two clients racing the same content both
    /// hold a real reference). A content key's SHA-256 is recomputed
    /// first: bytes that do not hash to their key throw
    /// ConsistencyError before anything is stored or referenced.
    void put_chunk(const chunk::ChunkKey& key, chunk::ChunkData data) {
        const std::uint64_t n = data->size();
        if (key.is_content()) {
            const auto [hi, lo] = cas::digest128(cas::sha256(*data));
            if (hi != key.blob || lo != key.uid) {
                stats_.ops.add();
                stats_.errors.add();
                throw ConsistencyError("content does not match key " +
                                       key.to_string() + " on provider " +
                                       std::to_string(node_));
            }
            store_dedup(key, std::move(data));
        } else {
            const bool fresh = !store_->contains(key);
            store_->put(key, std::move(data));
            if (fresh) {
                note_stored(key, n);
            }
        }
        stats_.ops.add();
        stats_.bytes_in.add(n);
        write_meter_.record(n);
    }

    /// Serve one chunk. Throws NotFoundError if this replica is missing
    /// (the client fails over to another replica).
    [[nodiscard]] chunk::ChunkData get_chunk(const chunk::ChunkKey& key) {
        auto data = store_->get(key);
        stats_.ops.add();
        if (!data) {
            stats_.errors.add();
            throw NotFoundError(key.to_string() + " on provider " +
                                std::to_string(node_));
        }
        stats_.bytes_out.add((*data)->size());
        read_meter_.record((*data)->size());
        return *data;
    }

    /// Serve \p size bytes at \p offset of a chunk (size 0 = the rest of
    /// it), clamped to the stored payload and borrowed zero-copy from
    /// the store (mmap'd engine segment where supported). Only the bytes
    /// served count into bytes_out and provider_read_bytes. A slice
    /// longer than \p budget is not served and counts nothing: nullopt.
    /// Throws NotFoundError if this replica is missing.
    [[nodiscard]] std::optional<ChunkSliceRef> get_chunk_ref(
        const chunk::ChunkKey& key, std::uint64_t offset, std::uint64_t size,
        std::uint64_t budget) {
        auto ref = store_->get_ref(key);
        if (!ref) {
            stats_.ops.add();
            stats_.errors.add();
            throw NotFoundError(key.to_string() + " on provider " +
                                std::to_string(node_));
        }
        const std::uint64_t total = ref->bytes.size();
        const std::uint64_t begin = std::min(offset, total);
        const std::uint64_t n =
            size == 0 ? total - begin : std::min(size, total - begin);
        if (n > budget) {
            return std::nullopt;
        }
        stats_.ops.add();
        stats_.bytes_out.add(n);
        read_meter_.record(n);
        return ChunkSliceRef{total, SharedSlice(ref->bytes.subspan(begin, n),
                                                std::move(ref->keepalive))};
    }

    [[nodiscard]] bool has_chunk(const chunk::ChunkKey& key) {
        return store_->contains(key);
    }

    /// Drop one chunk whatever its refcount. In-process only (fault
    /// injection in tests): every GC path releases references with
    /// decref_chunk instead.
    void erase_chunk(const chunk::ChunkKey& key) {
        const bool present = store_->contains(key);
        store_->erase(key);
        if (present) {
            note_removed(key);
        }
    }

    // ---- content-addressed operations (wire protocol v5) ----

    /// Check-before-push: true iff the chunk is already stored here. On
    /// a hit with \p want_incref the caller's reference is recorded, so
    /// the client may skip the transfer entirely; \p size_hint is the
    /// chunk size the caller would have pushed (dedup accounting).
    [[nodiscard]] bool check_chunk(const chunk::ChunkKey& key,
                                   bool want_incref,
                                   std::uint64_t size_hint) {
        stats_.ops.add();
        const std::scoped_lock lock(cas_mu_);
        if (!store_->contains(key)) {
            check_misses_.add();
            return false;
        }
        if (want_incref) {
            (void)store_->incref(key);
        }
        check_hits_.add();
        bytes_skipped_.add(size_hint);
        return true;
    }

    /// Release one reference; the chunk is reclaimed at zero. Returns
    /// the remaining count.
    std::uint64_t decref_chunk(const chunk::ChunkKey& key) {
        stats_.ops.add();
        decrefs_.add();
        const std::scoped_lock lock(cas_mu_);
        const std::uint64_t before = store_->bytes();
        const std::uint64_t remaining = store_->decref(key);
        if (remaining == 0) {
            const std::uint64_t after = store_->bytes();
            if (after < before) {
                reclaimed_chunks_.add();
                reclaimed_bytes_.add(before - after);
                note_removed(key);
            }
        }
        return remaining;
    }

    /// Crash simulation: lose whatever is volatile. A RAM-only store
    /// loses everything; a tiered store loses its caching tiers (the
    /// file cache's index is in memory) but keeps the log engine below
    /// them; a bare LogStore loses nothing.
    void lose_volatile_state() {
        if (auto* ram = dynamic_cast<chunk::RamStore*>(store_.get())) {
            ram->clear();
            const std::scoped_lock lock(inv_mu_);
            inventory_.clear();
            delta_added_.clear();
            delta_removed_.clear();
        } else if (auto* tiered =
                       dynamic_cast<chunk::TieredStore*>(store_.get())) {
            tiered->drop_cache();
        }
    }

    // ---- inventory tracking (membership & repair, protocol v6) ----

    /// Observe every absent→present / present→absent transition of this
    /// provider's store. In-process deployments wire this straight into
    /// the provider manager's location index; daemons leave it unset and
    /// ship the delta log on their heartbeats instead. Install at boot,
    /// before traffic.
    void set_inventory_observer(
        std::function<void(const chunk::ChunkKey&, std::uint64_t, bool)>
            observer) {
        observer_ = std::move(observer);
    }

    /// Full inventory snapshot (kProviderAnnounce payload; also seeds
    /// the index after a durable-store restart).
    [[nodiscard]] std::vector<ChunkHolding> inventory() const {
        const std::scoped_lock lock(inv_mu_);
        std::vector<ChunkHolding> out;
        out.reserve(inventory_.size());
        for (const auto& [key, bytes] : inventory_) {
            out.push_back({key, bytes});
        }
        return out;
    }

    struct InventoryDelta {
        std::vector<ChunkHolding> added;
        std::vector<chunk::ChunkKey> removed;
    };

    /// Take the transitions accumulated since the previous drain (the
    /// kProviderBeat payload). The caller only drains after the previous
    /// beat was acknowledged, so no delta is ever lost to a failed RPC.
    [[nodiscard]] InventoryDelta drain_inventory_delta() {
        const std::scoped_lock lock(inv_mu_);
        InventoryDelta d;
        d.added = std::move(delta_added_);
        d.removed = std::move(delta_removed_);
        delta_added_.clear();
        delta_removed_.clear();
        return d;
    }

    [[nodiscard]] chunk::ChunkStore& store() noexcept { return *store_; }
    [[nodiscard]] const ServiceStats& stats() const noexcept { return stats_; }
    [[nodiscard]] const Meter& read_meter() const noexcept {
        return read_meter_;
    }
    [[nodiscard]] const Meter& write_meter() const noexcept {
        return write_meter_;
    }

    /// Bytes currently stored (load signal for placement & monitoring).
    [[nodiscard]] std::uint64_t stored_bytes() { return store_->bytes(); }

  private:
    /// Store a content-addressed chunk, or record a reference if it is
    /// already here. cas_mu_ makes present-check + put/incref atomic:
    /// without it two racing pushes of the same content would both see
    /// "absent", both put (idempotently), and the count would understate
    /// the two real references — the one invariant GC must never break.
    void store_dedup(const chunk::ChunkKey& key, chunk::ChunkData data) {
        const std::uint64_t n = data->size();
        {
            const std::scoped_lock lock(cas_mu_);
            if (store_->contains(key)) {
                (void)store_->incref(key);
                dup_puts_.add();
                return;
            }
            store_->put(key, std::move(data));
        }
        note_stored(key, n);
    }

    /// Inventory bookkeeping: record a transition, fold it into the
    /// heartbeat delta log, and notify a synchronous observer. A key
    /// that flips within one beat interval collapses to its net effect
    /// so the delta's apply order cannot matter.
    void note_stored(const chunk::ChunkKey& key, std::uint64_t bytes) {
        {
            const std::scoped_lock lock(inv_mu_);
            if (!inventory_.emplace(key, bytes).second) {
                return;
            }
            std::erase(delta_removed_, key);
            delta_added_.push_back({key, bytes});
        }
        if (observer_) {
            observer_(key, bytes, true);
        }
    }

    void note_removed(const chunk::ChunkKey& key) {
        {
            const std::scoped_lock lock(inv_mu_);
            if (inventory_.erase(key) == 0) {
                return;
            }
            std::erase_if(delta_added_, [&key](const ChunkHolding& h) {
                return h.key == key;
            });
            delta_removed_.push_back(key);
        }
        if (observer_) {
            observer_(key, 0, false);
        }
    }

    const NodeId node_;
    std::unique_ptr<chunk::ChunkStore> store_;
    ServiceStats stats_;
    Meter read_meter_;
    Meter write_meter_;

    std::mutex cas_mu_;  // atomizes contains+put/incref and decref
    mutable std::mutex inv_mu_;  // guards inventory_ and the delta log
    std::unordered_map<chunk::ChunkKey, std::uint64_t, chunk::ChunkKeyHash>
        inventory_;
    std::vector<ChunkHolding> delta_added_;
    std::vector<chunk::ChunkKey> delta_removed_;
    std::function<void(const chunk::ChunkKey&, std::uint64_t, bool)>
        observer_;
    Counter check_hits_;
    Counter check_misses_;
    Counter bytes_skipped_;
    Counter dup_puts_;
    Counter decrefs_;
    Counter reclaimed_chunks_;
    Counter reclaimed_bytes_;
    /// Registry bindings; declared last so they unbind before the stats
    /// and the store the callbacks sample.
    MetricsGroup metrics_;
};

}  // namespace blobseer::provider
