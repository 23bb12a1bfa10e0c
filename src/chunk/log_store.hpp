/// \file log_store.hpp
/// \brief Chunk store backed by the log-structured engine.
///
/// A file per chunk would cost an inode and a write+rename syscall pair
/// per chunk, and restarts an O(directory) rescan — untenable at
/// millions of 4 KiB–256 KiB chunks. LogStore appends chunks as
/// checksummed records to the shared engine (engine::LogEngine,
/// DESIGN.md §8): restart recovery applies per-segment hint files and
/// reads no chunk bytes, deletes are tombstones, and dead space from
/// erase() is reclaimed by the engine's background compactor. It is the chunk store of every durable
/// deployment (ClusterConfig::durable), alone or under a TieredStore.

#pragma once

#include <filesystem>
#include <mutex>
#include <string>
#include <utility>

#include "chunk/store.hpp"
#include "engine/log_engine.hpp"

namespace blobseer::chunk {

class LogStore final : public ChunkStore {
  public:
    /// Open with engine defaults rooted at \p dir.
    explicit LogStore(std::filesystem::path dir)
        : LogStore(make_config(std::move(dir))) {}

    /// Open with full engine control (tests, tuning).
    explicit LogStore(engine::EngineConfig cfg) : engine_(std::move(cfg)) {}

    void put(const ChunkKey& key, ChunkData data) override {
        // Immutable chunks: idempotent put, atomic with the existence
        // check so a concurrent duplicate never appends twice.
        (void)engine_.put_if_absent(encode_key(key), *data);
    }

    [[nodiscard]] std::optional<ChunkData> get(const ChunkKey& key) override {
        auto value = engine_.get(encode_key(key));
        if (!value) {
            return std::nullopt;
        }
        return std::make_shared<Buffer>(std::move(*value));
    }

    [[nodiscard]] std::optional<ChunkRef> get_ref(
        const ChunkKey& key) override {
        auto ref = engine_.get_ref(encode_key(key));
        if (!ref) {
            return std::nullopt;
        }
        return ChunkRef{ref->bytes, std::move(ref->keepalive)};
    }

    [[nodiscard]] bool contains(const ChunkKey& key) override {
        return engine_.contains(encode_key(key));
    }

    void erase(const ChunkKey& key) override {
        // The count record dies with the chunk (see ChunkStore): a
        // later put of this key must restart at the implicit count.
        const std::scoped_lock lock(ref_mu_);
        engine_.remove(ref_key(key));
        engine_.remove(encode_key(key));
    }

    [[nodiscard]] std::size_t count() override { return engine_.count(); }

    [[nodiscard]] std::uint64_t bytes() override {
        return engine_.live_value_bytes();
    }

    // Reference counts are persisted as ordinary engine records under an
    // 'R'-prefixed key, written only while the count exceeds the implicit
    // 1 — steady state carries no record, and the record's tombstone (or
    // the chunk's own, at count zero) is reclaimed by the engine's
    // background compactor. That makes GC state restart-durable: a kill
    // between decrefs resumes with the exact surviving counts.

    std::uint64_t incref(const ChunkKey& key) override {
        const std::scoped_lock lock(ref_mu_);
        if (!engine_.contains(encode_key(key))) {
            return 0;
        }
        const std::uint64_t c = load_ref(key) + 1;
        store_ref(key, c);
        return c;
    }

    std::uint64_t decref(const ChunkKey& key) override {
        const std::scoped_lock lock(ref_mu_);
        if (!engine_.contains(encode_key(key))) {
            engine_.remove(ref_key(key));
            return 0;
        }
        const std::uint64_t c = load_ref(key);
        if (c <= 1) {
            engine_.remove(ref_key(key));
            engine_.remove(encode_key(key));
            return 0;
        }
        if (c - 1 == 1) {
            engine_.remove(ref_key(key));
        } else {
            store_ref(key, c - 1);
        }
        return c - 1;
    }

    [[nodiscard]] std::uint64_t refcount(const ChunkKey& key) override {
        const std::scoped_lock lock(ref_mu_);
        if (!engine_.contains(encode_key(key))) {
            return 0;
        }
        return load_ref(key);
    }

    [[nodiscard]] engine::LogEngine& engine() noexcept { return engine_; }

    /// Engine key: 16-byte little-endian (blob, uid) for uid-addressed
    /// chunks, 'C' + 16 digest bytes for content-addressed ones. The two
    /// keyspaces differ in length, so a re-minted uid can never alias a
    /// CAS chunk (and vice versa) no matter what the words contain.
    [[nodiscard]] static std::string encode_key(const ChunkKey& key) {
        Buffer out;
        out.reserve(17);
        if (key.is_content()) {
            out.push_back('C');
        }
        engine::put_u64(out, key.blob);
        engine::put_u64(out, key.uid);
        return {out.begin(), out.end()};
    }

  private:
    [[nodiscard]] static engine::EngineConfig make_config(
        std::filesystem::path dir) {
        engine::EngineConfig cfg;
        cfg.dir = std::move(dir);
        return cfg;
    }

    [[nodiscard]] static std::string ref_key(const ChunkKey& key) {
        return 'R' + encode_key(key);
    }

    /// Count as persisted; absent record = the implicit 1.
    [[nodiscard]] std::uint64_t load_ref(const ChunkKey& key) {
        const auto v = engine_.get(ref_key(key));
        if (!v || v->size() != 8) {
            return 1;
        }
        std::uint64_t c = 0;
        for (int i = 7; i >= 0; --i) {
            c = (c << 8) | (*v)[static_cast<std::size_t>(i)];
        }
        return c;
    }

    void store_ref(const ChunkKey& key, std::uint64_t c) {
        Buffer v;
        engine::put_u64(v, c);
        engine_.put(ref_key(key), v);
    }

    std::mutex ref_mu_;  // serializes refcount read-modify-write
    engine::LogEngine engine_;
};

}  // namespace blobseer::chunk
