/// \file test_cas.cpp
/// \brief Tests of the content-addressed storage subsystem (DESIGN.md
///        §11): chunk-store reference counting, uid/content keyspace
///        separation, client-level dedup (check-before-push), large
///        chunks and content verification on put, delete+GC reclamation
///        and restart survival of both the chunks and their reference
///        counts.

#include <gtest/gtest.h>

#include <filesystem>

#include "cas/sha256.hpp"
#include "chunk/log_store.hpp"
#include "chunk/ram_store.hpp"
#include "dht/ring.hpp"
#include "rpc/dispatcher.hpp"
#include "rpc/messages.hpp"
#include "testing_util.hpp"

namespace blobseer {
namespace {

class TempDir {
  public:
    TempDir() {
        dir_ = std::filesystem::temp_directory_path() /
               ("blobseer-cas-" + std::to_string(counter_++) + "-" +
                std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
    }
    ~TempDir() { std::filesystem::remove_all(dir_); }
    [[nodiscard]] const std::filesystem::path& path() const { return dir_; }

  private:
    static inline int counter_ = 0;
    std::filesystem::path dir_;
};

chunk::ChunkData payload_of(std::uint64_t tag, std::size_t size) {
    return std::make_shared<Buffer>(make_pattern(1, tag, 0, size));
}

core::ClusterConfig cas_config() {
    auto cfg = blobseer::testing::fast_config();
    cfg.content_addressed = true;
    return cfg;
}

/// Sum of the named data-provider series (provider_chunks_stored,
/// dedup_check_hits_total, ...) over every provider of \p cluster, read
/// from the metrics registry by each provider's node label — the same
/// series `blobseer_cli dedup-stats` renders.
std::uint64_t sum_dedup(core::Cluster& cluster,
                        std::initializer_list<const char*> names) {
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cluster.data_provider_count(); ++i) {
        const std::string node =
            std::to_string(cluster.data_provider(i).node());
        for (const char* name : names) {
            total += sum_series(snap, name, {"node", node});
        }
    }
    return total;
}

// ---- store-level reference counting ----------------------------------------

TEST(ChunkRefcount, RamStoreDefaultSemantics) {
    chunk::RamStore store;
    const auto key = chunk::ChunkKey::content(7, 9);
    // A reference to an absent chunk cannot exist.
    EXPECT_EQ(store.incref(key), 0u);
    EXPECT_EQ(store.decref(key), 0u);

    store.put(key, payload_of(1, 64));
    EXPECT_EQ(store.refcount(key), 1u);  // presence = implicit count 1
    EXPECT_EQ(store.incref(key), 2u);
    EXPECT_EQ(store.incref(key), 3u);
    EXPECT_EQ(store.decref(key), 2u);
    EXPECT_EQ(store.decref(key), 1u);
    EXPECT_TRUE(store.contains(key));  // last reference still held
    EXPECT_EQ(store.decref(key), 0u);
    EXPECT_FALSE(store.contains(key));  // zero refs = reclaimed
    EXPECT_EQ(store.bytes(), 0u);
}

TEST(ChunkRefcount, LogStorePersistsCountsAcrossReopen) {
    TempDir dir;
    const auto key = chunk::ChunkKey::content(3, 5);
    {
        chunk::LogStore store(dir.path());
        store.put(key, payload_of(2, 128));
        EXPECT_EQ(store.incref(key), 2u);
        EXPECT_EQ(store.incref(key), 3u);
    }
    chunk::LogStore reopened(dir.path());
    EXPECT_EQ(reopened.refcount(key), 3u);
    EXPECT_EQ(reopened.decref(key), 2u);
    EXPECT_EQ(reopened.decref(key), 1u);
    EXPECT_TRUE(reopened.contains(key));
    EXPECT_EQ(reopened.decref(key), 0u);
    EXPECT_FALSE(reopened.contains(key));
}

TEST(ChunkRefcount, LogStoreDropsRefRecordWithChunk) {
    TempDir dir;
    const auto key = chunk::ChunkKey::content(11, 13);
    {
        chunk::LogStore store(dir.path());
        store.put(key, payload_of(3, 64));
        EXPECT_EQ(store.incref(key), 2u);
        store.erase(key);  // erase drops the chunk AND its count
    }
    chunk::LogStore reopened(dir.path());
    EXPECT_FALSE(reopened.contains(key));
    // A fresh put must restart at the implicit count, not resurrect the
    // stale record.
    reopened.put(key, payload_of(3, 64));
    EXPECT_EQ(reopened.refcount(key), 1u);
    EXPECT_EQ(reopened.decref(key), 0u);
    EXPECT_FALSE(reopened.contains(key));
}

// ---- uid/content keyspace separation ---------------------------------------

TEST(CasKeyspace, ContentKeyCannotAliasUidKey) {
    // Regression for the re-minted-uid hazard: a uid chunk whose
    // (blob, uid) words happen to equal a content key's digest words
    // must stay a distinct record — in RAM (kind participates in
    // hash/==), on disk (distinct file names) and in the log engine
    // (length/prefix-disjoint encoded keys) — or a post-restart client
    // could read another blob's bytes.
    TempDir dir;
    const chunk::ChunkKey uid_key{42, 4242};
    const auto content_key = chunk::ChunkKey::content(42, 4242);
    ASSERT_NE(uid_key, content_key);
    {
        chunk::LogStore store(dir.path());
        store.put(uid_key, payload_of(10, 64));
        store.put(content_key, payload_of(20, 96));
        EXPECT_EQ(store.count(), 2u);
    }
    chunk::LogStore reopened(dir.path());
    const auto uid_data = reopened.get(uid_key);
    const auto content_data = reopened.get(content_key);
    ASSERT_TRUE(uid_data.has_value());
    ASSERT_TRUE(content_data.has_value());
    EXPECT_EQ((*uid_data)->size(), 64u);
    EXPECT_EQ((*content_data)->size(), 96u);
    EXPECT_EQ(verify_pattern(1, 10, 0, **uid_data), -1);
    EXPECT_EQ(verify_pattern(1, 20, 0, **content_data), -1);
    // Erasing one must not touch the other.
    reopened.erase(uid_key);
    EXPECT_FALSE(reopened.contains(uid_key));
    EXPECT_TRUE(reopened.contains(content_key));
}

// ---- client-level dedup ----------------------------------------------------

TEST(CasCluster, IdenticalBlobsShareOnePhysicalCopy) {
    core::Cluster cluster(cas_config());
    auto client = cluster.make_client();

    const std::uint64_t chunk = 4096;
    const std::size_t size = chunk * 8;
    const Buffer data = make_pattern(1, 7, 0, size);

    core::Blob a = client->create(chunk);
    core::Blob b = client->create(chunk);
    a.write(0, data);
    const std::uint64_t stored_after_a =
        sum_dedup(cluster, {"provider_chunks_stored"});
    const std::uint64_t sent_after_a = client->stats().cas_bytes_sent.get();
    EXPECT_EQ(stored_after_a, 8u);
    EXPECT_EQ(sent_after_a, size);

    b.write(0, data);
    // The second blob's bytes never left the client, and no new chunks
    // were stored — every check-before-push hit.
    EXPECT_EQ(sum_dedup(cluster, {"provider_chunks_stored"}),
              stored_after_a);
    EXPECT_EQ(client->stats().cas_bytes_sent.get(), sent_after_a);
    EXPECT_EQ(client->stats().cas_dedup_hits.get(), 8u);
    EXPECT_EQ(client->stats().cas_bytes_skipped.get(), size);

    // Both blobs read back their own bytes.
    for (core::Blob* blob : {&a, &b}) {
        Buffer out(size);
        EXPECT_EQ(blob->read(kLatestVersion, 0, out), size);
        EXPECT_TRUE(blobseer::testing::matches(1, 7, 0, out));
    }
}

TEST(CasCluster, DuplicateChunksWithinOneWriteDedup) {
    core::Cluster cluster(cas_config());
    auto client = cluster.make_client();

    // Four chunks of identical content in a single write: one physical
    // copy, three recorded references.
    const std::uint64_t chunk = 1024;
    Buffer data(chunk * 4);
    const Buffer one = make_pattern(9, 9, 0, chunk);
    for (std::size_t i = 0; i < 4; ++i) {
        std::copy(one.begin(), one.end(), data.begin() + i * chunk);
    }
    core::Blob blob = client->create(chunk);
    blob.write(0, data);

    EXPECT_EQ(sum_dedup(cluster, {"provider_chunks_stored"}), 1u);
    // Three of the four references arrived as check hits or duplicate
    // puts (the exact split depends on RPC interleaving).
    EXPECT_EQ(sum_dedup(cluster, {"dedup_check_hits_total",
                                  "dedup_dup_puts_total"}),
              3u);

    Buffer out(data.size());
    EXPECT_EQ(blob.read(kLatestVersion, 0, out), data.size());
    EXPECT_EQ(ConstBytes(out).size(), data.size());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
}

TEST(CasCluster, ReplicatedCasWriteReadsBack) {
    auto cfg = cas_config();
    cfg.default_replication = 2;
    core::Cluster cluster(cfg);
    auto client = cluster.make_client();

    const std::uint64_t chunk = 2048;
    const std::size_t size = chunk * 6;
    core::Blob blob = client->create(chunk);
    blob.write(0, blobseer::testing::tagged(blob.id(), 1, 0, size));

    // Each chunk landed on two distinct ring owners.
    EXPECT_EQ(sum_dedup(cluster, {"provider_chunks_stored"}), 12u);
    Buffer out(size);
    EXPECT_EQ(client->read(blob.id(), kLatestVersion, 0, out), size);
    EXPECT_TRUE(blobseer::testing::matches(blob.id(), 1, 0, out));
}

TEST(CasCluster, DeadRingOwnerDegradesReplication) {
    // A content key must land on its ring owners, so a dead owner is
    // dropped rather than replaced: the write keeps the one live
    // replica and reports the dead owner to the provider manager.
    auto cfg = cas_config();
    cfg.default_replication = 2;
    core::Cluster cluster(cfg);
    auto client = cluster.make_client();

    const std::uint64_t chunk = 4096;
    core::Blob blob = client->create(chunk);
    const Buffer data = make_pattern(blob.id(), 4, 0, chunk);
    const auto [hi, lo] = cas::digest128(cas::sha256(data));
    dht::Ring ring;
    for (const NodeId node : client->data_nodes()) {
        ring.add_node(node);
    }
    const std::vector<NodeId> owners =
        ring.owners(chunk::ChunkKey::content(hi, lo).hash(), 2);
    ASSERT_EQ(owners.size(), 2u);
    // Killed at the network only: the manager learns of the death from
    // the client's report.
    cluster.network().kill(owners[0]);

    EXPECT_NO_THROW(blob.write(0, data));
    EXPECT_EQ(sum_dedup(cluster, {"provider_chunks_stored"}), 1u);
    EXPECT_GE(client->stats().chunk_retries.get(), 1u);
    EXPECT_FALSE(cluster.provider_manager().is_alive(owners[0]));
    EXPECT_TRUE(cluster.provider_manager().is_alive(owners[1]));

    Buffer out(chunk);
    EXPECT_EQ(blob.read(kLatestVersion, 0, out), chunk);
    EXPECT_EQ(out, data);
}

TEST(CasCluster, LargeChunkRoundTrip) {
    core::Cluster cluster(cas_config());
    auto client = cluster.make_client();
    Counter& puts = MetricsRegistry::instance().counter(
        "rpc_server_requests_total", {{"op", "chunk-put"}});
    Counter& checks = MetricsRegistry::instance().counter(
        "rpc_server_requests_total", {{"op", "chunk-check"}});

    // One 8 MiB chunk at replication 2: each replica is one check miss
    // and one chunk-put frame, and the provider recomputes the digest
    // before storing it.
    const std::uint64_t chunk = 8ull << 20;
    core::Blob blob = client->create(chunk, 2);
    const Buffer data = make_pattern(blob.id(), 3, 0, chunk);
    const std::uint64_t puts_before = puts.get();
    const std::uint64_t checks_before = checks.get();
    blob.write(0, data);
    EXPECT_EQ(puts.get() - puts_before, 2u);
    EXPECT_EQ(checks.get() - checks_before, 2u);
    EXPECT_EQ(client->stats().chunk_put_rpcs.get(), 2u);
    EXPECT_EQ(client->stats().cas_bytes_sent.get(), 2 * chunk);

    Buffer out(chunk);
    EXPECT_EQ(blob.read(kLatestVersion, 0, out), chunk);
    EXPECT_TRUE(blobseer::testing::matches(blob.id(), 3, 0, out));

    // Re-writing the same content puts nothing: both checks hit.
    core::Blob again = client->create(chunk, 2);
    again.write(0, data);
    EXPECT_EQ(puts.get() - puts_before, 2u);
    EXPECT_EQ(checks.get() - checks_before, 4u);
    EXPECT_EQ(client->stats().cas_dedup_hits.get(), 2u);
    EXPECT_EQ(client->stats().chunk_put_rpcs.get(), 2u);
}

TEST(CasProvider, PutOfWrongBytesIsRejected) {
    // A chunk-put of a content key whose bytes do not hash to it must
    // fail before the provider stores or references anything — whether
    // the key is absent or already held.
    provider::DataProvider dp(9, std::make_unique<chunk::RamStore>());
    rpc::Dispatcher d;
    d.add_data_provider(dp.node(), &dp);
    const auto put = [&](const chunk::ChunkKey& key, ConstBytes bytes) {
        rpc::WireWriter w;
        rpc::put_chunk_key(w, key);
        w.blob(bytes);
        const Buffer resp = d.dispatch(rpc::seal_request(
            rpc::MsgType::kChunkPut, dp.node(), std::move(w)));
        return rpc::parse_frame(resp).status();
    };
    const auto stored = [&] {
        return sum_series(MetricsRegistry::instance().snapshot(),
                          "provider_chunks_stored",
                          {"node", std::to_string(dp.node())});
    };

    const Buffer good = make_pattern(1, 11, 0, 512);
    const Buffer bad = make_pattern(1, 12, 0, 512);
    const auto [hi, lo] = cas::digest128(cas::sha256(good));
    const auto key = chunk::ChunkKey::content(hi, lo);

    EXPECT_EQ(put(key, bad), rpc::Status::kConsistency);
    EXPECT_EQ(stored(), 0u);
    EXPECT_FALSE(dp.has_chunk(key));

    ASSERT_EQ(put(key, good), rpc::Status::kOk);
    EXPECT_EQ(stored(), 1u);
    EXPECT_EQ(dp.store().refcount(key), 1u);

    EXPECT_EQ(put(key, bad), rpc::Status::kConsistency);
    EXPECT_EQ(stored(), 1u);
    EXPECT_EQ(dp.store().refcount(key), 1u);
    EXPECT_EQ(*dp.get_chunk(key), good);
}

// ---- delete & GC -----------------------------------------------------------

TEST(CasCluster, DeleteReclaimsOnlyUnsharedReferences) {
    core::Cluster cluster(cas_config());
    auto client = cluster.make_client();

    const std::uint64_t chunk = 4096;
    const std::size_t size = chunk * 4;
    const Buffer shared = make_pattern(2, 5, 0, size);

    core::Blob a = client->create(chunk);
    core::Blob b = client->create(chunk);
    a.write(0, shared);
    b.write(0, shared);
    // b also holds bytes of its own: deleting a must not touch them.
    b.append(blobseer::testing::tagged(b.id(), 6, 0, size));

    const std::uint64_t stored_before =
        sum_dedup(cluster, {"provider_stored_bytes"});

    const auto del = client->delete_blob(a.id());
    EXPECT_EQ(del.chunks, 4u);

    // The shared chunks lost one of two references each — nothing was
    // reclaimed, and the survivor reads byte-identical.
    EXPECT_EQ(sum_dedup(cluster, {"provider_stored_bytes"}),
              stored_before);
    Buffer out(size);
    EXPECT_EQ(client->read(b.id(), kLatestVersion, 0, out), size);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), shared.begin()));

    // Deleting the survivor drops the last references: all bytes gone.
    const auto del_b = client->delete_blob(b.id());
    EXPECT_EQ(del_b.chunks, 8u);
    EXPECT_EQ(sum_dedup(cluster, {"provider_stored_bytes"}), 0u);
    EXPECT_GT(sum_dedup(cluster, {"cas_reclaimed_chunks_total"}), 0u);
}

TEST(CasCluster, DeleteReclaimsRetiredHistoryToo) {
    core::Cluster cluster(cas_config());
    auto client = cluster.make_client();

    const std::uint64_t chunk = 1024;
    core::Blob blob = client->create(chunk);
    // Three generations overwriting the same range: only the latest
    // survives in the tree, the older chunks are reclaimable history.
    for (std::uint64_t tag = 1; tag <= 3; ++tag) {
        blob.write(0, blobseer::testing::tagged(blob.id(), tag, 0,
                                                chunk * 2));
    }
    const auto del = client->delete_blob(blob.id());
    EXPECT_EQ(del.versions, 3u);
    EXPECT_EQ(sum_dedup(cluster, {"provider_stored_bytes"}), 0u);
}

// ---- restart survival ------------------------------------------------------

TEST(CasLogRestart, DedupAndRefcountsSurviveRestart) {
    TempDir dir;
    auto cfg = cas_config();
    cfg.durable = true;
    cfg.disk_root = dir.path();

    const std::uint64_t chunk = 4096;
    const std::size_t size = chunk * 4;
    const Buffer data = make_pattern(3, 8, 0, size);
    BlobId a_id = kInvalidBlob;
    {
        core::Cluster cluster(cfg);
        auto client = cluster.make_client();
        core::Blob a = client->create(chunk);
        a_id = a.id();
        a.write(0, data);
    }  // full restart: volatile state gone, the log survives

    core::Cluster restarted(cfg);
    auto client = restarted.make_client();

    // Writing the same content after the restart dedups against the
    // recovered chunks — the digest, not the boot, addresses them.
    core::Blob b = client->create(chunk);
    b.write(0, data);
    EXPECT_EQ(client->stats().cas_dedup_hits.get(), 4u);
    EXPECT_EQ(client->stats().cas_bytes_sent.get(), 0u);

    // Deleting the pre-restart blob releases only its references; the
    // post-restart blob still reads every byte.
    const auto del = client->delete_blob(a_id);
    EXPECT_EQ(del.chunks, 4u);
    Buffer out(size);
    EXPECT_EQ(client->read(b.id(), kLatestVersion, 0, out), size);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
}

}  // namespace
}  // namespace blobseer
