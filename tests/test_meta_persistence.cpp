/// \file test_meta_persistence.cpp
/// \brief Tests of the persistent metadata path (§IV-B): node
///        serialization (byte-pinned), the log store's recovery
///        semantics, how the durable switch and the tier budgets pick a
///        deployment's storage stack, and end-to-end durable clusters
///        whose metadata — and entire state — survives crashes and full
///        restarts.

#include <gtest/gtest.h>

#include <filesystem>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>

#include "engine/format.hpp"
#include "engine/log_engine.hpp"
#include "cache/compressed_file_cache.hpp"
#include "chunk/log_store.hpp"
#include "chunk/ram_store.hpp"
#include "chunk/tiered_store.hpp"
#include "meta/log_meta_store.hpp"
#include "testing_util.hpp"
#include "version/version_manager.hpp"

namespace blobseer::meta {
namespace {

class TempDir {
  public:
    TempDir() {
        dir_ = std::filesystem::temp_directory_path() /
               ("blobseer-meta-" + std::to_string(counter_++) + "-" +
                std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
    }
    ~TempDir() { std::filesystem::remove_all(dir_); }
    [[nodiscard]] const std::filesystem::path& path() const { return dir_; }

  private:
    static inline int counter_ = 0;
    std::filesystem::path dir_;
};

TEST(NodeSerialization, InnerRoundTrip) {
    const MetaNode inner = MetaNode::inner({7, 42}, {kInvalidBlob, 0});
    const MetaNode back = deserialize_node(serialize_node(inner));
    EXPECT_FALSE(back.is_leaf());
    EXPECT_EQ(back.left.blob, 7u);
    EXPECT_EQ(back.left.version, 42u);
    EXPECT_TRUE(back.right.is_hole());
}

TEST(NodeSerialization, LeafRoundTrip) {
    const MetaNode leaf = MetaNode::leaf({3, 9, 27}, 0xDEADBEEF, 65536);
    const MetaNode back = deserialize_node(serialize_node(leaf));
    EXPECT_TRUE(back.is_leaf());
    EXPECT_EQ(back.chunk_uid, 0xDEADBEEFu);
    EXPECT_EQ(back.chunk_bytes, 65536u);
    EXPECT_EQ(back.replicas, (std::vector<NodeId>{3, 9, 27}));
}

TEST(NodeSerialization, EmptyReplicaLeaf) {
    const MetaNode hole = MetaNode::leaf({}, 0, 0);
    const MetaNode back = deserialize_node(serialize_node(hole));
    EXPECT_TRUE(back.is_leaf());
    EXPECT_TRUE(back.replicas.empty());
}

TEST(NodeSerialization, TruncatedInputRejected) {
    const Buffer raw = serialize_node(MetaNode::leaf({1, 2}, 5, 10));
    EXPECT_THROW(deserialize_node(ConstBytes(raw).first(raw.size() - 3)),
                 ConsistencyError);
    EXPECT_THROW(deserialize_node({}), ConsistencyError);
}

TEST(NodeSerialization, GoldenBytes) {
    // Byte-exact pin of the record format inside LogMetaStore files: a
    // change here makes every existing durable deployment unreadable.
    const auto bytes = [](const MetaNode& n) {
        const Buffer b = serialize_node(n);
        return std::vector<std::uint8_t>(b.begin(), b.end());
    };
    const MetaNode inner =
        MetaNode::inner({0x0102030405060708ULL, 42}, {kInvalidBlob, 0});
    EXPECT_EQ(bytes(inner),
              (std::vector<std::uint8_t>{
                  0x00, 0x00, 0x00, 0x00,                          // inner
                  0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // l.blob
                  0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // l.ver
                  0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // hole
                  0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));

    const MetaNode leaf = MetaNode::leaf({3, 0x0100}, 0xDEADBEEF, 65536);
    EXPECT_EQ(bytes(leaf),
              (std::vector<std::uint8_t>{
                  0x01, 0x00, 0x00, 0x00,                          // leaf
                  0xef, 0xbe, 0xad, 0xde, 0x00, 0x00, 0x00, 0x00,  // uid
                  0x00, 0x00, 0x01, 0x00,                          // bytes
                  0x02, 0x00, 0x00, 0x00,                          // n
                  0x03, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00}));

    const MetaNode cas =
        MetaNode::cas_leaf({4}, 0x1112131415161718ULL, 0x2122232425262728ULL,
                           4096);
    EXPECT_EQ(bytes(cas),
              (std::vector<std::uint8_t>{
                  0x01, 0x01, 0x00, 0x00,                          // cas leaf
                  0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21,  // lo
                  0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // hi
                  0x00, 0x10, 0x00, 0x00,                          // bytes
                  0x01, 0x00, 0x00, 0x00,                          // n
                  0x04, 0x00, 0x00, 0x00}));
    EXPECT_TRUE(deserialize_node(serialize_node(cas)).cas);
}

MetaKey key_of(std::uint64_t i) { return MetaKey{9, 3, {i * 2, 2}}; }

// ---- LogMetaStore -----------------------------------------------------------

TEST(LogMetaStore, PersistsAcrossReopen) {
    TempDir dir;
    {
        LogMetaStore store(dir.path());
        store.put(key_of(1), MetaNode::inner({1, 1}, {1, 2}));
        store.put(key_of(2), MetaNode::leaf({5}, 77, 64));
        EXPECT_EQ(store.count(), 2u);
    }
    LogMetaStore reopened(dir.path());
    EXPECT_EQ(reopened.durable_count(), 2u);
    EXPECT_EQ(reopened.get(key_of(1)).left.version, 1u);
    EXPECT_EQ(reopened.get(key_of(2)).chunk_uid, 77u);
    EXPECT_EQ(reopened.count(), 2u);  // reads re-populated the RAM tier
}

TEST(LogMetaStore, VolatileLossFallsBackToLog) {
    TempDir dir;
    LogMetaStore store(dir.path());
    store.put(key_of(1), MetaNode::leaf({5}, 123, 64));
    store.lose_volatile();
    EXPECT_EQ(store.count(), 0u);  // RAM tier empty...
    EXPECT_EQ(store.get(key_of(1)).chunk_uid, 123u);  // ...the log serves
    EXPECT_EQ(store.count(), 1u);  // and re-populates
}

TEST(LogMetaStore, EraseIsDurable) {
    TempDir dir;
    {
        LogMetaStore store(dir.path());
        store.put(key_of(1), MetaNode::inner({}, {}));
        store.erase(key_of(1));
        EXPECT_FALSE(store.try_get(key_of(1)).has_value());
    }
    LogMetaStore reopened(dir.path());
    EXPECT_EQ(reopened.durable_count(), 0u);
    EXPECT_FALSE(reopened.try_get(key_of(1)).has_value());
}

TEST(LogMetaStore, IdempotentPut) {
    TempDir dir;
    LogMetaStore store(dir.path());
    store.put(key_of(1), MetaNode::leaf({1}, 5, 8));
    store.put(key_of(1), MetaNode::leaf({1}, 5, 8));
    EXPECT_EQ(store.count(), 1u);
    EXPECT_EQ(store.engine().stats().appends, 1u);

    // Idempotent even when only the log knows the node (post-crash put
    // replay must not append a duplicate record).
    store.lose_volatile();
    store.put(key_of(1), MetaNode::leaf({1}, 5, 8));
    EXPECT_EQ(store.engine().stats().appends, 1u);
}

TEST(ClusterLogPersistence, MetadataSurvivesVolatileCrash) {
    TempDir dir;
    auto cfg = blobseer::testing::fast_config();
    cfg.durable = true;
    cfg.disk_root = dir.path();
    cfg.meta_replication = 1;  // no DHT replica to hide behind
    core::Cluster cluster(cfg);
    auto client = cluster.make_client();
    core::Blob blob = client->create(64);
    const Buffer data = make_pattern(blob.id(), 1, 0, 64 * 16);
    blob.write(0, data);

    // Crash every metadata provider, losing all volatile state. With
    // RAM-backed metadata this kills the blob (see
    // Fault.MetadataLossWithoutReplicationBreaksReads); durable metadata
    // recovers from the log.
    for (std::size_t i = 0; i < cluster.metadata_provider_count(); ++i) {
        cluster.metadata_provider(i).lose_state();
    }

    auto reader = cluster.make_client();  // cold cache: must hit providers
    Buffer out(data.size());
    EXPECT_EQ(reader->read(blob.id(), 1, 0, out), data.size());
    EXPECT_EQ(out, data);
}

/// The durable switch and the two tier budgets are the whole storage
/// choice: each valid combination builds one chunk-store stack with one
/// on-disk layout, and the two meaningless ones are refused before any
/// state is touched.
TEST(ClusterStorage, DurableSwitchAndTierBudgetsPickTheStack) {
    TempDir dir;
    auto cfg = blobseer::testing::fast_config();  // 4 data, 2 meta
    cfg.disk_root = dir.path();
    const auto entries = [&dir] {
        std::set<std::string> out;
        if (std::filesystem::exists(dir.path())) {
            for (const auto& e :
                 std::filesystem::directory_iterator(dir.path())) {
                out.insert(e.path().filename().string());
            }
        }
        return out;
    };
    const auto store_of = [](core::Cluster& cluster, std::size_t i) {
        return &cluster.data_provider(i).store();
    };

    {  // Volatile: RAM stores, nothing on disk.
        core::Cluster cluster(cfg);
        EXPECT_NE(dynamic_cast<chunk::RamStore*>(store_of(cluster, 0)),
                  nullptr);
        EXPECT_TRUE(entries().empty());
    }
    cfg.durable = true;
    {  // Durable, no tiers: a bare LogStore per provider.
        core::Cluster cluster(cfg);
        EXPECT_NE(dynamic_cast<chunk::LogStore*>(store_of(cluster, 0)),
                  nullptr);
    }
    cfg.ram_cache_budget = 4ULL << 20;
    {  // One tier: RAM over the LogStore.
        core::Cluster cluster(cfg);
        auto* tiered = dynamic_cast<chunk::TieredStore*>(store_of(cluster, 0));
        ASSERT_NE(tiered, nullptr);
        EXPECT_NE(dynamic_cast<chunk::LogStore*>(&tiered->backend()), nullptr);
        EXPECT_EQ(tiered->ram_budget(), 4ULL << 20);
        EXPECT_EQ(tiered->file_cache(), nullptr);
    }
    cfg.file_cache_budget = 64ULL << 20;
    {  // Two tiers — the benchmark deployment (serverd --store
       // three-tier-log --ram-cache-mb 4 --file-cache-mb 64).
        core::Cluster cluster(cfg);
        for (std::size_t i = 0; i < cluster.data_provider_count(); ++i) {
            auto* tiered =
                dynamic_cast<chunk::TieredStore*>(store_of(cluster, i));
            ASSERT_NE(tiered, nullptr);
            EXPECT_NE(dynamic_cast<chunk::LogStore*>(&tiered->backend()),
                      nullptr);
            EXPECT_EQ(tiered->ram_budget(), 4ULL << 20);
            ASSERT_NE(tiered->file_cache(), nullptr);
            EXPECT_EQ(tiered->file_cache()->budget_bytes(), 64ULL << 20);
            EXPECT_EQ(tiered->file_cache()->dir(),
                      dir.path() / "file-cache" / ("dp-" + std::to_string(i)));
        }
    }
    // Chunks, metadata (LogMetaStore), the version-manager journal and
    // the boot counter all live under disk_root.
    EXPECT_EQ(entries(),
              (std::set<std::string>{"dp-0", "dp-1", "dp-2", "dp-3",
                                     "file-cache", "mp-0", "mp-1", "vm-0",
                                     "uid-epoch", "pm-repair.journal"}));

    auto bad = blobseer::testing::fast_config();
    bad.disk_root = dir.path() / "refused";
    bad.ram_cache_budget = 4ULL << 20;  // a RAM tier over RAM
    EXPECT_THROW(core::Cluster{bad}, InvalidArgument);
    bad.ram_cache_budget = 0;
    bad.file_cache_budget = 64ULL << 20;  // a file tier over RAM
    EXPECT_THROW(core::Cluster{bad}, InvalidArgument);
    bad.durable = true;  // a file tier without a RAM tier above it
    EXPECT_THROW(core::Cluster{bad}, InvalidArgument);
    EXPECT_THROW((void)core::make_chunk_store(bad, "x"), InvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(bad.disk_root));
}

/// The whole-deployment restart path: chunk data, metadata trees and the
/// version manager's journal all live in log engines under one disk
/// root; tearing the cluster down and rebuilding it on the same root
/// must serve every published version byte-identically.
TEST(ClusterLogPersistence, FullRestartRoundTrip) {
    TempDir dir;
    auto cfg = blobseer::testing::fast_config();
    cfg.durable = true;
    cfg.disk_root = dir.path();
    cfg.default_replication = 2;

    const std::uint64_t chunk = 64;
    const std::size_t v1_size = chunk * 16;
    const std::size_t append_size = chunk * 4;
    BlobId blob_id = kInvalidBlob;
    {
        core::Cluster cluster(cfg);
        auto client = cluster.make_client();
        core::Blob blob = client->create(chunk);
        blob_id = blob.id();
        blob.write(0, make_pattern(blob_id, 1, 0, v1_size));
        blob.append(make_pattern(blob_id, 2, 0, append_size));
    }  // daemon restart: everything volatile is gone

    core::Cluster restarted(cfg);
    auto client = restarted.make_client();

    const auto latest = client->stat(blob_id, kLatestVersion);
    EXPECT_EQ(latest.version, 2u);
    EXPECT_EQ(latest.size, v1_size + append_size);

    Buffer v1(v1_size);
    EXPECT_EQ(client->read(blob_id, 1, 0, v1), v1_size);
    EXPECT_TRUE(blobseer::testing::matches(blob_id, 1, 0, v1));

    Buffer tail(append_size);
    EXPECT_EQ(client->read(blob_id, 2, v1_size, tail), append_size);
    EXPECT_TRUE(blobseer::testing::matches(blob_id, 2, 0, tail));

    // And the restarted deployment keeps writing correctly: the
    // post-restart client re-mints the same client id and counter as
    // the pre-restart one, so without the per-boot uid epoch its first
    // chunks would collide with v1's and the idempotent put would
    // silently keep the OLD bytes. Reading v3 back catches that.
    core::Blob blob = client->open(blob_id);
    const Version v3 = blob.append(make_pattern(blob_id, 3, 0, chunk));
    EXPECT_EQ(v3, 3u);
    Buffer v3_tail(chunk);
    EXPECT_EQ(client->read(blob_id, 3, v1_size + append_size, v3_tail),
              chunk);
    EXPECT_TRUE(blobseer::testing::matches(blob_id, 3, 0, v3_tail));

    // Overwriting v1's range after restart must also store fresh bytes.
    const Version v4 = blob.write(0, make_pattern(blob_id, 4, 0, v1_size));
    EXPECT_EQ(v4, 4u);
    Buffer v4_head(v1_size);
    EXPECT_EQ(client->read(blob_id, 4, 0, v4_head), v1_size);
    EXPECT_TRUE(blobseer::testing::matches(blob_id, 4, 0, v4_head));
    // The old snapshot still reads its own bytes (no uid collision
    // overwrote them).
    Buffer v1_again(v1_size);
    EXPECT_EQ(client->read(blob_id, 1, 0, v1_again), v1_size);
    EXPECT_TRUE(blobseer::testing::matches(blob_id, 1, 0, v1_again));
}

/// kOpClone replay: a same-shard clone journaled by one session must be
/// rebuilt by the next — the origin alias, version-0 size, and the pin
/// that protects the origin snapshot from retirement.
TEST(VmJournal, CloneReplaysAcrossRestart) {
    TempDir dir;
    engine::EngineConfig jc;
    jc.dir = dir.path() / "vm-0";
    jc.background_compaction = false;

    BlobId src = kInvalidBlob;
    BlobId clone = kInvalidBlob;
    {
        version::VersionManager vm;
        vm.attach_journal(std::make_shared<engine::LogEngine>(jc));
        const auto b = vm.create_blob(8, 2);
        src = b.id;
        const auto a = vm.assign(src, 0, 24);
        vm.commit(src, a.version);
        clone = vm.clone_blob(src, 1).id;
    }  // restart: in-memory state gone, journal remains

    version::VersionManager vm;
    vm.attach_journal(std::make_shared<engine::LogEngine>(jc));
    EXPECT_EQ(vm.blob_count(), 2u);

    const auto v0 = vm.get_version(clone, 0);
    EXPECT_EQ(v0.size, 24u);
    EXPECT_EQ(v0.tree.blob, src);
    EXPECT_EQ(v0.tree.version, 1u);
    EXPECT_EQ(vm.pinned(src), (std::vector<Version>{1}));

    // The rebuilt state keeps functioning: an append to the clone bases
    // on the restored alias.
    const auto ca = vm.assign(clone, std::nullopt, 8);
    EXPECT_EQ(ca.offset, 24u);
    EXPECT_EQ(ca.base.blob, src);
}

/// kOpCloneFrom (op 9) replay: before wire v14 a sharded deployment
/// journaled every client clone as op 9 on the clone's shard (chunk
/// size, replication, origin blob/version/size; the origin's pin went to
/// the source shard as its own record). Nothing writes op 9 any more,
/// but a disk root holding such records must still open: the record
/// rebuilds the clone's origin alias, version-0 size and append base.
TEST(VmJournal, PreV14CloneFromRecordReplays) {
    TempDir dir;
    engine::EngineConfig jc;
    jc.dir = dir.path() / "vm-0";
    jc.background_compaction = false;

    const BlobId src = make_blob_id(0, 1);
    {
        // Records exactly as the pre-v14 journal wrote them: key = the
        // u64 sequence number, value = op byte then u64 arguments.
        engine::LogEngine journal(jc);
        std::uint64_t seq = 0;
        const auto record = [&](std::uint8_t op,
                                std::initializer_list<std::uint64_t> args) {
            Buffer value{op};
            for (const std::uint64_t a : args) {
                engine::put_u64(value, a);
            }
            Buffer key;
            engine::put_u64(key, seq++);
            journal.put(std::string_view(
                            reinterpret_cast<const char*>(key.data()),
                            key.size()),
                        value);
        };
        record(1, {8, 2});              // create src
        record(3, {src, 1, 0, 24});     // assign v1: 24 bytes at 0
        record(4, {src, 1});            // commit v1
        record(9, {8, 2, src, 1, 24});  // clone-from src v1
        record(9, {8, 2, 0, 0, 0});     // clone-from a fresh blob: empty
    }

    version::VersionManager vm;
    vm.attach_journal(std::make_shared<engine::LogEngine>(jc));
    ASSERT_EQ(vm.blob_count(), 3u);
    const BlobId clone = make_blob_id(0, 2);
    EXPECT_EQ(vm.blob_info(clone).chunk_size, 8u);
    EXPECT_EQ(vm.blob_info(clone).replication, 2u);

    const auto v0 = vm.get_version(clone, 0);
    EXPECT_EQ(v0.size, 24u);
    EXPECT_EQ(v0.tree.blob, src);
    EXPECT_EQ(v0.tree.version, 1u);
    EXPECT_EQ(v0.tree.size, 24u);

    const auto ca = vm.assign(clone, std::nullopt, 8);
    EXPECT_EQ(ca.offset, 24u);
    EXPECT_EQ(ca.size_before, 24u);
    EXPECT_EQ(ca.base.blob, src);
    EXPECT_EQ(ca.base.version, 1u);

    const auto empty = vm.get_version(make_blob_id(0, 3), 0);
    EXPECT_EQ(empty.size, 0u);
    EXPECT_FALSE(empty.tree.valid());
}

/// A clone on a sharded version-manager deployment lives on its source's
/// shard and is journaled there as op 2; a full cluster restart must
/// replay the shards' journals and restore the clone's origin alias end
/// to end (byte-identical readback through the origin's tree).
TEST(VmJournal, ShardedClusterRestartReplaysSourceShardClone) {
    TempDir dir;
    auto cfg = blobseer::testing::fast_config();
    cfg.durable = true;
    cfg.disk_root = dir.path();
    cfg.num_version_managers = 2;

    const std::uint64_t chunk = 64;
    const std::size_t size = chunk * 8;
    BlobId src = kInvalidBlob;
    BlobId clone = kInvalidBlob;
    {
        core::Cluster cluster(cfg);
        auto client = cluster.make_client();
        core::Blob blob = client->create(chunk);
        src = blob.id();
        blob.write(0, make_pattern(src, 1, 0, size));
        clone = client->clone(src).id();
    }
    EXPECT_EQ(blob_shard(clone), blob_shard(src));

    core::Cluster restarted(cfg);
    auto client = restarted.make_client();

    // The clone's version 0 reads the origin's bytes through the
    // replayed alias.
    Buffer out(size);
    EXPECT_EQ(client->read(clone, 0, 0, out), size);
    EXPECT_TRUE(blobseer::testing::matches(src, 1, 0, out));

    // Writing to the restored clone diverges it without touching the
    // origin.
    core::Blob ch = client->open(clone);
    EXPECT_EQ(ch.write(0, make_pattern(clone, 2, 0, chunk)), 1u);
    Buffer head(chunk);
    EXPECT_EQ(client->read(clone, 1, 0, head), chunk);
    EXPECT_TRUE(blobseer::testing::matches(clone, 2, 0, head));
    Buffer src_head(chunk);
    EXPECT_EQ(client->read(src, 1, 0, src_head), chunk);
    EXPECT_TRUE(blobseer::testing::matches(src, 1, 0, src_head));

    // The origin snapshot came back pinned on its shard, so retiring
    // the source blob can never pull the tree out from under the clone.
    auto& src_vm =
        restarted.version_manager(blob_shard(src));
    EXPECT_EQ(src_vm.pinned(src), (std::vector<Version>{1}));
}

}  // namespace
}  // namespace blobseer::meta
