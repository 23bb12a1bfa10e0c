/// \file test_client.cpp
/// \brief End-to-end tests of the client library on an in-process
///        cluster: the paper's full access interface (create / read /
///        write / append / versioning / clone) plus locality queries,
///        caching and replication effects.

#include <gtest/gtest.h>

#include <mutex>
#include <set>

#include "common/metrics.hpp"
#include "rpc/messages.hpp"
#include "rpc/sim_transport.hpp"
#include "testing_util.hpp"

namespace blobseer::core {
namespace {

using blobseer::testing::fast_config;

constexpr std::uint64_t kChunk = 64;

class ClientFixture : public ::testing::Test {
  protected:
    ClientFixture() : cluster_(fast_config()) {
        client_ = cluster_.make_client();
    }

    Buffer read_back(Blob& blob, Version v, std::uint64_t offset,
                     std::size_t n) {
        Buffer out(n);
        EXPECT_EQ(blob.read(v, offset, out), n);
        return out;
    }

    Cluster cluster_;
    std::unique_ptr<BlobSeerClient> client_;
};

TEST_F(ClientFixture, WriteReadRoundTrip) {
    Blob blob = client_->create(kChunk);
    const Buffer data = make_pattern(blob.id(), 1, 0, 3 * kChunk);
    const Version v = blob.write(0, data);
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(blob.size(), 3 * kChunk);
    EXPECT_EQ(read_back(blob, v, 0, data.size()), data);
}

TEST_F(ClientFixture, SubRangeReads) {
    Blob blob = client_->create(kChunk);
    const Buffer data = make_pattern(blob.id(), 1, 0, 4 * kChunk);
    blob.write(0, data);
    // Misaligned sub-range spanning chunk boundaries:
    const auto got = read_back(blob, 1, 17, 2 * kChunk + 5);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + 17));
}

TEST_F(ClientFixture, VersionedReadsSeeTheirSnapshot) {
    Blob blob = client_->create(kChunk);
    const Buffer v1 = make_pattern(blob.id(), 1, 0, 2 * kChunk);
    const Buffer v2 = make_pattern(blob.id(), 2, 0, kChunk);
    blob.write(0, v1);
    blob.write(kChunk, v2);  // v2 overwrites chunk 1

    // v1 snapshot unchanged:
    EXPECT_EQ(read_back(blob, 1, 0, 2 * kChunk), v1);
    // v2 snapshot: chunk 0 from v1, chunk 1 from the new write.
    const auto got = read_back(blob, 2, 0, 2 * kChunk);
    EXPECT_TRUE(std::equal(got.begin(), got.begin() + kChunk, v1.begin()));
    EXPECT_TRUE(std::equal(got.begin() + kChunk, got.end(), v2.begin()));
}

TEST_F(ClientFixture, AppendsGrowTheBlob) {
    Blob blob = client_->create(kChunk);
    Buffer all;
    for (int i = 0; i < 5; ++i) {
        const Buffer part = make_pattern(blob.id(), 100 + i, 0, kChunk);
        blob.append(part);
        all.insert(all.end(), part.begin(), part.end());
    }
    EXPECT_EQ(blob.latest(), 5u);
    EXPECT_EQ(blob.size(), 5 * kChunk);
    EXPECT_EQ(read_back(blob, 5, 0, all.size()), all);
}

TEST_F(ClientFixture, UnalignedAppendMergesTail) {
    Blob blob = client_->create(kChunk);
    const Buffer head = make_pattern(blob.id(), 1, 0, 10);  // short tail
    const Buffer tail = make_pattern(blob.id(), 2, 0, 100);
    blob.append(head);
    blob.append(tail);  // starts at offset 10, mid-chunk
    EXPECT_EQ(blob.size(), 110u);
    const auto got = read_back(blob, 2, 0, 110);
    EXPECT_TRUE(std::equal(got.begin(), got.begin() + 10, head.begin()));
    EXPECT_TRUE(std::equal(got.begin() + 10, got.end(), tail.begin()));
    // The first snapshot still reads exactly its 10 bytes.
    EXPECT_EQ(read_back(blob, 1, 0, 10), head);
}

TEST_F(ClientFixture, ManySmallUnalignedAppends) {
    Blob blob = client_->create(kChunk);
    Buffer all;
    for (int i = 0; i < 20; ++i) {
        const Buffer part =
            make_pattern(blob.id(), 500 + i, 0, 7 + (i % 13));
        blob.append(part);
        all.insert(all.end(), part.begin(), part.end());
    }
    EXPECT_EQ(blob.size(), all.size());
    EXPECT_EQ(read_back(blob, blob.latest(), 0, all.size()), all);
}

TEST_F(ClientFixture, SparseWriteReadsZerosInHoles) {
    Blob blob = client_->create(kChunk);
    const Buffer data = make_pattern(blob.id(), 1, 0, kChunk);
    blob.write(4 * kChunk, data);  // leaves [0, 4*kChunk) as holes
    EXPECT_EQ(blob.size(), 5 * kChunk);
    const auto got = read_back(blob, 1, 0, 5 * kChunk);
    for (std::uint64_t i = 0; i < 4 * kChunk; ++i) {
        ASSERT_EQ(got[i], 0u) << "hole byte " << i;
    }
    EXPECT_TRUE(std::equal(got.begin() + 4 * kChunk, got.end(),
                           data.begin()));
}

TEST_F(ClientFixture, LatestVersionResolves) {
    Blob blob = client_->create(kChunk);
    blob.append(make_pattern(blob.id(), 1, 0, kChunk));
    blob.append(make_pattern(blob.id(), 2, 0, kChunk));
    Buffer out(kChunk);
    client_->read(blob.id(), kLatestVersion, kChunk, out);
    EXPECT_TRUE(blobseer::testing::matches(blob.id(), 2, 0, out));
}

TEST_F(ClientFixture, ReadPastEndRejected) {
    Blob blob = client_->create(kChunk);
    blob.write(0, make_pattern(blob.id(), 1, 0, 10));
    Buffer out(20);
    EXPECT_THROW(client_->read(blob.id(), 1, 0, out), InvalidArgument);
    EXPECT_EQ(client_->read_available(blob.id(), 1, 0, out), 10u);
    EXPECT_EQ(client_->read_available(blob.id(), 1, 10, out), 0u);
}

TEST_F(ClientFixture, UnalignedWriteOffsetRejected) {
    Blob blob = client_->create(kChunk);
    EXPECT_THROW(blob.write(5, make_pattern(blob.id(), 1, 0, 10)),
                 InvalidArgument);
    EXPECT_THROW(blob.write(0, {}), InvalidArgument);
}

TEST_F(ClientFixture, OpenExistingBlob) {
    Blob blob = client_->create(kChunk);
    blob.append(make_pattern(blob.id(), 1, 0, kChunk));
    auto other = cluster_.make_client();
    Blob reopened = other->open(blob.id());
    EXPECT_EQ(reopened.chunk_size(), kChunk);
    Buffer out(kChunk);
    reopened.read(1, 0, out);
    EXPECT_TRUE(blobseer::testing::matches(blob.id(), 1, 0, out));
    EXPECT_THROW((void)client_->open(999), NotFoundError);
}

TEST_F(ClientFixture, CloneDiverges) {
    Blob blob = client_->create(kChunk);
    blob.write(0, make_pattern(blob.id(), 1, 0, 2 * kChunk));
    Blob copy = client_->clone(blob.id());
    EXPECT_EQ(copy.stat(0).size, 2 * kChunk);

    // Clone reads the origin's data...
    Buffer out(2 * kChunk);
    copy.read(0, 0, out);
    EXPECT_TRUE(blobseer::testing::matches(blob.id(), 1, 0, out));

    // ...and writes to the clone do not disturb the origin.
    copy.write(0, make_pattern(copy.id(), 9, 0, kChunk));
    Buffer cl(kChunk);
    copy.read(1, 0, cl);
    EXPECT_TRUE(blobseer::testing::matches(copy.id(), 9, 0, cl));
    Buffer orig(kChunk);
    blob.read(1, 0, orig);
    EXPECT_TRUE(blobseer::testing::matches(blob.id(), 1, 0, orig));
}

TEST_F(ClientFixture, LocateReportsProviders) {
    Blob blob = client_->create(kChunk, 2);
    blob.write(0, make_pattern(blob.id(), 1, 0, 4 * kChunk));
    const auto locs = client_->locate(blob.id(), 1, {0, 4 * kChunk});
    ASSERT_EQ(locs.size(), 4u);
    std::uint64_t cursor = 0;
    for (const auto& loc : locs) {
        EXPECT_EQ(loc.range.offset, cursor);
        EXPECT_FALSE(loc.hole);
        EXPECT_EQ(loc.providers.size(), 2u);  // replication factor
        cursor = loc.range.end();
    }
    EXPECT_EQ(cursor, 4 * kChunk);
}

TEST_F(ClientFixture, StripingUsesAllProviders) {
    Blob blob = client_->create(kChunk);
    blob.write(0, make_pattern(blob.id(), 1, 0,
                               kChunk * 4 * cluster_.data_provider_count()));
    for (std::size_t i = 0; i < cluster_.data_provider_count(); ++i) {
        EXPECT_GT(cluster_.data_provider(i).stored_bytes(), 0u)
            << "provider " << i << " received nothing";
    }
}

TEST_F(ClientFixture, ReplicationStoresCopies) {
    Blob blob = client_->create(kChunk, 3);
    blob.write(0, make_pattern(blob.id(), 1, 0, 2 * kChunk));
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cluster_.data_provider_count(); ++i) {
        total += cluster_.data_provider(i).stored_bytes();
    }
    EXPECT_EQ(total, 3 * 2 * kChunk);
}

TEST_F(ClientFixture, MetadataCacheCutsDhtTraffic) {
    Blob blob = client_->create(kChunk);
    blob.write(0, make_pattern(blob.id(), 1, 0, 8 * kChunk));

    auto reader = cluster_.make_client();
    Buffer out(8 * kChunk);
    reader->read(blob.id(), 1, 0, out);
    const auto misses_cold = reader->meta_cache().misses();
    EXPECT_GT(misses_cold, 0u);
    reader->read(blob.id(), 1, 0, out);
    EXPECT_EQ(reader->meta_cache().misses(), misses_cold)
        << "warm read should be served from the client cache";
    EXPECT_GT(reader->meta_cache().hits(), 0u);
}

TEST_F(ClientFixture, StatsAccumulate) {
    Blob blob = client_->create(kChunk);
    blob.write(0, make_pattern(blob.id(), 1, 0, kChunk));
    blob.append(make_pattern(blob.id(), 2, 0, kChunk));
    Buffer out(2 * kChunk);
    blob.read(2, 0, out);
    const auto& st = client_->stats();
    EXPECT_EQ(st.writes.get(), 1u);
    EXPECT_EQ(st.appends.get(), 1u);
    EXPECT_EQ(st.reads.get(), 1u);
    EXPECT_EQ(st.bytes_written.get(), 2 * kChunk);
    EXPECT_EQ(st.bytes_read.get(), 2 * kChunk);
    EXPECT_EQ(st.write_latency_us.count(), 2u);
}

TEST_F(ClientFixture, WritersReadBaseNodesOnlyThroughCloneOrigins) {
    // Two writers interleave appends to one blob: every assign reply
    // names each border node, so neither builder reads a base node.
    auto other = cluster_.make_client();
    Blob blob = client_->create(kChunk);
    Blob same = other->open(blob.id());
    blob.write(0, make_pattern(blob.id(), 1, 0, 4 * kChunk));
    for (std::uint64_t i = 0; i < 6; ++i) {
        Blob& writer = i % 2 == 0 ? blob : same;
        writer.append(make_pattern(blob.id(), 2 + i, 0, kChunk));
    }
    EXPECT_EQ(client_->stats().tree_base_reads.get(), 0u);
    EXPECT_EQ(other->stats().tree_base_reads.get(), 0u);
    MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    const std::pair<std::string, std::string> served{"outcome", "served"};
    const std::pair<std::string, std::string> missing{"outcome", "missing"};
    EXPECT_GT(sum_series(snap, "vm_border_refs_total", served), 0u);
    EXPECT_EQ(sum_series(snap, "vm_border_refs_total", missing), 0u);
    EXPECT_EQ(sum_series(snap, "client_tree_base_reads_total"), 0u);

    // A clone's first write borrows from the origin's tree, which the
    // version manager leaves to descent: both series show it.
    Blob copy = client_->clone(blob.id());
    copy.write(0, make_pattern(copy.id(), 9, 0, kChunk));
    EXPECT_GT(client_->stats().tree_base_reads.get(), 0u);
    snap = MetricsRegistry::instance().snapshot();
    EXPECT_GT(sum_series(snap, "vm_border_refs_total", missing), 0u);
    EXPECT_EQ(sum_series(snap, "client_tree_base_reads_total"),
              client_->stats().tree_base_reads.get());
    Buffer out(kChunk);
    copy.read(1, kChunk, out);
    EXPECT_TRUE(blobseer::testing::matches(blob.id(), 1, kChunk, out));
}

TEST_F(ClientFixture, EmptyReadIsNoop) {
    Blob blob = client_->create(kChunk);
    Buffer out;
    EXPECT_EQ(client_->read(blob.id(), kLatestVersion, 0, out), 0u);
}

TEST_F(ClientFixture, AsyncWriteAppendReadRoundTrip) {
    Blob blob = client_->create(kChunk);
    const Buffer first = make_pattern(blob.id(), 1, 0, 3 * kChunk);
    const Version v1 = blob.write_async(0, first).get();
    EXPECT_EQ(v1, 1u);

    const Buffer second = make_pattern(blob.id(), 2, 0, kChunk + 7);
    const Version v2 = blob.append_async(second).get();
    EXPECT_EQ(v2, 2u);

    Buffer head(3 * kChunk);
    Buffer tail(kChunk + 7);
    auto read_head = blob.read_async(v2, 0, head);
    auto read_tail = blob.read_async(v2, 3 * kChunk, tail);
    EXPECT_EQ(read_head.get(), head.size());
    EXPECT_EQ(read_tail.get(), tail.size());
    EXPECT_EQ(head, first);
    EXPECT_EQ(tail, second);
}

TEST_F(ClientFixture, AsyncOperationsOverlapAndFailLikeSync) {
    Blob a = client_->create(kChunk);
    Blob b = client_->create(kChunk);
    // Concurrent writes to independent blobs through one client.
    const Buffer da = make_pattern(a.id(), 1, 0, 5 * kChunk);
    const Buffer db = make_pattern(b.id(), 1, 0, 5 * kChunk);
    auto wa = a.write_async(0, da);
    auto wb = b.write_async(0, db);
    EXPECT_EQ(wa.get(), 1u);
    EXPECT_EQ(wb.get(), 1u);

    // Errors carry the sync types, just via the future.
    Buffer out(kChunk);
    EXPECT_THROW(
        (void)a.read_async(1, 100 * kChunk, out).get(), InvalidArgument);
    EXPECT_THROW(
        (void)client_->write_async(a.id(), kChunk / 2,
                                   ConstBytes(da.data(), kChunk))
            .get(),
        InvalidArgument);
}

/// Transport wrapper whose call_async throws RpcError *synchronously*
/// for one node — the shape of a TCP connect() refusal, which never
/// yields a future at all. The windowed data paths must treat it
/// exactly like an asynchronous delivery failure.
class SyncThrowTransport final : public rpc::Transport {
  public:
    SyncThrowTransport(std::shared_ptr<rpc::Transport> inner, NodeId bad)
        : inner_(std::move(inner)), bad_(bad) {}

    [[nodiscard]] Future<Buffer> call_async(NodeId dst,
                                            ConstBytes frame) override {
        refuse(dst);
        return inner_->call_async(dst, frame);
    }
    [[nodiscard]] Buffer roundtrip(NodeId dst, ConstBytes frame) override {
        refuse(dst);
        return inner_->roundtrip(dst, frame);
    }

  private:
    void refuse(NodeId dst) const {
        if (dst == bad_) {
            throw RpcError("connect to node " + std::to_string(dst) +
                           ": connection refused (simulated)");
        }
    }

    std::shared_ptr<rpc::Transport> inner_;
    const NodeId bad_;
};

TEST_F(ClientFixture, SynchronousTransportFailureFailsOverInWindow) {
    // A client whose transport refuses one data provider outright.
    const NodeId bad = cluster_.data_provider(0).node();
    const NodeId self = cluster_.network().add_node("refused-client");
    ClientEnv env;
    env.transport = std::make_shared<SyncThrowTransport>(
        std::make_shared<rpc::SimTransport>(cluster_.network(), self,
                                            cluster_.dispatcher()),
        bad);
    env.self = self;
    env.vm_nodes = cluster_.version_manager_nodes();
    env.pm_node = cluster_.provider_manager_node();
    env.meta_ring = cluster_.meta_ring();
    env.meta_replication = cluster_.config().meta_replication;
    env.default_replication = cluster_.config().default_replication;
    BlobSeerClient refused(std::move(env));

    // Read path first (the write path's mark_dead would steer later
    // placements away from the refused provider): a blob written by a
    // healthy client WITH replicas on the refused provider must still
    // read back through the other replica.
    Blob source = client_->create(kChunk, 2);
    const Buffer src_data = make_pattern(source.id(), 1, 0, 8 * kChunk);
    source.write(0, src_data);
    Buffer out(src_data.size());
    EXPECT_EQ(refused.read(source.id(), 1, 0, out), out.size());
    EXPECT_EQ(out, src_data);

    // Write path: placements that include the refused provider must
    // fail over to a replacement, not abort the write.
    Blob blob = refused.create(kChunk, 2);
    const Buffer data = make_pattern(blob.id(), 1, 0, 8 * kChunk);
    const Version v = blob.write(0, data);
    EXPECT_EQ(read_back(blob, v, 0, data.size()), data);
    EXPECT_GT(refused.stats().chunk_retries.get(), 0u);

    // Neither path may leak in-flight accounting on the sync throw.
    EXPECT_EQ(refused.stats().inflight_chunk_rpcs.get(), 0u);
}

TEST_F(ClientFixture, InflightWindowGaugeBalances) {
    Blob blob = client_->create(kChunk);
    blob.write(0, make_pattern(blob.id(), 1, 0, 16 * kChunk));
    Buffer out(16 * kChunk);
    blob.read(1, 0, out);
    const auto& st = client_->stats();
    EXPECT_EQ(st.inflight_chunk_rpcs.get(), 0u)
        << "window leaked in-flight accounting";
    EXPECT_GE(st.inflight_chunk_rpcs.high_water(), 2u)
        << "multi-chunk write/read never overlapped chunk RPCs";
}

TEST_F(ClientFixture, ReadSendsOneBatchPerProvider) {
    // 16 chunks on 4 providers, one replica each: the read is one
    // chunk-get-batch per provider, not one request per chunk. The
    // unaligned append's tail merge reads through the same path.
    Counter& batches = MetricsRegistry::instance().counter(
        "rpc_server_requests_total", {{"op", "chunk-get-batch"}});
    Blob blob = client_->create(kChunk, 1);
    const Buffer data = make_pattern(blob.id(), 1, 0, 16 * kChunk);
    blob.write(0, data);
    std::uint64_t before = batches.get();
    EXPECT_EQ(read_back(blob, 1, 0, data.size()), data);
    EXPECT_LE(batches.get() - before, cluster_.data_provider_count());
    EXPECT_EQ(client_->stats().chunk_retries.get(), 0u);

    const Buffer tail = make_pattern(blob.id(), 2, 0, kChunk / 2);
    blob.append(tail);
    const Buffer more = make_pattern(blob.id(), 3, 0, kChunk);
    before = batches.get();
    const Version v = blob.append(more);  // rewrites the half-full chunk
    EXPECT_EQ(batches.get() - before, 1u);
    Buffer expected = data;
    expected.insert(expected.end(), tail.begin(), tail.end());
    expected.insert(expected.end(), more.begin(), more.end());
    EXPECT_EQ(read_back(blob, v, 0, expected.size()), expected);
}

/// Passes every call through and records each chunk-get-batch request:
/// its target, its key count and the slice bytes it asks for.
class BatchRecordingTransport final : public rpc::Transport {
  public:
    struct Request {
        NodeId dst;
        std::size_t keys;
        std::uint64_t bytes;
    };

    explicit BatchRecordingTransport(std::shared_ptr<rpc::Transport> inner)
        : inner_(std::move(inner)) {}

    [[nodiscard]] Future<Buffer> call_async(NodeId dst,
                                            ConstBytes frame) override {
        record(dst, frame);
        return inner_->call_async(dst, frame);
    }
    [[nodiscard]] Buffer roundtrip(NodeId dst, ConstBytes frame) override {
        record(dst, frame);
        return inner_->roundtrip(dst, frame);
    }

    [[nodiscard]] std::vector<Request> requests() const {
        const std::scoped_lock lock(mu_);
        return requests_;
    }

  private:
    void record(NodeId dst, ConstBytes frame) {
        const rpc::FrameView f = rpc::parse_frame(frame);
        if (f.type != rpc::MsgType::kChunkGetBatch) {
            return;
        }
        rpc::WireReader r(f.payload);
        const std::vector<rpc::ChunkRead> reads = rpc::get_chunk_reads(r);
        std::uint64_t bytes = 0;
        for (const rpc::ChunkRead& rd : reads) {
            bytes += rd.size;
        }
        const std::scoped_lock lock(mu_);
        requests_.push_back({dst, reads.size(), bytes});
    }

    std::shared_ptr<rpc::Transport> inner_;
    mutable std::mutex mu_;
    std::vector<Request> requests_;
};

TEST_F(ClientFixture, LargeReadSplitsBatchesAtTheReplyCapAcrossProviders) {
    // 8 MiB of 64 KiB chunks, one replica each: about 2 MiB per
    // provider, twice a reply's cap. The client splits each provider's
    // keys at the cap, so every key is sent once and served, and it
    // interleaves providers, so the window's first batches reach every
    // provider the read uses before any provider gets a second one.
    constexpr std::uint64_t kBig = 64 << 10;
    constexpr std::size_t kKeys = 128;
    Blob blob = client_->create(kBig, 1);
    const Buffer data = make_pattern(blob.id(), 1, 0, kKeys * kBig);
    blob.write(0, data);

    const NodeId self = cluster_.network().add_node("recording-client");
    auto recorder = std::make_shared<BatchRecordingTransport>(
        std::make_shared<rpc::SimTransport>(cluster_.network(), self,
                                            cluster_.dispatcher()));
    ClientEnv env;
    env.transport = recorder;
    env.self = self;
    env.vm_nodes = cluster_.version_manager_nodes();
    env.pm_node = cluster_.provider_manager_node();
    env.meta_ring = cluster_.meta_ring();
    env.meta_replication = cluster_.config().meta_replication;
    env.default_replication = cluster_.config().default_replication;
    BlobSeerClient reader(std::move(env));

    Buffer out(data.size());
    EXPECT_EQ(reader.read(blob.id(), 1, 0, out), out.size());
    EXPECT_EQ(out, data);

    const auto requests = recorder->requests();
    std::size_t keys = 0;
    std::set<NodeId> targets;
    for (const auto& req : requests) {
        EXPECT_LE(req.bytes, rpc::kChunkBatchReplyCap)
            << "a batch asks for more than one reply serves";
        keys += req.keys;
        targets.insert(req.dst);
    }
    EXPECT_EQ(keys, kKeys) << "keys were re-sent";
    ASSERT_GT(targets.size(), 1u);
    ASSERT_GT(requests.size(), targets.size());
    std::set<NodeId> first_wave;
    for (std::size_t i = 0; i < targets.size(); ++i) {
        first_wave.insert(requests[i].dst);
    }
    EXPECT_EQ(first_wave, targets)
        << "a provider got a second batch before every provider had one";
}

// ---- sharded version managers ---------------------------------------------

TEST(ShardedVm, FullAccessInterfaceAcrossShards) {
    auto cfg = fast_config();
    cfg.num_version_managers = 3;
    Cluster cluster(cfg);
    auto client = cluster.make_client();

    // Creations spread over the shards by consistent hashing; every
    // blob id carries its owning shard and all per-blob traffic routes
    // there transparently.
    std::vector<Blob> blobs;
    std::set<std::uint32_t> shards_hit;
    for (int i = 0; i < 12; ++i) {
        blobs.push_back(client->create(kChunk));
        shards_hit.insert(blob_shard(blobs.back().id()));
    }
    EXPECT_GT(shards_hit.size(), 1u)
        << "12 creations all landed on one of 3 shards";

    for (std::size_t i = 0; i < blobs.size(); ++i) {
        Blob& blob = blobs[i];
        const Buffer data =
            make_pattern(blob.id(), i + 1, 0, 4 * kChunk);
        EXPECT_EQ(blob.write(0, data), 1u);
        EXPECT_EQ(blob.append(make_pattern(blob.id(), 100 + i, 0, kChunk)),
                  2u);
        Buffer out(4 * kChunk);
        EXPECT_EQ(blob.read(1, 0, out), out.size());
        EXPECT_TRUE(blobseer::testing::matches(blob.id(), i + 1, 0, out));
        EXPECT_EQ(blob.stat().version, 2u);
        EXPECT_EQ(blob.size(), 5 * kChunk);
        EXPECT_EQ(client->history(blob.id()).size(), 2u);
    }

    // Per-shard series over the wire add up to the whole deployment.
    auto& svc = client->services();
    EXPECT_EQ(svc.vm_nodes().size(), 3u);
    const MetricsSnapshot snap = svc.metrics_dump();
    std::uint64_t blob_total = 0;
    std::uint64_t assign_total = 0;
    for (std::size_t i = 0; i < svc.vm_nodes().size(); ++i) {
        const std::pair<std::string, std::string> shard{"shard",
                                                        std::to_string(i)};
        blob_total += sum_series(snap, "vm_blobs", shard);
        assign_total += sum_series(snap, "vm_assigns_total", shard);
        // everything published
        EXPECT_EQ(sum_series(snap, "vm_publish_backlog", shard), 0u);
    }
    EXPECT_EQ(blob_total, blobs.size());
    EXPECT_EQ(assign_total, 2 * blobs.size());
}

TEST(ShardedVm, CrossShardCloneSharesStorageAndDiverges) {
    auto cfg = fast_config();
    cfg.num_version_managers = 2;
    Cluster cluster(cfg);
    auto client = cluster.make_client();

    Blob src = client->create(kChunk);
    const Buffer data = make_pattern(src.id(), 1, 0, 6 * kChunk);
    src.write(0, data);

    // One blob-clone to the source's shard resolves, pins and clones:
    // the clone lives there too, and no get-version or pin travels.
    auto& registry = MetricsRegistry::instance();
    Counter& clones = registry.counter("rpc_server_requests_total",
                                       {{"op", "blob-clone"}});
    Counter& get_versions = registry.counter("rpc_server_requests_total",
                                             {{"op", "get-version"}});
    Counter& pins =
        registry.counter("rpc_server_requests_total", {{"op", "pin"}});
    const std::uint64_t clones_before = clones.get();
    const std::uint64_t get_versions_before = get_versions.get();
    const std::uint64_t pins_before = pins.get();
    Blob copy = client->clone(src.id());
    EXPECT_EQ(clones.get() - clones_before, 1u);
    EXPECT_EQ(get_versions.get() - get_versions_before, 0u);
    EXPECT_EQ(pins.get() - pins_before, 0u);
    EXPECT_EQ(blob_shard(copy.id()), blob_shard(src.id()));
    Buffer out(6 * kChunk);
    EXPECT_EQ(copy.read(0, 0, out), out.size());
    EXPECT_EQ(out, data);

    // The origin version is pinned on its owning shard.
    auto& src_vm = cluster.version_manager(blob_shard(src.id()));
    EXPECT_EQ(src_vm.pinned(src.id()), (std::vector<Version>{1}));

    // Writes diverge the clone without touching the origin.
    EXPECT_EQ(copy.write(0, make_pattern(copy.id(), 2, 0, kChunk)), 1u);
    Buffer head(kChunk);
    EXPECT_EQ(copy.read(1, 0, head), kChunk);
    EXPECT_TRUE(blobseer::testing::matches(copy.id(), 2, 0, head));
    Buffer src_head(kChunk);
    EXPECT_EQ(src.read(1, 0, src_head), kChunk);
    EXPECT_TRUE(blobseer::testing::matches(src.id(), 1, 0, src_head));

    // Clone-of-clone (version 0) chains to the original tree and lands
    // on the same shard.
    Blob copy2 = client->clone(copy.id(), 0);
    EXPECT_EQ(blob_shard(copy2.id()), blob_shard(src.id()));
    Buffer out2(6 * kChunk);
    EXPECT_EQ(copy2.read(0, 0, out2), out2.size());
    EXPECT_EQ(out2, data);

    // Cloning an unpublished version fails.
    (void)cluster.version_manager(blob_shard(src.id()))
        .assign(src.id(), std::nullopt, kChunk);
    EXPECT_THROW((void)client->clone(src.id(), 2), InvalidArgument);
}

}  // namespace
}  // namespace blobseer::core
