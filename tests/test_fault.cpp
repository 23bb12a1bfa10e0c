/// \file test_fault.cpp
/// \brief Fault-injection tests: provider death with and without
///        replication, metadata replica failover, dead-writer abort
///        cascades and garbage collection of aborted versions.
///
/// The kill/partition scenarios run twice — once with in-process
/// SimTransport clients and once with real remote clients speaking
/// TcpTransport against an in-process TcpRpcServer — so the wire path
/// (topology handshake, dispatcher fault gate, typed-error round-trip)
/// proves out the same failover behaviour as the simulated one.

#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <thread>

#include "core/remote.hpp"
#include "rpc/tcp_transport.hpp"
#include "testing_util.hpp"

namespace blobseer::core {
namespace {

constexpr std::uint64_t kChunk = 64;

core::ClusterConfig fault_config(std::uint32_t data_repl,
                                 std::uint32_t meta_repl) {
    auto cfg = blobseer::testing::fast_config();
    cfg.data_providers = 4;
    cfg.metadata_providers = 3;
    cfg.default_replication = data_repl;
    cfg.meta_replication = meta_repl;
    cfg.publish_timeout = seconds(2);
    return cfg;
}

/// Parameterized over the client transport: "sim" clients talk through
/// the simulated network, "tcp" clients bootstrap with the topology
/// handshake and speak real sockets. Fault injection itself always goes
/// through the cluster (kill/recover are control-plane operations).
class FaultTransport : public ::testing::TestWithParam<const char*> {
  protected:
    Cluster& make_cluster(const core::ClusterConfig& cfg) {
        cluster_ = std::make_unique<Cluster>(cfg);
        return *cluster_;
    }

    std::unique_ptr<BlobSeerClient> make_client() {
        if (std::string_view(GetParam()) == "tcp") {
            if (server_ == nullptr) {
                server_ = std::make_unique<rpc::TcpRpcServer>(
                    cluster_->dispatcher(),
                    rpc::TcpRpcServer::Options{.bind_addr = "127.0.0.1"});
            }
            return std::make_unique<BlobSeerClient>(
                connect_tcp("127.0.0.1", server_->port()));
        }
        return cluster_->make_client();
    }

    std::unique_ptr<Cluster> cluster_;
    // Declared after cluster_: the server (which references the
    // cluster's dispatcher) must shut down first.
    std::unique_ptr<rpc::TcpRpcServer> server_;
};

INSTANTIATE_TEST_SUITE_P(Transports, FaultTransport,
                         ::testing::Values("sim", "tcp"));

TEST_P(FaultTransport, ReplicatedDataSurvivesProviderDeath) {
    Cluster& cluster = make_cluster(fault_config(2, 2));
    auto client = make_client();
    Blob blob = client->create(kChunk, 2);
    const Buffer data = make_pattern(blob.id(), 1, 0, 8 * kChunk);
    blob.write(0, data);

    // Kill the most loaded provider, *with* data loss.
    std::size_t victim = 0;
    for (std::size_t i = 1; i < cluster.data_provider_count(); ++i) {
        if (cluster.data_provider(i).stored_bytes() >
            cluster.data_provider(victim).stored_bytes()) {
            victim = i;
        }
    }
    cluster.kill_data_provider(victim, /*lose_volatile=*/true);

    Buffer out(data.size());
    auto reader = make_client();
    EXPECT_EQ(reader->read(blob.id(), 1, 0, out), data.size());
    EXPECT_EQ(out, data);
    EXPECT_GT(reader->stats().chunk_retries.get(), 0u);
}

TEST_P(FaultTransport, UnreplicatedDataLostOnDeath) {
    Cluster& cluster = make_cluster(fault_config(1, 1));
    auto client = make_client();
    Blob blob = client->create(kChunk, 1);
    blob.write(0, make_pattern(blob.id(), 1, 0, 8 * kChunk));

    for (std::size_t i = 0; i < cluster.data_provider_count(); ++i) {
        cluster.kill_data_provider(i, true);
    }
    Buffer out(kChunk);
    EXPECT_THROW(client->read(blob.id(), 1, 0, out), Error);
}

TEST_P(FaultTransport, WriteFailsOverToLiveProviders) {
    Cluster& cluster = make_cluster(fault_config(1, 1));
    auto client = make_client();
    Blob blob = client->create(kChunk, 1);

    // Kill one provider at the NETWORK level only — the provider manager
    // still believes it is alive and will plan placements onto it; the
    // client must detect the failure, report it and re-place.
    cluster.network().kill(cluster.data_provider(0).node());

    const Buffer data = make_pattern(blob.id(), 1, 0, 8 * kChunk);
    EXPECT_NO_THROW(blob.write(0, data));
    Buffer out(data.size());
    EXPECT_EQ(client->read(blob.id(), 1, 0, out), data.size());
    EXPECT_EQ(out, data);
    // The failure report marked the provider dead at the manager.
    EXPECT_FALSE(cluster.provider_manager().is_alive(
        cluster.data_provider(0).node()));
}

TEST_P(FaultTransport, MetadataReplicaFailover) {
    Cluster& cluster = make_cluster(fault_config(2, 2));
    auto client = make_client();
    Blob blob = client->create(kChunk, 2);
    const Buffer data = make_pattern(blob.id(), 1, 0, 16 * kChunk);
    blob.write(0, data);

    cluster.kill_metadata_provider(0, /*lose_state=*/true);

    // A fresh client (cold cache) must read everything through the
    // surviving metadata replicas.
    auto reader = make_client();
    Buffer out(data.size());
    EXPECT_EQ(reader->read(blob.id(), 1, 0, out), data.size());
    EXPECT_EQ(out, data);
}

TEST(Fault, MetadataLossWithoutReplicationBreaksReads) {
    Cluster cluster(fault_config(1, 1));
    auto client = cluster.make_client();
    Blob blob = client->create(kChunk, 1);
    blob.write(0, make_pattern(blob.id(), 1, 0, 16 * kChunk));

    for (std::size_t i = 0; i < cluster.metadata_provider_count(); ++i) {
        cluster.kill_metadata_provider(i, true);
    }
    auto reader = cluster.make_client();  // cold cache
    Buffer out(kChunk);
    EXPECT_THROW(reader->read(blob.id(), 1, 0, out), Error);
}

TEST(Fault, DeadWriterBlocksThenAbortCascades) {
    Cluster cluster(fault_config(1, 1));
    auto client = cluster.make_client();
    Blob blob = client->create(kChunk, 1);
    blob.write(0, make_pattern(blob.id(), 1, 0, kChunk));  // v1 published

    // A writer gets v2 assigned and dies before committing.
    auto& vm = cluster.version_manager();
    (void)vm.assign(blob.id(), kChunk, kChunk);

    // Another client's append (v3) commits but cannot publish.
    const Version v3 = client->append(blob.id(), Buffer(kChunk, 0x33));
    EXPECT_EQ(v3, 3u);
    EXPECT_EQ(vm.latest(blob.id()), 1u);  // stuck behind the dead v2

    // Readers of "latest" still see v1 (no blocking on writers).
    Buffer out(kChunk);
    client->read(blob.id(), kLatestVersion, 0, out);
    EXPECT_TRUE(blobseer::testing::matches(blob.id(), 1, 0, out));

    // The recovery policy kills the stalled tail: v2 AND v3.
    std::this_thread::sleep_for(milliseconds(20));
    EXPECT_EQ(vm.abort_stalled(blob.id(), milliseconds(1)), 2u);
    EXPECT_THROW(client->wait_published(blob.id(), v3), VersionAborted);

    // The blob recovers: new writes publish again, size rolled back.
    const Version v4 = client->append(blob.id(), Buffer(kChunk, 0x44));
    EXPECT_EQ(v4, 4u);
    EXPECT_EQ(client->stat(blob.id()).size, 2 * kChunk);
    Buffer tail(kChunk);
    client->read(blob.id(), v4, kChunk, tail);
    EXPECT_EQ(tail, Buffer(kChunk, 0x44));
}

TEST(Fault, GcRemovesAbortedVersionData) {
    Cluster cluster(fault_config(1, 1));
    auto client = cluster.make_client();
    Blob blob = client->create(kChunk, 1);
    blob.write(0, make_pattern(blob.id(), 1, 0, 4 * kChunk));

    // A writer gets v2 assigned and dies; the client's v3 write commits
    // fully but is cascade-aborted along with v2.
    (void)cluster.version_manager().assign(blob.id(), kChunk, kChunk);
    const Version v3 = client->write(blob.id(), 0,
                                     make_pattern(blob.id(), 2, 0, kChunk));
    std::uint64_t stored_before = 0;
    std::size_t meta_before = 0;
    for (std::size_t i = 0; i < cluster.data_provider_count(); ++i) {
        stored_before += cluster.data_provider(i).stored_bytes();
    }
    for (std::size_t i = 0; i < cluster.metadata_provider_count(); ++i) {
        meta_before += cluster.metadata_provider(i).stored_nodes();
    }

    cluster.version_manager().abort(blob.id(), 2);
    // GC of the dead writer's version removes nothing (it stored no
    // data), and must not throw.
    EXPECT_EQ(client->gc_aborted_version(blob.id(), 2), 0u);
    const std::size_t removed = client->gc_aborted_version(blob.id(), v3);
    EXPECT_GT(removed, 0u);

    std::uint64_t stored_after = 0;
    std::size_t meta_after = 0;
    for (std::size_t i = 0; i < cluster.data_provider_count(); ++i) {
        stored_after += cluster.data_provider(i).stored_bytes();
    }
    for (std::size_t i = 0; i < cluster.metadata_provider_count(); ++i) {
        meta_after += cluster.metadata_provider(i).stored_nodes();
    }
    EXPECT_EQ(stored_after, stored_before - kChunk);
    EXPECT_LT(meta_after, meta_before);

    // v1 is untouched.
    Buffer out(4 * kChunk);
    client->read(blob.id(), 1, 0, out);
    EXPECT_TRUE(blobseer::testing::matches(blob.id(), 1, 0, out));
    EXPECT_THROW(client->gc_aborted_version(blob.id(), 1), InvalidArgument);
}

TEST(Fault, ReadOfAbortedVersionThrows) {
    Cluster cluster(fault_config(1, 1));
    auto client = cluster.make_client();
    Blob blob = client->create(kChunk, 1);
    blob.write(0, Buffer(kChunk, 1));
    // Dead writer blocks the tail; the client's v3 gets cascade-aborted.
    (void)cluster.version_manager().assign(blob.id(), 0, kChunk);
    const Version v3 = client->write(blob.id(), 0, Buffer(kChunk, 2));
    cluster.version_manager().abort(blob.id(), 2);
    Buffer out(kChunk);
    EXPECT_THROW(client->read(blob.id(), v3, 0, out), VersionAborted);
    // Latest resolves to the surviving v1.
    EXPECT_EQ(client->stat(blob.id()).version, 1u);
}

TEST(Fault, DegradedProviderStillCorrect) {
    auto cfg = fault_config(1, 1);
    cfg.network.latency = microseconds(10);
    cfg.network.node_bandwidth_bps = 200ULL << 20;
    Cluster cluster(cfg);
    auto client = cluster.make_client();
    Blob blob = client->create(kChunk, 1);
    const Buffer data = make_pattern(blob.id(), 1, 0, 8 * kChunk);
    blob.write(0, data);

    cluster.degrade_data_provider(0, 8.0, milliseconds(1));
    Buffer out(data.size());
    EXPECT_EQ(client->read(blob.id(), 1, 0, out), data.size());
    EXPECT_EQ(out, data);
}

TEST_P(FaultTransport, RecoveredProviderServesOldChunks) {
    Cluster& cluster = make_cluster(fault_config(1, 1));
    auto client = make_client();
    Blob blob = client->create(kChunk, 1);
    const Buffer data = make_pattern(blob.id(), 1, 0, 8 * kChunk);
    blob.write(0, data);

    // Down WITHOUT losing state (e.g. a network blip), then back.
    cluster.kill_data_provider(2, /*lose_volatile=*/false);
    cluster.recover_data_provider(2);

    Buffer out(data.size());
    EXPECT_EQ(client->read(blob.id(), 1, 0, out), data.size());
    EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace blobseer::core
