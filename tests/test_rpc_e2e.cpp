/// \file test_rpc_e2e.cpp
/// \brief End-to-end client flows over TcpTransport: a remote client
///        bootstraps with the topology handshake and runs
///        create → write → read → history against an in-process TCP
///        server, byte-identical to the SimTransport path.

#include <gtest/gtest.h>

#include "core/remote.hpp"
#include "rpc/tcp_transport.hpp"
#include "testing_util.hpp"

namespace blobseer::core {
namespace {

class RpcEndToEnd : public ::testing::Test {
  protected:
    RpcEndToEnd()
        : cluster_(testing::fast_config()),
          server_(cluster_.dispatcher(), {.bind_addr = "127.0.0.1"}) {}

    [[nodiscard]] std::unique_ptr<BlobSeerClient> remote_client() {
        return std::make_unique<BlobSeerClient>(
            connect_tcp("127.0.0.1", server_.port()));
    }

    Cluster cluster_;
    rpc::TcpRpcServer server_;
};

TEST_F(RpcEndToEnd, CreateWriteReadHistoryOverTcp) {
    auto client = remote_client();
    auto blob = client->create(64 << 10);

    const Buffer v1 = testing::tagged(blob.id(), 1, 0, 200000);
    EXPECT_EQ(blob.write(0, v1), 1u);
    const Buffer v2 = testing::tagged(blob.id(), 2, 0, 131072);
    EXPECT_EQ(blob.append(v2), 2u);

    // Version 1 readback.
    Buffer out(v1.size());
    EXPECT_EQ(blob.read(1, 0, out), v1.size());
    EXPECT_TRUE(testing::matches(blob.id(), 1, 0, out));

    // Version 2: the original range plus the appended bytes.
    out.assign(v2.size(), 0);
    EXPECT_EQ(blob.read(2, v1.size(), out), v2.size());
    EXPECT_TRUE(testing::matches(blob.id(), 2, 0, out));
    EXPECT_EQ(blob.size(), v1.size() + v2.size());

    const auto history = client->history(blob.id());
    ASSERT_EQ(history.size(), 2u);
    EXPECT_EQ(history[0].version, 1u);
    EXPECT_EQ(history[1].version, 2u);
    EXPECT_EQ(history[1].size_after, v1.size() + v2.size());
}

TEST_F(RpcEndToEnd, TcpAndSimClientsSeeIdenticalBytes) {
    // Write through the simulated in-process path...
    auto sim_client = cluster_.make_client();
    auto blob = sim_client->create(32 << 10);
    const Buffer data = testing::tagged(blob.id(), 7, 0, 300000);
    EXPECT_EQ(sim_client->write(blob.id(), 0, data), 1u);

    // ...and read it back over real sockets: byte-identical.
    auto tcp_client = remote_client();
    Buffer out(data.size());
    EXPECT_EQ(tcp_client->read(blob.id(), 1, 0, out), data.size());
    EXPECT_EQ(out, data);

    // And the reverse direction: TCP writes, Sim reads.
    const Buffer more = testing::tagged(blob.id(), 8, 0, 50000);
    EXPECT_EQ(tcp_client->append(blob.id(), more), 2u);
    Buffer tail(more.size());
    EXPECT_EQ(sim_client->read(blob.id(), 2, data.size(), tail),
              more.size());
    EXPECT_EQ(tail, more);
}

TEST_F(RpcEndToEnd, RemoteClientsGetDistinctIdentities) {
    auto a = remote_client();
    auto b = remote_client();
    EXPECT_NE(a->node(), b->node());

    // Distinct identities produce non-colliding chunk uids: interleaved
    // writes to one blob from both clients stay readable.
    auto blob = a->create(16 << 10);
    const Buffer da = testing::tagged(blob.id(), 1, 0, 16 << 10);
    const Buffer db = testing::tagged(blob.id(), 2, 0, 16 << 10);
    EXPECT_EQ(a->write(blob.id(), 0, da), 1u);
    EXPECT_EQ(b->write(blob.id(), 0, db), 2u);
    Buffer out(16 << 10);
    EXPECT_EQ(b->read(blob.id(), 2, 0, out), out.size());
    EXPECT_EQ(out, db);
}

TEST_F(RpcEndToEnd, CloneAndRetireOverTcp) {
    auto client = remote_client();
    auto blob = client->create(16 << 10);
    for (int i = 1; i <= 4; ++i) {
        const Buffer data = testing::tagged(blob.id(), i, 0, 16 << 10);
        client->write(blob.id(), 0, data);
    }
    auto cloned = client->clone(blob.id(), 2);
    Buffer out(16 << 10);
    EXPECT_EQ(cloned.read(0, 0, out), out.size());
    EXPECT_TRUE(testing::matches(blob.id(), 2, 0, out));

    const auto st = client->retire_versions(blob.id(), 4);
    EXPECT_GE(st.versions, 1u);
    EXPECT_THROW((void)client->read(blob.id(), 1, 0, out), VersionRetired);
}

}  // namespace
}  // namespace blobseer::core
