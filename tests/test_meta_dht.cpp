/// \file test_meta_dht.cpp
/// \brief Focused tests of the replicated metadata DHT client: owner
///        selection, replica failover on reads, degraded puts, erase
///        semantics and traffic accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "dht/meta_dht.hpp"
#include "dht/metadata_provider.hpp"
#include "net/sim_network.hpp"
#include "rpc/dispatcher.hpp"
#include "rpc/sim_transport.hpp"

namespace blobseer::dht {
namespace {

meta::MetaKey key_of(std::uint64_t i) {
    return meta::MetaKey{4, 2, {i, 1}};
}

class MetaDhtFixture : public ::testing::Test {
  protected:
    static constexpr std::size_t kProviders = 3;

    MetaDhtFixture() : net_({.latency = {}, .node_bandwidth_bps = 0}) {
        client_node_ = net_.add_node("client");
        for (std::size_t i = 0; i < kProviders; ++i) {
            const NodeId node = net_.add_node("mp-" + std::to_string(i));
            providers_.push_back(
                std::make_unique<MetadataProvider>(node, 0));
            by_node_[node] = providers_.back().get();
            dispatcher_.add_metadata_provider(node,
                                              providers_.back().get());
            ring_.add_node(node);
        }
        transport_ = std::make_unique<rpc::SimTransport>(net_, client_node_,
                                                         dispatcher_);
        svc_ = std::make_unique<rpc::ServiceClient>(
            *transport_, std::vector<NodeId>{kInvalidNode}, kInvalidNode);
    }

    [[nodiscard]] MetaDht make_client(std::uint32_t replication) {
        return MetaDht(*svc_, ring_, replication);
    }

    [[nodiscard]] std::size_t total_stored() const {
        std::size_t n = 0;
        for (const auto& p : providers_) {
            n += p->stored_nodes();
        }
        return n;
    }

    net::SimNetwork net_;
    NodeId client_node_ = kInvalidNode;
    std::vector<std::unique_ptr<MetadataProvider>> providers_;
    std::unordered_map<NodeId, MetadataProvider*> by_node_;
    Ring ring_;
    rpc::Dispatcher dispatcher_;
    std::unique_ptr<rpc::SimTransport> transport_;
    std::unique_ptr<rpc::ServiceClient> svc_;
};

TEST_F(MetaDhtFixture, PutStoresReplicationCopies) {
    auto dht = make_client(2);
    dht.put(key_of(1), meta::MetaNode::inner({1, 1}, {1, 1}));
    EXPECT_EQ(total_stored(), 2u);
    auto single = make_client(1);
    single.put(key_of(2), meta::MetaNode::inner({1, 1}, {1, 1}));
    EXPECT_EQ(total_stored(), 3u);
}

TEST_F(MetaDhtFixture, ReplicationClampedToRingSize) {
    auto dht = make_client(10);
    dht.put(key_of(1), meta::MetaNode::inner({}, {}));
    EXPECT_EQ(total_stored(), kProviders);
}

TEST_F(MetaDhtFixture, GetFailsOverToSurvivingReplica) {
    auto dht = make_client(2);
    dht.put(key_of(1), meta::MetaNode::leaf({9}, 55, 64));
    // Kill the primary owner.
    const NodeId primary = ring_.owners(key_of(1).hash(), 1).front();
    net_.kill(primary);
    const auto node = dht.get(key_of(1));
    EXPECT_EQ(node.chunk_uid, 55u);
    EXPECT_TRUE(dht.try_get(key_of(1)).has_value());
}

TEST_F(MetaDhtFixture, GetThrowsWhenAllReplicasDead) {
    auto dht = make_client(2);
    dht.put(key_of(1), meta::MetaNode::inner({}, {}));
    const auto owners = ring_.owners(key_of(1).hash(), 2);
    for (const NodeId o : owners) {
        net_.kill(o);
    }
    EXPECT_THROW((void)dht.get(key_of(1)), NotFoundError);
    EXPECT_FALSE(dht.try_get(key_of(1)).has_value());
}

TEST_F(MetaDhtFixture, MissingKeyIsNotFound) {
    auto dht = make_client(2);
    EXPECT_THROW((void)dht.get(key_of(42)), NotFoundError);
    EXPECT_FALSE(dht.try_get(key_of(42)).has_value());
}

TEST_F(MetaDhtFixture, PutToleratesOneDeadReplica) {
    auto dht = make_client(2);
    const auto owners = ring_.owners(key_of(1).hash(), 2);
    net_.kill(owners[1]);
    EXPECT_NO_THROW(dht.put(key_of(1), meta::MetaNode::inner({}, {})));
    EXPECT_EQ(total_stored(), 1u);
    // Reads still work through the copy that landed.
    EXPECT_NO_THROW(dht.get(key_of(1)));
}

TEST_F(MetaDhtFixture, PutFailsWhenNoReplicaLands) {
    auto dht = make_client(2);
    const auto owners = ring_.owners(key_of(1).hash(), 2);
    for (const NodeId o : owners) {
        net_.kill(o);
    }
    EXPECT_THROW(dht.put(key_of(1), meta::MetaNode::inner({}, {})),
                 RpcError);
}

TEST_F(MetaDhtFixture, EraseRemovesAllReplicas) {
    auto dht = make_client(3);
    dht.put(key_of(1), meta::MetaNode::inner({}, {}));
    EXPECT_EQ(total_stored(), 3u);
    dht.erase(key_of(1));
    EXPECT_EQ(total_stored(), 0u);
    EXPECT_FALSE(dht.try_get(key_of(1)).has_value());
}

TEST_F(MetaDhtFixture, KeysSpreadAcrossProviders) {
    auto dht = make_client(1);
    for (std::uint64_t i = 0; i < 300; ++i) {
        dht.put(key_of(i), meta::MetaNode::inner({}, {}));
    }
    for (const auto& p : providers_) {
        EXPECT_GT(p->stored_nodes(), 40u)
            << "provider " << p->node() << " starved";
    }
}

TEST_F(MetaDhtFixture, TrafficAccounting) {
    auto dht = make_client(2);
    dht.put(key_of(1), meta::MetaNode::inner({}, {}));
    (void)dht.get(key_of(1));
    EXPECT_EQ(dht.puts(), 1u);
    EXPECT_EQ(dht.gets(), 1u);
    // Two request legs for the put replicas + one for the get.
    EXPECT_GE(net_.node(client_node_).msgs_out.get(), 3u);
}

TEST_F(MetaDhtFixture, IdempotentReplicatedPut) {
    auto dht = make_client(2);
    dht.put(key_of(1), meta::MetaNode::leaf({1}, 7, 8));
    dht.put(key_of(1), meta::MetaNode::leaf({1}, 7, 8));
    EXPECT_EQ(total_stored(), 2u);
}

// ---- batched puts --------------------------------------------------------

/// Nodes key_of(0..n) — enough keys that every provider owns some.
std::vector<meta::KeyedNode> batch_of(std::uint64_t n) {
    std::vector<meta::KeyedNode> out;
    for (std::uint64_t i = 0; i < n; ++i) {
        out.push_back({key_of(i), meta::MetaNode::leaf({1}, 100 + i, 8)});
    }
    return out;
}

TEST_F(MetaDhtFixture, PutManySurvivesOneDeadProvider) {
    auto dht = make_client(2);
    const auto nodes = batch_of(30);
    std::set<NodeId> owners;
    for (const auto& n : nodes) {
        owners.insert(ring_.owner(n.key.hash()));
    }
    ASSERT_EQ(owners.size(), kProviders) << "batch must span every owner";
    net_.kill(providers_[0]->node());
    EXPECT_NO_THROW(dht.put_many(nodes));
    EXPECT_EQ(dht.puts(), nodes.size());
    for (const auto& n : nodes) {
        EXPECT_EQ(dht.get(n.key).chunk_uid, n.node.chunk_uid);
    }
}

TEST_F(MetaDhtFixture, PutManyNamesFirstNodeWithoutACopy) {
    auto dht = make_client(2);
    const NodeId survivor = providers_[0]->node();
    net_.kill(providers_[1]->node());
    net_.kill(providers_[2]->node());
    // Nodes with a live owner first, then one whose owners are all dead.
    std::vector<meta::KeyedNode> nodes;
    std::optional<meta::MetaKey> orphan;
    for (const auto& n : batch_of(60)) {
        const auto o = ring_.owners(n.key.hash(), 2);
        const bool live = std::find(o.begin(), o.end(), survivor) != o.end();
        if (live && nodes.size() < 5) {
            nodes.push_back(n);
        } else if (!live && !orphan) {
            orphan = n.key;
        }
    }
    ASSERT_TRUE(orphan.has_value());
    ASSERT_EQ(nodes.size(), 5u);
    nodes.push_back({*orphan, meta::MetaNode::inner({}, {})});
    try {
        dht.put_many(nodes);
        FAIL() << "expected RpcError";
    } catch (const RpcError& e) {
        EXPECT_NE(std::string(e.what()).find(orphan->to_string()),
                  std::string::npos)
            << e.what();
    }
    // The nodes that had a live owner still landed there.
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
        EXPECT_NO_THROW((void)dht.get(nodes[i].key));
    }
}

TEST_F(MetaDhtFixture, PutManySendsOneMessagePerOwner) {
    for (const std::uint32_t replication : {1u, 2u}) {
        auto dht = make_client(replication);
        const auto nodes = batch_of(replication == 1 ? 4 : 30);
        std::set<NodeId> owners;
        for (const auto& n : nodes) {
            for (const NodeId o : ring_.owners(n.key.hash(), replication)) {
                owners.insert(o);
            }
        }
        const std::uint64_t before = net_.node(client_node_).msgs_out.get();
        dht.put_many(nodes);
        EXPECT_EQ(net_.node(client_node_).msgs_out.get() - before,
                  owners.size())
            << "replication " << replication;
        EXPECT_GT(nodes.size(), owners.size());
    }
}

}  // namespace
}  // namespace blobseer::dht
