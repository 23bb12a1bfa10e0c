/// \file test_ring.cpp
/// \brief Tests of the consistent-hash ring and the metadata provider
///        service (capacity gate + crash behaviour).

#include <gtest/gtest.h>

#include <map>

#include "common/clock.hpp"
#include "common/hash.hpp"
#include "dht/metadata_provider.hpp"
#include "dht/ring.hpp"

namespace blobseer::dht {
namespace {

TEST(Ring, SingleNodeOwnsEverything) {
    Ring ring;
    ring.add_node(5);
    for (std::uint64_t h = 0; h < 1000; h += 13) {
        EXPECT_EQ(ring.owner(mix64(h)), 5u);
    }
}

TEST(Ring, EmptyRingThrows) {
    const Ring ring;
    EXPECT_THROW((void)ring.owner(1), ConsistencyError);
}

TEST(Ring, OwnersAreDistinct) {
    Ring ring;
    for (NodeId n = 0; n < 5; ++n) {
        ring.add_node(n);
    }
    const auto owners = ring.owners(mix64(123), 3);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_NE(owners[0], owners[1]);
    EXPECT_NE(owners[1], owners[2]);
    EXPECT_NE(owners[0], owners[2]);
}

TEST(Ring, ReplicationClampedToNodeCount) {
    Ring ring;
    ring.add_node(1);
    ring.add_node(2);
    EXPECT_EQ(ring.owners(42, 5).size(), 2u);
}

TEST(Ring, LookupIsDeterministic) {
    Ring a;
    Ring b;
    for (NodeId n = 0; n < 4; ++n) {
        a.add_node(n);
        b.add_node(n);
    }
    for (std::uint64_t h = 0; h < 500; ++h) {
        EXPECT_EQ(a.owner(mix64(h)), b.owner(mix64(h)));
    }
}

TEST(Ring, LoadRoughlyBalanced) {
    Ring ring;
    const std::size_t nodes = 8;
    for (NodeId n = 0; n < nodes; ++n) {
        ring.add_node(n);
    }
    std::map<NodeId, int> counts;
    const int keys = 20000;
    for (int i = 0; i < keys; ++i) {
        ++counts[ring.owner(mix64(i))];
    }
    const int expected = keys / nodes;
    for (const auto& [node, count] : counts) {
        EXPECT_GT(count, expected / 2) << "node " << node;
        EXPECT_LT(count, expected * 2) << "node " << node;
    }
}

TEST(Ring, MoreNodesRebalanceOnlyPartially) {
    // Consistent hashing: adding one node moves ~1/(n+1) of the keys.
    Ring small;
    for (NodeId n = 0; n < 8; ++n) {
        small.add_node(n);
    }
    Ring large;
    for (NodeId n = 0; n < 9; ++n) {
        large.add_node(n);
    }
    int moved = 0;
    const int keys = 10000;
    for (int i = 0; i < keys; ++i) {
        if (small.owner(mix64(i)) != large.owner(mix64(i))) {
            ++moved;
        }
    }
    EXPECT_LT(moved, keys / 4);  // far fewer than a full reshuffle
    EXPECT_GT(moved, keys / 30);
}

// ---- MetadataProvider -----------------------------------------------------

meta::MetaKey key_of(std::uint64_t i) {
    return meta::MetaKey{1, 1, {i, 1}};
}

void put_one(MetadataProvider& mp, const meta::MetaKey& key,
             const meta::MetaNode& node) {
    const meta::KeyedNode one{key, node};
    mp.put_many({&one, 1});
}

TEST(MetadataProvider, PutGetErase) {
    MetadataProvider mp(0, 0);
    put_one(mp, key_of(1), meta::MetaNode::leaf({NodeId{3}}, 77, 8));
    const auto node = mp.try_get(key_of(1));
    ASSERT_TRUE(node.has_value());
    EXPECT_TRUE(node->is_leaf());
    EXPECT_EQ(node->chunk_uid, 77u);
    EXPECT_EQ(mp.stored_nodes(), 1u);
    mp.erase(key_of(1));
    EXPECT_FALSE(mp.try_get(key_of(1)).has_value());
}

TEST(MetadataProvider, CrashLosesState) {
    MetadataProvider mp(0, 0);
    for (std::uint64_t i = 0; i < 16; ++i) {
        put_one(mp, key_of(i), meta::MetaNode::inner({}, {}));
    }
    mp.lose_state();
    EXPECT_EQ(mp.stored_nodes(), 0u);
}

TEST(MetadataProvider, ServiceCapacityThrottles) {
    // 1000 ops/s: 20 ops should take >= ~18 ms.
    MetadataProvider mp(0, 1000);
    const Stopwatch sw;
    for (std::uint64_t i = 0; i < 20; ++i) {
        put_one(mp, key_of(i), meta::MetaNode::inner({}, {}));
    }
    EXPECT_GE(sw.elapsed_us(), 15000u);
}

TEST(MetadataProvider, BatchChargesCapacityPerNode) {
    // A batch of 20 occupies the server as long as 20 single puts.
    MetadataProvider mp(0, 1000);
    std::vector<meta::KeyedNode> batch;
    for (std::uint64_t i = 0; i < 20; ++i) {
        batch.push_back({key_of(i), meta::MetaNode::inner({}, {})});
    }
    const Stopwatch sw;
    mp.put_many(batch);
    EXPECT_GE(sw.elapsed_us(), 15000u);
    EXPECT_EQ(mp.stored_nodes(), 20u);
    EXPECT_EQ(mp.stats().ops.get(), 20u);
}

TEST(MetadataProvider, StatsCount) {
    MetadataProvider mp(0, 0);
    put_one(mp, key_of(1), meta::MetaNode::inner({}, {}));
    EXPECT_TRUE(mp.try_get(key_of(1)).has_value());
    EXPECT_FALSE(mp.try_get(key_of(2)).has_value());
    EXPECT_EQ(mp.stats().ops.get(), 3u);
    // A miss is an answer, not a failure.
    EXPECT_EQ(mp.stats().errors.get(), 0u);
}

}  // namespace
}  // namespace blobseer::dht
