/// \file test_tree.cpp
/// \brief Deterministic tests of segment-tree construction and reading:
///        borrowing, bridges, holes, short tails, weaving between
///        concurrent writers and cross-blob (clone) borrowing.
///
/// These tests drive the real VersionManager for version bookkeeping but
/// talk to a plain InMemoryMetaStore behind a recording wrapper, so every
/// metadata fetch, node creation and store batch is exactly countable.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "meta/meta_store.hpp"
#include "meta/tree_builder.hpp"
#include "meta/tree_reader.hpp"
#include "testing_util.hpp"
#include "version/version_manager.hpp"

namespace blobseer {
namespace {

using meta::BuildInput;
using meta::BuildResult;
using meta::MetaNode;
using meta::SlotRange;
using version::VersionManager;

constexpr std::uint64_t kChunk = 8;

/// In-memory store that logs every put_many batch and every fetch of a
/// key not stored yet.
class RecordingStore final : public meta::MetaStore {
  public:
    void put_many(std::span<const meta::KeyedNode> nodes) override {
        batches.emplace_back(nodes.begin(), nodes.end());
        inner_.put_many(nodes);
    }

    [[nodiscard]] MetaNode get(const meta::MetaKey& key) override {
        if (!inner_.try_get(key)) {
            fetched_unstored.push_back(key);
        }
        return inner_.get(key);
    }

    [[nodiscard]] std::optional<MetaNode> try_get(
        const meta::MetaKey& key) override {
        return inner_.try_get(key);
    }

    void erase(const meta::MetaKey& key) override { inner_.erase(key); }

    std::vector<std::vector<meta::KeyedNode>> batches;
    std::vector<meta::MetaKey> fetched_unstored;

  private:
    meta::InMemoryMetaStore inner_;
};

/// Test harness: a blob driven through the real version manager with
/// metadata in a local store. Leaf uids encode (version, slot) so reads
/// can be checked without storing chunk data.
class TreeFixture : public ::testing::Test {
  protected:
    TreeFixture() {
        info_ = vm_.create_blob(kChunk, 1);
    }

    static std::uint64_t uid_for(Version v, std::uint64_t first_slot,
                                 std::uint64_t i) {
        return v * 1'000'000 + (first_slot + i);
    }

    /// Assign + build + commit a write in one step (sequential caller).
    BuildResult apply(std::optional<std::uint64_t> offset, std::uint64_t size,
                      BlobId blob = kInvalidBlob) {
        if (blob == kInvalidBlob) {
            blob = info_.id;
        }
        auto ar = vm_.assign(blob, offset, size);
        const BuildResult r = build(blob, ar, size);
        vm_.commit(blob, ar.version);
        return r;
    }

    /// Build the tree for an already-assigned write (for weaving tests
    /// that control build/commit order explicitly).
    BuildResult build(BlobId blob, const version::AssignResult& ar,
                      std::uint64_t size) {
        const meta::TreeGeometry geo(kChunk);
        BuildInput in;
        in.blob = blob;
        in.chunk_size = kChunk;
        in.version = ar.version;
        in.write_range = {ar.offset, size};
        in.size_before = ar.size_before;
        in.size_after = ar.size_after;
        in.base = ar.base;
        in.concurrent = testing::concurrent_of(vm_, blob, ar);
        const auto slots = geo.slots_of(in.write_range);
        for (std::uint64_t i = 0; i < slots.count; ++i) {
            const std::uint64_t slot_begin = (slots.first + i) * kChunk;
            const std::uint64_t slot_end = slot_begin + kChunk;
            const std::uint64_t covered =
                std::min(slot_end, ar.offset + size) - slot_begin;
            in.leaves.push_back(MetaNode::leaf(
                {NodeId{7}}, uid_for(ar.version, slots.first, i),
                static_cast<std::uint32_t>(covered)));
        }
        const std::size_t batches_before = store_.batches.size();
        const BuildResult r = build_version_tree(store_, in);
        // The whole tree goes out in one put_many of distinct keys, and
        // the descent never fetched a key before it was stored.
        EXPECT_EQ(store_.batches.size(), batches_before + 1);
        const auto& batch = store_.batches.back();
        EXPECT_EQ(batch.size(), r.nodes_created);
        std::unordered_set<meta::MetaKey, meta::MetaKeyHash> keys;
        for (const auto& n : batch) {
            EXPECT_EQ(n.key.version, ar.version);
            keys.insert(n.key);
        }
        EXPECT_EQ(keys.size(), batch.size());
        EXPECT_TRUE(store_.fetched_unstored.empty());
        return r;
    }

    /// Map each byte of a read plan to the uid serving it (0 = hole).
    std::map<std::uint64_t, std::uint64_t> plan_bytes(Version v,
                                                      ByteRange range,
                                                      BlobId blob =
                                                          kInvalidBlob) {
        if (blob == kInvalidBlob) {
            blob = info_.id;
        }
        const auto vi = vm_.get_version(blob, v);
        const auto plan = meta::plan_read(store_, vi.tree.blob,
                                          vi.tree.version, kChunk, vi.size,
                                          range);
        std::map<std::uint64_t, std::uint64_t> bytes;
        std::uint64_t expect = range.offset;
        for (const auto& seg : plan.segments) {
            EXPECT_EQ(seg.blob_range.offset, expect) << "gap in plan";
            expect = seg.blob_range.end();
            for (std::uint64_t b = seg.blob_range.offset;
                 b < seg.blob_range.end(); ++b) {
                bytes[b] = seg.hole ? 0 : seg.chunk.uid;
            }
        }
        EXPECT_EQ(expect, range.end()) << "plan does not cover request";
        return bytes;
    }

    void expect_tree_valid(Version v, BlobId blob = kInvalidBlob) {
        if (blob == kInvalidBlob) {
            blob = info_.id;
        }
        const auto vi = vm_.get_version(blob, v);
        EXPECT_NO_THROW((void)meta::validate_tree(store_, vi.tree.blob,
                                            vi.tree.version, kChunk,
                                            vi.size));
    }

    VersionManager vm_;
    version::BlobInfo info_;
    RecordingStore store_;
};

TEST_F(TreeFixture, SingleFullWrite) {
    // 4 slots: root + 2 inner + 4 leaves = 7 nodes, no borrow reads.
    const auto r = apply(0, 32);
    EXPECT_EQ(r.nodes_created, 7u);
    EXPECT_EQ(r.store_reads, 0u);

    const auto bytes = plan_bytes(1, {0, 32});
    for (std::uint64_t b = 0; b < 32; ++b) {
        EXPECT_EQ(bytes.at(b), uid_for(1, 0, b / kChunk));
    }
    expect_tree_valid(1);
}

TEST_F(TreeFixture, SecondWriteBorrowsUntouchedSubtrees) {
    apply(0, 32);
    // Overwrite slot 2 only: creates root, inner {2,2}, leaf {2,1};
    // borrow-descends v1's root and {2,2} (2 metadata reads).
    const auto r = apply(16, 8);
    EXPECT_EQ(r.nodes_created, 3u);
    EXPECT_EQ(r.store_reads, 2u);

    const auto bytes = plan_bytes(2, {0, 32});
    EXPECT_EQ(bytes.at(0), uid_for(1, 0, 0));
    EXPECT_EQ(bytes.at(8), uid_for(1, 0, 1));
    EXPECT_EQ(bytes.at(16), uid_for(2, 2, 0));   // new data
    EXPECT_EQ(bytes.at(24), uid_for(1, 0, 3));
    // Version 1 is untouched (snapshot isolation).
    EXPECT_EQ(plan_bytes(1, {16, 8}).at(16), uid_for(1, 0, 2));
    expect_tree_valid(1);
    expect_tree_valid(2);
}

TEST_F(TreeFixture, FullOverwriteNeedsNoBorrowReads) {
    apply(0, 32);
    const auto r = apply(0, 32);
    EXPECT_EQ(r.nodes_created, 7u);
    EXPECT_EQ(r.store_reads, 0u);  // subtree fully covered: no old metadata
}

TEST_F(TreeFixture, AppendDoublesTree) {
    apply(0, 32);             // 4 slots
    const auto r = apply(std::nullopt, 32);  // slots [4,8): tree -> 8 slots
    // Creates: root {0,8}, {4,4}, {4,2}, {6,2}, 4 leaves = 8 nodes.
    EXPECT_EQ(r.nodes_created, 8u);
    // Old root borrowed as-is, zero reads (left half untouched, right
    // half fully covered).
    EXPECT_EQ(r.store_reads, 0u);

    const auto bytes = plan_bytes(2, {0, 64});
    EXPECT_EQ(bytes.at(0), uid_for(1, 0, 0));
    EXPECT_EQ(bytes.at(31), uid_for(1, 0, 3));
    EXPECT_EQ(bytes.at(32), uid_for(2, 4, 0));
    EXPECT_EQ(bytes.at(63), uid_for(2, 4, 3));
    expect_tree_valid(2);
}

TEST_F(TreeFixture, SparseWriteCreatesBridgeAndHoles) {
    apply(0, 32);      // slots [0,4)
    apply(64, 32);     // slots [8,12); tree grows to 16 slots, gap [4,8)
    const auto vi = vm_.get_version(info_.id, 2);
    EXPECT_EQ(vi.size, 96u);

    const auto bytes = plan_bytes(2, {0, 96});
    EXPECT_EQ(bytes.at(0), uid_for(1, 0, 0));
    EXPECT_EQ(bytes.at(24), uid_for(1, 0, 3));
    for (std::uint64_t b = 32; b < 64; ++b) {
        EXPECT_EQ(bytes.at(b), 0u) << "hole expected at " << b;
    }
    EXPECT_EQ(bytes.at(64), uid_for(2, 8, 0));
    EXPECT_EQ(bytes.at(88), uid_for(2, 8, 3));
    expect_tree_valid(2);
}

TEST_F(TreeFixture, FirstWritePastSlotZero) {
    // Fresh blob, first write at slot 5: prefix chain bottoms out in a
    // hole leaf at slot 0.
    apply(40, 8);
    const auto bytes = plan_bytes(1, {0, 48});
    for (std::uint64_t b = 0; b < 40; ++b) {
        EXPECT_EQ(bytes.at(b), 0u);
    }
    EXPECT_EQ(bytes.at(40), uid_for(1, 5, 0));
    expect_tree_valid(1);
}

TEST_F(TreeFixture, ShortTailChunk) {
    apply(0, 13);  // slot 0 full would be 8; slots: [0,2), tail 5 bytes
    const auto vi = vm_.get_version(info_.id, 1);
    EXPECT_EQ(vi.size, 13u);
    const auto plan = meta::plan_read(store_, info_.id, 1, kChunk, 13,
                                      {8, 5});
    ASSERT_EQ(plan.segments.size(), 1u);
    EXPECT_EQ(plan.segments[0].chunk_bytes, 5u);
    EXPECT_EQ(plan.segments[0].chunk_offset, 0u);
}

TEST_F(TreeFixture, GapBehindShortChunkReadsAsHole) {
    apply(0, 13);   // short tail: slot 1 holds 5 bytes
    apply(16, 8);   // extend past it without rewriting slot 1
    // Bytes [13,16) are a gap inside slot 1 and must read as zeros.
    const auto bytes = plan_bytes(2, {8, 16});
    EXPECT_EQ(bytes.at(8), uid_for(1, 0, 1));
    EXPECT_EQ(bytes.at(12), uid_for(1, 0, 1));
    EXPECT_EQ(bytes.at(13), 0u);
    EXPECT_EQ(bytes.at(15), 0u);
    EXPECT_EQ(bytes.at(16), uid_for(2, 2, 0));
}

TEST_F(TreeFixture, ReadBeyondSnapshotRejected) {
    apply(0, 32);
    EXPECT_THROW(plan_bytes(1, {24, 16}), InvalidArgument);
}

TEST_F(TreeFixture, WeavingTwoConcurrentWriters) {
    apply(0, 64);  // v1: 8 slots
    // Two concurrent writers assigned before either builds:
    auto a2 = vm_.assign(info_.id, 16, 16);  // v2: slots [2,4)
    auto a3 = vm_.assign(info_.id, 24, 16);  // v3: slots [3,5)
    const auto woven = testing::concurrent_of(vm_, info_.id, a3);
    ASSERT_EQ(woven.size(), 1u);
    EXPECT_EQ(woven[0].version, 2u);

    // v3 builds FIRST, weaving references to v2's future nodes.
    build(info_.id, a3, 16);
    // v3's tree references (v2, {2,1}) which does not exist yet.
    EXPECT_THROW((void)meta::validate_tree(store_, info_.id, 3, kChunk,
                                     a3.size_after),
                 ConsistencyError);

    build(info_.id, a2, 16);
    vm_.commit(info_.id, 3);  // out-of-order commit: stays unpublished
    EXPECT_EQ(vm_.latest(info_.id), 1u);
    vm_.commit(info_.id, 2);
    EXPECT_EQ(vm_.latest(info_.id), 3u);  // both publish in order

    // v3's snapshot: slot 2 from v2 (v3 did not write it), slots 3-4
    // from v3, rest from v1.
    const auto bytes = plan_bytes(3, {0, 64});
    EXPECT_EQ(bytes.at(0), uid_for(1, 0, 0));
    EXPECT_EQ(bytes.at(16), uid_for(2, 2, 0));
    EXPECT_EQ(bytes.at(24), uid_for(3, 3, 0));
    EXPECT_EQ(bytes.at(32), uid_for(3, 3, 1));
    EXPECT_EQ(bytes.at(40), uid_for(1, 0, 5));
    // v2's snapshot must NOT contain v3's data.
    const auto bytes2 = plan_bytes(2, {0, 64});
    EXPECT_EQ(bytes2.at(16), uid_for(2, 2, 0));
    EXPECT_EQ(bytes2.at(24), uid_for(2, 2, 1));
    EXPECT_EQ(bytes2.at(32), uid_for(1, 0, 4));
    expect_tree_valid(2);
    expect_tree_valid(3);
}

TEST_F(TreeFixture, WeavingConcurrentAppendsGrowTree) {
    apply(0, 32);  // v1: 4 slots
    auto a2 = vm_.assign(info_.id, std::nullopt, 32);  // v2: slots [4,8)
    auto a3 = vm_.assign(info_.id, std::nullopt, 64);  // v3: slots [8,16)
    EXPECT_EQ(a2.offset, 32u);
    EXPECT_EQ(a3.offset, 64u);
    EXPECT_EQ(a3.size_after, 128u);

    // Build in reverse order; v3's tree (16 slots) weaves v2's future
    // 8-slot subtree and v1's 4-slot root.
    build(info_.id, a3, 64);
    build(info_.id, a2, 32);
    vm_.commit(info_.id, 2);
    vm_.commit(info_.id, 3);

    const auto bytes = plan_bytes(3, {0, 128});
    EXPECT_EQ(bytes.at(0), uid_for(1, 0, 0));
    EXPECT_EQ(bytes.at(32), uid_for(2, 4, 0));
    EXPECT_EQ(bytes.at(56), uid_for(2, 4, 3));
    EXPECT_EQ(bytes.at(64), uid_for(3, 8, 0));
    EXPECT_EQ(bytes.at(127), uid_for(3, 8, 7));
    expect_tree_valid(2);
    expect_tree_valid(3);
}

TEST_F(TreeFixture, WeavingThreeWritersSameSlot) {
    apply(0, 32);
    // All three rewrite slot 1; the newest assigned version wins in the
    // final lineage, each snapshot keeps its own view.
    auto a2 = vm_.assign(info_.id, 8, 8);
    auto a3 = vm_.assign(info_.id, 8, 8);
    auto a4 = vm_.assign(info_.id, 8, 8);
    build(info_.id, a4, 8);
    build(info_.id, a2, 8);
    build(info_.id, a3, 8);
    vm_.commit(info_.id, 4);
    vm_.commit(info_.id, 3);
    vm_.commit(info_.id, 2);
    EXPECT_EQ(vm_.latest(info_.id), 4u);

    EXPECT_EQ(plan_bytes(2, {8, 8}).at(8), uid_for(2, 1, 0));
    EXPECT_EQ(plan_bytes(3, {8, 8}).at(8), uid_for(3, 1, 0));
    EXPECT_EQ(plan_bytes(4, {8, 8}).at(8), uid_for(4, 1, 0));
}

TEST_F(TreeFixture, CloneSharesTreeAndDiverges) {
    apply(0, 32);
    apply(16, 16);  // v2
    const auto clone_info = vm_.clone_blob(info_.id, 2);
    const BlobId cb = clone_info.id;

    // Clone's version 0 reads the origin's tree.
    const auto v0 = vm_.get_version(cb, 0);
    EXPECT_EQ(v0.size, 32u);
    EXPECT_EQ(v0.tree.blob, info_.id);
    EXPECT_EQ(plan_bytes(0, {16, 8}, cb).at(16), uid_for(2, 2, 0));

    // Writing the clone creates nodes under the clone's id, borrowing
    // from the origin's tree across the blob boundary.
    apply(0, 8, cb);  // clone v1 rewrites slot 0
    const auto bytes = plan_bytes(1, {0, 32}, cb);
    EXPECT_EQ(bytes.at(0), uid_for(1, 0, 0));    // clone's own write
    EXPECT_EQ(bytes.at(8), uid_for(1, 0, 1));    // origin v1 data
    EXPECT_EQ(bytes.at(16), uid_for(2, 2, 0));   // origin v2 via borrow
    EXPECT_EQ(bytes.at(24), uid_for(2, 2, 1));   // origin v2, second slot
    expect_tree_valid(1, cb);

    // The origin is unaffected.
    EXPECT_EQ(plan_bytes(2, {0, 8}).at(0), uid_for(1, 0, 0));
    EXPECT_EQ(vm_.latest(info_.id), 2u);
}

TEST_F(TreeFixture, OldVersionPlansAreImmutable) {
    apply(0, 32);
    const auto before = plan_bytes(1, {0, 32});
    for (int i = 0; i < 10; ++i) {
        apply(8, 8);
    }
    EXPECT_EQ(plan_bytes(1, {0, 32}), before);
}

TEST_F(TreeFixture, MetadataReadsLogarithmicInBlobSize) {
    // 1024-slot blob written fully, then a single-chunk overwrite.
    apply(0, 1024 * kChunk);
    const auto r = apply(512 * kChunk, kChunk);
    EXPECT_EQ(r.nodes_created, 11u);  // path of log2(1024)+1 nodes
    EXPECT_EQ(r.store_reads, 10u);    // borrow descent along the path
}

TEST_F(TreeFixture, EachVersionStoredInOneBatch) {
    apply(0, 1024 * kChunk);
    ASSERT_EQ(store_.batches.size(), 1u);
    EXPECT_EQ(store_.batches[0].size(), 2047u);  // full 1024-leaf tree
    const auto r = apply(512 * kChunk, kChunk);
    ASSERT_EQ(store_.batches.size(), 2u);
    EXPECT_EQ(store_.batches[1].size(), r.nodes_created);
}

TEST_F(TreeFixture, BuilderRejectsBadInput) {
    EXPECT_THROW(apply(3, 8), InvalidArgument);       // unaligned offset
    EXPECT_THROW(apply(0, 0), InvalidArgument);       // empty write
    apply(0, 32);
    EXPECT_THROW(apply(0, 5), InvalidArgument);       // interior short write
    EXPECT_NO_THROW(apply(32, 5));                    // short tail at end OK
}

}  // namespace
}  // namespace blobseer
