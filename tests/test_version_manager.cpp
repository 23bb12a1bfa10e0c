/// \file test_version_manager.cpp
/// \brief Tests of version assignment, in-order publication, clone
///        aliasing, the abort/timeout policy, and the sharded layout
///        (shard-embedded blob ids, cross-shard clone_from, the
///        incremental stalled sweep, per-shard backlog accounting).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/metrics.hpp"
#include "version/version_manager.hpp"

namespace blobseer::version {
namespace {

class VmFixture : public ::testing::Test {
  protected:
    VmFixture() { info_ = vm_.create_blob(8, 2); }

    VersionManager vm_;
    BlobInfo info_;
};

TEST_F(VmFixture, CreateValidates) {
    EXPECT_THROW(vm_.create_blob(0, 1), InvalidArgument);
    EXPECT_THROW(vm_.create_blob(8, 0), InvalidArgument);
    const auto b2 = vm_.create_blob(16, 3);
    EXPECT_NE(b2.id, info_.id);
    EXPECT_EQ(vm_.blob_count(), 2u);
    EXPECT_EQ(vm_.blob_info(b2.id).chunk_size, 16u);
    EXPECT_THROW((void)vm_.blob_info(999), NotFoundError);
}

TEST_F(VmFixture, FreshBlobIsEmptyVersionZero) {
    const auto vi = vm_.get_version(info_.id, kLatestVersion);
    EXPECT_EQ(vi.version, 0u);
    EXPECT_EQ(vi.size, 0u);
    EXPECT_EQ(vi.status, VersionStatus::kPublished);
    EXPECT_FALSE(vi.tree.valid());
}

TEST_F(VmFixture, AssignSequence) {
    const auto a1 = vm_.assign(info_.id, 0, 16);
    EXPECT_EQ(a1.version, 1u);
    EXPECT_EQ(a1.size_before, 0u);
    EXPECT_EQ(a1.size_after, 16u);
    EXPECT_TRUE(a1.concurrent.empty());
    EXPECT_FALSE(a1.base.valid());

    const auto a2 = vm_.assign(info_.id, std::nullopt, 8);
    EXPECT_EQ(a2.version, 2u);
    EXPECT_EQ(a2.offset, 16u);  // append lands at the running end
    EXPECT_EQ(a2.size_before, 16u);
    // v1 has not published: it appears as a concurrent descriptor.
    ASSERT_EQ(a2.concurrent.size(), 1u);
    EXPECT_EQ(a2.concurrent[0].version, 1u);
}

TEST_F(VmFixture, PublicationIsInOrder) {
    (void)vm_.assign(info_.id, 0, 8);
    (void)vm_.assign(info_.id, 8, 8);
    (void)vm_.assign(info_.id, 16, 8);
    vm_.commit(info_.id, 3);
    vm_.commit(info_.id, 2);
    EXPECT_EQ(vm_.latest(info_.id), 0u);  // blocked on v1
    vm_.commit(info_.id, 1);
    EXPECT_EQ(vm_.latest(info_.id), 3u);  // all flush at once
}

TEST_F(VmFixture, ConcurrentListShrinksAfterPublication) {
    const auto a1 = vm_.assign(info_.id, 0, 8);
    vm_.commit(info_.id, a1.version);
    const auto a2 = vm_.assign(info_.id, 0, 8);
    EXPECT_TRUE(a2.concurrent.empty());
    EXPECT_TRUE(a2.base.valid());
    EXPECT_EQ(a2.base.version, 1u);
    EXPECT_EQ(a2.base.size, 8u);
}

TEST_F(VmFixture, AlignmentValidation) {
    EXPECT_THROW(vm_.assign(info_.id, 3, 8), InvalidArgument);
    EXPECT_THROW(vm_.assign(info_.id, 0, 0), InvalidArgument);
    const auto a1 = vm_.assign(info_.id, 0, 32);
    vm_.commit(info_.id, a1.version);
    EXPECT_THROW(vm_.assign(info_.id, 0, 5), InvalidArgument);
    EXPECT_NO_THROW(vm_.assign(info_.id, 32, 5));  // short tail at end
}

TEST_F(VmFixture, CommitValidation) {
    EXPECT_THROW(vm_.commit(info_.id, 1), InvalidArgument);  // unassigned
    const auto a = vm_.assign(info_.id, 0, 8);
    vm_.commit(info_.id, a.version);
    EXPECT_NO_THROW(vm_.commit(info_.id, a.version));  // idempotent
}

TEST_F(VmFixture, GetVersionStates) {
    const auto a = vm_.assign(info_.id, 0, 8);
    EXPECT_EQ(vm_.get_version(info_.id, 1).status, VersionStatus::kPending);
    vm_.commit(info_.id, a.version);
    EXPECT_EQ(vm_.get_version(info_.id, 1).status, VersionStatus::kPublished);
    EXPECT_THROW((void)vm_.get_version(info_.id, 2), NotFoundError);
}

TEST_F(VmFixture, WaitPublishedBlocksUntilCommit) {
    const auto a = vm_.assign(info_.id, 0, 8);
    std::thread committer([&] {
        std::this_thread::sleep_for(milliseconds(30));
        vm_.commit(info_.id, a.version);
    });
    const auto vi = vm_.wait_published(info_.id, 1, seconds(5));
    EXPECT_EQ(vi.status, VersionStatus::kPublished);
    committer.join();
}

TEST_F(VmFixture, WaitPublishedTimesOut) {
    (void)vm_.assign(info_.id, 0, 8);
    const TimePoint t0 = Clock::now();
    EXPECT_THROW((void)vm_.wait_published(info_.id, 1, milliseconds(30)),
                 TimeoutError);
    // The deadline is honored, not extended by spurious wakeups — and a
    // timeout never hangs (bounded well below the test timeout).
    EXPECT_LT(Clock::now() - t0, seconds(5));
}

TEST_F(VmFixture, WaitPublishedTimesOutOnUnassignedVersion) {
    // Waiting for a version nobody has assigned yet must expire at the
    // deadline instead of hanging (the predicate can never flip).
    EXPECT_THROW((void)vm_.wait_published(info_.id, 7, milliseconds(30)),
                 TimeoutError);
}

TEST_F(VmFixture, WaitPublishedTimeoutUnaffectedByOtherBlobsPublishing) {
    // Per-blob condition variables: a stream of publishes on blob B
    // neither wakes nor starves a waiter on blob A — A's wait still
    // expires at its own deadline.
    const auto other = vm_.create_blob(8, 1);
    (void)vm_.assign(info_.id, 0, 8);  // never committed
    std::atomic<bool> stop{false};
    std::thread publisher([&] {
        while (!stop.load()) {
            const auto a = vm_.assign(other.id, std::nullopt, 8);
            vm_.commit(other.id, a.version);
            std::this_thread::sleep_for(milliseconds(1));
        }
    });
    const TimePoint t0 = Clock::now();
    EXPECT_THROW((void)vm_.wait_published(info_.id, 1, milliseconds(50)),
                 TimeoutError);
    EXPECT_LT(Clock::now() - t0, seconds(5));
    stop.store(true);
    publisher.join();
}

TEST_F(VmFixture, AbortCascadesToTail) {
    (void)vm_.assign(info_.id, 0, 8);    // v1 (will die)
    (void)vm_.assign(info_.id, 8, 8);    // v2
    (void)vm_.assign(info_.id, 16, 8);   // v3
    vm_.commit(info_.id, 2);             // committed but blocked
    vm_.abort(info_.id, 1);
    // The whole tail dies: v2 wove references to v1's metadata.
    EXPECT_EQ(vm_.get_version(info_.id, 1).status, VersionStatus::kAborted);
    EXPECT_EQ(vm_.get_version(info_.id, 2).status, VersionStatus::kAborted);
    EXPECT_EQ(vm_.get_version(info_.id, 3).status, VersionStatus::kAborted);
    EXPECT_EQ(vm_.latest(info_.id), 0u);

    // Size rolled back: the next writer starts from scratch and version
    // numbers are not reused.
    const auto a4 = vm_.assign(info_.id, std::nullopt, 8);
    EXPECT_EQ(a4.version, 4u);
    EXPECT_EQ(a4.offset, 0u);
    EXPECT_TRUE(a4.concurrent.empty());  // aborted versions excluded
    vm_.commit(info_.id, 4);
    EXPECT_EQ(vm_.latest(info_.id), 4u);
    EXPECT_EQ(vm_.get_version(info_.id, 4).size, 8u);
}

TEST_F(VmFixture, AbortOnlyTail) {
    const auto a1 = vm_.assign(info_.id, 0, 8);
    vm_.commit(info_.id, a1.version);
    (void)vm_.assign(info_.id, 8, 8);  // v2 dies
    vm_.abort(info_.id, 2);
    EXPECT_EQ(vm_.latest(info_.id), 1u);  // v1 survives
    EXPECT_THROW(vm_.abort(info_.id, 1), InvalidArgument);  // published
}

TEST_F(VmFixture, CommitAfterAbortThrows) {
    (void)vm_.assign(info_.id, 0, 8);
    vm_.abort(info_.id, 1);
    EXPECT_THROW(vm_.commit(info_.id, 1), VersionAborted);
}

TEST_F(VmFixture, AbortStalledRespectsAge) {
    (void)vm_.assign(info_.id, 0, 8);
    // Fresh version: nothing to abort.
    EXPECT_EQ(vm_.abort_stalled(info_.id, seconds(10)), 0u);
    std::this_thread::sleep_for(milliseconds(20));
    EXPECT_EQ(vm_.abort_stalled(info_.id, milliseconds(1)), 1u);
    EXPECT_EQ(vm_.get_version(info_.id, 1).status, VersionStatus::kAborted);
}

TEST_F(VmFixture, AbortStalledSkipsCommittedPrefix) {
    const auto a1 = vm_.assign(info_.id, 0, 8);
    (void)vm_.assign(info_.id, 8, 8);
    vm_.commit(info_.id, a1.version);
    std::this_thread::sleep_for(milliseconds(20));
    // v1 published; v2 pending and stale -> only v2 goes.
    EXPECT_EQ(vm_.abort_stalled(info_.id, milliseconds(1)), 1u);
    EXPECT_EQ(vm_.latest(info_.id), 1u);
}

TEST_F(VmFixture, DescriptorLookup) {
    (void)vm_.assign(info_.id, 16, 8);
    const auto d = vm_.descriptor_of(info_.id, 1);
    EXPECT_EQ(d.offset, 16u);
    EXPECT_EQ(d.size, 8u);
    EXPECT_EQ(d.size_before, 0u);
    EXPECT_EQ(d.size_after, 24u);
    EXPECT_THROW((void)vm_.descriptor_of(info_.id, 2), NotFoundError);
}

// ---- clones ---------------------------------------------------------------

TEST_F(VmFixture, CloneAliasesPublishedVersion) {
    const auto a1 = vm_.assign(info_.id, 0, 24);
    vm_.commit(info_.id, a1.version);

    const auto c = vm_.clone_blob(info_.id, 1);
    EXPECT_NE(c.id, info_.id);
    EXPECT_EQ(c.chunk_size, info_.chunk_size);

    const auto v0 = vm_.get_version(c.id, 0);
    EXPECT_EQ(v0.size, 24u);
    EXPECT_TRUE(v0.tree.valid());
    EXPECT_EQ(v0.tree.blob, info_.id);
    EXPECT_EQ(v0.tree.version, 1u);

    // First write to the clone bases on the alias.
    const auto ca = vm_.assign(c.id, 0, 8);
    EXPECT_EQ(ca.size_before, 24u);
    EXPECT_EQ(ca.base.blob, info_.id);
}

TEST_F(VmFixture, CloneRejectsUnpublished) {
    (void)vm_.assign(info_.id, 0, 8);
    EXPECT_THROW((void)vm_.clone_blob(info_.id, 1), InvalidArgument);
}

TEST_F(VmFixture, CloneOfCloneChainsToOrigin) {
    const auto a1 = vm_.assign(info_.id, 0, 8);
    vm_.commit(info_.id, a1.version);
    const auto c1 = vm_.clone_blob(info_.id, 1);
    const auto c2 = vm_.clone_blob(c1.id, 0);  // clone of the alias itself
    const auto v0 = vm_.get_version(c2.id, 0);
    EXPECT_EQ(v0.tree.blob, info_.id);  // chained through, not nested
    EXPECT_EQ(v0.size, 8u);
}

TEST_F(VmFixture, CloneLatestResolves) {
    const auto a1 = vm_.assign(info_.id, 0, 8);
    vm_.commit(info_.id, a1.version);
    const auto c = vm_.clone_blob(info_.id, kLatestVersion);
    EXPECT_EQ(vm_.get_version(c.id, 0).size, 8u);
}

TEST_F(VmFixture, PinsNestAcrossIndependentPinners) {
    const auto a1 = vm_.assign(info_.id, 0, 8);
    vm_.commit(info_.id, a1.version);
    const auto a2 = vm_.assign(info_.id, 8, 8);
    vm_.commit(info_.id, a2.version);
    // Two independent pinners of v1 (e.g. two concurrent cross-shard
    // clones resolving the same snapshot).
    EXPECT_TRUE(vm_.pin(info_.id, 1));
    EXPECT_FALSE(vm_.pin(info_.id, 1));  // nested, not newly created
    // One pinner releases (a failed clone's compensation): v1 must stay
    // protected for the other.
    vm_.unpin(info_.id, 1);
    EXPECT_TRUE(vm_.retire(info_.id, 2).retired.empty());
    EXPECT_EQ(vm_.pinned(info_.id), (std::vector<Version>{1}));
    // The last pin released: now v1 retires.
    vm_.unpin(info_.id, 1);
    EXPECT_EQ(vm_.retire(info_.id, 2).retired, (std::vector<Version>{1}));
}

// ---- sharding -------------------------------------------------------------

TEST(VmSharding, ShardIndexRidesInBlobIds) {
    VersionManager vm3(3, 4);
    EXPECT_EQ(vm3.shard(), 3u);
    const auto b1 = vm3.create_blob(8, 1);
    const auto b2 = vm3.create_blob(8, 1);
    EXPECT_EQ(blob_shard(b1.id), 3u);
    EXPECT_EQ(blob_shard(b2.id), 3u);
    EXPECT_NE(b1.id, b2.id);
    EXPECT_EQ(make_blob_id(3, 1), b1.id);

    // Shard 0 mints the legacy unsharded id space: first blob is 1.
    VersionManager vm0;
    EXPECT_EQ(vm0.create_blob(8, 1).id, 1u);
    EXPECT_EQ(blob_shard(1), 0u);

    EXPECT_THROW(VersionManager(4, 4), InvalidArgument);
    EXPECT_THROW(VersionManager(0, 0), InvalidArgument);
}

TEST(VmSharding, CloneFromAliasesForeignSnapshot) {
    // Two shards of one deployment. The client-driven cross-shard clone
    // protocol: resolve + pin on the source shard, hand the TreeRef to
    // the destination shard's clone_from.
    VersionManager src_shard(0, 2);
    VersionManager dst_shard(1, 2);
    const auto a = src_shard.create_blob(8, 2);
    const auto w = src_shard.assign(a.id, 0, 24);
    src_shard.commit(a.id, w.version);

    const auto vi = src_shard.get_version(a.id, 1);
    src_shard.pin(a.id, 1);
    const auto c =
        dst_shard.clone_from(a.chunk_size, a.replication, vi.tree);
    EXPECT_EQ(blob_shard(c.id), 1u);
    EXPECT_EQ(c.chunk_size, a.chunk_size);

    const auto v0 = dst_shard.get_version(c.id, 0);
    EXPECT_EQ(v0.size, 24u);
    EXPECT_EQ(v0.tree.blob, a.id);
    EXPECT_EQ(v0.tree.version, 1u);

    // First write to the clone bases on the alias.
    const auto ca = dst_shard.assign(c.id, std::nullopt, 8);
    EXPECT_EQ(ca.offset, 24u);
    EXPECT_EQ(ca.size_before, 24u);
    EXPECT_EQ(ca.base.blob, a.id);

    // An invalid origin creates a fresh empty blob (clone of a blob
    // that never published anything).
    const auto empty = dst_shard.clone_from(8, 1, meta::TreeRef{});
    EXPECT_EQ(dst_shard.get_version(empty.id, 0).size, 0u);
    EXPECT_FALSE(dst_shard.get_version(empty.id, 0).tree.valid());
}

// ---- incremental stalled sweep --------------------------------------------

TEST(VmSweep, SweepWalksTheShardInBoundedBatches) {
    VersionManager vm;
    std::vector<BlobId> blobs;
    for (int i = 0; i < 10; ++i) {
        blobs.push_back(vm.create_blob(8, 1).id);
    }
    // Odd blobs get a pending version that will stall; even blobs stay
    // clean (nothing assigned).
    for (int i = 1; i < 10; i += 2) {
        (void)vm.assign(blobs[i], 0, 8);
    }
    std::this_thread::sleep_for(milliseconds(20));

    // Batches of 3 cover all 10 blobs within 4 calls (rotating cursor).
    std::size_t aborted = 0;
    for (int call = 0; call < 4; ++call) {
        aborted += vm.sweep_stalled(milliseconds(1), 3);
    }
    EXPECT_EQ(aborted, 5u);
    for (int i = 1; i < 10; i += 2) {
        EXPECT_EQ(vm.get_version(blobs[i], 1).status,
                  VersionStatus::kAborted);
    }

    // Fresh pending versions survive a sweep with a long max_age.
    (void)vm.assign(blobs[0], 0, 8);
    EXPECT_EQ(vm.sweep_stalled(seconds(10), 100), 0u);
    EXPECT_EQ(vm.get_version(blobs[0], 1).status, VersionStatus::kPending);
}

TEST(VmSweep, SweepWakesBlockedWaiters) {
    VersionManager vm;
    const auto b = vm.create_blob(8, 1);
    (void)vm.assign(b.id, 0, 8);
    std::thread sweeper([&] {
        std::this_thread::sleep_for(milliseconds(30));
        (void)vm.sweep_stalled(milliseconds(1), 8);
    });
    // The waiter is woken by the sweep's abort, well before its own
    // deadline, and sees the aborted status.
    const auto vi = vm.wait_published(b.id, 1, seconds(30));
    EXPECT_EQ(vi.status, VersionStatus::kAborted);
    sweeper.join();
}

// ---- per-shard status & backlog -------------------------------------------

TEST(VmStatus, BacklogGaugeTracksUnpublishedVersions) {
    VersionManager vm;
    const auto b = vm.create_blob(8, 1);
    EXPECT_EQ(vm.publish_backlog().get(), 0u);
    const auto a1 = vm.assign(b.id, 0, 8);
    const auto a2 = vm.assign(b.id, 8, 8);
    EXPECT_EQ(vm.publish_backlog().get(), 2u);
    vm.commit(b.id, a2.version);  // blocked behind v1: still unpublished
    EXPECT_EQ(vm.publish_backlog().get(), 2u);
    vm.commit(b.id, a1.version);  // both flush
    EXPECT_EQ(vm.publish_backlog().get(), 0u);
    EXPECT_EQ(vm.publish_backlog().high_water(), 2u);

    // The shard's series, as vm-status renders them.
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    const std::pair<std::string, std::string> shard{"shard", "0"};
    EXPECT_EQ(sum_series(snap, "vm_blobs", shard), 1u);
    EXPECT_EQ(sum_series(snap, "vm_assigns_total", shard), 2u);
    EXPECT_EQ(sum_series(snap, "vm_commits_total", shard), 2u);
    EXPECT_EQ(sum_series(snap, "vm_aborts_total", shard), 0u);
    EXPECT_EQ(sum_series(snap, "vm_publishes_total", shard), 2u);
    EXPECT_EQ(sum_series(snap, "vm_publish_backlog", shard), 0u);
    EXPECT_EQ(sum_series(snap, "vm_publish_backlog", shard,
                         &MetricSample::high_water),
              2u);
}

TEST(VmStatus, AbortedTailDrainsTheBacklog) {
    VersionManager vm;
    const auto b = vm.create_blob(8, 1);
    (void)vm.assign(b.id, 0, 8);
    (void)vm.assign(b.id, 8, 8);
    EXPECT_EQ(vm.publish_backlog().get(), 2u);
    vm.abort(b.id, 1);  // cascades to v2, cursor skips both
    EXPECT_EQ(vm.publish_backlog().get(), 0u);
    EXPECT_EQ(vm.aborts(), 2u);
    EXPECT_EQ(vm.publishes(), 0u);
}

}  // namespace
}  // namespace blobseer::version
