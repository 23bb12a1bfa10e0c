/// \file test_version_manager.cpp
/// \brief Tests of version assignment, in-order publication, clone
///        aliasing, the abort/timeout policy, and the sharded layout
///        (shard-embedded blob ids, the incremental stalled sweep,
///        per-shard backlog accounting).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

#include "common/metrics.hpp"
#include "engine/log_engine.hpp"
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
    EXPECT_FALSE(a1.base.valid());

    const auto a2 = vm_.assign(info_.id, std::nullopt, 8);
    EXPECT_EQ(a2.version, 2u);
    EXPECT_EQ(a2.offset, 16u);  // append lands at the running end
    EXPECT_EQ(a2.size_before, 16u);
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

TEST_F(VmFixture, BaseIsTheLatestPublishedVersion) {
    const auto a1 = vm_.assign(info_.id, 0, 8);
    vm_.commit(info_.id, a1.version);
    const auto a2 = vm_.assign(info_.id, 0, 8);
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
    // Two independent pinners of v1.
    EXPECT_TRUE(vm_.pin(info_.id, 1));
    EXPECT_FALSE(vm_.pin(info_.id, 1));  // nested, not newly created
    // One pinner releases: v1 must stay protected for the other.
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
    // A clone lives on its source's shard.
    vm3.commit(b1.id, vm3.assign(b1.id, 0, 8).version);
    EXPECT_EQ(blob_shard(vm3.clone_blob(b1.id, 1).id), 3u);

    // Shard 0 mints the legacy unsharded id space: first blob is 1.
    VersionManager vm0;
    EXPECT_EQ(vm0.create_blob(8, 1).id, 1u);
    EXPECT_EQ(blob_shard(1), 0u);

    EXPECT_THROW(VersionManager(4, 4), InvalidArgument);
    EXPECT_THROW(VersionManager(0, 0), InvalidArgument);
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

// ---- border refs (the creator index) -----------------------------------------

meta::BorderRef border(BlobId blob, std::uint64_t first, std::uint64_t count,
                       Version v) {
    return {{first, count}, {blob, v}};
}

meta::BorderRef hole(std::uint64_t first, std::uint64_t count) {
    return {{first, count}, {}};
}

TEST(VmBorders, AssignNamesEachBorderAndAbortRebuildsTheIndex) {
    VersionManager vm;
    const BlobId b = vm.create_blob(8, 1).id;
    // v1 fills slots 0-3: it creates its whole tree, so it has no border.
    EXPECT_TRUE(vm.assign(b, 0, 32).borders.empty());
    // v2 appends slot 4 (tree [0,8)): [0,4) is v1's; [5,6) and [6,8)
    // were never written. Depth-first order.
    const auto a2 = vm.assign(b, std::nullopt, 8);
    EXPECT_EQ(a2.borders, (std::vector<meta::BorderRef>{
                              border(b, 0, 4, 1), hole(5, 1), hole(6, 2)}));
    // v3 rewrites slot 0 while v2 is pending: [4,8) comes from v2.
    const auto a3 = vm.assign(b, 0, 8);
    EXPECT_EQ(a3.borders,
              (std::vector<meta::BorderRef>{border(b, 1, 1, 1),
                                            border(b, 2, 2, 1),
                                            border(b, 4, 4, 2)}));
    // Aborting v2 takes v3 too; the index forgets both, so a rewrite of
    // slot 0 sees v1's four-slot tree again.
    vm.abort(b, 2);
    const auto a4 = vm.assign(b, 0, 8);
    EXPECT_EQ(a4.size_before, 32u);
    EXPECT_EQ(a4.borders, (std::vector<meta::BorderRef>{
                              border(b, 1, 1, 1), border(b, 2, 2, 1)}));
    EXPECT_EQ(vm.borders_served(), 3u + 3u + 2u);
    EXPECT_EQ(vm.borders_missing(), 0u);
}

TEST(VmBorders, CloneOriginBordersAreLeftToDescent) {
    VersionManager vm;
    const BlobId src = vm.create_blob(8, 1).id;
    vm.commit(src, vm.assign(src, 0, 32).version);
    const BlobId clone = vm.clone_blob(src, 1).id;
    // The clone's first write: [1,2) and [2,4) lie in src's tree.
    const auto c1 = vm.assign(clone, 0, 8);
    EXPECT_TRUE(c1.borders.empty());
    EXPECT_EQ(vm.borders_missing(), 2u);
    // Once the clone wrote slot 0, a concurrent rewrite of slot 1 gets
    // [0,1) from the clone's own v1; [2,4) is still the origin's.
    const auto c2 = vm.assign(clone, 8, 8);
    EXPECT_EQ(c2.borders,
              (std::vector<meta::BorderRef>{border(clone, 0, 1, 1)}));
    EXPECT_EQ(vm.borders_missing(), 3u);

    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    const std::pair<std::string, std::string> served{"outcome", "served"};
    const std::pair<std::string, std::string> missing{"outcome", "missing"};
    EXPECT_EQ(sum_series(snap, "vm_border_refs_total", served), 1u);
    EXPECT_EQ(sum_series(snap, "vm_border_refs_total", missing), 3u);
}

TEST(VmBorders, JournalReplayRebuildsTheIndex) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("blobseer-vm-borders-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    engine::EngineConfig jc;
    jc.dir = dir;
    jc.background_compaction = false;
    BlobId b = kInvalidBlob;
    std::vector<meta::BorderRef> before;
    {
        VersionManager vm;
        vm.attach_journal(std::make_shared<engine::LogEngine>(jc));
        b = vm.create_blob(8, 1).id;
        vm.commit(b, vm.assign(b, 0, 32).version);
        (void)vm.assign(b, std::nullopt, 8);   // v2 pending
        vm.abort(b, vm.assign(b, 48, 8).version);  // v3 aborted
        before = vm.assign(b, 0, 8).borders;   // v4 pending
    }
    VersionManager vm;
    vm.attach_journal(std::make_shared<engine::LogEngine>(jc));
    // The replayed index answers a v5 exactly as the live one would.
    const auto a5 = vm.assign(b, 0, 8);
    EXPECT_EQ(a5.version, 5u);
    EXPECT_EQ(a5.borders,
              (std::vector<meta::BorderRef>{border(b, 1, 1, 1),
                                            border(b, 2, 2, 1),
                                            border(b, 4, 4, 2)}));
    EXPECT_EQ(before, a5.borders);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace blobseer::version
