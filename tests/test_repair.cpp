/// \file test_repair.cpp
/// \brief Membership and re-replication tests (protocol v6): heartbeat
///        suspicion with virtual time, failure-report corroboration,
///        repair-queue dedup + journal persistence, repair convergence
///        after kills, rejoin rebalancing, and a randomized
///        failure-schedule property test.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "provider/provider_manager.hpp"
#include "provider/repair_queue.hpp"
#include "qos/failure_schedule.hpp"
#include "rpc/protocol.hpp"
#include "testing_util.hpp"

namespace blobseer::core {
namespace {

using provider::ChunkHolding;
using provider::ProviderManager;
using provider::RepairQueue;

constexpr std::uint64_t kChunk = 64;

chunk::ChunkKey uid_key(std::uint64_t blob, std::uint64_t uid) {
    return chunk::ChunkKey{blob, uid, chunk::ChunkKey::Kind::kUid};
}

/// A bare manager with one external provider joined + announced at t=0.
struct ManagerFixture {
    ProviderManager pm{provider::PlacementStrategy::kRoundRobin};
    NodeId node = kInvalidNode;

    explicit ManagerFixture(std::uint64_t timeout_ms = 1000) {
        pm.set_heartbeat_timeout_ms(timeout_ms);
        node = pm.join("dpA").node;
        pm.announce(node, "127.0.0.1", 9999,
                    {ChunkHolding{uid_key(1, 1), kChunk}}, /*at_ms=*/0);
    }
};

TEST(Heartbeat, TimeoutMarksDeadAndEnqueuesRepair) {
    ManagerFixture f;
    EXPECT_TRUE(f.pm.is_alive(f.node));
    EXPECT_TRUE(f.pm.heartbeat(f.node, 1, {}, {}, /*at_ms=*/500));

    // Within the window: nothing dies.
    EXPECT_TRUE(f.pm.check_heartbeats(/*at_ms=*/1400).empty());
    EXPECT_TRUE(f.pm.is_alive(f.node));

    // One ms past the window: dead, and its chunk needs repair.
    const auto dead = f.pm.check_heartbeats(/*at_ms=*/1502);
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead[0], f.node);
    EXPECT_FALSE(f.pm.is_alive(f.node));
    EXPECT_EQ(f.pm.repair_backlog(), 1u);

    // The sweep is edge-triggered: a second pass finds nothing new.
    EXPECT_TRUE(f.pm.check_heartbeats(/*at_ms=*/2000).empty());
    EXPECT_EQ(f.pm.repair_backlog(), 1u);
}

TEST(Heartbeat, RejoinByNameReclaimsNodeId) {
    ManagerFixture f;
    const auto again = f.pm.join("dpA");
    EXPECT_TRUE(again.rejoin);
    EXPECT_EQ(again.node, f.node);
    const auto other = f.pm.join("dpB");
    EXPECT_FALSE(other.rejoin);
    EXPECT_NE(other.node, f.node);
}

TEST(Heartbeat, FlapDoesNotRepairTwice) {
    // dpA dies (timeout), its chunk is queued; a late beat revives it.
    // The queue must not hold a second entry, and once the provider is
    // back the planned action for the key is "converged, skip".
    ManagerFixture f;
    (void)f.pm.check_heartbeats(/*at_ms=*/1502);
    EXPECT_EQ(f.pm.repair_backlog(), 1u);

    // Beat arrives after all — the provider was only partitioned.
    EXPECT_TRUE(f.pm.heartbeat(f.node, 2, {}, {}, /*at_ms=*/1600));
    EXPECT_TRUE(f.pm.is_alive(f.node));
    // Re-enqueue attempts dedup against the existing entry.
    EXPECT_EQ(f.pm.repair_backlog(), 1u);

    // The worker pops the key and finds it converged.
    const auto key = f.pm.next_repair();
    ASSERT_TRUE(key.has_value());
    const auto plan = f.pm.repair_plan(*key);
    EXPECT_EQ(plan.action, ProviderManager::RepairPlan::Action::kSkip);
    f.pm.finish_repair(*key, false);
    EXPECT_EQ(f.pm.repair_backlog(), 0u);
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    EXPECT_EQ(sum_series(snap, "repair_skipped_total"), 1u);
    EXPECT_EQ(sum_series(snap, "repair_completed_total"), 0u);
    EXPECT_EQ(sum_series(snap, "repair_backlog_peak"), 1u);
}

TEST(Membership, ProviderRowsAreRegistrySeries) {
    ManagerFixture f;  // dpA: heartbeating, announced one chunk
    f.pm.register_provider(7);  // in-process: never beats
    EXPECT_TRUE(f.pm.heartbeat(f.node, 1, {}, {}, /*at_ms=*/500));

    // The rows repair-status renders, one per provider, by node label.
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    const std::pair<std::string, std::string> dp_a{"node",
                                                   std::to_string(f.node)};
    const std::pair<std::string, std::string> dp_7{"node", "7"};
    EXPECT_EQ(sum_series(snap, "pm_provider_alive", dp_a), 1u);
    EXPECT_EQ(sum_series(snap, "pm_provider_heartbeating", dp_a), 1u);
    EXPECT_EQ(sum_series(snap, "pm_provider_beats_total", dp_a), 1u);
    EXPECT_EQ(sum_series(snap, "pm_provider_chunks", dp_a), 1u);
    EXPECT_EQ(sum_series(snap, "pm_provider_bytes", dp_a), kChunk);
    EXPECT_EQ(sum_series(snap, "pm_provider_alive", dp_7), 1u);
    EXPECT_EQ(sum_series(snap, "pm_provider_heartbeating", dp_7), 0u);
    // No beat yet, so no age: the row renders "no beat yet".
    const auto has_age = [&](const std::pair<std::string, std::string>& n) {
        return std::any_of(snap.samples.begin(), snap.samples.end(),
                           [&](const MetricSample& s) {
                               return s.name ==
                                          "pm_provider_last_beat_age_ms" &&
                                      s.labels.front() == n;
                           });
    };
    EXPECT_TRUE(has_age(dp_a));
    EXPECT_FALSE(has_age(dp_7));
    EXPECT_EQ(sum_series(snap, "pm_providers"), 2u);
}

TEST(Heartbeat, UnknownNodeBeatsAreRejected) {
    ManagerFixture f;
    EXPECT_FALSE(f.pm.heartbeat(f.node + 999, 1, {}, {}, /*at_ms=*/100));
    // In-process providers (registered, no name) must also re-join
    // before their beats count.
    f.pm.register_provider(7);
    EXPECT_FALSE(f.pm.heartbeat(7, 1, {}, {}, /*at_ms=*/100));
}

TEST(ReportFailure, RecentBeatOutvotesReporter) {
    ManagerFixture f;
    EXPECT_TRUE(f.pm.heartbeat(f.node, 1, {}, {}, /*at_ms=*/1000));
    // The suspect beat 200ms ago — the client hit a transient problem.
    EXPECT_FALSE(f.pm.report_failure(f.node, /*reporter=*/42,
                                     /*at_ms=*/1200));
    EXPECT_TRUE(f.pm.is_alive(f.node));

    // Past the suspicion window the report sticks and triggers repair.
    EXPECT_TRUE(f.pm.report_failure(f.node, 42, /*at_ms=*/2500));
    EXPECT_FALSE(f.pm.is_alive(f.node));
    EXPECT_EQ(f.pm.repair_backlog(), 1u);
}

TEST(ReportFailure, NeverBeatingProviderDiesOnSingleReport) {
    // In-process providers have no heartbeat alibi: one report kills
    // them (the pre-v6 mark_dead semantics clients rely on).
    ProviderManager pm(provider::PlacementStrategy::kRoundRobin);
    pm.set_heartbeat_timeout_ms(1000);
    pm.register_provider(3);
    EXPECT_TRUE(pm.report_failure(3, /*reporter=*/42, /*at_ms=*/100));
    EXPECT_FALSE(pm.is_alive(3));
}

TEST(RepairQueue, DedupAndCounters) {
    RepairQueue q;
    EXPECT_TRUE(q.enqueue(uid_key(1, 1)));
    EXPECT_FALSE(q.enqueue(uid_key(1, 1)));  // dup while queued
    EXPECT_TRUE(q.enqueue(uid_key(1, 2)));
    EXPECT_EQ(q.backlog(), 2u);
    EXPECT_EQ(q.counters().enqueued, 2u);
    EXPECT_EQ(q.counters().high_water, 2u);

    auto k = q.pop();
    ASSERT_TRUE(k.has_value());
    EXPECT_EQ(*k, uid_key(1, 1));
    q.finish(*k, /*copied=*/true);
    EXPECT_EQ(q.counters().completed, 1u);

    // Finished keys may be enqueued again (a later death of the same
    // chunk's holder).
    EXPECT_TRUE(q.enqueue(uid_key(1, 1)));

    k = q.pop();
    ASSERT_TRUE(k.has_value());
    EXPECT_EQ(*k, uid_key(1, 2));
    q.defer(*k);
    EXPECT_EQ(q.counters().deferred, 1u);
    EXPECT_EQ(q.backlog(), 2u);  // deferred keys still count as backlog
    EXPECT_EQ(q.fifo_size(), 1u);
    EXPECT_EQ(q.deferred_size(), 1u);
    EXPECT_EQ(q.rearm_deferred(), 1u);
    EXPECT_EQ(q.fifo_size(), 2u);
}

TEST(RepairQueue, JournalPersistsAcrossRestart) {
    const auto dir = std::filesystem::temp_directory_path() /
                     "blobseer-repair-journal-test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "repair.journal").string();

    {
        RepairQueue q(path);
        EXPECT_TRUE(q.enqueue(uid_key(9, 1)));
        EXPECT_TRUE(q.enqueue(uid_key(9, 2)));
        EXPECT_TRUE(q.enqueue(uid_key(9, 3)));
        auto k = q.pop();
        q.finish(*k, true);  // done: must NOT survive the restart
    }
    {
        RepairQueue q(path);
        EXPECT_EQ(q.backlog(), 2u);
        auto a = q.pop();
        auto b = q.pop();
        ASSERT_TRUE(a && b);
        EXPECT_EQ(*a, uid_key(9, 2));
        EXPECT_EQ(*b, uid_key(9, 3));
        // Popped-but-unfinished keys are still pending on replay.
    }
    {
        RepairQueue q(path);
        EXPECT_EQ(q.backlog(), 2u);
    }
    std::filesystem::remove_all(dir);
}

core::ClusterConfig repair_config(std::size_t dps, std::uint32_t repl) {
    auto cfg = blobseer::testing::fast_config();
    cfg.data_providers = dps;
    cfg.metadata_providers = 2;
    cfg.default_replication = repl;
    cfg.publish_timeout = seconds(2);
    return cfg;
}

std::size_t live_index_replicas(core::Cluster& cluster) {
    // Min live replica count over every key the index knows (via the
    // under-replicated gauge: 0 means everything is at target).
    return cluster.provider_manager().under_replicated();
}

TEST(Repair, DrainRestoresReplicasAfterKillWithDataLoss) {
    Cluster cluster(repair_config(4, 2));
    auto client = cluster.make_client();
    Blob blob = client->create(kChunk, 2);
    const Buffer data = make_pattern(blob.id(), 1, 0, 16 * kChunk);
    blob.write(0, data);
    EXPECT_EQ(live_index_replicas(cluster), 0u);

    std::size_t victim = 0;
    for (std::size_t i = 1; i < cluster.data_provider_count(); ++i) {
        if (cluster.data_provider(i).stored_bytes() >
            cluster.data_provider(victim).stored_bytes()) {
            victim = i;
        }
    }
    cluster.kill_data_provider(victim, /*lose_volatile=*/true);
    EXPECT_GT(cluster.provider_manager().repair_backlog(), 0u);
    EXPECT_GT(live_index_replicas(cluster), 0u);

    const std::uint64_t copies = cluster.drain_repairs();
    EXPECT_GT(copies, 0u);
    EXPECT_EQ(cluster.provider_manager().repair_backlog(), 0u);
    EXPECT_EQ(live_index_replicas(cluster), 0u);

    // Every chunk is fully replicated on the 3 survivors: kill ANOTHER
    // provider (the repair destinations included) and the data must
    // still read back byte-identical.
    std::size_t second = (victim + 1) % cluster.data_provider_count();
    cluster.kill_data_provider(second, /*lose_volatile=*/true);
    auto reader = cluster.make_client();
    Buffer out(data.size());
    EXPECT_EQ(reader->read(blob.id(), 1, 0, out), data.size());
    EXPECT_EQ(out, data);
}

TEST(Repair, LargeChunkCopiesInOneGetAndOnePut) {
    // An 8 MiB chunk re-replicates as one whole-chunk chunk-get-batch
    // from a survivor and one chunk-put to the destination.
    constexpr std::uint64_t kBig = 8u << 20;
    Cluster cluster(repair_config(4, 2));
    auto client = cluster.make_client();
    Blob blob = client->create(kBig, 2);
    const Buffer data = make_pattern(blob.id(), 1, 0, kBig);
    blob.write(0, data);

    std::vector<std::size_t> holders;
    for (std::size_t i = 0; i < cluster.data_provider_count(); ++i) {
        if (cluster.data_provider(i).stored_bytes() != 0) {
            holders.push_back(i);
        }
    }
    ASSERT_EQ(holders.size(), 2u);
    cluster.kill_data_provider(holders[0], /*lose_volatile=*/true);

    Counter& batch_gets = MetricsRegistry::instance().counter(
        "rpc_server_requests_total", {{"op", "chunk-get-batch"}});
    Counter& puts = MetricsRegistry::instance().counter(
        "rpc_server_requests_total", {{"op", "chunk-put"}});
    const std::uint64_t gets_before = batch_gets.get();
    const std::uint64_t puts_before = puts.get();
    EXPECT_EQ(cluster.drain_repairs(), 1u);
    EXPECT_EQ(batch_gets.get() - gets_before, 1u);
    EXPECT_EQ(puts.get() - puts_before, 1u);
    EXPECT_EQ(live_index_replicas(cluster), 0u);

    // Only the new replica is left: it must read back byte-exact.
    cluster.kill_data_provider(holders[1], /*lose_volatile=*/true);
    auto reader = cluster.make_client();
    Buffer out(data.size());
    EXPECT_EQ(reader->read(blob.id(), 1, 0, out), data.size());
    EXPECT_EQ(out, data);
}

TEST(Repair, RejoinRebalancesChunksWrittenDuringOutage) {
    // 3 providers, replication 3: while one is down, new chunks can only
    // reach 2 copies. The repair floor keeps them queued (deferred — no
    // live destination), and the rejoin must finish the job.
    Cluster cluster(repair_config(3, 3));
    auto client = cluster.make_client();
    Blob blob = client->create(kChunk, 3);
    blob.write(0, make_pattern(blob.id(), 1, 0, 4 * kChunk));
    EXPECT_EQ(cluster.drain_repairs(), 0u);  // fully replicated already

    cluster.kill_data_provider(0, /*lose_volatile=*/false);
    const Version v2 =
        client->write(blob.id(), 4 * kChunk,
                      blobseer::testing::tagged(blob.id(), 2, 4 * kChunk,
                                                4 * kChunk));
    EXPECT_EQ(v2, 2u);
    // Outage writes are short of target and cannot be fixed yet.
    (void)cluster.drain_repairs();
    EXPECT_GT(live_index_replicas(cluster), 0u);
    const std::size_t held_before =
        cluster.provider_manager().chunk_holdings(
            cluster.data_provider(0).node());

    cluster.recover_data_provider(0);
    EXPECT_GT(cluster.drain_repairs(), 0u);
    EXPECT_EQ(live_index_replicas(cluster), 0u);
    EXPECT_EQ(cluster.provider_manager().repair_backlog(), 0u);
    // Rebalancing moved the outage-era chunks onto the rejoined node.
    EXPECT_GT(cluster.provider_manager().chunk_holdings(
                  cluster.data_provider(0).node()),
              held_before);

    // And the whole blob survives losing any one of the other nodes.
    cluster.kill_data_provider(1, /*lose_volatile=*/true);
    auto reader = cluster.make_client();
    Buffer out(8 * kChunk);
    EXPECT_EQ(reader->read(blob.id(), v2, 0, out), out.size());
    EXPECT_TRUE(blobseer::testing::matches(blob.id(), 1, 0,
                                           ConstBytes(out.data(),
                                                      4 * kChunk)));
    EXPECT_TRUE(blobseer::testing::matches(
        blob.id(), 2, 4 * kChunk,
        ConstBytes(out.data() + 4 * kChunk, 4 * kChunk)));
}

TEST(Repair, ClientReadFailureReportTriggersRepair) {
    // Regression for the read path: a client that cannot reach a replica
    // holder must report it (not just fail over locally), so the manager
    // re-replicates the survivor copies.
    Cluster cluster(repair_config(4, 2));
    auto client = cluster.make_client();
    Blob blob = client->create(kChunk, 2);
    const Buffer data = make_pattern(blob.id(), 1, 0, 8 * kChunk);
    blob.write(0, data);

    // Network-level kill only: the provider manager still thinks the
    // node is alive, so only a client report can start the repair.
    const NodeId victim = cluster.data_provider(0).node();
    cluster.network().kill(victim);
    ASSERT_TRUE(cluster.provider_manager().is_alive(victim));

    // Replica read order is seeded per client, so one reader may happen
    // to dodge the victim for every chunk; a few fresh clients cannot.
    for (int i = 0;
         i < 10 && cluster.provider_manager().is_alive(victim); ++i) {
        auto reader = cluster.make_client();
        Buffer out(data.size());
        ASSERT_EQ(reader->read(blob.id(), 1, 0, out), data.size());
        ASSERT_EQ(out, data);  // failover hides the outage entirely
    }
    EXPECT_FALSE(cluster.provider_manager().is_alive(victim));
    (void)cluster.drain_repairs();
    EXPECT_EQ(live_index_replicas(cluster), 0u);
}

TEST(Repair, RandomizedScheduleConverges) {
    // Property: under an arbitrary kill/recover schedule, once every
    // provider is back and repair drains, every chunk is at its replica
    // target and every byte reads back correctly.
    for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
        Cluster cluster(repair_config(4, 2));
        auto client = cluster.make_client();
        Blob blob = client->create(kChunk, 2);

        auto schedule = qos::FailureSchedule::random(
            /*providers=*/4, /*duration_s=*/10.0, /*period_s=*/1.0,
            /*outage_s=*/0.4, /*kill_prob=*/0.7, seed);

        std::uint64_t written = 0;
        double t = 0.0;
        std::uint64_t tag = 0;
        Version latest = 0;
        while (schedule.pending() > 0) {
            t += 0.5;
            (void)schedule.run_until(cluster, t);
            // Keep writing through the churn; replication must hide
            // every single-provider outage from the writer.
            const Buffer part = blobseer::testing::tagged(
                blob.id(), ++tag, written, 2 * kChunk);
            ASSERT_NO_THROW(latest = client->write(blob.id(), written,
                                                   part))
                << "seed " << seed << " t=" << t;
            written += part.size();
            (void)cluster.drain_repairs();
        }

        for (std::size_t i = 0; i < cluster.data_provider_count(); ++i) {
            cluster.recover_data_provider(i);
            cluster.restore_data_provider(i);
        }
        (void)cluster.drain_repairs();
        EXPECT_EQ(cluster.provider_manager().repair_backlog(), 0u)
            << "seed " << seed;
        EXPECT_EQ(live_index_replicas(cluster), 0u) << "seed " << seed;

        // Byte-identical readback of the final version.
        auto reader = cluster.make_client();
        Buffer out(written);
        EXPECT_EQ(reader->read(blob.id(), latest, 0, out), written)
            << "seed " << seed;
        for (std::uint64_t i = 0; i < tag; ++i) {
            EXPECT_TRUE(blobseer::testing::matches(
                blob.id(), i + 1, i * 2 * kChunk,
                ConstBytes(out.data() + i * 2 * kChunk, 2 * kChunk)))
                << "seed " << seed << " part " << i;
        }
    }
}

}  // namespace
}  // namespace blobseer::core
