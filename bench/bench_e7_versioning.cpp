/// \file bench_e7_versioning.cpp
/// \brief Experiment E7 (ablations of the design choices in §I-B.3):
///        versioning internals.
///
///   A. Read cost vs snapshot age — immutable trees mean reading an old
///      version costs the same as reading the newest.
///   B. Chunk-size sweep — tree depth, metadata nodes created, and the
///      metadata/data overhead ratio for a fixed blob size.
///   C. Metadata nodes created per write vs write size (O(log n +
///      chunks) growth).
///   D. CLONE is O(1): clone latency vs blob size stays flat.
///   E. VM sharding: aggregate publish throughput of 8 writers on
///      distinct blobs vs version-manager shard count. With durable
///      per-shard journals the serialized step is the journal append;
///      shards multiply it.

#include <filesystem>
#include <memory>

#include <unistd.h>

#include "bench_util.hpp"
#include "engine/log_engine.hpp"
#include "meta/write_descriptor.hpp"
#include "version/version_manager.hpp"

namespace {

using namespace blobseer;
using namespace blobseer::bench;

void read_vs_age() {
    constexpr std::uint64_t kChunk = 64 << 10;
    auto cfg = grid_config(8, 4);
    core::Cluster cluster(cfg);
    auto owner = cluster.make_client();
    core::Blob blob = owner->create(kChunk);

    const std::uint64_t size = 64 * kChunk;
    owner->write(blob.id(), 0, make_pattern(blob.id(), 0, 0, size));
    const std::size_t versions = scaled(100);
    Rng rng(7);
    for (std::size_t v = 0; v < versions; ++v) {
        const std::uint64_t slot = rng.below(64);
        owner->write(blob.id(), slot * kChunk,
                     make_pattern(blob.id(), v, 0, kChunk));
    }
    const Version latest = owner->stat(blob.id()).version;

    Table table({"version read", "ms/read", "meta RPCs"});
    for (const double frac : {0.01, 0.25, 0.5, 0.75, 1.0}) {
        const auto v = std::max<Version>(
            1, static_cast<Version>(frac * static_cast<double>(latest)));
        // Fresh client per row: cold metadata cache, so the full descent
        // cost is visible.
        auto reader = cluster.make_client();
        std::uint64_t gets0 = 0;
        for (std::size_t i = 0; i < cluster.metadata_provider_count(); ++i) {
            gets0 += cluster.metadata_provider(i).stats().ops.get();
        }
        Buffer out(8 * kChunk);
        const Stopwatch sw;
        const int reps = 5;
        for (int r = 0; r < reps; ++r) {
            reader->read(blob.id(), v, (r % 8) * 8 * kChunk, out);
        }
        std::uint64_t gets1 = 0;
        for (std::size_t i = 0; i < cluster.metadata_provider_count(); ++i) {
            gets1 += cluster.metadata_provider(i).stats().ops.get();
        }
        table.row("v" + std::to_string(v),
                  sw.elapsed_seconds() * 1000.0 / reps,
                  (gets1 - gets0) / reps);
    }
    table.print(
        "E7a: read cost vs snapshot age (immutable trees: flat line "
        "expected)");
}

void chunk_size_sweep() {
    const std::uint64_t blob_size = 16 << 20;
    Table table({"chunk KB", "tree depth", "nodes full write",
                 "nodes 1-chunk write", "meta bytes/MB data"});
    for (const std::uint64_t chunk_kb : {16, 64, 256, 1024}) {
        const std::uint64_t c = chunk_kb << 10;
        const meta::TreeGeometry geo(c);
        const std::uint64_t slots = geo.tree_slots(blob_size);
        std::size_t depth = 0;
        for (std::uint64_t s = slots; s > 1; s /= 2) {
            ++depth;
        }
        const meta::WriteDescriptor full{1, 0, blob_size, 0, blob_size};
        const auto full_nodes = created_ranges(full, geo).size();
        const meta::WriteDescriptor one{2, blob_size / 2, c, blob_size,
                                        blob_size};
        const auto one_nodes = created_ranges(one, geo).size();
        // ~40 wire bytes per node (see MetaNode::serialized_size).
        const double meta_bytes_per_mb =
            static_cast<double>(full_nodes) * 40.0 /
            (static_cast<double>(blob_size) / (1 << 20));
        table.row(chunk_kb, depth, full_nodes, one_nodes,
                  meta_bytes_per_mb);
    }
    table.print("E7b: chunk size vs tree geometry (16 MB blob)");
}

void nodes_per_write() {
    const std::uint64_t c = 64 << 10;
    const meta::TreeGeometry geo(c);
    const std::uint64_t blob_size = 64 << 20;  // 1024 slots
    Table table({"write chunks", "nodes created", "theory 2k-1+path"});
    for (const std::uint64_t chunks : {1, 2, 4, 16, 64, 256}) {
        const meta::WriteDescriptor w{2, blob_size / 2, chunks * c,
                                      blob_size, blob_size};
        const auto nodes = created_ranges(w, geo).size();
        // An aligned k-chunk write creates the full subtree over its
        // leaves (2k-1 nodes) plus the path from that subtree's root up
        // to the tree root (log2(1024/k) nodes).
        std::uint64_t log_k = 0;
        for (std::uint64_t v = chunks; v > 1; v /= 2) {
            ++log_k;
        }
        table.row(chunks, nodes, 2 * chunks - 1 + (10 - log_k));
    }
    table.print(
        "E7c: metadata nodes created per write vs write size (64 MB "
        "blob, 64 KB chunks)");
}

void clone_cost() {
    constexpr std::uint64_t kChunk = 64 << 10;
    Table table({"blob MB", "clone ms", "read-after-clone ok"});
    for (const std::uint64_t mb : {1, 4, 16, 64}) {
        auto cfg = grid_config(8, 4);
        core::Cluster cluster(cfg);
        auto owner = cluster.make_client();
        core::Blob blob = owner->create(kChunk);
        const std::uint64_t size = mb << 20;
        const std::uint64_t stripe = size / 4;
        for (std::uint64_t off = 0; off < size; off += stripe) {
            owner->write(blob.id(), off,
                         make_pattern(blob.id(), 1, off, stripe));
        }
        const Stopwatch sw;
        core::Blob copy = owner->clone(blob.id());
        const double ms = sw.elapsed_seconds() * 1000.0;
        Buffer out(kChunk);
        copy.read(0, 0, out);
        const bool ok =
            verify_pattern(blob.id(), 1, 0, out) == -1;
        table.row(mb, ms, ok ? "yes" : "NO");
    }
    table.print("E7d: CLONE latency vs blob size (O(1) expected)");
}

void publish_throughput_sharded() {
    // 8 concurrent writers, each publishing its own blob as fast as the
    // version-manager layer allows (assign + commit; the data path is
    // elided — this isolates the paper's "tiny serialized step"). Every
    // shard journals with per-append fsync (the power-failure-durable
    // configuration), so the serialized step per publish is a
    // synchronous journal append. One shard funnels every writer behind
    // ONE journal's sync latency; N shards run N independent journals
    // whose syncs overlap — which is why the aggregate scales even on a
    // single-core host (the step is I/O-bound, not CPU-bound; with
    // buffered journals shard scaling needs real cores to show).
    constexpr std::size_t kWriters = 8;
    const std::size_t ops_per_writer = scaled(150);
    namespace fs = std::filesystem;

    Table table({"vm shards", "publishes/s", "speedup vs 1 shard",
                 "max backlog"});
    double base_rate = 0.0;
    for (const std::size_t shards : {1, 4}) {
        const fs::path root =
            fs::temp_directory_path() /
            ("blobseer-e7-vmshards-" + std::to_string(::getpid()) + "-" +
             std::to_string(shards));
        fs::remove_all(root);

        std::vector<std::unique_ptr<version::VersionManager>> vms;
        std::vector<std::shared_ptr<engine::LogEngine>> journals;
        for (std::size_t i = 0; i < shards; ++i) {
            vms.push_back(std::make_unique<version::VersionManager>(
                static_cast<std::uint32_t>(i),
                static_cast<std::uint32_t>(shards)));
            engine::EngineConfig jc;
            jc.dir = root / ("vm-" + std::to_string(i));
            jc.background_compaction = false;
            jc.fsync_appends = true;
            journals.push_back(std::make_shared<engine::LogEngine>(jc));
            vms.back()->attach_journal(journals.back());
        }

        std::vector<BlobId> blobs(kWriters);
        for (std::size_t j = 0; j < kWriters; ++j) {
            blobs[j] = vms[j % shards]->create_blob(64 << 10, 1).id;
        }

        const double secs = run_clients(kWriters, [&](std::size_t j) {
            version::VersionManager& vm = *vms[j % shards];
            const BlobId blob = blobs[j];
            for (std::size_t k = 0; k < ops_per_writer; ++k) {
                const auto a = vm.assign(blob, std::nullopt, 64 << 10);
                vm.commit(blob, a.version);
            }
        });

        std::uint64_t published = 0;
        std::uint64_t backlog_hw = 0;
        for (const auto& vm : vms) {
            published += vm->publishes();
            backlog_hw = std::max(backlog_hw,
                                  vm->publish_backlog().high_water());
        }
        const double rate = static_cast<double>(published) / secs;
        if (shards == 1) {
            base_rate = rate;
        }
        table.row(shards, rate,
                  base_rate > 0.0 ? rate / base_rate : 1.0, backlog_hw);

        vms.clear();       // drop journal references before deleting
        journals.clear();  // the engines' directories
        fs::remove_all(root);
    }
    table.print(
        "E7e: aggregate publish throughput vs VM shards (8 writers, "
        "distinct blobs, sync-durable per-shard journals)");
}

}  // namespace

int main() {
    read_vs_age();
    chunk_size_sweep();
    nodes_per_write();
    clone_cost();
    publish_throughput_sharded();
    return 0;
}
