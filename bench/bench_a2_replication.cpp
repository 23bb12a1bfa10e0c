/// \file bench_a2_replication.cpp
/// \brief Ablation A2: the cost of chunk replication, on the write path
///        and in repair.
///
/// The paper adds "configurable per-blob data replication capabilities"
/// in §IV-E. The client sends every copy of a chunk itself, one
/// chunk-put per replica, all through its in-flight window. A lone
/// writer is bound by its own uplink, so its throughput falls about in
/// proportion to the replication factor; many writers load the provider
/// NICs as well. A2b times re-replication after a provider death.

#include "bench_util.hpp"

namespace {

using namespace blobseer;
using namespace blobseer::bench;

constexpr std::uint64_t kChunk = 64 << 10;

double run_one(std::uint32_t replication, std::size_t clients) {
    core::Cluster cluster(grid_config(12, 6));
    auto owner = cluster.make_client();
    core::Blob blob = owner->create(kChunk, replication);

    const std::uint64_t region = scaled(48) * kChunk;  // 3 MB per writer
    std::vector<std::unique_ptr<core::BlobSeerClient>> cs;
    for (std::size_t i = 0; i < clients; ++i) {
        cs.push_back(cluster.make_client());
    }
    const double sec = run_clients(clients, [&](std::size_t i) {
        cs[i]->write(blob.id(), i * region,
                     make_pattern(blob.id(), i, 0, region));
    });
    return mbps(clients * region, sec);
}

/// Repair throughput: write a replicated blob, kill one provider with
/// data loss, and time a synchronous drain of the repair queue. The
/// drain re-replicates every chunk the dead provider held onto the
/// survivors; copies/s is the recovery-speed figure of merit (DESIGN.md
/// §12) and scales with the per-copy transfer cost, so higher
/// replication repairs faster per lost byte (more sources, same copies).
void run_repair() {
    Table table({"replication", "copies", "repair s", "copies/s",
                 "repair MB/s"});
    for (const std::uint32_t r : {2, 3}) {
        auto cfg = grid_config(12, 6);
        core::Cluster cluster(cfg);
        auto client = cluster.make_client();
        core::Blob blob = client->create(kChunk, r);
        const std::uint64_t bytes = scaled(192) * kChunk;  // 12 MB
        client->write(blob.id(), 0, make_pattern(blob.id(), 1, 0, bytes));

        cluster.kill_data_provider(0, /*lose_volatile=*/true);
        const Stopwatch sw;
        const std::uint64_t copies = cluster.drain_repairs();
        const double sec = sw.elapsed_seconds();
        table.row(r, copies, sec,
                  sec > 0.0 ? static_cast<double>(copies) / sec : 0.0,
                  mbps(copies * kChunk, sec));
    }
    table.print(
        "A2b: re-replication throughput after a provider death with data "
        "loss (12 providers, 12 MB blob)");
}

void run() {
    for (const std::size_t clients : {std::size_t{1}, std::size_t{8}}) {
        Table table({"replication", "MB/s", "vs replication 1"});
        double base = 0.0;
        for (const std::uint32_t r : {1, 2, 3}) {
            const double rate = run_one(r, clients);
            if (r == 1) {
                base = rate;
            }
            table.row(r, rate, base > 0.0 ? rate / base : 0.0);
        }
        table.print("A2: replicated writes, " + std::to_string(clients) +
                    " writer(s), 3 MB each (12 providers)");
    }
    run_repair();
}

}  // namespace

int main() {
    run();
    return 0;
}
