/// \file bench_dedup.cpp
/// \brief Content-addressed storage (DESIGN.md §11): what deduplication
///        buys on the wire and on disk.
///
///   A. Second identical write: a client re-ingesting content that is
///      already stored should transfer almost nothing — every chunk
///      check-hits and only metadata is published. The headline number
///      is bytes-on-wire for write #2 as a fraction of write #1
///      (acceptance: <= 10%).
///   B. Cross-client ingest of a shared dataset: N clients each write
///      the same corpus into their own blob. Aggregate logical
///      throughput rises with the client count while physical transfer
///      stays a single copy.
///   C. Delete + GC: two blobs share half their chunks. Deleting one
///      reclaims only the unshared half (refcounts protect the rest);
///      deleting the survivor empties the providers.

#include <memory>

#include "bench_util.hpp"

namespace {

using namespace blobseer;
using namespace blobseer::bench;

[[nodiscard]] core::ClusterConfig cas_config(std::size_t dp,
                                             std::size_t mp) {
    auto cfg = grid_config(dp, mp);
    cfg.content_addressed = true;
    return cfg;
}

struct ProviderTotals {
    std::uint64_t stored_bytes = 0;
    std::uint64_t chunks_stored = 0;
    std::uint64_t reclaimed_bytes = 0;
};

[[nodiscard]] ProviderTotals provider_totals(core::Cluster& cluster) {
    ProviderTotals t;
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    for (std::size_t i = 0; i < cluster.data_provider_count(); ++i) {
        provider::DataProvider& dp = cluster.data_provider(i);
        t.stored_bytes += dp.stored_bytes();
        t.chunks_stored += dp.store().count();
        t.reclaimed_bytes +=
            sum_series(snap, "cas_reclaimed_bytes_total",
                       {"node", std::to_string(dp.node())});
    }
    return t;
}

void second_write_is_free() {
    constexpr std::uint64_t kChunk = 256 << 10;
    const std::uint64_t size = scaled(64) * kChunk;

    auto cluster = std::make_unique<core::Cluster>(cas_config(8, 4));
    auto writer = cluster->make_client();
    // Content is keyed off a fixed pattern id so both blobs carry
    // byte-identical data regardless of their blob ids.
    const Buffer data = make_pattern(1, 7, 0, size);

    Table table({"write", "logical MB", "wire MB", "vs first",
                 "stored MB", "MB/s"});
    std::uint64_t sent0 = 0;
    std::uint64_t first_wire = 0;
    std::uint64_t second_wire = 0;
    for (int pass = 1; pass <= 2; ++pass) {
        core::Blob blob = writer->create(kChunk);
        const Stopwatch sw;
        writer->write(blob.id(), 0, data);
        const double secs = sw.elapsed_seconds();
        const std::uint64_t sent = writer->stats().cas_bytes_sent.get();
        const std::uint64_t wire = sent - sent0;
        sent0 = sent;
        (pass == 1 ? first_wire : second_wire) = wire;
        const auto totals = provider_totals(*cluster);
        table.row(pass == 1 ? "first" : "second (identical)",
                  static_cast<double>(size) / (1024.0 * 1024.0),
                  static_cast<double>(wire) / (1024.0 * 1024.0),
                  first_wire == 0
                      ? 0.0
                      : static_cast<double>(wire) /
                            static_cast<double>(first_wire),
                  static_cast<double>(totals.stored_bytes) /
                      (1024.0 * 1024.0),
                  mbps(size, secs));
    }
    table.print("A. second identical write, bytes on the wire");
    std::printf("second/first wire ratio: %.4f (target <= 0.10)\n",
                first_wire == 0 ? 0.0
                                : static_cast<double>(second_wire) /
                                      static_cast<double>(first_wire));
    std::fflush(stdout);
}

void shared_corpus_ingest() {
    constexpr std::uint64_t kChunk = 256 << 10;
    const std::uint64_t size = scaled(32) * kChunk;
    const Buffer corpus = make_pattern(2, 11, 0, size);

    Table table({"clients", "logical MB", "wire MB", "stored MB",
                 "agg MB/s"});
    for (const std::size_t clients : {1, 2, 4, 8}) {
        auto cluster = std::make_unique<core::Cluster>(cas_config(8, 4));
        std::vector<std::unique_ptr<core::BlobSeerClient>> cs;
        std::vector<BlobId> blobs;
        for (std::size_t i = 0; i < clients; ++i) {
            cs.push_back(cluster->make_client());
            blobs.push_back(cs.back()->create(kChunk).id());
        }
        const double secs = run_clients(clients, [&](std::size_t i) {
            cs[i]->write(blobs[i], 0, corpus);
        });
        std::uint64_t wire = 0;
        for (const auto& c : cs) {
            wire += c->stats().cas_bytes_sent.get();
        }
        const auto totals = provider_totals(*cluster);
        table.row(clients,
                  static_cast<double>(size * clients) / (1024.0 * 1024.0),
                  static_cast<double>(wire) / (1024.0 * 1024.0),
                  static_cast<double>(totals.stored_bytes) /
                      (1024.0 * 1024.0),
                  mbps(size * clients, secs));
    }
    table.print("B. N clients ingest the same corpus (one physical copy)");
}

void delete_reclaims() {
    constexpr std::uint64_t kChunk = 256 << 10;
    const std::uint64_t half = scaled(32) * kChunk;

    auto cluster = std::make_unique<core::Cluster>(cas_config(8, 4));
    auto client = cluster->make_client();
    const Buffer shared = make_pattern(3, 1, 0, half);
    const Buffer only_a = make_pattern(3, 2, 0, half);
    const Buffer only_b = make_pattern(3, 3, 0, half);

    core::Blob a = client->create(kChunk);
    client->write(a.id(), 0, shared);
    client->write(a.id(), half, only_a);
    core::Blob b = client->create(kChunk);
    client->write(b.id(), 0, shared);
    client->write(b.id(), half, only_b);

    Table table({"step", "stored MB", "chunks", "reclaimed MB"});
    auto row = [&](const char* step) {
        const auto t = provider_totals(*cluster);
        table.row(step,
                  static_cast<double>(t.stored_bytes) / (1024.0 * 1024.0),
                  t.chunks_stored,
                  static_cast<double>(t.reclaimed_bytes) /
                      (1024.0 * 1024.0));
    };
    row("two blobs, half shared");
    const auto da = client->delete_blob(a.id());
    row("delete A (shared half survives)");
    const auto db = client->delete_blob(b.id());
    row("delete B (store empties)");
    table.print("C. delete + GC reclaims only unshared chunks");
    std::printf("delete A released %zu chunk refs, delete B released "
                "%zu\n",
                da.chunks, db.chunks);
    std::fflush(stdout);
}

}  // namespace

int main() {
    std::printf("bench_dedup: content-addressed dedup and GC "
                "(scale=%.2f)\n",
                bench_scale());
    second_write_is_free();
    shared_corpus_ingest();
    delete_reclaims();
    return 0;
}
