/// \file bench_engine.cpp
/// \brief Storage-engine benchmarks: the log-structured LogStore on a
///        many-small-chunk workload (put, random get and reopen rates)
///        — plus the storage-tiering benchmarks of DESIGN.md §14: a
///        working-set sweep over the three-tier store (p50/p99 read
///        latency at 0.5x/2x/10x the RAM budget, with and without the
///        compressed file cache) and the compact-time recompression
///        ratio on a compressible corpus.
///
/// The workload the ROADMAP's production north star implies — millions of
/// 4 KiB–256 KiB chunks — is where per-object overhead dominates. The
/// first table measures put, random get and (most importantly) reopen
/// time at 100k small chunks; reopen is a checkpoint load, O(live keys).
/// DESIGN.md §8.2 records how this compared with the file-per-chunk
/// store the engine replaced.
///
///   $ ./build/bench_engine                 # full run (100k chunks)
///   $ BLOBSEER_BENCH_SCALE=0.05 ./build/bench_engine   # smoke run
///
/// Scale note (see bench_util.hpp): absolute numbers depend on the host
/// filesystem.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <vector>

#include "bench_util.hpp"
#include "cache/compressed_file_cache.hpp"
#include "chunk/log_store.hpp"
#include "chunk/tiered_store.hpp"

using namespace blobseer;
using namespace blobseer::chunk;

namespace {

namespace fs = std::filesystem;

struct Timings {
    double put_s = 0;
    double get_s = 0;
    double reopen_s = 0;
    std::size_t recovered = 0;
};

ChunkData payload(std::uint64_t uid, std::size_t size) {
    return std::make_shared<Buffer>(make_pattern(1, uid, 0, size));
}

/// Deterministic "small chunk" sizes in [128, 4096) — the fine-grain end
/// of the paper's chunk-size range, where per-object overhead dominates.
std::size_t size_of(std::uint64_t uid) {
    return 128 + static_cast<std::size_t>(mix64(uid) % 3968);
}

Timings run_log_store(const fs::path& dir, std::size_t n_chunks,
                      std::size_t n_gets) {
    Timings t;
    {
        auto store = std::make_unique<LogStore>(dir);
        const Stopwatch put_sw;
        for (std::uint64_t i = 0; i < n_chunks; ++i) {
            store->put(ChunkKey{1, i}, payload(i, size_of(i)));
        }
        t.put_s = put_sw.elapsed_seconds();

        std::mt19937_64 rng(7);
        const Stopwatch get_sw;
        for (std::size_t i = 0; i < n_gets; ++i) {
            const std::uint64_t uid = rng() % n_chunks;
            auto got = store->get(ChunkKey{1, uid});
            if (!got || (*got)->size() != size_of(uid)) {
                std::fprintf(stderr, "bench_engine: bad readback uid %llu\n",
                             static_cast<unsigned long long>(uid));
                std::exit(1);
            }
        }
        t.get_s = get_sw.elapsed_seconds();
    }  // close the store (provider shutdown)

    // Provider restart: reopen on the same directory and count recovery.
    const Stopwatch reopen_sw;
    auto reopened = std::make_unique<LogStore>(dir);
    t.recovered = reopened->count();
    t.reopen_s = reopen_sw.elapsed_seconds();
    return t;
}

// ---- storage tiering (DESIGN.md §14) ---------------------------------------

/// Compressible chunk: 32-byte runs keyed by uid — distinct bytes per
/// chunk, ~10x compressible under LZ4, the corpus the middle tier and
/// the compactor are built for.
ChunkData runs_payload(std::uint64_t uid, std::size_t size) {
    auto buf = std::make_shared<Buffer>(size);
    for (std::size_t j = 0; j < size; ++j) {
        (*buf)[j] = static_cast<std::uint8_t>((j / 32) + uid);
    }
    return buf;
}

[[nodiscard]] double percentile_us(std::vector<double>& sorted_us, double q) {
    if (sorted_us.empty()) {
        return 0.0;
    }
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted_us.size() - 1));
    return sorted_us[idx];
}

struct SweepPoint {
    double p50_us = 0;
    double p99_us = 0;
    std::uint64_t promotions = 0;   ///< reads served by the file cache
    std::uint64_t backend_gets = 0; ///< reads that reached the engine
};

/// Read every chunk of a working set twice in shuffled order through a
/// TieredStore and record per-get latency.
SweepPoint run_tier_sweep(const fs::path& dir, std::size_t ws_chunks,
                          std::size_t chunk_size, std::uint64_t ram_budget,
                          bool with_file_cache) {
    fs::remove_all(dir);
    std::unique_ptr<cache::CompressedFileCache> fc;
    if (with_file_cache) {
        cache::FileCacheConfig fcfg;
        fcfg.dir = dir / "file-cache";
        // Budget generously above the compressed working set: the sweep
        // measures tier latency, not file-cache eviction.
        fcfg.budget_bytes =
            static_cast<std::uint64_t>(ws_chunks * chunk_size);
        fc = std::make_unique<cache::CompressedFileCache>(fcfg);
    }
    TieredStore store(std::make_unique<LogStore>(dir / "log"), ram_budget,
                      std::move(fc));
    for (std::uint64_t i = 0; i < ws_chunks; ++i) {
        store.put(ChunkKey{2, i}, runs_payload(i, chunk_size));
    }

    std::vector<std::uint64_t> order;
    order.reserve(ws_chunks * 2);
    for (std::uint64_t pass = 0; pass < 2; ++pass) {
        for (std::uint64_t i = 0; i < ws_chunks; ++i) {
            order.push_back(i);
        }
    }
    std::mt19937_64 rng(11);
    std::shuffle(order.begin(), order.end(), rng);

    const std::uint64_t misses_before = store.cache_misses();
    const std::uint64_t promotions_before = store.promotions();
    std::vector<double> lat_us;
    lat_us.reserve(order.size());
    for (const std::uint64_t uid : order) {
        const Stopwatch sw;
        auto got = store.get(ChunkKey{2, uid});
        lat_us.push_back(sw.elapsed_seconds() * 1e6);
        if (!got || (*got)->size() != chunk_size) {
            std::fprintf(stderr, "bench_engine: tier readback failed\n");
            std::exit(1);
        }
    }
    std::sort(lat_us.begin(), lat_us.end());

    SweepPoint p;
    p.p50_us = percentile_us(lat_us, 0.5);
    p.p99_us = percentile_us(lat_us, 0.99);
    p.promotions = store.promotions() - promotions_before;
    p.backend_gets =
        store.cache_misses() - misses_before - p.promotions;
    return p;
}

void run_tiering_section(const fs::path& root) {
    // A deliberately small RAM tier makes the 10x point reachable in a
    // smoke run; the claim under test is the p99 *shape* across working
    // sets, not absolute microseconds.
    const std::uint64_t ram_budget = bench::scaled(4) << 20;
    const std::size_t chunk_size = 16 << 10;
    const double multiples[] = {0.5, 2.0, 10.0};

    bench::Table table({"working set", "file cache", "p50 us", "p99 us",
                        "file-cache hits", "engine reads"});
    for (const double m : multiples) {
        const auto ws_chunks = static_cast<std::size_t>(
            m * static_cast<double>(ram_budget) /
            static_cast<double>(chunk_size));
        for (const bool with_fc : {false, true}) {
            const auto p = run_tier_sweep(root / "tier", ws_chunks,
                                          chunk_size, ram_budget, with_fc);
            char label[32];
            std::snprintf(label, sizeof label, "%.1fx RAM", m);
            table.row(std::string(label), with_fc ? "yes" : "no", p.p50_us,
                      p.p99_us, p.promotions, p.backend_gets);
        }
    }
    table.print("three-tier read latency, RAM budget " +
                std::to_string(ram_budget >> 20) + " MiB, " +
                std::to_string(chunk_size >> 10) + " KiB chunks");
}

void run_compression_section(const fs::path& root) {
    engine::EngineConfig cfg;
    cfg.dir = root / "compress";
    cfg.segment_target_bytes = 256 << 10;
    cfg.checkpoint_interval_records = 0;
    cfg.background_compaction = false;
    cfg.compress_on_compact = true;
    fs::remove_all(cfg.dir);

    const std::size_t n = bench::scaled(256);
    const std::size_t value_size = 32 << 10;
    engine::LogEngine eng(cfg);
    // Triple-put makes every sealed segment ~2/3 dead, so one compact()
    // pass relocates (and recompresses) the whole live corpus.
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto v = runs_payload(i, value_size);
        eng.put("chunk-" + std::to_string(i), *v);
        eng.put("chunk-" + std::to_string(i), *v);
        eng.put("chunk-" + std::to_string(i), *v);
    }
    const auto before = eng.stats();
    const Stopwatch sw;
    const std::size_t compacted = eng.compact();
    const double compact_s = sw.elapsed_seconds();
    const auto after = eng.stats();

    bench::Table table({"metric", "value"});
    table.row("segments compacted", compacted);
    table.row("disk bytes before", before.disk_bytes);
    table.row("disk bytes after", after.disk_bytes);
    table.row("compressed records", after.compact_compressed_records);
    table.row("raw bytes in", after.compact_raw_bytes_in);
    table.row("stored bytes out", after.compact_stored_bytes_out);
    table.print("compact-time recompression, " + std::to_string(n) +
                " chunks of " + std::to_string(value_size >> 10) +
                " KiB (compressible)");

    const double ratio =
        after.compact_stored_bytes_out > 0
            ? static_cast<double>(after.compact_raw_bytes_in) /
                  static_cast<double>(after.compact_stored_bytes_out)
            : 0.0;
    std::printf("\ncompression ratio (raw/stored): %.2fx, compaction took "
                "%.2f s\n",
                ratio, compact_s);
}

}  // namespace

int main() {
    const std::size_t n_chunks = bench::scaled(100'000);
    const std::size_t n_gets = bench::scaled(10'000);

    const fs::path root =
        fs::temp_directory_path() /
        ("blobseer-bench-engine-" + std::to_string(::getpid()));
    fs::remove_all(root);

    std::printf("bench_engine: %zu chunks of 128..4096 B, %zu random gets\n",
                n_chunks, n_gets);

    const Timings log = run_log_store(root / "log", n_chunks, n_gets);
    if (log.recovered != n_chunks) {
        std::fprintf(stderr,
                     "bench_engine: recovery mismatch (log %zu, want %zu)\n",
                     log.recovered, n_chunks);
        fs::remove_all(root);
        return 1;
    }

    bench::Table table({"backend", "puts/s", "gets/s", "reopen ms",
                        "recovered"});
    const auto rate = [](std::size_t n, double s) {
        return s > 0 ? static_cast<double>(n) / s : 0.0;
    };
    table.row("log  (engine)", rate(n_chunks, log.put_s),
              rate(n_gets, log.get_s), log.reopen_s * 1e3, log.recovered);
    table.print("log engine, " + std::to_string(n_chunks) + " small chunks");

    run_tiering_section(root);
    run_compression_section(root);

    fs::remove_all(root);
    return 0;
}
