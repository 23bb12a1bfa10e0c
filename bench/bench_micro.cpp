/// \file bench_micro.cpp
/// \brief google-benchmark micro-benchmarks of the hot substrate paths:
///        hashing, range algebra, the creation-rule predicate, ring
///        lookups, chunk stores, pattern generation, in-memory tree
///        build/read, k-means, and the storage kernels every file-cache
///        hit runs (LZ4 encode/decode, CRC32C).

#include <benchmark/benchmark.h>

#include <cstring>

#include "chunk/ram_store.hpp"
#include "codec/lz4.hpp"
#include "common/buffer.hpp"
#include "common/hash.hpp"
#include "common/random.hpp"
#include "dht/ring.hpp"
#include "engine/crc32c.hpp"
#include "meta/meta_store.hpp"
#include "meta/tree_builder.hpp"
#include "meta/tree_reader.hpp"
#include "qos/kmeans.hpp"
#include "version/version_manager.hpp"

namespace {

using namespace blobseer;

void BM_Mix64(benchmark::State& state) {
    std::uint64_t x = 1;
    for (auto _ : state) {
        x = mix64(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_Mix64);

void BM_Fnv1a64(benchmark::State& state) {
    const std::string s(static_cast<std::size_t>(state.range(0)), 'x');
    for (auto _ : state) {
        benchmark::DoNotOptimize(fnv1a64(s));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fnv1a64)->Arg(16)->Arg(256);

void BM_CreatesNode(benchmark::State& state) {
    const meta::TreeGeometry geo(64 << 10);
    const meta::WriteDescriptor w{5, 1 << 20, 256 << 10, 64 << 20,
                                  64 << 20};
    const meta::SlotRange r{128, 64};
    for (auto _ : state) {
        benchmark::DoNotOptimize(creates_node(w, r, geo));
    }
}
BENCHMARK(BM_CreatesNode);

void BM_CreatedRanges(benchmark::State& state) {
    const meta::TreeGeometry geo(64 << 10);
    // One-chunk write into a blob of range(0) slots.
    const std::uint64_t slots = static_cast<std::uint64_t>(state.range(0));
    const std::uint64_t size = slots * (64 << 10);
    const meta::WriteDescriptor w{5, size / 2, 64 << 10, size, size};
    for (auto _ : state) {
        benchmark::DoNotOptimize(created_ranges(w, geo));
    }
}
BENCHMARK(BM_CreatedRanges)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RingLookup(benchmark::State& state) {
    dht::Ring ring;
    for (NodeId n = 0; n < static_cast<NodeId>(state.range(0)); ++n) {
        ring.add_node(n);
    }
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ring.owners(mix64(++key), 3));
    }
}
BENCHMARK(BM_RingLookup)->Arg(4)->Arg(32)->Arg(256);

void BM_RamStorePutGet(benchmark::State& state) {
    chunk::RamStore store;
    const auto data = std::make_shared<Buffer>(
        static_cast<std::size_t>(state.range(0)), 0xAB);
    std::uint64_t uid = 0;
    for (auto _ : state) {
        const chunk::ChunkKey key{1, ++uid};
        store.put(key, data);
        benchmark::DoNotOptimize(store.get(key));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RamStorePutGet)->Arg(4 << 10)->Arg(64 << 10);

void BM_PatternFill(benchmark::State& state) {
    Buffer buf(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        fill_pattern(1, 2, 4096, buf);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatternFill)->Arg(4 << 10)->Arg(1 << 20);

/// Compressible input for the kernel benches: 64-byte lines alternating
/// between random words and a repeated byte (about 2:1 under LZ4, the
/// shape of the end-to-end benchmark's content).
[[nodiscard]] Buffer compressible(std::size_t size) {
    Buffer out(size);
    for (std::size_t i = 0; i + 8 <= size; i += 8) {
        const std::uint64_t word = i / 8;
        const std::uint64_t line = mix64(word / 8);
        const std::uint64_t v = (line & 1) != 0
                                    ? mix64(hash_combine(1, word))
                                    : 0x0101010101010101ULL * (line >> 56);
        std::memcpy(out.data() + i, &v, 8);
    }
    return out;
}

void BM_Lz4Compress(benchmark::State& state) {
    const codec::Lz4Codec lz4;
    const Buffer raw = compressible(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(lz4.compress(raw));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Lz4Compress)->Arg(4 << 10)->Arg(64 << 10);

void BM_Lz4Decompress(benchmark::State& state) {
    const codec::Lz4Codec lz4;
    const Buffer raw = compressible(static_cast<std::size_t>(state.range(0)));
    const Buffer block = lz4.compress(raw);
    for (auto _ : state) {
        benchmark::DoNotOptimize(lz4.decompress(block, raw.size()));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Lz4Decompress)->Arg(4 << 10)->Arg(64 << 10);

void BM_Crc32c(benchmark::State& state) {
    const Buffer raw = compressible(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine::crc32c(raw));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(64 << 10);

void BM_TreeBuildFullWrite(benchmark::State& state) {
    const std::uint64_t chunk = 64 << 10;
    const std::uint64_t slots = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        version::VersionManager vm;
        const auto info = vm.create_blob(chunk, 1);
        meta::InMemoryMetaStore store;
        auto ar = vm.assign(info.id, 0, slots * chunk);
        meta::BuildInput in;
        in.blob = info.id;
        in.chunk_size = chunk;
        in.version = ar.version;
        in.write_range = {0, slots * chunk};
        in.size_before = 0;
        in.size_after = slots * chunk;
        for (std::uint64_t i = 0; i < slots; ++i) {
            in.leaves.push_back(meta::MetaNode::leaf(
                {NodeId{1}}, i, static_cast<std::uint32_t>(chunk)));
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(build_version_tree(store, in));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_TreeBuildFullWrite)->Arg(64)->Arg(1024);

void BM_TreeReadPlan(benchmark::State& state) {
    const std::uint64_t chunk = 64 << 10;
    const std::uint64_t slots = 1024;
    version::VersionManager vm;
    const auto info = vm.create_blob(chunk, 1);
    meta::InMemoryMetaStore store;
    auto ar = vm.assign(info.id, 0, slots * chunk);
    meta::BuildInput in;
    in.blob = info.id;
    in.chunk_size = chunk;
    in.version = ar.version;
    in.write_range = {0, slots * chunk};
    in.size_before = 0;
    in.size_after = slots * chunk;
    for (std::uint64_t i = 0; i < slots; ++i) {
        in.leaves.push_back(meta::MetaNode::leaf(
            {NodeId{1}}, i, static_cast<std::uint32_t>(chunk)));
    }
    build_version_tree(store, in);
    vm.commit(info.id, 1);

    Rng rng(5);
    const std::uint64_t span = 8 * chunk;
    for (auto _ : state) {
        const std::uint64_t off =
            rng.below(slots - 8) * chunk;
        benchmark::DoNotOptimize(meta::plan_read(
            store, info.id, 1, chunk, slots * chunk, {off, span}));
    }
}
BENCHMARK(BM_TreeReadPlan);

void BM_KMeans(benchmark::State& state) {
    Rng rng(3);
    std::vector<qos::FeatureVec> points;
    for (int i = 0; i < 256; ++i) {
        points.push_back({rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(qos::kmeans(points, 4, 25, 9));
    }
}
BENCHMARK(BM_KMeans);

}  // namespace

BENCHMARK_MAIN();
