/// \file test_cache.cpp
/// \brief CompressedFileCache + LruFileIndex tests (DESIGN.md §14.2).
///
/// The cache is the disposable middle tier: every test here ultimately
/// checks one property — no failure mode (eviction, corruption, deleted
/// directory, write errors) may ever surface bad bytes; the worst
/// allowed outcome is a miss.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/compressed_file_cache.hpp"
#include "cache/lru_file_index.hpp"
#include "common/buffer.hpp"

namespace blobseer::cache {
namespace {

class TempDir {
  public:
    TempDir() {
        static std::atomic<int> counter{0};
        path_ = std::filesystem::temp_directory_path() /
                ("blobseer-cache-test-" +
                 std::to_string(counter.fetch_add(1)) + "-" +
                 std::to_string(::getpid()));
        std::filesystem::remove_all(path_);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  private:
    std::filesystem::path path_;
};

[[nodiscard]] Buffer compressible(std::size_t n, std::uint8_t seed) {
    Buffer b(n);
    for (std::size_t i = 0; i < n; ++i) {
        b[i] = static_cast<std::uint8_t>((i / 64 + seed) & 0xFF);
    }
    return b;
}

[[nodiscard]] Buffer incompressible(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    Buffer b(n);
    for (auto& byte : b) {
        byte = static_cast<std::uint8_t>(rng());
    }
    return b;
}

[[nodiscard]] FileCacheConfig small_config(const TempDir& dir,
                                           std::uint64_t budget,
                                           std::uint64_t file_target = 1
                                                                       << 16) {
    FileCacheConfig cfg;
    cfg.dir = dir.path();
    cfg.budget_bytes = budget;
    cfg.file_target_bytes = file_target;
    return cfg;
}

// ---- LruFileIndex -----------------------------------------------------------

TEST(LruFileIndex, InsertFindEraseAccounting) {
    LruFileIndex idx;
    idx.insert("a", FileLocation{1, 0, 100, 40});
    idx.insert("b", FileLocation{1, 56, 200, 80});
    EXPECT_EQ(idx.size(), 2u);
    EXPECT_EQ(idx.stored_bytes(), 120u);
    EXPECT_EQ(idx.raw_bytes(), 300u);

    const auto a = idx.find("a", /*touch=*/false);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->stored_len, 40u);

    const auto gone = idx.erase("a");
    ASSERT_TRUE(gone.has_value());
    EXPECT_EQ(idx.size(), 1u);
    EXPECT_EQ(idx.stored_bytes(), 80u);
    EXPECT_FALSE(idx.find("a", false).has_value());
}

TEST(LruFileIndex, TouchControlsEvictionOrder) {
    LruFileIndex idx;
    idx.insert("a", FileLocation{1, 0, 10, 10});
    idx.insert("b", FileLocation{1, 30, 10, 10});
    idx.insert("c", FileLocation{1, 60, 10, 10});
    // Touch "a": it becomes most-recent, so "b" is now the LRU victim.
    (void)idx.find("a", /*touch=*/true);
    const auto victim = idx.pop_lru();
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->key, "b");
}

TEST(LruFileIndex, ReinsertRefreshesLocationAndBytes) {
    LruFileIndex idx;
    idx.insert("k", FileLocation{1, 0, 100, 90});
    idx.insert("k", FileLocation{2, 16, 100, 50});
    EXPECT_EQ(idx.size(), 1u);
    EXPECT_EQ(idx.stored_bytes(), 50u);
    const auto loc = idx.find("k", false);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(loc->file_id, 2u);
}

TEST(LruFileIndex, EraseFileDropsEveryResident) {
    LruFileIndex idx;
    idx.insert("a", FileLocation{1, 0, 10, 10});
    idx.insert("b", FileLocation{2, 0, 10, 10});
    idx.insert("c", FileLocation{1, 30, 10, 10});
    EXPECT_EQ(idx.erase_file(1), 2u);
    EXPECT_EQ(idx.size(), 1u);
    EXPECT_TRUE(idx.contains("b"));
}

// ---- CompressedFileCache ----------------------------------------------------

TEST(CompressedFileCache, PutGetRoundTrip) {
    TempDir dir;
    CompressedFileCache cache(small_config(dir, 4 << 20));
    const Buffer v1 = compressible(10000, 1);
    const Buffer v2 = incompressible(4096, 7);
    cache.put("one", ConstBytes(v1.data(), v1.size()));
    cache.put("two", ConstBytes(v2.data(), v2.size()));

    const auto got1 = cache.get("one");
    const auto got2 = cache.get("two");
    ASSERT_TRUE(got1.has_value());
    ASSERT_TRUE(got2.has_value());
    EXPECT_TRUE(*got1 == v1);
    EXPECT_TRUE(*got2 == v2);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 0u);
    // Compressible values must actually be stored compressed.
    EXPECT_TRUE(cache.stored_bytes() < cache.raw_bytes());
}

TEST(CompressedFileCache, MissAndEraseSemantics) {
    TempDir dir;
    CompressedFileCache cache(small_config(dir, 4 << 20));
    EXPECT_FALSE(cache.get("absent").has_value());
    EXPECT_EQ(cache.misses(), 1u);

    const Buffer v = compressible(1000, 2);
    cache.put("k", ConstBytes(v.data(), v.size()));
    EXPECT_TRUE(cache.contains("k"));
    cache.erase("k");
    EXPECT_FALSE(cache.contains("k"));
    EXPECT_FALSE(cache.get("k").has_value());
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.stored_bytes(), 0u);
}

TEST(CompressedFileCache, BudgetEvictsLeastRecentlyUsed) {
    TempDir dir;
    // Budget sized in *compressed* bytes: incompressible 4 KiB values
    // store at ~4 KiB each, so an 16 KiB budget holds at most 4.
    CompressedFileCache cache(small_config(dir, 16 << 10, 8 << 10));
    std::vector<Buffer> values;
    for (int i = 0; i < 8; ++i) {
        values.push_back(incompressible(4096, 100 + i));
        const std::string key = "k" + std::to_string(i);
        cache.put(key, ConstBytes(values.back().data(),
                                  values.back().size()));
    }
    EXPECT_TRUE(cache.stored_bytes() <= (16u << 10));
    EXPECT_TRUE(cache.evictions() >= 4u);
    // Oldest keys evicted, newest still present and intact.
    EXPECT_FALSE(cache.contains("k0"));
    const auto last = cache.get("k7");
    ASSERT_TRUE(last.has_value());
    EXPECT_TRUE(*last == values[7]);
}

TEST(CompressedFileCache, BudgetCountsCompressedNotRawBytes) {
    TempDir dir;
    // 64 KiB budget; 1 MiB of highly-compressible raw data fits because
    // eviction is budgeted on stored (compressed) bytes.
    CompressedFileCache cache(small_config(dir, 64 << 10));
    std::vector<Buffer> values;
    for (int i = 0; i < 16; ++i) {
        values.push_back(compressible(64 << 10, static_cast<uint8_t>(i)));
        cache.put("k" + std::to_string(i),
                  ConstBytes(values.back().data(), values.back().size()));
    }
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.entries(), 16u);
    for (int i = 0; i < 16; ++i) {
        const auto got = cache.get("k" + std::to_string(i));
        ASSERT_TRUE(got.has_value());
        EXPECT_TRUE(*got == values[static_cast<std::size_t>(i)]);
    }
}

TEST(CompressedFileCache, FileRotationAndSpaceReclaim) {
    TempDir dir;
    // Tiny file target forces rotation; erasing everything must drain
    // the files and reclaim their disk space.
    CompressedFileCache cache(small_config(dir, 4 << 20, 4 << 10));
    for (int i = 0; i < 32; ++i) {
        const Buffer v = incompressible(2048, 500 + i);
        cache.put("k" + std::to_string(i), ConstBytes(v.data(), v.size()));
    }
    EXPECT_TRUE(cache.file_count() > 1u);
    for (int i = 0; i < 32; ++i) {
        cache.erase("k" + std::to_string(i));
    }
    EXPECT_EQ(cache.entries(), 0u);
    // Only the active file may remain.
    EXPECT_EQ(cache.file_count(), 1u);
    EXPECT_TRUE(cache.physical_bytes() <= (8u << 10));
}

TEST(CompressedFileCache, PhysicalBoundRetiresGarbageFiles) {
    TempDir dir;
    // Overwrite the same keys repeatedly: logical eviction leaves dead
    // bytes in old files; the physical bound must retire them instead of
    // letting the directory grow without limit.
    CompressedFileCache cache(small_config(dir, 32 << 10, 4 << 10));
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 4; ++i) {
            const Buffer v = incompressible(2048, round * 100 + i);
            cache.erase("k" + std::to_string(i));
            cache.put("k" + std::to_string(i),
                      ConstBytes(v.data(), v.size()));
        }
    }
    const std::uint64_t bound =
        2 * ((32ULL << 10) + (4ULL << 10)) + (8ULL << 10);
    EXPECT_TRUE(cache.physical_bytes() <= bound);
}

TEST(CompressedFileCache, CorruptEntryIsDroppedNotServed) {
    TempDir dir;
    CompressedFileCache cache(small_config(dir, 4 << 20));
    const Buffer v = compressible(8192, 9);
    cache.put("victim", ConstBytes(v.data(), v.size()));
    cache.put("bystander", ConstBytes(v.data(), v.size()));

    // Flip one byte in every cache file: at least the victim's stored
    // frame (or CRC) is damaged.
    for (const auto& entry :
         std::filesystem::directory_iterator(dir.path())) {
        std::FILE* f = std::fopen(entry.path().c_str(), "r+b");
        ASSERT_TRUE(f != nullptr);
        std::fseek(f, 20, SEEK_SET);  // inside the first entry
        int c = std::fgetc(f);
        std::fseek(f, 20, SEEK_SET);
        std::fputc(c ^ 0xFF, f);
        std::fclose(f);
    }

    // Integrity failure must read as a miss, never as wrong bytes.
    const auto got = cache.get("victim");
    if (got.has_value()) {
        EXPECT_TRUE(*got == v);  // corruption landed elsewhere
    } else {
        EXPECT_TRUE(cache.crc_failures() >= 1u);
        // The entry is dropped: the next lookup is a plain miss.
        EXPECT_FALSE(cache.contains("victim"));
    }
}

TEST(CompressedFileCache, DeletedDirectoryTurnsIntoMisses) {
    TempDir dir;
    CompressedFileCache cache(small_config(dir, 4 << 20, 2 << 10));
    std::vector<Buffer> values;
    for (int i = 0; i < 8; ++i) {
        values.push_back(compressible(4096, static_cast<uint8_t>(i)));
        cache.put("k" + std::to_string(i),
                  ConstBytes(values.back().data(), values.back().size()));
    }

    // rm -rf the live cache directory. Held descriptors keep resident
    // entries readable (POSIX unlink semantics); what matters is that no
    // call fails and no wrong bytes appear.
    std::filesystem::remove_all(dir.path());
    for (int i = 0; i < 8; ++i) {
        const auto got = cache.get("k" + std::to_string(i));
        if (got.has_value()) {
            EXPECT_TRUE(*got == values[static_cast<std::size_t>(i)]);
        }
    }

    // New insertions keep working (the unlinked active file still takes
    // appends), and the next file rotation recreates the directory.
    std::vector<Buffer> fresh;
    for (int i = 0; i < 8; ++i) {
        fresh.push_back(incompressible(1024, 900 + i));
        cache.put("fresh" + std::to_string(i),
                  ConstBytes(fresh.back().data(), fresh.back().size()));
    }
    for (int i = 0; i < 8; ++i) {
        const auto got = cache.get("fresh" + std::to_string(i));
        if (got.has_value()) {
            EXPECT_TRUE(*got == fresh[static_cast<std::size_t>(i)]);
        }
    }
    // 8 KiB of incompressible data through a 2 KiB file target rotated
    // at least once, recreating the directory.
    EXPECT_TRUE(std::filesystem::exists(dir.path()));
}

TEST(CompressedFileCache, ClearDropsEverything) {
    TempDir dir;
    CompressedFileCache cache(small_config(dir, 4 << 20));
    const Buffer v = compressible(4096, 3);
    for (int i = 0; i < 8; ++i) {
        cache.put("k" + std::to_string(i), ConstBytes(v.data(), v.size()));
    }
    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.stored_bytes(), 0u);
    EXPECT_FALSE(cache.get("k0").has_value());
    // Still usable afterwards.
    cache.put("again", ConstBytes(v.data(), v.size()));
    EXPECT_TRUE(cache.get("again").has_value());
}

// Regression: keys are binary (TieredStore encodes ChunkKeys as raw
// little-endian bytes), and the key-verify compare once ran char vs
// uint8_t — every key with a byte >= 0x80 read back as "corrupt".
TEST(CompressedFileCache, HighBitKeyBytesRoundTrip) {
    TempDir dir;
    CompressedFileCache cache(small_config(dir, 4 << 20));
    std::string key(16, '\0');
    for (std::size_t i = 0; i < key.size(); ++i) {
        key[i] = static_cast<char>(0x80 + i);
    }
    const Buffer v = compressible(4096, 5);
    cache.put(key, ConstBytes(v.data(), v.size()));
    const auto got = cache.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(*got == v);
    EXPECT_EQ(cache.crc_failures(), 0u);
}

TEST(CompressedFileCache, FreshenDoesNotDuplicate) {
    TempDir dir;
    CompressedFileCache cache(small_config(dir, 4 << 20));
    const Buffer v = compressible(4096, 4);
    cache.put("k", ConstBytes(v.data(), v.size()));
    const auto stored = cache.stored_bytes();
    const auto physical = cache.physical_bytes();
    for (int i = 0; i < 10; ++i) {
        cache.put("k", ConstBytes(v.data(), v.size()));
    }
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.stored_bytes(), stored);
    // A present key is found before any encode or append: counted as
    // present, not inserted, and no file bytes written.
    EXPECT_EQ(cache.put_present(), 10u);
    EXPECT_EQ(cache.insertions(), 1u);
    EXPECT_EQ(cache.physical_bytes(), physical);
}

TEST(CompressedFileCache, ConcurrentPutGetEraseIsSafe) {
    TempDir dir;
    CompressedFileCache cache(small_config(dir, 256 << 10, 16 << 10));
    constexpr int kThreads = 4;
    constexpr int kOps = 400;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    std::atomic<int> bad{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &bad, t] {
            std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 7919 + 1);
            for (int i = 0; i < kOps; ++i) {
                const int slot = static_cast<int>(rng() % 16);
                const std::string key = "k" + std::to_string(slot);
                // Deterministic per-key bytes so any cross-thread
                // corruption is detectable.
                const Buffer v =
                    compressible(1024 + static_cast<std::size_t>(slot) * 64,
                                 static_cast<std::uint8_t>(slot));
                switch (rng() % 4) {
                    case 0:
                        cache.put(key, ConstBytes(v.data(), v.size()));
                        break;
                    case 1: {
                        const auto got = cache.get(key);
                        if (got.has_value() && !(*got == v)) {
                            bad.fetch_add(1);
                        }
                        break;
                    }
                    case 2:
                        (void)cache.contains(key);
                        break;
                    case 3:
                        cache.erase(key);
                        break;
                }
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace blobseer::cache
