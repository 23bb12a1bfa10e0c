/// \file test_tree_property.cpp
/// \brief Model-checked property tests of the versioned segment tree.
///
/// A flat reference model keeps the full byte content of every snapshot.
/// Random write/append sequences — including batches of *concurrent*
/// versions built and committed in adversarial orders — are applied to
/// both the real metadata machinery (VersionManager + tree builder +
/// tree reader over an InMemoryMetaStore) and the model; every snapshot
/// must then plan reads that byte-for-byte match the model. This is the
/// strongest guard on the paper's central claim: versioning-based
/// concurrency control with weaving produces linearizable snapshots
/// without writer-writer synchronization.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "common/random.hpp"
#include "engine/log_engine.hpp"
#include "meta/meta_store.hpp"
#include "meta/tree_builder.hpp"
#include "meta/tree_reader.hpp"
#include "testing_util.hpp"
#include "version/version_manager.hpp"

namespace blobseer {
namespace {

constexpr std::uint64_t kChunk = 8;

/// Reference model: full content of every version.
class ModelBlob {
  public:
    void apply(Version v, std::uint64_t offset, std::uint64_t size) {
        std::vector<std::uint64_t> snapshot =
            versions_.empty() ? std::vector<std::uint64_t>{}
                              : versions_.back();
        if (snapshot.size() < offset + size) {
            snapshot.resize(offset + size, 0);  // holes read as zeros
        }
        for (std::uint64_t i = 0; i < size; ++i) {
            snapshot[offset + i] = encode(v, offset, i);
        }
        versions_.push_back(std::move(snapshot));
        ASSERT_EQ(versions_.size(), v);
    }

    /// Expected source tag for byte \p pos of version \p v (0 = hole).
    [[nodiscard]] std::uint64_t at(Version v, std::uint64_t pos) const {
        return versions_.at(v - 1).at(pos);
    }

    [[nodiscard]] std::uint64_t size(Version v) const {
        return versions_.at(v - 1).size();
    }

    /// Tag identifying which (version, chunk-of-that-write) serves a byte.
    static std::uint64_t encode(Version v, std::uint64_t write_offset,
                                std::uint64_t i) {
        const std::uint64_t slot = (write_offset + i) / kChunk;
        return v * 1'000'000 + slot;
    }

  private:
    std::vector<std::vector<std::uint64_t>> versions_;
};

struct Harness {
    version::VersionManager vm;
    meta::InMemoryMetaStore store;
    version::BlobInfo info;
    ModelBlob model;

    Harness() { info = vm.create_blob(kChunk, 1); }

    /// Build (and optionally commit) an assigned write.
    void build(const version::AssignResult& ar, std::uint64_t size) {
        const meta::TreeGeometry geo(kChunk);
        meta::BuildInput in;
        in.blob = info.id;
        in.chunk_size = kChunk;
        in.version = ar.version;
        in.write_range = {ar.offset, size};
        in.size_before = ar.size_before;
        in.size_after = ar.size_after;
        in.base = ar.base;
        in.borders = ar.borders;
        const auto slots = geo.slots_of(in.write_range);
        for (std::uint64_t i = 0; i < slots.count; ++i) {
            const std::uint64_t slot = slots.first + i;
            const std::uint64_t begin = slot * kChunk;
            const std::uint64_t covered =
                std::min(begin + kChunk, ar.offset + size) - begin;
            in.leaves.push_back(meta::MetaNode::leaf(
                {NodeId{1}}, ar.version * 1'000'000 + slot,
                static_cast<std::uint32_t>(covered)));
        }
        build_version_tree(store, in);
    }

    /// Verify one snapshot against the model over its full extent plus a
    /// few random sub-ranges.
    void verify(Version v, Rng& rng) {
        const auto vi = vm.get_version(info.id, v);
        ASSERT_EQ(vi.size, model.size(v)) << "size mismatch at v" << v;
        verify_range(v, {0, vi.size});
        for (int i = 0; i < 4 && vi.size > 0; ++i) {
            const std::uint64_t off = rng.below(vi.size);
            const std::uint64_t len = 1 + rng.below(vi.size - off);
            verify_range(v, {off, len});
        }
        EXPECT_NO_THROW((void)meta::validate_tree(store, vi.tree.blob,
                                            vi.tree.version, kChunk,
                                            vi.size));
    }

    void verify_range(Version v, ByteRange range) {
        if (range.size == 0) {
            return;
        }
        const auto vi = vm.get_version(info.id, v);
        const auto plan = meta::plan_read(store, vi.tree.blob,
                                          vi.tree.version, kChunk, vi.size,
                                          range);
        std::uint64_t cursor = range.offset;
        for (const auto& seg : plan.segments) {
            ASSERT_EQ(seg.blob_range.offset, cursor) << "plan gap";
            for (std::uint64_t b = seg.blob_range.offset;
                 b < seg.blob_range.end(); ++b) {
                const std::uint64_t expected = model.at(v, b);
                const std::uint64_t actual = seg.hole ? 0 : seg.chunk.uid;
                ASSERT_EQ(actual, expected)
                    << "v" << v << " byte " << b << " range "
                    << to_string(range);
            }
            cursor = seg.blob_range.end();
        }
        ASSERT_EQ(cursor, range.end()) << "plan incomplete";
    }
};

/// Sequential random writes/appends: every snapshot matches the model.
class SequentialProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SequentialProperty, SnapshotsMatchModel) {
    Rng rng(GetParam());
    Harness h;
    const int steps = 40;
    for (int s = 0; s < steps; ++s) {
        const std::uint64_t cur = h.vm.get_version(h.info.id, kLatestVersion)
                                      .size;
        std::optional<std::uint64_t> offset;
        std::uint64_t size = 0;
        const double dice = rng.uniform();
        if (dice < 0.35 || cur == 0) {
            // Append (possibly unaligned tail), 1..40 bytes.
            size = 1 + rng.below(40);
        } else if (dice < 0.75) {
            // Interior aligned overwrite of whole chunks.
            const std::uint64_t slots = cur / kChunk;
            if (slots == 0) {
                size = 1 + rng.below(40);
            } else {
                const std::uint64_t first = rng.below(slots);
                const std::uint64_t count =
                    1 + rng.below(std::min<std::uint64_t>(slots - first, 4));
                offset = first * kChunk;
                size = count * kChunk;
            }
        } else {
            // Extending write at an aligned offset at/past the end
            // (creates holes when strictly past).
            const std::uint64_t base = ceil_div(cur, kChunk);
            offset = (base + rng.below(3)) * kChunk;
            size = 1 + rng.below(40);
        }
        // Unaligned appends in this direct-harness test bypass the
        // client's merge path, so only chunk-aligned boundaries are
        // modeled faithfully... align appends to chunk multiples unless
        // nothing follows in the same slot. Simplest: make every write
        // either aligned-size or the last one touching its tail slot.
        // Here we keep it honest by only issuing appends whose offset is
        // aligned (guaranteed when cur % kChunk == 0) and otherwise
        // rounding the append up to start a fresh slot via an explicit
        // extending write.
        if (!offset && cur % kChunk != 0) {
            offset = ceil_div(cur, kChunk) * kChunk;
        }
        auto ar = h.vm.assign(h.info.id, offset, size);
        h.build(ar, size);
        h.vm.commit(h.info.id, ar.version);
        h.model.apply(ar.version, ar.offset, size);
    }
    const Version latest = h.vm.latest(h.info.id);
    for (Version v = 1; v <= latest; ++v) {
        h.verify(v, rng);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequentialProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

/// Concurrent batches: K versions assigned together, built in a random
/// order, committed in another random order. Snapshots must equal the
/// model that applies them in *version* order (linearization order).
class ConcurrentProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConcurrentProperty, WeavingMatchesModel) {
    Rng rng(GetParam() * 977);
    Harness h;
    const int batches = 10;
    for (int bi = 0; bi < batches; ++bi) {
        const std::uint64_t cur =
            h.vm.get_version(h.info.id, kLatestVersion).size;
        const std::size_t k = 1 + rng.below(4);

        struct Pending {
            version::AssignResult ar;
            std::uint64_t size;
        };
        std::vector<Pending> batch;
        std::uint64_t running = cur;
        for (std::size_t i = 0; i < k; ++i) {
            std::optional<std::uint64_t> offset;
            std::uint64_t size = kChunk * (1 + rng.below(4));
            const double dice = rng.uniform();
            if (dice < 0.4 || running == 0) {
                // aligned append (running is always chunk-aligned here)
                offset = running;
            } else if (dice < 0.8) {
                const std::uint64_t slots = running / kChunk;
                const std::uint64_t first = rng.below(slots);
                const std::uint64_t count =
                    1 + rng.below(std::min<std::uint64_t>(slots - first, 4));
                offset = first * kChunk;
                size = count * kChunk;
            } else {
                offset = (running / kChunk + rng.below(3)) * kChunk;
            }
            auto ar = h.vm.assign(h.info.id, offset, size);
            running = ar.size_after;
            batch.push_back({std::move(ar), size});
        }

        // Build in random order (weaving), commit in another random order
        // (publication must still be in version order).
        std::vector<std::size_t> order(batch.size());
        std::iota(order.begin(), order.end(), 0);
        for (std::size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1], order[rng.below(i)]);
        }
        for (const std::size_t i : order) {
            h.build(batch[i].ar, batch[i].size);
        }
        for (std::size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1], order[rng.below(i)]);
        }
        for (const std::size_t i : order) {
            h.vm.commit(h.info.id, batch[i].ar.version);
        }
        // Model applies the batch in version order.
        std::sort(batch.begin(), batch.end(),
                  [](const Pending& a, const Pending& b) {
                      return a.ar.version < b.ar.version;
                  });
        for (const auto& p : batch) {
            h.model.apply(p.ar.version, p.ar.offset, p.size);
        }
        ASSERT_EQ(h.vm.latest(h.info.id), batch.back().ar.version);
    }
    const Version latest = h.vm.latest(h.info.id);
    for (Version v = 1; v <= latest; ++v) {
        h.verify(v, rng);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

/// Border refs from the version manager's creator index name exactly the
/// nodes a descent of the base tree finds. One journaled VersionManager
/// runs a random history over several blobs: concurrent writes and
/// appends, aborts of random pending versions (each takes its tail,
/// often mid-history), retirement, same-shard clones (whose borders may
/// lie in the origin's tree), and a restart midway that rebuilds the
/// creator index by journal replay. Every assign is built twice, into
/// two stores: once with the reply's borders, once with them withheld so
/// the builder descends. The two trees must match node for node.
class BorderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BorderProperty, BorderRefsEqualDescent) {
    Rng rng(GetParam());
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("blobseer-border-" + std::to_string(GetParam()) + "-" +
         std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    engine::EngineConfig jc;
    jc.dir = dir;
    jc.background_compaction = false;
    jc.checkpoint_interval_records = 0;
    auto vm = std::make_unique<version::VersionManager>();
    vm->attach_journal(std::make_shared<engine::LogEngine>(jc));

    meta::InMemoryMetaStore given;
    meta::InMemoryMetaStore descended;
    const meta::TreeGeometry geo(kChunk);
    std::vector<BlobId> blobs{vm->create_blob(kChunk, 1).id};
    std::set<BlobId> clones;
    std::vector<std::pair<BlobId, Version>> pending;
    std::size_t served = 0;
    std::size_t descents = 0;

    const auto assign_and_build = [&](BlobId blob) {
        std::optional<std::uint64_t> offset;
        std::uint64_t size = kChunk * (1 + rng.below(3));
        if (rng.uniform() < 0.5) {
            size = 1 + rng.below(3 * kChunk);  // append, often unaligned
        } else {
            offset = rng.below(24) * kChunk;  // may leave holes
        }
        const version::AssignResult ar = vm->assign(blob, offset, size);
        pending.emplace_back(blob, ar.version);

        meta::BuildInput in;
        in.blob = blob;
        in.chunk_size = kChunk;
        in.version = ar.version;
        in.write_range = {ar.offset, size};
        in.size_before = ar.size_before;
        in.size_after = ar.size_after;
        in.base = ar.base;
        in.concurrent = testing::concurrent_of(*vm, blob, ar);
        const meta::SlotRange slots = geo.slots_of(in.write_range);
        for (std::uint64_t i = 0; i < slots.count; ++i) {
            in.leaves.push_back(meta::MetaNode::leaf(
                {NodeId{1}}, ar.version * 1'000'000 + slots.first + i,
                static_cast<std::uint32_t>(kChunk)));
        }
        const meta::BuildResult by_descent = build_version_tree(descended, in);
        in.borders = ar.borders;
        const meta::BuildResult by_refs = build_version_tree(given, in);
        ASSERT_EQ(by_refs.root, by_descent.root);
        ASSERT_EQ(by_refs.nodes_created, by_descent.nodes_created);

        const meta::WriteDescriptor desc{ar.version, ar.offset, size,
                                         ar.size_before, ar.size_after};
        for (const meta::SlotRange& r : meta::created_ranges(desc, geo)) {
            const meta::MetaKey key{blob, ar.version, r};
            const meta::MetaNode a = given.get(key);
            const meta::MetaNode b = descended.get(key);
            ASSERT_EQ(a.is_leaf(), b.is_leaf()) << key.to_string();
            ASSERT_EQ(a.left, b.left) << key.to_string();
            ASSERT_EQ(a.right, b.right) << key.to_string();
            ASSERT_EQ(a.chunk_uid, b.chunk_uid) << key.to_string();
        }
        served += ar.borders.size();
        if (!clones.contains(blob)) {
            // A blob that is no clone has every border answered: its
            // writer reads no metadata at all.
            ASSERT_EQ(ar.borders.size(), border_ranges(desc, geo).size());
            ASSERT_EQ(by_refs.store_reads, 0u);
        } else {
            ASSERT_LE(by_refs.store_reads, by_descent.store_reads);
            descents += by_refs.store_reads;
        }
    };

    const int steps = 160;
    for (int step = 0; step < steps; ++step) {
        if (step == steps / 2) {
            // Restart: the creator index must come back from the journal.
            vm.reset();
            vm = std::make_unique<version::VersionManager>();
            vm->attach_journal(std::make_shared<engine::LogEngine>(jc));
        }
        const BlobId blob =
            rng.uniform() < 0.5 ? blobs[0] : blobs[rng.below(blobs.size())];
        const double dice = rng.uniform();
        if (dice < 0.45 || pending.empty()) {
            assign_and_build(blob);
            if (::testing::Test::HasFatalFailure()) {
                break;
            }
        } else if (dice < 0.75) {
            const std::size_t i = rng.below(pending.size());
            const auto [b, v] = pending[i];
            pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
            try {
                vm->commit(b, v);
            } catch (const VersionAborted&) {
                // Aborted by an earlier version's cascade.
            }
        } else if (dice < 0.84) {
            const auto [b, v] = pending[rng.below(pending.size())];
            vm->abort(b, v);
            std::erase_if(pending, [&](const auto& p) {
                return p.first == b && p.second >= v;
            });
        } else if (dice < 0.95) {
            if (const Version latest = vm->latest(blob); latest > 0) {
                (void)vm->retire(blob, latest);
            }
        } else {
            const Version from =
                rng.uniform() < 0.8 ? vm->latest(blob) : Version{0};
            const BlobId clone = vm->clone_blob(blob, from).id;
            blobs.push_back(clone);
            clones.insert(clone);
        }
    }
    for (const auto& [b, v] : pending) {
        try {
            vm->commit(b, v);
        } catch (const VersionAborted&) {
        }
    }
    for (const BlobId b : blobs) {
        const auto vi = vm->get_version(b, kLatestVersion);
        if (vi.tree.valid()) {
            EXPECT_NO_THROW((void)meta::validate_tree(
                given, vi.tree.blob, vi.tree.version, kChunk, vi.size));
        }
    }
    EXPECT_GT(served, 0u);
    RecordProperty("served", std::to_string(served));
    RecordProperty("descent_reads", std::to_string(descents));
    vm.reset();
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BorderProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace blobseer
