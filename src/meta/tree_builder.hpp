/// \file tree_builder.hpp
/// \brief Construction of one version's metadata segment tree.
///
/// Implements the write-side metadata algorithm of paper §I-B.3: a writer
/// that was assigned version v builds a *new* tree for v without modifying
/// any existing node, by combining three kinds of children:
///
///  * nodes it creates itself (ranges its write touches, plus bridge
///    prefixes when the blob grew),
///  * *borrowed* references into the latest published tree,
///  * *woven* references to nodes of concurrent, not-yet-published
///    versions — predicted from their write descriptors alone, without
///    any communication with those writers.
///
/// The version manager names the node behind each of these references in
/// the assign reply (BuildInput::borders), so the builder reads no
/// metadata. It reads base nodes (O(log n) fetches along the write
/// boundary) only for a border the reply leaves out: one whose node lies
/// in a clone origin's tree.
///
/// Weaving is what gives BlobSeer write/write concurrency: the only
/// serialization between concurrent writers is the version-manager assign
/// step.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "meta/meta_node.hpp"
#include "meta/meta_store.hpp"
#include "meta/write_descriptor.hpp"

namespace blobseer::meta {

/// Reference to an existing tree to borrow from: the latest published
/// version at assign time, or — for the first write after a CLONE — the
/// origin blob's cloned version.
struct TreeRef {
    BlobId blob = kInvalidBlob;
    Version version = 0;
    std::uint64_t size = 0;

    [[nodiscard]] bool valid() const noexcept {
        return blob != kInvalidBlob && size > 0;
    }
};

/// Cursor that co-descends the borrow tree while the builder descends the
/// new tree. Three states:
///  * null     — no data below this range (reads as holes),
///  * virtual  — the new tree is taller than the borrow tree and this
///               range strictly contains the borrow root (no stored node
///               covers it); synthesized on the fly,
///  * real     — a stored node covers exactly this range; its key is known
///               and its content is fetched only if the descent continues.
class BorrowCursor {
  public:
    /// Cursor covering \p target_root of the new tree, borrowing from
    /// \p base. \p base_root_slots is the slot capacity of base's tree.
    [[nodiscard]] static BorrowCursor root(const TreeRef& base,
                                           const TreeGeometry& geo,
                                           const SlotRange& target_root);

    [[nodiscard]] static BorrowCursor null() { return BorrowCursor{}; }

    /// True iff a stored node covers exactly the current range.
    [[nodiscard]] bool is_real() const noexcept {
        return state_ == State::kReal;
    }

    [[nodiscard]] bool is_null() const noexcept {
        return state_ == State::kNull;
    }

    /// Reference to the covering node (valid only when is_real()).
    [[nodiscard]] ChildRef ref() const noexcept {
        return {blob_, version_};
    }

    /// Produce cursors for the two halves of the current range, fetching
    /// the covering node's content from \p store when necessary.
    /// \p reads is incremented once per store fetch (metadata-overhead
    /// accounting for the experiments).
    [[nodiscard]] std::pair<BorrowCursor, BorrowCursor> descend(
        MetaStore& store, std::size_t& reads) const;

  private:
    enum class State : std::uint8_t { kNull, kVirtual, kReal };

    BorrowCursor() = default;

    State state_ = State::kNull;
    SlotRange range_;
    // Real: key of the covering node. Virtual: key of the borrow root
    // buried somewhere below the left spine.
    BlobId blob_ = kInvalidBlob;
    Version version_ = 0;
    std::uint64_t base_slots_ = 0;  // virtual only
};

/// The node filling one border range of a new tree (see
/// meta::border_ranges): the newest non-aborted earlier version that
/// creates \p range, or a hole when none does.
struct BorderRef {
    SlotRange range;
    ChildRef ref;

    friend bool operator==(const BorderRef&, const BorderRef&) = default;
};

/// Everything the builder needs; assembled by the client from the version
/// manager's assign reply.
struct BuildInput {
    BlobId blob = kInvalidBlob;
    std::uint64_t chunk_size = 0;
    Version version = 0;
    /// Written byte range (offset chunk-aligned; see core/blob_client).
    ByteRange write_range;
    std::uint64_t size_before = 0;
    std::uint64_t size_after = 0;
    /// Latest published tree at assign time (invalid for a fresh blob).
    TreeRef base;
    /// Write descriptors of unpublished versions in (base.version, version),
    /// ascending by version.
    std::vector<WriteDescriptor> concurrent;
    /// Known fillers of this version's border ranges. A border range with
    /// no entry is resolved by descending \p base.
    std::vector<BorderRef> borders;
    /// One leaf node per written slot, in slot order (replica lists and
    /// stored byte counts filled in by the caller after chunk upload).
    std::vector<MetaNode> leaves;
};

struct BuildResult {
    MetaKey root;
    std::size_t nodes_created = 0;
    std::size_t store_reads = 0;
};

/// Build and store version `in.version`'s tree. The descent reads base
/// nodes only on the way to a border range `in.borders` leaves out; the
/// nodes it creates go to \p store in one put_many
/// call before the function returns, so the caller can commit to the
/// version manager immediately afterwards.
BuildResult build_version_tree(MetaStore& store, const BuildInput& in);

}  // namespace blobseer::meta
