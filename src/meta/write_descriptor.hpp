/// \file write_descriptor.hpp
/// \brief Write descriptors and the node-creation rule.
///
/// The version manager records, for every assigned version, *what* it
/// writes (offset, size) and the blob size before/after. This tiny record
/// is all another writer needs to predict every metadata node that version
/// will create ("weaving", paper §I-B.3): in a segment tree, the ancestors
/// of the written leaves are exactly the nodes whose range intersects the
/// written range — plus, when a write grows the tree, the prefix "bridge"
/// nodes that splice the old, shorter tree under the new, taller root.

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "meta/slot_range.hpp"

namespace blobseer::meta {

/// Record of one assigned write/append kept by the version manager.
struct WriteDescriptor {
    Version version = 0;
    /// Written byte range.
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    /// Blob size before this version (== size of version-1's snapshot).
    std::uint64_t size_before = 0;
    /// Blob size after this version (max(size_before, offset + size)).
    std::uint64_t size_after = 0;

    [[nodiscard]] ByteRange range() const noexcept { return {offset, size}; }
};

/// True iff version \p w creates tree node (w, \p r).
///
/// Rule (see file comment): within w's tree bounds, w creates every node
/// whose range intersects w's written slots, plus every prefix range
/// [0, 2^k) that is new in w's (taller) tree. The rule is shared verbatim
/// by the builder (to decide what to write) and by concurrent writers (to
/// predict keys) — a mismatch would dangle references, so it lives in
/// exactly one place.
[[nodiscard]] inline bool creates_node(const WriteDescriptor& w,
                                       const SlotRange& r,
                                       const TreeGeometry& geo) noexcept {
    const std::uint64_t slots_after = geo.tree_slots(w.size_after);
    // Within w's tree bounds? (ranges are pow2-aligned, so first < bound
    // and count <= bound imply end <= bound)
    if (r.first >= slots_after || r.count > slots_after) {
        return false;
    }
    if (r.intersects(geo.slots_of(w.range()))) {
        return true;
    }
    // Bridge prefix: the tree grew past the old root; w must create the
    // chain of prefixes that contain the old root.
    const std::uint64_t slots_before = geo.tree_slots(w.size_before);
    return r.first == 0 && r.count > slots_before;
}

/// Enumerate every node key range version \p w creates (used for garbage
/// collection of aborted versions and for metadata-overhead accounting).
[[nodiscard]] std::vector<SlotRange> created_ranges(const WriteDescriptor& w,
                                                    const TreeGeometry& geo);

/// Enumerate the *border* ranges of \p w's tree: the children of nodes
/// \p w creates that \p w does not create itself. These are the only
/// ranges whose node \p w's tree takes from another version (at most two
/// per tree level, along the write's edges), in depth-first order.
[[nodiscard]] std::vector<SlotRange> border_ranges(const WriteDescriptor& w,
                                                   const TreeGeometry& geo);

}  // namespace blobseer::meta
