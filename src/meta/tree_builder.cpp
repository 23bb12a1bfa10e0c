#include "meta/tree_builder.hpp"

#include <cassert>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace blobseer::meta {

BorrowCursor BorrowCursor::root(const TreeRef& base, const TreeGeometry& geo,
                                const SlotRange& target_root) {
    BorrowCursor c;
    if (!base.valid() || target_root.empty()) {
        return c;  // null
    }
    const std::uint64_t base_slots = geo.tree_slots(base.size);
    c.range_ = target_root;
    c.blob_ = base.blob;
    c.version_ = base.version;
    c.base_slots_ = base_slots;
    if (target_root.count == base_slots) {
        c.state_ = State::kReal;
    } else if (target_root.count > base_slots) {
        c.state_ = State::kVirtual;
    } else {
        // Blob sizes are monotone, so the new tree can never be shorter
        // than the published one.
        throw ConsistencyError("borrow tree taller than target tree");
    }
    return c;
}

std::pair<BorrowCursor, BorrowCursor> BorrowCursor::descend(
    MetaStore& store, std::size_t& reads) const {
    switch (state_) {
        case State::kNull:
            return {null(), null()};

        case State::kVirtual: {
            // range_ = [0, 2^k) strictly containing the borrow root
            // [0, base_slots_). The left half either still contains it
            // (stay virtual) or *is* it (become real); the right half is
            // beyond any borrowed data.
            BorrowCursor left;
            left.range_ = range_.left();
            left.blob_ = blob_;
            left.version_ = version_;
            left.base_slots_ = base_slots_;
            assert(left.range_.count >= base_slots_);
            left.state_ = left.range_.count == base_slots_ ? State::kReal
                                                           : State::kVirtual;
            return {left, null()};
        }

        case State::kReal: {
            assert(!range_.is_leaf() && "descend through a leaf");
            const MetaNode node = store.get({blob_, version_, range_});
            ++reads;
            if (node.is_leaf()) {
                throw ConsistencyError("inner-range node stored as leaf at " +
                                       range_.to_string());
            }
            auto make = [this](const ChildRef& ref,
                               const SlotRange& r) -> BorrowCursor {
                if (ref.is_hole()) {
                    return null();
                }
                BorrowCursor c;
                c.state_ = State::kReal;
                c.range_ = r;
                c.blob_ = ref.blob;
                c.version_ = ref.version;
                return c;
            };
            return {make(node.left, range_.left()),
                    make(node.right, range_.right())};
        }
    }
    return {null(), null()};
}

namespace {

/// Recursive tree construction; see the algorithm sketch in the header.
class Builder {
  public:
    Builder(MetaStore& store, const BuildInput& in)
        : store_(store),
          in_(in),
          geo_(in.chunk_size),
          write_slots_(geo_.slots_of(in.write_range)),
          slots_before_(geo_.tree_slots(in.size_before)) {}

    BuildResult run() {
        const SlotRange root = geo_.root_range(in_.size_after);
        if (root.empty()) {
            throw InvalidArgument("building a tree for an empty blob");
        }
        const ChildRef ref =
            recurse(root, BorrowCursor::root(in_.base, geo_, root));
        if (ref.blob != in_.blob || ref.version != in_.version) {
            // The root always intersects the write range, so the writer
            // always creates it; anything else is a geometry bug.
            throw ConsistencyError("writer did not create its own root");
        }
        // Nothing references the new nodes until the version publishes,
        // so they need no particular store order: ship them all at once.
        store_.put_many(created_);
        return {MetaKey{in_.blob, in_.version, root}, created_.size(),
                store_reads_};
    }

  private:
    [[nodiscard]] bool is_bridge(const SlotRange& r) const noexcept {
        return r.first == 0 && r.count > slots_before_;
    }

    /// Who provides the node covering \p r in the new tree when this
    /// writer does not create it: the newest concurrent version that
    /// creates it, else the borrowed node, else a hole.
    [[nodiscard]] ChildRef resolve(const SlotRange& r,
                                   const BorrowCursor& cursor) const {
        for (auto it = in_.concurrent.rbegin(); it != in_.concurrent.rend();
             ++it) {
            if (creates_node(*it, r, geo_)) {
                return {in_.blob, it->version};
            }
        }
        if (cursor.is_real()) {
            return cursor.ref();
        }
        return {};  // hole
    }

    ChildRef recurse(const SlotRange& r, const BorrowCursor& cursor) {
        const bool mine = r.intersects(write_slots_) || is_bridge(r);
        if (!mine) {
            return resolve(r, cursor);
        }
        if (r.is_leaf()) {
            put_leaf(r);
            return {in_.blob, in_.version};
        }
        BorrowCursor lc = BorrowCursor::null();
        BorrowCursor rc = BorrowCursor::null();
        // Fetch borrow content only when some descendant may need to
        // resolve through it; subtrees fully overwritten by this write
        // never look at old metadata.
        if (!write_slots_.contains(r)) {
            std::tie(lc, rc) = cursor.descend(store_, store_reads_);
        }
        const ChildRef left = recurse(r.left(), lc);
        const ChildRef right = recurse(r.right(), rc);
        created_.push_back(
            {{in_.blob, in_.version, r}, MetaNode::inner(left, right)});
        return {in_.blob, in_.version};
    }

    void put_leaf(const SlotRange& r) {
        MetaNode leaf;
        if (r.intersects(write_slots_)) {
            const std::uint64_t idx = r.first - write_slots_.first;
            if (idx >= in_.leaves.size()) {
                throw InvalidArgument("missing leaf payload for slot " +
                                      std::to_string(r.first));
            }
            leaf = in_.leaves[idx];
        } else {
            // Bridge hole leaf: the blob's very first write starts past
            // slot 0, so the prefix chain bottoms out in an empty leaf.
            leaf = MetaNode::leaf({}, 0, 0);
        }
        created_.push_back({{in_.blob, in_.version, r}, std::move(leaf)});
    }

    MetaStore& store_;
    const BuildInput& in_;
    TreeGeometry geo_;
    SlotRange write_slots_;
    std::uint64_t slots_before_;
    std::vector<KeyedNode> created_;  // stored in one batch by run()
    std::size_t store_reads_ = 0;
};

}  // namespace

BuildResult build_version_tree(MetaStore& store, const BuildInput& in) {
    if (in.write_range.size == 0) {
        throw InvalidArgument("zero-sized write");
    }
    if (in.leaves.size() !=
        TreeGeometry(in.chunk_size).slots_of(in.write_range).count) {
        throw InvalidArgument("leaf payload count does not match write range");
    }
    Builder builder(store, in);
    return builder.run();
}

}  // namespace blobseer::meta
