#include "meta/write_descriptor.hpp"

namespace blobseer::meta {

namespace {

void collect(const WriteDescriptor& w, const TreeGeometry& geo,
             const SlotRange& r, std::vector<SlotRange>& out) {
    if (!creates_node(w, r, geo)) {
        return;
    }
    out.push_back(r);
    if (!r.is_leaf()) {
        collect(w, geo, r.left(), out);
        collect(w, geo, r.right(), out);
    }
}

/// \p r is created by \p w; append the borders below it.
void collect_borders(const WriteDescriptor& w, const TreeGeometry& geo,
                     const SlotRange& r, std::vector<SlotRange>& out) {
    if (r.is_leaf()) {
        return;
    }
    for (const SlotRange& child : {r.left(), r.right()}) {
        if (creates_node(w, child, geo)) {
            collect_borders(w, geo, child, out);
        } else {
            out.push_back(child);
        }
    }
}

}  // namespace

std::vector<SlotRange> created_ranges(const WriteDescriptor& w,
                                      const TreeGeometry& geo) {
    std::vector<SlotRange> out;
    const SlotRange root = geo.root_range(w.size_after);
    if (!root.empty()) {
        collect(w, geo, root, out);
    }
    return out;
}

std::vector<SlotRange> border_ranges(const WriteDescriptor& w,
                                     const TreeGeometry& geo) {
    std::vector<SlotRange> out;
    const SlotRange root = geo.root_range(w.size_after);
    if (!root.empty() && creates_node(w, root, geo)) {
        collect_borders(w, geo, root, out);
    }
    return out;
}

}  // namespace blobseer::meta
