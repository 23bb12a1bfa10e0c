/// \file meta_node.hpp
/// \brief Keys and contents of versioned segment-tree nodes.
///
/// Node identity is the decisive design point of BlobSeer's metadata
/// scheme: a node is named by (blob, version, slot range), which is fully
/// *deterministic*. Any process that knows a version's write descriptor can
/// compute which nodes that version creates — without reading anything.
/// This is what lets concurrent writers "weave" references to each other's
/// not-yet-written nodes (paper §I-B.3, versioning-based concurrency
/// control) instead of synchronizing.
///
/// Nodes are immutable once written; they are only ever added, never
/// modified (the property that decouples readers from writers).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chunk/chunk_key.hpp"
#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/types.hpp"
#include "meta/slot_range.hpp"

namespace blobseer::meta {

/// DHT key of a tree node.
struct MetaKey {
    BlobId blob = kInvalidBlob;
    Version version = 0;
    SlotRange range;

    friend bool operator==(const MetaKey&, const MetaKey&) = default;

    [[nodiscard]] std::uint64_t hash() const noexcept {
        return mix64(hash_combine(
            hash_combine(hash_combine(blob, version), range.first),
            range.count));
    }

    [[nodiscard]] std::string to_string() const {
        return "node(b" + std::to_string(blob) + ",v" +
               std::to_string(version) + "," + range.to_string() + ")";
    }
};

struct MetaKeyHash {
    std::size_t operator()(const MetaKey& k) const noexcept {
        return static_cast<std::size_t>(k.hash());
    }
};

/// Reference from an inner node to the node covering one of its halves.
/// The child's slot range is implied by the parent (left/right half), so
/// only the owning blob and creating version are stored. A default
/// ChildRef (blob == kInvalidBlob) is a *hole*: that half contains no data
/// and reads as zeros.
///
/// The blob id is almost always the parent's blob; it differs only across
/// a CLONE boundary, where a cloned blob's tree borrows subtrees from its
/// origin.
struct ChildRef {
    BlobId blob = kInvalidBlob;
    Version version = 0;

    [[nodiscard]] bool is_hole() const noexcept {
        return blob == kInvalidBlob;
    }

    friend bool operator==(const ChildRef&, const ChildRef&) = default;
};

/// A stored tree node: either an inner node (two child refs) or a leaf
/// (the replica set of the chunk written into this slot by this node's
/// version). A leaf with an empty replica set is a hole leaf (can appear
/// at slot 0 when the first write of a blob starts past slot 0).
struct MetaNode {
    enum class Kind : std::uint8_t { kInner, kLeaf };

    Kind kind = Kind::kInner;

    // Inner payload.
    ChildRef left;
    ChildRef right;

    // Leaf payload: data providers holding replicas of this slot's chunk.
    std::vector<NodeId> replicas;

    /// Unique id of the stored chunk (see chunk::ChunkKey). For a
    /// content-addressed leaf (cas below) this is the low half of the
    /// chunk digest instead.
    std::uint64_t chunk_uid = 0;

    /// Actual payload bytes stored in the chunk (<= chunk_size; smaller
    /// only for the blob's trailing chunk).
    std::uint32_t chunk_bytes = 0;

    /// Content-addressed leaf: the chunk is named by its SHA-256
    /// truncation (chunk_uid_hi, chunk_uid) rather than by an owning
    /// (blob, uid) pair, so identical data in different blobs shares one
    /// stored chunk.
    bool cas = false;
    std::uint64_t chunk_uid_hi = 0;

    [[nodiscard]] bool is_leaf() const noexcept { return kind == Kind::kLeaf; }

    /// The chunk this leaf points at; \p owner is the blob the leaf was
    /// reached through (only used for uid-addressed leaves).
    [[nodiscard]] chunk::ChunkKey chunk_key(BlobId owner) const noexcept {
        return cas ? chunk::ChunkKey::content(chunk_uid_hi, chunk_uid)
                   : chunk::ChunkKey{owner, chunk_uid};
    }

    /// Wire size estimate used to charge the simulated network.
    [[nodiscard]] std::uint64_t serialized_size() const noexcept {
        return is_leaf() ? 24 + 4 * replicas.size() + (cas ? 8 : 0) : 40;
    }

    [[nodiscard]] static MetaNode inner(ChildRef l, ChildRef r) {
        MetaNode n;
        n.kind = Kind::kInner;
        n.left = l;
        n.right = r;
        return n;
    }

    [[nodiscard]] static MetaNode leaf(std::vector<NodeId> replicas,
                                       std::uint64_t chunk_uid,
                                       std::uint32_t chunk_bytes) {
        MetaNode n;
        n.kind = Kind::kLeaf;
        n.replicas = std::move(replicas);
        n.chunk_uid = chunk_uid;
        n.chunk_bytes = chunk_bytes;
        return n;
    }

    [[nodiscard]] static MetaNode cas_leaf(std::vector<NodeId> replicas,
                                           std::uint64_t digest_hi,
                                           std::uint64_t digest_lo,
                                           std::uint32_t chunk_bytes) {
        MetaNode n = leaf(std::move(replicas), digest_lo, chunk_bytes);
        n.cas = true;
        n.chunk_uid_hi = digest_hi;
        return n;
    }
};

/// Wire size of a key (for network charging).
inline constexpr std::uint64_t kMetaKeyWireSize = 32;

/// One node to store, with its key.
struct KeyedNode {
    MetaKey key;
    MetaNode node;
};

/// Binary node serialization (little-endian, fixed layout): the record
/// format of LogMetaStore files, so a change here must stay readable
/// (pinned byte-for-byte in test_meta_persistence).
[[nodiscard]] inline Buffer serialize_node(const MetaNode& node) {
    Buffer out;
    auto put64 = [&out](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
        }
    };
    auto put32 = [&out](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
        }
    };
    out.push_back(node.is_leaf() ? 1 : 0);
    // Flags byte (was a zero pad before v5, so old records decode as
    // flags = 0): bit 0 marks a content-addressed leaf.
    out.push_back(node.cas ? 1 : 0);
    out.push_back(0);
    out.push_back(0);
    if (node.is_leaf()) {
        put64(node.chunk_uid);
        if (node.cas) {
            put64(node.chunk_uid_hi);
        }
        put32(node.chunk_bytes);
        put32(static_cast<std::uint32_t>(node.replicas.size()));
        for (const NodeId r : node.replicas) {
            put32(r);
        }
    } else {
        put64(node.left.blob);
        put64(node.left.version);
        put64(node.right.blob);
        put64(node.right.version);
    }
    return out;
}

[[nodiscard]] inline MetaNode deserialize_node(ConstBytes in) {
    std::size_t pos = 0;
    auto get64 = [&in, &pos]() {
        if (pos + 8 > in.size()) {
            throw ConsistencyError("truncated metadata node");
        }
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(in[pos++]) << (i * 8);
        }
        return v;
    };
    auto get32 = [&in, &pos]() {
        if (pos + 4 > in.size()) {
            throw ConsistencyError("truncated metadata node");
        }
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(in[pos++]) << (i * 8);
        }
        return v;
    };
    if (in.empty()) {
        throw ConsistencyError("empty metadata node");
    }
    const bool leaf = in[0] == 1;
    const bool cas = in.size() > 1 && (in[1] & 1) != 0;
    pos = 4;
    MetaNode node;
    if (leaf) {
        const std::uint64_t uid = get64();
        const std::uint64_t hi = cas ? get64() : 0;
        const std::uint32_t bytes = get32();
        const std::uint32_t n = get32();
        std::vector<NodeId> replicas;
        replicas.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            replicas.push_back(get32());
        }
        node = cas ? MetaNode::cas_leaf(std::move(replicas), hi, uid, bytes)
                   : MetaNode::leaf(std::move(replicas), uid, bytes);
    } else {
        ChildRef left{get64(), get64()};
        ChildRef right{get64(), get64()};
        node = MetaNode::inner(left, right);
    }
    return node;
}

}  // namespace blobseer::meta
