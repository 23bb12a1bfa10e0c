/// \file disk_meta_store.hpp
/// \brief Persistent metadata node store (file per node).
///
/// Paper §IV-B: "We also introduced persistent data and metadata
/// storage". Each tree node serializes to a small binary file named
/// after its key; reopening the directory recovers the full index (the
/// metadata-provider restart path). Writes use write-then-rename so a
/// crash never exposes a torn node. An in-memory copy of every node is
/// kept as a read cache (nodes are tiny; the paper kept the RAM scheme
/// "as an underlying caching mechanism").

#pragma once

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "meta/meta_store.hpp"

namespace blobseer::meta {

/// Binary node serialization (little-endian, fixed layout).
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

class DiskMetaStore final : public LocalMetaStore {
  public:
    explicit DiskMetaStore(std::filesystem::path dir) : dir_(std::move(dir)) {
        std::filesystem::create_directories(dir_);
        for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
            if (!entry.is_regular_file()) {
                continue;
            }
            MetaKey key{};
            if (!parse_name(entry.path().filename().string(), key)) {
                continue;
            }
            Buffer raw = read_file(entry.path());
            const std::scoped_lock lock(mu_);
            map_.emplace(key, deserialize_node(raw));
        }
    }

    [[nodiscard]] MetaNode get(const MetaKey& key) override {
        {
            const std::scoped_lock lock(mu_);
            const auto it = map_.find(key);
            if (it != map_.end()) {
                return it->second;
            }
        }
        // RAM tier lost (crash): fall back to disk.
        const auto path = path_of(key);
        if (!std::filesystem::exists(path)) {
            throw NotFoundError(key.to_string());
        }
        MetaNode node = deserialize_node(read_file(path));
        const std::scoped_lock lock(mu_);
        map_.emplace(key, node);
        return node;
    }

    [[nodiscard]] std::optional<MetaNode> try_get(
        const MetaKey& key) override {
        try {
            return get(key);
        } catch (const NotFoundError&) {
            return std::nullopt;
        }
    }

    void erase(const MetaKey& key) override {
        {
            const std::scoped_lock lock(mu_);
            map_.erase(key);
        }
        std::error_code ec;  // best effort
        std::filesystem::remove(path_of(key), ec);
    }

    [[nodiscard]] std::size_t count() const override {
        const std::scoped_lock lock(mu_);
        return map_.size();
    }

    /// Crash: the RAM tier evaporates; the files survive.
    void lose_volatile() override {
        const std::scoped_lock lock(mu_);
        map_.clear();
    }

    [[nodiscard]] const std::filesystem::path& directory() const noexcept {
        return dir_;
    }

  private:
    void store_node(const MetaKey& key, const MetaNode& node) override {
        {
            const std::scoped_lock lock(mu_);
            if (map_.contains(key)) {
                return;  // immutable nodes: idempotent
            }
        }
        const auto path = path_of(key);
        const auto tmp = path.string() + ".tmp";
        write_file(tmp, serialize_node(node));
        std::filesystem::rename(tmp, path);
        const std::scoped_lock lock(mu_);
        map_.emplace(key, node);
    }

    [[nodiscard]] std::filesystem::path path_of(const MetaKey& key) const {
        return dir_ / ("b" + std::to_string(key.blob) + "_v" +
                       std::to_string(key.version) + "_s" +
                       std::to_string(key.range.first) + "_c" +
                       std::to_string(key.range.count) + ".meta");
    }

    /// Inverse of path_of: "b<blob>_v<ver>_s<first>_c<count>.meta".
    static bool parse_name(const std::string& name, MetaKey& out) {
        if (!name.ends_with(".meta") || name.size() < 7 || name[0] != 'b') {
            return false;
        }
        const std::string stem = name.substr(1, name.size() - 6);
        std::vector<std::string> parts;
        std::size_t pos = 0;
        while (pos <= stem.size()) {
            const auto sep = stem.find('_', pos);
            parts.push_back(stem.substr(pos, sep - pos));
            if (sep == std::string::npos) {
                break;
            }
            pos = sep + 1;
        }
        if (parts.size() != 4 || parts[1].empty() || parts[1][0] != 'v' ||
            parts[2].empty() || parts[2][0] != 's' || parts[3].empty() ||
            parts[3][0] != 'c') {
            return false;
        }
        try {
            out.blob = std::stoull(parts[0]);
            out.version = std::stoull(parts[1].substr(1));
            out.range.first = std::stoull(parts[2].substr(1));
            out.range.count = std::stoull(parts[3].substr(1));
        } catch (const std::exception&) {
            return false;
        }
        return true;
    }

    static void write_file(const std::filesystem::path& path,
                           const Buffer& data) {
        std::FILE* f = std::fopen(path.c_str(), "wb");
        if (f == nullptr) {
            throw Error("cannot write " + path.string());
        }
        const std::size_t n =
            data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
        std::fclose(f);
        if (n != data.size()) {
            throw Error("short write to " + path.string());
        }
    }

    static Buffer read_file(const std::filesystem::path& path) {
        std::FILE* f = std::fopen(path.c_str(), "rb");
        if (f == nullptr) {
            throw NotFoundError(path.string());
        }
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        std::fseek(f, 0, SEEK_SET);
        Buffer buf(static_cast<std::size_t>(size));
        const std::size_t n =
            buf.empty() ? 0 : std::fread(buf.data(), 1, buf.size(), f);
        std::fclose(f);
        if (n != buf.size()) {
            throw Error("short read from " + path.string());
        }
        return buf;
    }

    const std::filesystem::path dir_;
    mutable std::mutex mu_;  // guards map_
    std::unordered_map<MetaKey, MetaNode, MetaKeyHash> map_;
};

}  // namespace blobseer::meta
