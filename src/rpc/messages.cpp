#include "rpc/messages.hpp"

#include "common/error.hpp"

namespace blobseer::rpc {

// ---- scalar wrappers -------------------------------------------------------

void put_chunk_key(WireWriter& w, const chunk::ChunkKey& k) {
    w.u8(static_cast<std::uint8_t>(k.kind));
    w.u64(k.blob);
    w.u64(k.uid);
}

chunk::ChunkKey get_chunk_key(WireReader& r) {
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(chunk::ChunkKey::Kind::kContent)) {
        throw RpcError("frame decode: bad chunk-key kind " +
                       std::to_string(kind));
    }
    chunk::ChunkKey k;
    k.kind = static_cast<chunk::ChunkKey::Kind>(kind);
    k.blob = r.u64();
    k.uid = r.u64();
    return k;
}

void put_meta_key(WireWriter& w, const meta::MetaKey& k) {
    w.u64(k.blob);
    w.u64(k.version);
    w.u64(k.range.first);
    w.u64(k.range.count);
}

meta::MetaKey get_meta_key(WireReader& r) {
    meta::MetaKey k;
    k.blob = r.u64();
    k.version = r.u64();
    k.range.first = r.u64();
    k.range.count = r.u64();
    return k;
}

void put_meta_node(WireWriter& w, const meta::MetaNode& n) {
    w.u8(static_cast<std::uint8_t>(n.kind));
    w.u8(n.cas ? 1 : 0);  // flags (v5): bit 0 = content-addressed leaf
    if (n.is_leaf()) {
        put_node_ids(w, n.replicas);
        w.u64(n.chunk_uid);
        if (n.cas) {
            w.u64(n.chunk_uid_hi);
        }
        w.u32(n.chunk_bytes);
    } else {
        w.u64(n.left.blob);
        w.u64(n.left.version);
        w.u64(n.right.blob);
        w.u64(n.right.version);
    }
}

meta::MetaNode get_meta_node(WireReader& r) {
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(meta::MetaNode::Kind::kLeaf)) {
        throw RpcError("frame decode: bad meta-node kind " +
                       std::to_string(kind));
    }
    const std::uint8_t flags = r.u8();
    if (flags > 1) {
        throw RpcError("frame decode: bad meta-node flags " +
                       std::to_string(flags));
    }
    meta::MetaNode n;
    n.kind = static_cast<meta::MetaNode::Kind>(kind);
    n.cas = (flags & 1) != 0;
    if (n.is_leaf()) {
        n.replicas = get_node_ids(r);
        n.chunk_uid = r.u64();
        if (n.cas) {
            n.chunk_uid_hi = r.u64();
        }
        n.chunk_bytes = r.u32();
    } else {
        n.left.blob = r.u64();
        n.left.version = r.u64();
        n.right.blob = r.u64();
        n.right.version = r.u64();
    }
    return n;
}

void put_meta_batch(WireWriter& w, std::span<const meta::KeyedNode> nodes) {
    w.varint(nodes.size());
    for (const meta::KeyedNode& n : nodes) {
        put_meta_key(w, n.key);
        put_meta_node(w, n.node);
    }
}

std::vector<meta::KeyedNode> get_meta_batch(WireReader& r) {
    const std::uint64_t n = r.varint_count(meta::kMetaKeyWireSize);
    if (n == 0) {
        throw RpcError("frame decode: empty meta-node batch");
    }
    std::vector<meta::KeyedNode> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        meta::MetaKey key = get_meta_key(r);
        out.push_back({key, get_meta_node(r)});
    }
    return out;
}

void put_chunk_reads(WireWriter& w, std::span<const ChunkRead> reads) {
    w.varint(reads.size());
    for (const ChunkRead& rd : reads) {
        put_chunk_key(w, rd.key);
        w.u64(rd.offset);
        w.u64(rd.size);
    }
}

std::vector<ChunkRead> get_chunk_reads(WireReader& r) {
    // key (kind + blob + uid) + offset + size
    constexpr std::uint64_t kRecordBytes = 1 + 8 + 8 + 8 + 8;
    const std::uint64_t n = r.varint_count(kRecordBytes);
    if (n == 0) {
        throw RpcError("frame decode: empty chunk-read batch");
    }
    std::vector<ChunkRead> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        ChunkRead rd;
        rd.key = get_chunk_key(r);
        rd.offset = r.u64();
        rd.size = r.u64();
        out.push_back(rd);
    }
    return out;
}

void put_chunk_read_entry(WireWriter& w, const ChunkReadEntry& e) {
    w.u8(static_cast<std::uint8_t>(e.status));
    w.u64(e.chunk_size);
    w.varint(e.length);
}

ChunkReadEntry get_chunk_read_entry(WireReader& r) {
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(ChunkReadStatus::kNotServed)) {
        throw RpcError("frame decode: bad chunk-read status " +
                       std::to_string(status));
    }
    ChunkReadEntry e;
    e.status = static_cast<ChunkReadStatus>(status);
    e.chunk_size = r.u64();
    e.length = r.varint();
    if (e.status != ChunkReadStatus::kServed && e.length != 0) {
        throw RpcError("frame decode: bytes for an unserved chunk read");
    }
    return e;
}

void put_tree_ref(WireWriter& w, const meta::TreeRef& t) {
    w.u64(t.blob);
    w.u64(t.version);
    w.u64(t.size);
}

meta::TreeRef get_tree_ref(WireReader& r) {
    meta::TreeRef t;
    t.blob = r.u64();
    t.version = r.u64();
    t.size = r.u64();
    return t;
}

void put_write_descriptor(WireWriter& w, const meta::WriteDescriptor& d) {
    w.u64(d.version);
    w.u64(d.offset);
    w.u64(d.size);
    w.u64(d.size_before);
    w.u64(d.size_after);
}

meta::WriteDescriptor get_write_descriptor(WireReader& r) {
    meta::WriteDescriptor d;
    d.version = r.u64();
    d.offset = r.u64();
    d.size = r.u64();
    d.size_before = r.u64();
    d.size_after = r.u64();
    return d;
}

void put_blob_info(WireWriter& w, const version::BlobInfo& b) {
    w.u64(b.id);
    w.u64(b.chunk_size);
    w.u32(b.replication);
}

version::BlobInfo get_blob_info(WireReader& r) {
    version::BlobInfo b;
    b.id = r.u64();
    b.chunk_size = r.u64();
    b.replication = r.u32();
    return b;
}

void put_version_status(WireWriter& w, version::VersionStatus s) {
    w.u8(static_cast<std::uint8_t>(s));
}

version::VersionStatus get_version_status(WireReader& r) {
    const std::uint8_t s = r.u8();
    if (s > static_cast<std::uint8_t>(version::VersionStatus::kRetired)) {
        throw RpcError("frame decode: bad version status " +
                       std::to_string(s));
    }
    return static_cast<version::VersionStatus>(s);
}

void put_version_info(WireWriter& w, const version::VersionInfo& v) {
    w.u64(v.version);
    w.u64(v.size);
    put_version_status(w, v.status);
    put_tree_ref(w, v.tree);
}

version::VersionInfo get_version_info(WireReader& r) {
    version::VersionInfo v;
    v.version = r.u64();
    v.size = r.u64();
    v.status = get_version_status(r);
    v.tree = get_tree_ref(r);
    return v;
}

void put_assign_result(WireWriter& w, const version::AssignResult& a) {
    w.u64(a.version);
    w.u64(a.offset);
    w.u64(a.size_before);
    w.u64(a.size_after);
    put_tree_ref(w, a.base);
    w.varint(a.borders.size());
    for (const meta::BorderRef& b : a.borders) {
        w.u64(b.range.first);
        w.u64(b.range.count);
        w.u64(b.ref.blob);
        w.u64(b.ref.version);
    }
    w.u64(a.chunk_size);
    w.u32(a.replication);
}

version::AssignResult get_assign_result(WireReader& r) {
    version::AssignResult a;
    a.version = r.u64();
    a.offset = r.u64();
    a.size_before = r.u64();
    a.size_after = r.u64();
    a.base = get_tree_ref(r);
    const std::uint64_t nb = r.varint_count(32);  // range + child ref
    a.borders.reserve(nb);
    for (std::uint64_t i = 0; i < nb; ++i) {
        meta::BorderRef b;
        b.range.first = r.u64();
        b.range.count = r.u64();
        b.ref.blob = r.u64();
        b.ref.version = r.u64();
        a.borders.push_back(b);
    }
    a.chunk_size = r.u64();
    a.replication = r.u32();
    return a;
}

void put_version_summary(WireWriter& w,
                         const version::VersionManager::VersionSummary& s) {
    w.u64(s.version);
    put_version_status(w, s.status);
    w.u64(s.offset);
    w.u64(s.size);
    w.u64(s.size_after);
}

version::VersionManager::VersionSummary get_version_summary(WireReader& r) {
    version::VersionManager::VersionSummary s;
    s.version = r.u64();
    s.status = get_version_status(r);
    s.offset = r.u64();
    s.size = r.u64();
    s.size_after = r.u64();
    return s;
}

void put_retire_info(WireWriter& w,
                     const version::VersionManager::RetireInfo& i) {
    w.varint(i.retired.size());
    for (const Version v : i.retired) {
        w.u64(v);
    }
    w.varint(i.descriptors.size());
    for (const auto& d : i.descriptors) {
        put_write_descriptor(w, d);
    }
    w.varint(i.pinned.size());
    for (const Version v : i.pinned) {
        w.u64(v);
    }
    w.u64(i.keep_from);
}

version::VersionManager::RetireInfo get_retire_info(WireReader& r) {
    version::VersionManager::RetireInfo i;
    const std::uint64_t n_retired = r.varint_count(8);
    i.retired.reserve(n_retired);
    for (std::uint64_t k = 0; k < n_retired; ++k) {
        i.retired.push_back(r.u64());
    }
    const std::uint64_t n_desc = r.varint_count(40);
    i.descriptors.reserve(n_desc);
    for (std::uint64_t k = 0; k < n_desc; ++k) {
        i.descriptors.push_back(get_write_descriptor(r));
    }
    const std::uint64_t n_pinned = r.varint_count(8);
    i.pinned.reserve(n_pinned);
    for (std::uint64_t k = 0; k < n_pinned; ++k) {
        i.pinned.push_back(r.u64());
    }
    i.keep_from = r.u64();
    return i;
}

void put_placement_plan(WireWriter& w, const provider::PlacementPlan& p) {
    w.varint(p.size());
    for (const auto& targets : p) {
        put_node_ids(w, targets);
    }
}

provider::PlacementPlan get_placement_plan(WireReader& r) {
    const std::uint64_t n = r.varint_count(1);  // empty row = 1 byte
    provider::PlacementPlan p;
    p.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        p.push_back(get_node_ids(r));
    }
    return p;
}

void put_node_ids(WireWriter& w, const std::vector<NodeId>& v) {
    w.varint(v.size());
    for (const NodeId n : v) {
        w.u32(n);
    }
}

std::vector<NodeId> get_node_ids(WireReader& r) {
    const std::uint64_t n = r.varint_count(4);
    std::vector<NodeId> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        v.push_back(r.u32());
    }
    return v;
}

// ---- membership & repair (protocol v6) -------------------------------------

void put_chunk_holding(WireWriter& w, const provider::ChunkHolding& h) {
    put_chunk_key(w, h.key);
    w.u64(h.bytes);
}

provider::ChunkHolding get_chunk_holding(WireReader& r) {
    provider::ChunkHolding h;
    h.key = get_chunk_key(r);
    h.bytes = r.u64();
    return h;
}

void put_chunk_holdings(WireWriter& w,
                        const std::vector<provider::ChunkHolding>& v) {
    w.varint(v.size());
    for (const auto& h : v) {
        put_chunk_holding(w, h);
    }
}

std::vector<provider::ChunkHolding> get_chunk_holdings(WireReader& r) {
    const std::uint64_t n = r.varint_count(25);  // key (17) + bytes (8)
    std::vector<provider::ChunkHolding> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        v.push_back(get_chunk_holding(r));
    }
    return v;
}

void put_chunk_keys(WireWriter& w, const std::vector<chunk::ChunkKey>& v) {
    w.varint(v.size());
    for (const auto& k : v) {
        put_chunk_key(w, k);
    }
}

std::vector<chunk::ChunkKey> get_chunk_keys(WireReader& r) {
    const std::uint64_t n = r.varint_count(17);  // kind + blob + uid
    std::vector<chunk::ChunkKey> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        v.push_back(get_chunk_key(r));
    }
    return v;
}

// ---- observability (protocol v7) -------------------------------------------

void put_metric_sample(WireWriter& w, const MetricSample& s) {
    w.str(s.name);
    w.varint(s.labels.size());
    for (const auto& [k, v] : s.labels) {
        w.str(k);
        w.str(v);
    }
    w.u8(static_cast<std::uint8_t>(s.kind));
    w.u64(s.value);
    w.u64(s.high_water);
    w.u64(s.count);
    w.u64(s.sum);
    w.u64(s.min);
    w.u64(s.max);
    w.varint(s.buckets.size());
    for (const auto& [upper, count] : s.buckets) {
        w.u64(upper);
        w.u64(count);
    }
}

MetricSample get_metric_sample(WireReader& r) {
    MetricSample s;
    s.name = r.str();
    const std::uint64_t n_labels = r.varint_count(2);  // two empty strings
    s.labels.reserve(n_labels);
    for (std::uint64_t i = 0; i < n_labels; ++i) {
        std::string k = r.str();
        std::string v = r.str();
        s.labels.emplace_back(std::move(k), std::move(v));
    }
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(MetricKind::kCallback)) {
        throw RpcError("frame decode: bad metric kind " +
                       std::to_string(kind));
    }
    s.kind = static_cast<MetricKind>(kind);
    s.value = r.u64();
    s.high_water = r.u64();
    s.count = r.u64();
    s.sum = r.u64();
    s.min = r.u64();
    s.max = r.u64();
    const std::uint64_t n_buckets = r.varint_count(16);  // two u64s
    s.buckets.reserve(n_buckets);
    for (std::uint64_t i = 0; i < n_buckets; ++i) {
        const std::uint64_t upper = r.u64();
        const std::uint64_t count = r.u64();
        s.buckets.emplace_back(upper, count);
    }
    return s;
}

void put_metrics_snapshot(WireWriter& w, const MetricsSnapshot& snap) {
    w.varint(snap.samples.size());
    for (const MetricSample& s : snap.samples) {
        put_metric_sample(w, s);
    }
}

MetricsSnapshot get_metrics_snapshot(WireReader& r) {
    // Minimum encoded sample: empty name + no labels + kind + 6 u64s +
    // no buckets.
    const std::uint64_t n = r.varint_count(51);
    MetricsSnapshot snap;
    snap.samples.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        snap.samples.push_back(get_metric_sample(r));
    }
    return snap;
}

void put_span_record(WireWriter& w, const trace::SpanRecord& s) {
    w.u64(s.trace_id);
    w.u32(s.span_id);
    w.u32(s.parent_span);
    w.u64(s.start_unix_us);
    w.u64(s.queue_us);
    w.u64(s.duration_us);
    w.u64(s.bytes);
    w.u32(s.node);
    w.u8(s.kind);
    w.u8(s.status);
    w.str(s.op_name());
}

trace::SpanRecord get_span_record(WireReader& r) {
    trace::SpanRecord s;
    s.trace_id = r.u64();
    s.span_id = r.u32();
    s.parent_span = r.u32();
    s.start_unix_us = r.u64();
    s.queue_us = r.u64();
    s.duration_us = r.u64();
    s.bytes = r.u64();
    s.node = r.u32();
    s.kind = r.u8();
    if (s.kind > trace::SpanRecord::kServer) {
        throw RpcError("frame decode: bad span kind " +
                       std::to_string(s.kind));
    }
    s.status = r.u8();
    s.set_op(r.str());
    return s;
}

void put_span_records(WireWriter& w,
                      const std::vector<trace::SpanRecord>& v) {
    w.varint(v.size());
    for (const auto& s : v) {
        put_span_record(w, s);
    }
}

std::vector<trace::SpanRecord> get_span_records(WireReader& r) {
    const std::uint64_t n = r.varint_count(51);  // fixed fields + empty op
    std::vector<trace::SpanRecord> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        v.push_back(get_span_record(r));
    }
    return v;
}

// ---- control plane ---------------------------------------------------------

void put_topology(WireWriter& w, const Topology& t) {
    put_node_ids(w, t.vm_nodes);
    w.u32(t.pm_node);
    put_node_ids(w, t.data_nodes);
    put_node_ids(w, t.meta_nodes);
    w.u32(t.meta_replication);
    w.u32(t.default_replication);
    w.u64(t.publish_timeout_ms);
    w.u32(t.client_id);
    w.u64(t.uid_epoch);
    w.u8(t.content_addressed ? 1 : 0);
    w.varint(t.provider_endpoints.size());
    for (const auto& ep : t.provider_endpoints) {
        w.u32(ep.node);
        w.str(ep.host);
        w.u32(ep.port);
    }
}

Topology get_topology(WireReader& r) {
    Topology t;
    t.vm_nodes = get_node_ids(r);
    if (t.vm_nodes.empty() || t.vm_nodes.size() > kMaxBlobShards) {
        throw RpcError("frame decode: topology advertises " +
                       std::to_string(t.vm_nodes.size()) +
                       " version-manager shards");
    }
    t.pm_node = r.u32();
    t.data_nodes = get_node_ids(r);
    t.meta_nodes = get_node_ids(r);
    t.meta_replication = r.u32();
    t.default_replication = r.u32();
    t.publish_timeout_ms = r.u64();
    t.client_id = r.u32();
    t.uid_epoch = r.u64();
    t.content_addressed = r.u8() != 0;
    const std::uint64_t n = r.varint_count(9);  // node + empty host + port
    t.provider_endpoints.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        Topology::ProviderEndpoint ep;
        ep.node = r.u32();
        ep.host = r.str();
        ep.port = r.u32();
        t.provider_endpoints.push_back(std::move(ep));
    }
    return t;
}

}  // namespace blobseer::rpc
