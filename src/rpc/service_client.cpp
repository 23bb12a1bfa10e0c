#include "rpc/service_client.hpp"

#include <algorithm>
#include <cstring>

#include "rpc/protocol.hpp"

namespace blobseer::rpc {

namespace {

/// Parse a response frame; throw the mapped exception on error status;
/// return a reader positioned at the payload.
[[nodiscard]] WireReader open_reply(const Buffer& frame, MsgType expect) {
    const FrameView f = parse_frame(frame);
    if (!f.response) {
        throw RpcError("request frame where a response was expected");
    }
    if (f.status() != Status::kOk) {
        WireReader r(f.payload);
        throw_status(f.status(), r.str());
    }
    if (f.type != expect) {
        throw RpcError(std::string("response type mismatch: expected ") +
                       to_string(expect) + ", got " + to_string(f.type));
    }
    return WireReader(f.payload);
}

/// Record the client half of an RPC span (the server half shares the
/// span id and is merged in by the trace viewer).
void record_client_span(const trace::TraceContext& child,
                        std::uint32_t parent_span, MsgType type, NodeId dst,
                        std::uint64_t start_unix_us,
                        std::uint64_t duration_us, std::uint64_t bytes,
                        Status status) {
    if (!trace::TraceBuffer::should_record(child.sampled(), duration_us)) {
        return;
    }
    trace::SpanRecord span;
    span.trace_id = child.trace_id;
    span.span_id = child.span_id;
    span.parent_span = parent_span;
    span.start_unix_us = start_unix_us;
    span.duration_us = duration_us;
    span.bytes = bytes;
    span.node = dst;
    span.kind = trace::SpanRecord::kClient;
    span.status = static_cast<std::uint8_t>(status);
    span.set_op(to_string(type));
    trace::buffer().record(span);
}

}  // namespace

ServiceClient::ServiceClient(Transport& transport,
                             std::vector<NodeId> vm_nodes, NodeId pm_node,
                             NodeId self)
    : transport_(transport),
      vm_nodes_(std::move(vm_nodes)),
      pm_node_(pm_node),
      self_(self) {
    if (vm_nodes_.empty()) {
        throw InvalidArgument("deployment advertises no version-manager");
    }
    if (vm_nodes_.size() > kMaxBlobShards) {
        throw InvalidArgument("deployment advertises " +
                              std::to_string(vm_nodes_.size()) +
                              " version-manager shards (max " +
                              std::to_string(kMaxBlobShards) + ")");
    }
    if (vm_nodes_.size() > 1) {
        for (const NodeId node : vm_nodes_) {
            vm_ring_.add_node(node);
        }
    }
}

NodeId ServiceClient::vm_node_of(BlobId blob) const {
    const std::uint32_t shard = blob_shard(blob);
    if (shard >= vm_nodes_.size()) {
        throw InvalidArgument("blob " + std::to_string(blob) +
                              " names version-manager shard " +
                              std::to_string(shard) + " of " +
                              std::to_string(vm_nodes_.size()));
    }
    return vm_nodes_[shard];
}

NodeId ServiceClient::pick_create_node() {
    if (vm_nodes_.size() == 1) {
        return vm_nodes_.front();
    }
    // (client id, creation#) hashed onto the shard ring: deterministic
    // per client, uniform across clients — no coordination needed.
    const std::uint64_t seq = create_seq_.fetch_add(1);
    return vm_ring_.owner(
        mix64((static_cast<std::uint64_t>(self_) << 32) ^ seq));
}

Buffer ServiceClient::invoke(MsgType type, NodeId dst, WireWriter&& body) {
    Buffer frame = seal_request(type, dst, std::move(body));
    const trace::TraceContext parent = trace::current();
    if (!parent.active()) {
        return transport_.roundtrip(dst, frame);
    }

    // Traced: mint a child span for this RPC and carry it in the frame.
    trace::TraceContext child = parent;
    child.span_id = trace::new_span_id();
    set_frame_trace(frame, child);
    const std::uint64_t start_unix = trace::now_unix_us();
    const TimePoint started = Clock::now();
    const auto elapsed_us = [started] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - started)
                .count());
    };
    try {
        Buffer resp = transport_.roundtrip(dst, frame);
        record_client_span(child, parent.span_id, type, dst, start_unix,
                           elapsed_us(), frame.size() + resp.size(),
                           frame_status(resp));
        return resp;
    } catch (...) {
        record_client_span(child, parent.span_id, type, dst, start_unix,
                           elapsed_us(), frame.size(), Status::kRpcError);
        throw;
    }
}

Future<Buffer> ServiceClient::invoke_async(MsgType type, NodeId dst,
                                           WireWriter&& body) {
    Buffer frame = seal_request(type, dst, std::move(body));
    const trace::TraceContext parent = trace::current();
    if (!parent.active()) {
        return transport_.call_async(dst, frame);
    }

    trace::TraceContext child = parent;
    child.span_id = trace::new_span_id();
    set_frame_trace(frame, child);
    const std::uint64_t start_unix = trace::now_unix_us();
    const TimePoint started = Clock::now();
    const std::uint64_t sent = frame.size();
    Future<Buffer> fut = transport_.call_async(dst, frame);
    // The adapter runs only when the future succeeds, so async client
    // spans cover successful RPCs; failures still surface as the server
    // half of the span (and in the error counters).
    return map_future<Buffer>(
        std::move(fut),
        [child, parent, type, dst, start_unix, started, sent](Buffer resp) {
            const auto us = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - started)
                    .count());
            record_client_span(child, parent.span_id, type, dst, start_unix,
                               us, sent + resp.size(), frame_status(resp));
            return resp;
        });
}

// ---- version manager -------------------------------------------------------

version::BlobInfo ServiceClient::create_blob(std::uint64_t chunk_size,
                                             std::uint32_t replication) {
    WireWriter w;
    w.u64(chunk_size);
    w.u32(replication);
    const Buffer resp =
        invoke(MsgType::kBlobCreate, pick_create_node(), std::move(w));
    auto r = open_reply(resp, MsgType::kBlobCreate);
    auto out = get_blob_info(r);
    r.expect_end();
    return out;
}

version::BlobInfo ServiceClient::clone_blob(BlobId src, Version version) {
    WireWriter w;
    w.u64(src);
    w.u64(version);
    const Buffer resp =
        invoke(MsgType::kBlobClone, vm_node_of(src), std::move(w));
    auto r = open_reply(resp, MsgType::kBlobClone);
    auto out = get_blob_info(r);
    r.expect_end();
    return out;
}

version::BlobInfo ServiceClient::blob_info(BlobId blob) {
    WireWriter w;
    w.u64(blob);
    const Buffer resp =
        invoke(MsgType::kBlobInfo, vm_node_of(blob), std::move(w));
    auto r = open_reply(resp, MsgType::kBlobInfo);
    auto out = get_blob_info(r);
    r.expect_end();
    return out;
}

version::AssignResult ServiceClient::assign(
    BlobId blob, std::optional<std::uint64_t> offset, std::uint64_t size) {
    WireWriter w;
    w.u64(blob);
    w.u8(offset.has_value() ? 1 : 0);
    if (offset) {
        w.u64(*offset);
    }
    w.u64(size);
    const Buffer resp = invoke(MsgType::kAssign, vm_node_of(blob), std::move(w));
    auto r = open_reply(resp, MsgType::kAssign);
    auto out = get_assign_result(r);
    r.expect_end();
    return out;
}

void ServiceClient::commit(BlobId blob, Version v) {
    WireWriter w;
    w.u64(blob);
    w.u64(v);
    const Buffer resp = invoke(MsgType::kCommit, vm_node_of(blob), std::move(w));
    open_reply(resp, MsgType::kCommit).expect_end();
}

version::VersionInfo ServiceClient::get_version(BlobId blob, Version v) {
    WireWriter w;
    w.u64(blob);
    w.u64(v);
    const Buffer resp = invoke(MsgType::kGetVersion, vm_node_of(blob), std::move(w));
    auto r = open_reply(resp, MsgType::kGetVersion);
    auto out = get_version_info(r);
    r.expect_end();
    return out;
}

version::VersionInfo ServiceClient::wait_published(BlobId blob, Version v,
                                                   Duration timeout) {
    WireWriter w;
    w.u64(blob);
    w.u64(v);
    w.u64(static_cast<std::uint64_t>(
        duration_cast<milliseconds>(timeout).count()));
    const Buffer resp =
        invoke(MsgType::kWaitPublished, vm_node_of(blob), std::move(w));
    auto r = open_reply(resp, MsgType::kWaitPublished);
    auto out = get_version_info(r);
    r.expect_end();
    return out;
}

std::vector<version::VersionManager::VersionSummary> ServiceClient::history(
    BlobId blob, Version from, Version to) {
    WireWriter w;
    w.u64(blob);
    w.u64(from);
    w.u64(to);
    const Buffer resp = invoke(MsgType::kHistory, vm_node_of(blob), std::move(w));
    auto r = open_reply(resp, MsgType::kHistory);
    const std::uint64_t n = r.varint_count(33);  // encoded VersionSummary
    std::vector<version::VersionManager::VersionSummary> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        out.push_back(get_version_summary(r));
    }
    r.expect_end();
    return out;
}

bool ServiceClient::pin(BlobId blob, Version v) {
    WireWriter w;
    w.u64(blob);
    w.u64(v);
    const Buffer resp = invoke(MsgType::kPin, vm_node_of(blob), std::move(w));
    auto r = open_reply(resp, MsgType::kPin);
    const bool inserted = r.u8() != 0;
    r.expect_end();
    return inserted;
}

void ServiceClient::unpin(BlobId blob, Version v) {
    WireWriter w;
    w.u64(blob);
    w.u64(v);
    const Buffer resp = invoke(MsgType::kUnpin, vm_node_of(blob), std::move(w));
    open_reply(resp, MsgType::kUnpin).expect_end();
}

version::VersionManager::RetireInfo ServiceClient::retire(BlobId blob,
                                                          Version keep_from) {
    WireWriter w;
    w.u64(blob);
    w.u64(keep_from);
    const Buffer resp = invoke(MsgType::kRetire, vm_node_of(blob), std::move(w));
    auto r = open_reply(resp, MsgType::kRetire);
    auto out = get_retire_info(r);
    r.expect_end();
    return out;
}

meta::WriteDescriptor ServiceClient::descriptor_of(BlobId blob, Version v) {
    WireWriter w;
    w.u64(blob);
    w.u64(v);
    const Buffer resp =
        invoke(MsgType::kDescriptorOf, vm_node_of(blob), std::move(w));
    auto r = open_reply(resp, MsgType::kDescriptorOf);
    auto out = get_write_descriptor(r);
    r.expect_end();
    return out;
}

// ---- provider manager ------------------------------------------------------

provider::PlacementPlan ServiceClient::place(std::uint64_t n_chunks,
                                             std::uint32_t replication,
                                             std::uint64_t chunk_bytes) {
    WireWriter w;
    w.u64(n_chunks);
    w.u32(replication);
    w.u64(chunk_bytes);
    const Buffer resp = invoke(MsgType::kPlace, pm_node_, std::move(w));
    auto r = open_reply(resp, MsgType::kPlace);
    auto out = get_placement_plan(r);
    r.expect_end();
    return out;
}

bool ServiceClient::report_failure(NodeId suspect) {
    WireWriter w;
    w.u32(suspect);
    w.u32(self_);
    const Buffer resp =
        invoke(MsgType::kReportFailure, pm_node_, std::move(w));
    auto r = open_reply(resp, MsgType::kReportFailure);
    const bool dead = r.u8() != 0;
    r.expect_end();
    return dead;
}

provider::ProviderManager::JoinResult ServiceClient::provider_join(
    const std::string& name) {
    WireWriter w;
    w.str(name);
    const Buffer resp =
        invoke(MsgType::kProviderJoin, pm_node_, std::move(w));
    auto r = open_reply(resp, MsgType::kProviderJoin);
    provider::ProviderManager::JoinResult out;
    out.node = r.u32();
    out.rejoin = r.u8() != 0;
    r.expect_end();
    return out;
}

void ServiceClient::provider_announce(
    NodeId node, const std::string& host, std::uint32_t port,
    const std::vector<provider::ChunkHolding>& inventory) {
    WireWriter w;
    w.u32(node);
    w.str(host);
    w.u32(port);
    put_chunk_holdings(w, inventory);
    const Buffer resp =
        invoke(MsgType::kProviderAnnounce, pm_node_, std::move(w));
    open_reply(resp, MsgType::kProviderAnnounce).expect_end();
}

bool ServiceClient::provider_beat(
    NodeId node, std::uint64_t seq,
    const std::vector<provider::ChunkHolding>& added,
    const std::vector<chunk::ChunkKey>& removed) {
    WireWriter w;
    w.u32(node);
    w.u64(seq);
    put_chunk_holdings(w, added);
    put_chunk_keys(w, removed);
    const Buffer resp =
        invoke(MsgType::kProviderBeat, pm_node_, std::move(w));
    auto r = open_reply(resp, MsgType::kProviderBeat);
    const bool known = r.u8() != 0;
    r.expect_end();
    return known;
}

// ---- observability (protocol v7) -------------------------------------------

MetricsSnapshot ServiceClient::metrics_dump(NodeId node) {
    const Buffer resp = invoke(MsgType::kMetricsDump, node, WireWriter());
    auto r = open_reply(resp, MsgType::kMetricsDump);
    auto out = get_metrics_snapshot(r);
    r.expect_end();
    return out;
}

std::vector<trace::SpanRecord> ServiceClient::trace_dump(
    std::uint64_t trace_id, std::uint64_t max, NodeId node) {
    WireWriter w;
    w.u64(trace_id);
    w.u64(max);
    const Buffer resp = invoke(MsgType::kTraceDump, node, std::move(w));
    auto r = open_reply(resp, MsgType::kTraceDump);
    auto out = get_span_records(r);
    r.expect_end();
    return out;
}

// ---- data providers --------------------------------------------------------

void ServiceClient::put_chunk(NodeId dp, const chunk::ChunkKey& key,
                              ConstBytes payload) {
    put_chunk_async(dp, key, payload).get();
}

Future<void> ServiceClient::put_chunk_async(NodeId dp,
                                            const chunk::ChunkKey& key,
                                            ConstBytes payload) {
    WireWriter w(payload.size() + 64);
    put_chunk_key(w, key);
    w.blob(payload);
    return map_future<void>(
        invoke_async(MsgType::kChunkPut, dp, std::move(w)),
        [](Buffer&& resp) {
            open_reply(resp, MsgType::kChunkPut).expect_end();
        });
}

ServiceClient::ChunkSlice ServiceClient::get_chunk(NodeId dp,
                                                   const chunk::ChunkKey& key,
                                                   std::uint64_t offset,
                                                   std::uint64_t size) {
    return get_chunk_async(dp, key, offset, size).get();
}

Future<ServiceClient::ChunkSlice> ServiceClient::get_chunk_async(
    NodeId dp, const chunk::ChunkKey& key, std::uint64_t offset,
    std::uint64_t size) {
    const ChunkRead rd{key, offset, size};
    return map_future<ChunkSlice>(
        get_chunk_batch_async(dp, std::span(&rd, 1)),
        [dp, key](ChunkBatch&& batch) {
            const ChunkReadEntry& e = batch.entries.front();
            if (e.status == ChunkReadStatus::kNotFound) {
                throw NotFoundError(key.to_string() + " on provider " +
                                    std::to_string(dp));
            }
            if (e.status != ChunkReadStatus::kServed) {
                throw RpcError("chunk-get-batch left its only key unserved");
            }
            // Steal the response frame instead of allocating a second
            // buffer: slide the slice to the front and shrink.
            Buffer bytes = std::move(batch.frame);
            std::memmove(bytes.data(), bytes.data() + batch.offsets.front(),
                         e.length);
            bytes.resize(e.length);
            return ChunkSlice{std::move(bytes), e.chunk_size};
        });
}

Future<ServiceClient::ChunkBatch> ServiceClient::get_chunk_batch_async(
    NodeId dp, std::span<const ChunkRead> reads) {
    WireWriter w(8 + reads.size() * 33);
    put_chunk_reads(w, reads);
    return map_future<ChunkBatch>(
        invoke_async(MsgType::kChunkGetBatch, dp, std::move(w)),
        [keys = reads.size()](Buffer&& resp) {
            auto r = open_reply(resp, MsgType::kChunkGetBatch);
            // status + chunk_size + 1-byte length per entry
            const std::uint64_t n = r.varint_count(1 + 8 + 1);
            if (n != keys) {
                throw RpcError("chunk-get-batch reply has " +
                               std::to_string(n) + " entries for " +
                               std::to_string(keys) + " keys");
            }
            ChunkBatch out;
            out.entries.reserve(n);
            out.offsets.reserve(n);
            std::uint64_t tail = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                const ChunkReadEntry e = get_chunk_read_entry(r);
                if (e.length > r.remaining() ||
                    tail > r.remaining() - e.length) {
                    throw RpcError("chunk-get-batch reply: slices overrun "
                                   "the frame");
                }
                tail += e.length;
                out.entries.push_back(e);
            }
            if (tail != r.remaining()) {
                throw RpcError("chunk-get-batch reply: " +
                               std::to_string(r.remaining() - tail) +
                               " bytes past the last slice");
            }
            // The slices follow the entries back to back, up to the end
            // of the frame.
            std::size_t pos = resp.size() - r.remaining();
            for (const ChunkReadEntry& e : out.entries) {
                out.offsets.push_back(pos);
                pos += e.length;
            }
            out.frame = std::move(resp);
            return out;
        });
}

// ---- content-addressed data-provider operations ----------------------------

bool ServiceClient::check_chunk(NodeId dp, const chunk::ChunkKey& key,
                                bool want_incref, std::uint64_t size_hint) {
    return check_chunk_async(dp, key, want_incref, size_hint).get();
}

Future<bool> ServiceClient::check_chunk_async(NodeId dp,
                                              const chunk::ChunkKey& key,
                                              bool want_incref,
                                              std::uint64_t size_hint) {
    WireWriter w;
    put_chunk_key(w, key);
    w.u8(want_incref ? 1 : 0);
    w.u64(size_hint);
    return map_future<bool>(
        invoke_async(MsgType::kChunkCheck, dp, std::move(w)),
        [](Buffer&& resp) {
            auto r = open_reply(resp, MsgType::kChunkCheck);
            const bool has = r.u8() != 0;
            r.expect_end();
            return has;
        });
}

std::uint64_t ServiceClient::chunk_decref(NodeId dp,
                                          const chunk::ChunkKey& key) {
    return chunk_decref_async(dp, key).get();
}

Future<std::uint64_t> ServiceClient::chunk_decref_async(
    NodeId dp, const chunk::ChunkKey& key) {
    WireWriter w;
    put_chunk_key(w, key);
    return map_future<std::uint64_t>(
        invoke_async(MsgType::kChunkDecref, dp, std::move(w)),
        [](Buffer&& resp) {
            auto r = open_reply(resp, MsgType::kChunkDecref);
            const std::uint64_t remaining = r.u64();
            r.expect_end();
            return remaining;
        });
}

// ---- metadata providers ----------------------------------------------------

Future<void> ServiceClient::meta_put_batch_async(
    NodeId mp, std::span<const meta::KeyedNode> nodes) {
    WireWriter w;
    put_meta_batch(w, nodes);
    return map_future<void>(
        invoke_async(MsgType::kMetaPutBatch, mp, std::move(w)),
        [](Buffer&& resp) {
            open_reply(resp, MsgType::kMetaPutBatch).expect_end();
        });
}

std::optional<meta::MetaNode> ServiceClient::meta_try_get(
    NodeId mp, const meta::MetaKey& key) {
    WireWriter w;
    put_meta_key(w, key);
    const Buffer resp = invoke(MsgType::kMetaTryGet, mp, std::move(w));
    auto r = open_reply(resp, MsgType::kMetaTryGet);
    std::optional<meta::MetaNode> out;
    if (r.u8() != 0) {
        out = get_meta_node(r);
    }
    r.expect_end();
    return out;
}

void ServiceClient::meta_erase(NodeId mp, const meta::MetaKey& key) {
    WireWriter w;
    put_meta_key(w, key);
    const Buffer resp = invoke(MsgType::kMetaErase, mp, std::move(w));
    open_reply(resp, MsgType::kMetaErase).expect_end();
}

// ---- control plane ---------------------------------------------------------

Topology fetch_topology(Transport& transport) {
    const Buffer frame =
        seal_request(MsgType::kTopology, kControlNode, WireWriter());
    const Buffer resp = transport.roundtrip(kControlNode, frame);
    auto r = open_reply(resp, MsgType::kTopology);
    auto out = get_topology(r);
    r.expect_end();
    return out;
}

}  // namespace blobseer::rpc
