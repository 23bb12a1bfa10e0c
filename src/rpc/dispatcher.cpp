#include "rpc/dispatcher.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "dht/metadata_provider.hpp"
#include "provider/data_provider.hpp"
#include "provider/provider_manager.hpp"
#include "version/version_manager.hpp"

namespace blobseer::rpc {

namespace {

[[nodiscard]] std::optional<std::uint64_t> get_opt_u64(WireReader& r) {
    if (r.u8() == 0) {
        return std::nullopt;
    }
    return r.u64();
}

[[nodiscard]] std::uint64_t us_between(TimePoint from, TimePoint to) {
    if (to <= from) {
        return 0;
    }
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(to - from)
            .count());
}

}  // namespace

Dispatcher::OpTelemetry* Dispatcher::telemetry_for(MsgType type) noexcept {
    const auto tag = static_cast<std::uint16_t>(type);
    if (tag >= op_telemetry_.size()) {
        return nullptr;  // corrupt tag; no series for it
    }
    OpTelemetry& t = op_telemetry_[tag];
    if (t.latency.load(std::memory_order_acquire) == nullptr) {
        // First dispatch of this op in this dispatcher. The registry
        // get-or-creates by name+label, so every dispatcher in the
        // process resolves to the same shared series, and a racing
        // resolve stores the same pointers.
        auto& registry = MetricsRegistry::instance();
        const MetricLabels labels{{"op", to_string(type)}};
        t.requests.store(
            &registry.counter("rpc_server_requests_total", labels),
            std::memory_order_relaxed);
        t.errors.store(&registry.counter("rpc_server_errors_total", labels),
                       std::memory_order_relaxed);
        t.latency.store(&registry.histogram("rpc_server_latency_us", labels),
                        std::memory_order_release);
    }
    return &t;
}

Buffer Dispatcher::dispatch(ConstBytes frame,
                            TimePoint received_at) noexcept {
    RpcResponse resp = dispatch_sg(frame, received_at);
    if (const std::size_t n = resp.tail_bytes(); n != 0) {
        // Flattening IS the copy the scatter-gather path avoids; count
        // the payload bytes so before/after is a counter diff.
        static Counter& bytes_copied = MetricsRegistry::instance().counter(
            "rpc_bytes_copied_total", {});
        bytes_copied.add(n);
    }
    return std::move(resp).flatten();
}

RpcResponse Dispatcher::dispatch_sg(ConstBytes frame,
                                    TimePoint received_at) noexcept {
    MsgType type = MsgType::kTopology;
    // The request's correlation id is echoed into whatever response —
    // success or error — leaves here, so a multiplexing transport can
    // match it. A frame too corrupt to parse keeps corr 0; its sender's
    // stream is beyond saving anyway.
    std::uint64_t corr = 0;
    Status status = Status::kOk;
    trace::TraceContext ctx;
    NodeId dst = kInvalidNode;
    std::uint64_t payload_bytes = 0;
    bool known_type = false;
    const TimePoint started = Clock::now();
    RpcResponse response;
    try {
        const FrameView f = parse_frame(frame);
        type = f.type;
        corr = f.corr;
        ctx.trace_id = f.trace_id;
        ctx.span_id = f.span_id;
        ctx.flags = f.trace_flags;
        dst = f.dst();
        payload_bytes = f.payload.size();
        known_type = true;
        if (f.response) {
            throw RpcError("dispatch of a response frame");
        }
        // Handlers run inside the frame's trace context, so every nested
        // RPC a service issues (DHT replica puts, CAS check→push chains,
        // repair copies) inherits the trace.
        const trace::TraceScope scope(ctx);
        response = handle(f);
    } catch (const RpcError& e) {
        status = Status::kRpcError;
        response = seal_error(type, status, e.what());
    } catch (const TimeoutError& e) {
        status = Status::kTimeout;
        response = seal_error(type, status, e.what());
    } catch (const NotFoundError& e) {
        status = Status::kNotFound;
        response = seal_error(type, status, e.what());
    } catch (const ConsistencyError& e) {
        status = Status::kConsistency;
        response = seal_error(type, status, e.what());
    } catch (const InvalidArgument& e) {
        status = Status::kInvalidArgument;
        response = seal_error(type, status, e.what());
    } catch (const VersionAborted& e) {
        status = Status::kVersionAborted;
        response = seal_error(type, status, e.what());
    } catch (const VersionRetired& e) {
        status = Status::kVersionRetired;
        response = seal_error(type, status, e.what());
    } catch (const std::exception& e) {
        status = Status::kError;
        response = seal_error(type, status, e.what());
    }
    set_frame_corr(response.head, corr);

    const std::uint64_t handle_us = us_between(started, Clock::now());
    if (known_type) {
        if (OpTelemetry* t = telemetry_for(type)) {
            t->requests.load(std::memory_order_relaxed)->add();
            t->latency.load(std::memory_order_relaxed)->record(handle_us);
            if (status != Status::kOk) {
                t->errors.load(std::memory_order_relaxed)->add();
            }
        }
    }

    if (ctx.active()) {
        // Echo the request's context so the client can sanity-check the
        // response belongs to its trace.
        set_frame_trace(response.head, ctx);
        if (trace::TraceBuffer::should_record(ctx.sampled(), handle_us)) {
            trace::SpanRecord span;
            span.trace_id = ctx.trace_id;
            span.span_id = ctx.span_id;  // shared with the client half
            span.start_unix_us = trace::now_unix_us() - handle_us;
            span.queue_us = us_between(received_at, started);
            span.duration_us = handle_us;
            span.bytes = payload_bytes;
            span.node = dst;
            span.kind = trace::SpanRecord::kServer;
            span.status = static_cast<std::uint8_t>(status);
            span.set_op(to_string(type));
            trace::buffer().record(span);
        }
    }
    return response;
}

void Dispatcher::add_metadata_provider(NodeId node,
                                       dht::MetadataProvider* mp) {
    meta_providers_[node] = mp;
    meta_gated_ = meta_gated_ || mp->ops_per_second() != 0;
}

DispatchClass Dispatcher::dispatch_class(MsgType type) const noexcept {
    switch (type) {
        // Bounded in-memory work plus page-cache appends (a journal
        // record, a log record per metadata node); no fsync, no sleep,
        // no nested RPC.
        case MsgType::kTopology:
        case MsgType::kBlobCreate:
        case MsgType::kBlobClone:
        case MsgType::kBlobCloneFrom:
        case MsgType::kBlobInfo:
        case MsgType::kAssign:
        case MsgType::kCommit:
        case MsgType::kGetVersion:
        case MsgType::kDescriptorOf:
        case MsgType::kPin:
        case MsgType::kUnpin:
        case MsgType::kPlace:
            return DispatchClass::kLoop;
        case MsgType::kMetaGet:
        case MsgType::kMetaTryGet:
        case MsgType::kMetaErase:
        case MsgType::kMetaPutBatch:
            return meta_gated_ ? DispatchClass::kPool : DispatchClass::kLoop;

        // Blocks until publication or its timeout.
        case MsgType::kWaitPublished:
            return DispatchClass::kOwnThread;

        // Chunk payloads, the file cache and engine reads; membership and
        // inventory; history and retire (cost grows with history);
        // metrics and trace dumps.
        case MsgType::kChunkPut:
        case MsgType::kChunkGetBatch:
        case MsgType::kChunkErase:
        case MsgType::kChunkCheck:
        case MsgType::kChunkPushStart:
        case MsgType::kChunkPushSome:
        case MsgType::kChunkPushEnd:
        case MsgType::kChunkPullStart:
        case MsgType::kChunkPullSome:
        case MsgType::kChunkDecref:
        case MsgType::kHistory:
        case MsgType::kRetire:
        case MsgType::kProviderJoin:
        case MsgType::kProviderAnnounce:
        case MsgType::kProviderBeat:
        case MsgType::kReportFailure:
        case MsgType::kMetricsDump:
        case MsgType::kTraceDump:
            return DispatchClass::kPool;
    }
    return DispatchClass::kPool;
}

RpcResponse Dispatcher::handle(const FrameView& f) {
    // Fault gate: a request addressed to a node the deployment considers
    // down fails exactly like a dead simulated endpoint, so TCP clients
    // observe the same fault semantics as in-process ones.
    // Control-plane introspection (topology, metrics, traces) stays
    // reachable on a "dead" deployment — exactly when operators need it.
    const bool control = f.type == MsgType::kTopology ||
                         f.type == MsgType::kMetricsDump ||
                         f.type == MsgType::kTraceDump;
    if (fault_check_ && !control && !fault_check_(f.dst())) {
        throw RpcError("target node " + std::to_string(f.dst()) +
                       " is down");
    }
    switch (f.type) {
        case MsgType::kChunkPut:
        case MsgType::kChunkGetBatch:
        case MsgType::kChunkErase:
        case MsgType::kChunkCheck:
        case MsgType::kChunkPushStart:
        case MsgType::kChunkPushSome:
        case MsgType::kChunkPushEnd:
        case MsgType::kChunkPullStart:
        case MsgType::kChunkPullSome:
        case MsgType::kChunkDecref:
            return handle_data_provider(f);

        case MsgType::kBlobCreate:
        case MsgType::kBlobClone:
        case MsgType::kBlobInfo:
        case MsgType::kAssign:
        case MsgType::kCommit:
        case MsgType::kGetVersion:
        case MsgType::kWaitPublished:
        case MsgType::kHistory:
        case MsgType::kPin:
        case MsgType::kUnpin:
        case MsgType::kRetire:
        case MsgType::kDescriptorOf:
        case MsgType::kBlobCloneFrom:
            return handle_version_manager(f);

        case MsgType::kMetaGet:
        case MsgType::kMetaTryGet:
        case MsgType::kMetaErase:
        case MsgType::kMetaPutBatch:
            return handle_meta_provider(f);

        case MsgType::kPlace:
        case MsgType::kProviderJoin:
        case MsgType::kProviderAnnounce:
        case MsgType::kProviderBeat:
        case MsgType::kReportFailure:
            return handle_provider_manager(f);

        case MsgType::kTopology: {
            Topology t = topology();
            t.client_id = next_client_id_.fetch_add(1);
            WireWriter w;
            put_topology(w, t);
            return seal_response(f.type, std::move(w));
        }

        case MsgType::kMetricsDump: {
            WireReader r(f.payload);
            r.expect_end();
            WireWriter w;
            put_metrics_snapshot(w, MetricsRegistry::instance().snapshot());
            return seal_response(f.type, std::move(w));
        }

        case MsgType::kTraceDump: {
            WireReader r(f.payload);
            const std::uint64_t trace_id = r.u64();
            const std::uint64_t max = r.u64();
            r.expect_end();
            WireWriter w;
            put_span_records(
                w, trace::buffer().snapshot(
                       trace_id, max == 0 ? trace::TraceBuffer::kDefaultCapacity
                                          : max));
            return seal_response(f.type, std::move(w));
        }
    }
    throw RpcError("unknown message type " +
                   std::to_string(static_cast<unsigned>(f.type)));
}

RpcResponse Dispatcher::handle_data_provider(const FrameView& f) {
    const auto it = data_providers_.find(f.dst());
    if (it == data_providers_.end()) {
        throw RpcError("no data-provider service on node " +
                       std::to_string(f.dst()));
    }
    provider::DataProvider& dp = *it->second;
    WireReader r(f.payload);

    switch (f.type) {
        case MsgType::kChunkPut: {
            const chunk::ChunkKey key = get_chunk_key(r);
            const ConstBytes payload = r.blob();
            r.expect_end();
            dp.put_chunk(key, std::make_shared<const Buffer>(
                                  payload.begin(), payload.end()));
            return seal_response(f.type, WireWriter());
        }
        case MsgType::kChunkGetBatch: {
            // Decode the whole request first: a malformed batch reads
            // no key.
            const std::vector<ChunkRead> reads = get_chunk_reads(r);
            r.expect_end();
            // Zero-copy: each served slice is borrowed from the store
            // (with its own pin) and shipped as its own tail, in key
            // order after the head's (status, chunk_size, length)
            // entries.
            WireWriter w(16 + reads.size() * 20);
            w.varint(reads.size());
            std::vector<SharedSlice> tails;
            tails.reserve(reads.size());
            std::uint64_t served = 0;
            bool capped = false;
            for (const ChunkRead& rd : reads) {
                ChunkReadEntry e;
                // A known slice size past the cap is skipped before any
                // store work; a whole-chunk read learns its size first.
                capped = capped || (served > 0 && rd.size != 0 &&
                                    served + rd.size > kChunkBatchReplyCap);
                if (capped) {
                    put_chunk_read_entry(w, e);  // kNotServed
                    continue;
                }
                chunk::ChunkRef ref;
                try {
                    ref = dp.get_chunk_ref(rd.key);
                } catch (const NotFoundError&) {
                    e.status = ChunkReadStatus::kNotFound;
                    put_chunk_read_entry(w, e);
                    continue;
                }
                const std::uint64_t total = ref.bytes.size();
                const std::uint64_t begin = std::min(rd.offset, total);
                const std::uint64_t n =
                    rd.size == 0 ? total - begin
                                 : std::min(rd.size, total - begin);
                if (served > 0 && served + n > kChunkBatchReplyCap) {
                    capped = true;
                    put_chunk_read_entry(w, e);  // kNotServed
                    continue;
                }
                e = {ChunkReadStatus::kServed, total, n};
                put_chunk_read_entry(w, e);
                served += n;
                if (n != 0) {
                    tails.emplace_back(ref.bytes.subspan(begin, n),
                                       std::move(ref.keepalive));
                }
            }
            return RpcResponse(
                seal_response_with_tail(f.type, std::move(w), served),
                std::move(tails));
        }
        case MsgType::kChunkErase: {
            const chunk::ChunkKey key = get_chunk_key(r);
            r.expect_end();
            dp.erase_chunk(key);
            return seal_response(f.type, WireWriter());
        }
        case MsgType::kChunkCheck: {
            const chunk::ChunkKey key = get_chunk_key(r);
            const bool want_incref = r.u8() != 0;
            const std::uint64_t size_hint = r.u64();
            r.expect_end();
            WireWriter w;
            w.u8(dp.check_chunk(key, want_incref, size_hint) ? 1 : 0);
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kChunkPushStart: {
            const chunk::ChunkKey key = get_chunk_key(r);
            const std::uint64_t total = r.u64();
            r.expect_end();
            WireWriter w;
            w.u64(dp.begin_push(key, total));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kChunkPushSome: {
            const std::uint64_t xfer = r.u64();
            const std::uint64_t offset = r.u64();
            const ConstBytes bytes = r.blob();
            r.expect_end();
            dp.push_some(xfer, offset, bytes);
            return seal_response(f.type, WireWriter());
        }
        case MsgType::kChunkPushEnd: {
            const std::uint64_t xfer = r.u64();
            r.expect_end();
            dp.end_push(xfer);
            return seal_response(f.type, WireWriter());
        }
        case MsgType::kChunkPullStart: {
            const chunk::ChunkKey key = get_chunk_key(r);
            r.expect_end();
            WireWriter w;
            w.u64(dp.chunk_size(key));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kChunkPullSome: {
            const chunk::ChunkKey key = get_chunk_key(r);
            const std::uint64_t offset = r.u64();
            const std::uint64_t size = r.u64();  // 0 = rest of the chunk
            r.expect_end();
            auto [total, ref] = dp.get_chunk_range_ref(key, offset, size);
            const std::uint64_t begin = std::min(offset, total);
            const std::uint64_t n =
                size == 0 ? total - begin : std::min(size, total - begin);
            WireWriter w(64);
            w.u64(total);
            w.varint(n);
            return RpcResponse(
                seal_response_with_tail(f.type, std::move(w), n),
                {SharedSlice(ref.bytes.subspan(begin, n),
                             std::move(ref.keepalive))});
        }
        case MsgType::kChunkDecref: {
            const chunk::ChunkKey key = get_chunk_key(r);
            r.expect_end();
            WireWriter w;
            w.u64(dp.decref_chunk(key));
            return seal_response(f.type, std::move(w));
        }
        default:
            throw RpcError("bad data-provider message");
    }
}

Buffer Dispatcher::handle_version_manager(const FrameView& f) {
    const auto it = version_managers_.find(f.dst());
    if (it == version_managers_.end()) {
        throw RpcError("no version-manager service on node " +
                       std::to_string(f.dst()));
    }
    version::VersionManager& vm = *it->second;
    WireReader r(f.payload);

    switch (f.type) {
        case MsgType::kBlobCreate: {
            const std::uint64_t chunk_size = r.u64();
            const std::uint32_t replication = r.u32();
            r.expect_end();
            WireWriter w;
            put_blob_info(w, vm.create_blob(chunk_size, replication));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kBlobClone: {
            const BlobId src = r.u64();
            const Version v = r.u64();
            r.expect_end();
            WireWriter w;
            put_blob_info(w, vm.clone_blob(src, v));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kBlobInfo: {
            const BlobId blob = r.u64();
            r.expect_end();
            WireWriter w;
            put_blob_info(w, vm.blob_info(blob));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kAssign: {
            const BlobId blob = r.u64();
            const auto offset = get_opt_u64(r);
            const std::uint64_t size = r.u64();
            r.expect_end();
            WireWriter w;
            put_assign_result(w, vm.assign(blob, offset, size));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kCommit: {
            const BlobId blob = r.u64();
            const Version v = r.u64();
            r.expect_end();
            vm.commit(blob, v);
            return seal_response(f.type, WireWriter());
        }
        case MsgType::kGetVersion: {
            const BlobId blob = r.u64();
            const Version v = r.u64();
            r.expect_end();
            WireWriter w;
            put_version_info(w, vm.get_version(blob, v));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kWaitPublished: {
            const BlobId blob = r.u64();
            const Version v = r.u64();
            const std::uint64_t timeout_ms = r.u64();
            r.expect_end();
            WireWriter w;
            put_version_info(
                w, vm.wait_published(blob, v, milliseconds(timeout_ms)));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kHistory: {
            const BlobId blob = r.u64();
            const Version from = r.u64();
            const Version to = r.u64();
            r.expect_end();
            const auto summaries = vm.history(blob, from, to);
            WireWriter w;
            w.varint(summaries.size());
            for (const auto& s : summaries) {
                put_version_summary(w, s);
            }
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kPin: {
            const BlobId blob = r.u64();
            const Version v = r.u64();
            r.expect_end();
            WireWriter w;
            w.u8(vm.pin(blob, v) ? 1 : 0);
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kUnpin: {
            const BlobId blob = r.u64();
            const Version v = r.u64();
            r.expect_end();
            vm.unpin(blob, v);
            return seal_response(f.type, WireWriter());
        }
        case MsgType::kRetire: {
            const BlobId blob = r.u64();
            const Version keep_from = r.u64();
            r.expect_end();
            WireWriter w;
            put_retire_info(w, vm.retire(blob, keep_from));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kDescriptorOf: {
            const BlobId blob = r.u64();
            const Version v = r.u64();
            r.expect_end();
            WireWriter w;
            put_write_descriptor(w, vm.descriptor_of(blob, v));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kBlobCloneFrom: {
            const std::uint64_t chunk_size = r.u64();
            const std::uint32_t replication = r.u32();
            const meta::TreeRef origin = get_tree_ref(r);
            r.expect_end();
            WireWriter w;
            put_blob_info(w,
                          vm.clone_from(chunk_size, replication, origin));
            return seal_response(f.type, std::move(w));
        }
        default:
            throw RpcError("bad version-manager message");
    }
}

Buffer Dispatcher::handle_meta_provider(const FrameView& f) {
    const auto it = meta_providers_.find(f.dst());
    if (it == meta_providers_.end()) {
        throw RpcError("no metadata-provider service on node " +
                       std::to_string(f.dst()));
    }
    dht::MetadataProvider& mp = *it->second;
    WireReader r(f.payload);

    switch (f.type) {
        case MsgType::kMetaGet: {
            const meta::MetaKey key = get_meta_key(r);
            r.expect_end();
            WireWriter w;
            put_meta_node(w, mp.get(key));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kMetaTryGet: {
            const meta::MetaKey key = get_meta_key(r);
            r.expect_end();
            const auto node = mp.try_get(key);
            WireWriter w;
            w.u8(node.has_value() ? 1 : 0);
            if (node) {
                put_meta_node(w, *node);
            }
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kMetaErase: {
            const meta::MetaKey key = get_meta_key(r);
            r.expect_end();
            mp.erase(key);
            return seal_response(f.type, WireWriter());
        }
        case MsgType::kMetaPutBatch: {
            // Decode the whole frame first: a malformed batch stores
            // nothing.
            const std::vector<meta::KeyedNode> nodes = get_meta_batch(r);
            r.expect_end();
            mp.put_many(nodes);
            return seal_response(f.type, WireWriter());
        }
        default:
            throw RpcError("bad metadata-provider message");
    }
}

Buffer Dispatcher::handle_provider_manager(const FrameView& f) {
    if (pm_ == nullptr || f.dst() != pm_node_) {
        throw RpcError("no provider-manager service on node " +
                       std::to_string(f.dst()));
    }
    provider::ProviderManager& pm = *pm_;
    WireReader r(f.payload);

    switch (f.type) {
        case MsgType::kPlace: {
            const std::uint64_t n_chunks = r.u64();
            const std::uint32_t replication = r.u32();
            const std::uint64_t chunk_bytes = r.u64();
            r.expect_end();
            WireWriter w;
            put_placement_plan(w, pm.place(n_chunks, replication,
                                           chunk_bytes));
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kProviderJoin: {
            const std::string name = r.str();
            r.expect_end();
            if (name.empty()) {
                throw InvalidArgument("provider join without a name");
            }
            const auto jr = pm.join(name);
            WireWriter w;
            w.u32(jr.node);
            w.u8(jr.rejoin ? 1 : 0);
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kProviderAnnounce: {
            const NodeId node = r.u32();
            const std::string host = r.str();
            const std::uint32_t port = r.u32();
            const auto inventory = get_chunk_holdings(r);
            r.expect_end();
            pm.announce(node, host, port, inventory);
            return seal_response(f.type, WireWriter());
        }
        case MsgType::kProviderBeat: {
            const NodeId node = r.u32();
            const std::uint64_t seq = r.u64();
            const auto added = get_chunk_holdings(r);
            const auto removed = get_chunk_keys(r);
            r.expect_end();
            WireWriter w;
            w.u8(pm.heartbeat(node, seq, added, removed) ? 1 : 0);
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kReportFailure: {
            const NodeId suspect = r.u32();
            const NodeId reporter = r.u32();
            r.expect_end();
            WireWriter w;
            w.u8(pm.report_failure(suspect, reporter) ? 1 : 0);
            return seal_response(f.type, std::move(w));
        }
        default:
            throw RpcError("bad provider-manager message");
    }
}

}  // namespace blobseer::rpc
