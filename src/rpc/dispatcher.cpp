#include "rpc/dispatcher.hpp"

#include <algorithm>
#include <limits>
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
    MsgType type{};  // tag 0 answers a frame too corrupt to parse
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
    // The run column of BLOBSEER_MESSAGES (protocol.hpp).
    using enum DispatchClass;
    const DispatchClass kMetaLoop = meta_gated_ ? kPool : kLoop;
    switch (type) {
#define BLOBSEER_RUN(tag, name, wire, service, run) \
    case MsgType::name:                              \
        return run;
        BLOBSEER_MESSAGES(BLOBSEER_RUN)
#undef BLOBSEER_RUN
    }
    return kPool;
}

RpcResponse Dispatcher::handle(const FrameView& f) {
    // The service column of BLOBSEER_MESSAGES (protocol.hpp).
    enum class Service { kNone, kData, kVersionManager, kMeta,
                         kProviderManager, kControl };
    Service service = Service::kNone;
    switch (f.type) {
#define BLOBSEER_SERVICE(tag, name, wire, svc, run) \
    case MsgType::name:                              \
        service = Service::svc;                      \
        break;
        BLOBSEER_MESSAGES(BLOBSEER_SERVICE)
#undef BLOBSEER_SERVICE
    }
    // Fault gate: a request addressed to a node the deployment considers
    // down fails exactly like a dead simulated endpoint, so TCP clients
    // observe the same fault semantics as in-process ones.
    // Control-plane introspection (topology, metrics, traces) stays
    // reachable on a "dead" deployment — exactly when operators need it.
    if (fault_check_ && service != Service::kControl &&
        !fault_check_(f.dst())) {
        throw RpcError("target node " + std::to_string(f.dst()) +
                       " is down");
    }
    switch (service) {
        case Service::kData:
            return handle_data_provider(f);
        case Service::kVersionManager:
            return handle_version_manager(f);
        case Service::kMeta:
            return handle_meta_provider(f);
        case Service::kProviderManager:
            return handle_provider_manager(f);
        case Service::kControl:
            return handle_control(f);
        case Service::kNone:
            break;
    }
    throw RpcError("unknown message type " +
                   std::to_string(static_cast<unsigned>(f.type)));
}

Buffer Dispatcher::handle_control(const FrameView& f) {
    WireReader r(f.payload);

    switch (f.type) {
        case MsgType::kTopology: {
            Topology t = topology();
            t.client_id = next_client_id_.fetch_add(1);
            WireWriter w;
            put_topology(w, t);
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kMetricsDump: {
            r.expect_end();
            WireWriter w;
            put_metrics_snapshot(w, MetricsRegistry::instance().snapshot());
            return seal_response(f.type, std::move(w));
        }
        case MsgType::kTraceDump: {
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
        default:
            throw RpcError("bad control-plane message");
    }
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
                ChunkReadEntry e;  // kNotServed
                // The first served key may have any size; each later one
                // only what is left of the cap. A known slice size past
                // it is skipped before any store work; a whole-chunk
                // read learns its size first.
                const std::uint64_t budget =
                    served == 0 ? std::numeric_limits<std::uint64_t>::max()
                                : kChunkBatchReplyCap -
                                      std::min(served, kChunkBatchReplyCap);
                capped = capped || rd.size > budget;
                if (!capped) {
                    try {
                        if (auto got = dp.get_chunk_ref(rd.key, rd.offset,
                                                        rd.size, budget)) {
                            e = {ChunkReadStatus::kServed, got->chunk_size,
                                 got->slice.size()};
                            served += e.length;
                            if (e.length != 0) {
                                tails.push_back(std::move(got->slice));
                            }
                        } else {
                            capped = true;
                        }
                    } catch (const NotFoundError&) {
                        e.status = ChunkReadStatus::kNotFound;
                    }
                }
                put_chunk_read_entry(w, e);
            }
            return RpcResponse(
                seal_response_with_tail(f.type, std::move(w), served),
                std::move(tails));
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
