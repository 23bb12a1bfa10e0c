#include "core/client.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <thread>

#include "cas/sha256.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/trace.hpp"
#include "meta/tree_builder.hpp"

namespace blobseer::core {

namespace {

/// Root span of one traced top-level operation. Mints a fresh sampled
/// trace context, installs it for the calling thread (every nested RPC
/// the operation issues propagates it on the wire), and records the
/// root client span on destruction. Inert when tracing is off or when
/// the thread is already inside a traced operation — nesting keeps the
/// outer root.
class RootTrace {
  public:
    RootTrace(bool enabled, const char* op, NodeId node,
              std::atomic<std::uint64_t>& last_trace_id)
        : active_(enabled && !trace::current().active()), op_(op),
          node_(node) {
        if (!active_) {
            return;
        }
        trace::TraceContext ctx;
        ctx.trace_id = trace::new_trace_id();
        ctx.span_id = trace::new_span_id();
        ctx.flags = trace::TraceContext::kSampled;
        last_trace_id.store(ctx.trace_id, std::memory_order_relaxed);
        start_unix_us_ = trace::now_unix_us();
        scope_.emplace(ctx);
    }

    ~RootTrace() {
        if (!active_) {
            return;
        }
        const trace::TraceContext ctx = trace::current();
        trace::SpanRecord rec;
        rec.trace_id = ctx.trace_id;
        rec.span_id = ctx.span_id;
        rec.parent_span = 0;
        rec.start_unix_us = start_unix_us_;
        rec.duration_us = trace::now_unix_us() - start_unix_us_;
        rec.node = node_;
        rec.kind = trace::SpanRecord::kClient;
        rec.status = std::uncaught_exceptions() > 0 ? 1 : 0;
        rec.set_op(op_);
        trace::buffer().record(rec);
    }

    RootTrace(const RootTrace&) = delete;
    RootTrace& operator=(const RootTrace&) = delete;

  private:
    bool active_;
    const char* op_;
    NodeId node_;
    std::uint64_t start_unix_us_ = 0;
    std::optional<trace::TraceScope> scope_;
};

}  // namespace

BlobSeerClient::BlobSeerClient(ClientEnv env)
    : env_(std::move(env)),
      svc_(*env_.transport, env_.vm_nodes, env_.pm_node, env_.self),
      dht_(svc_, env_.meta_ring, env_.meta_replication),
      cache_(dht_, env_.meta_cache_nodes),
      io_pool_(env_.io_threads) {
    // next_uid() packs the client id into 24 bits; a wider id would
    // silently truncate and could collide chunk uids across clients.
    // Simulated node ids stay tiny and the dispatcher mints remote ids
    // from 2^20 upward, so this fires only after ~16M handshakes.
    if (env_.self >= (1u << 24)) {
        throw InvalidArgument("client node id " +
                              std::to_string(env_.self) +
                              " exceeds the 24-bit uid namespace");
    }
    // Counter layout: [epoch:12][allocation:28] (see next_uid). A
    // restarted deployment re-mints the same client ids, so the boot
    // epoch must separate their uid spaces.
    if (env_.uid_epoch >= (1u << 12)) {
        throw InvalidArgument("uid epoch " +
                              std::to_string(env_.uid_epoch) +
                              " exceeds the 12-bit epoch namespace");
    }
    uid_counter_.store(env_.uid_epoch << 28);
    for (const NodeId node : env_.data_nodes) {
        data_ring_.add_node(node);
    }

    const MetricLabels labels{{"node", std::to_string(env_.self)}};
    metrics_.counter("client_writes_total", labels, stats_.writes);
    metrics_.counter("client_appends_total", labels, stats_.appends);
    metrics_.counter("client_reads_total", labels, stats_.reads);
    metrics_.counter("client_bytes_written_total", labels,
                     stats_.bytes_written);
    metrics_.counter("client_bytes_read_total", labels, stats_.bytes_read);
    metrics_.counter("client_chunk_put_rpcs_total", labels,
                     stats_.chunk_put_rpcs);
    metrics_.counter("client_chunk_get_rpcs_total", labels,
                     stats_.chunk_get_rpcs);
    metrics_.counter("client_chunk_retries_total", labels,
                     stats_.chunk_retries);
    metrics_.counter("client_chunk_locates_total", labels,
                     stats_.chunk_locates);
    metrics_.counter("client_tree_base_reads_total", labels,
                     stats_.tree_base_reads);
    metrics_.counter("client_cas_chunks_total", labels, stats_.cas_chunks);
    metrics_.counter("client_cas_dedup_hits_total", labels,
                     stats_.cas_dedup_hits);
    metrics_.counter("client_cas_bytes_skipped_total", labels,
                     stats_.cas_bytes_skipped);
    metrics_.counter("client_cas_bytes_sent_total", labels,
                     stats_.cas_bytes_sent);
    metrics_.counter("client_cas_stream_pushes_total", labels,
                     stats_.cas_stream_pushes);
    metrics_.gauge("client_inflight_chunk_rpcs", labels,
                   stats_.inflight_chunk_rpcs);
    metrics_.histogram("client_write_latency_us", labels,
                       stats_.write_latency_us);
    metrics_.histogram("client_read_latency_us", labels,
                       stats_.read_latency_us);
}

// ---- blob lifecycle ------------------------------------------------------

Blob BlobSeerClient::create(std::uint64_t chunk_size,
                            std::optional<std::uint32_t> replication) {
    const std::uint32_t repl =
        replication.value_or(env_.default_replication);
    const auto info = svc_.create_blob(chunk_size, repl);
    {
        const std::scoped_lock lock(info_mu_);
        info_cache_[info.id] = info;
    }
    return Blob(*this, info);
}

Blob BlobSeerClient::open(BlobId id) { return Blob(*this, blob_info(id)); }

Blob BlobSeerClient::clone(BlobId src, Version version) {
    version::BlobInfo info;
    if (svc_.vm_nodes().size() == 1) {
        // Single shard: source and destination share a version manager,
        // one RPC does everything atomically.
        info = svc_.clone_blob(src, version);
    } else {
        // Cross-shard protocol (DESIGN.md §10.3): the destination shard
        // cannot see the source blob, so the client resolves the
        // published snapshot on the owning shard, pins it there (clones
        // read through their origin's tree forever), and hands the
        // resolved TreeRef to the destination shard.
        const auto src_info = blob_info(src);  // missing blob throws here
        version::VersionInfo vi;
        try {
            vi = svc_.get_version(src, version);
        } catch (const NotFoundError&) {
            // The blob exists (resolved above), so the version is just
            // not assigned yet — same contract as the single-shard
            // clone_blob path.
            throw InvalidArgument("cannot clone unpublished version " +
                                  std::to_string(version));
        }
        bool pinned_here = false;
        if (vi.version > 0) {
            if (vi.status == version::VersionStatus::kPending ||
                vi.status == version::VersionStatus::kCommitted) {
                throw InvalidArgument("cannot clone unpublished version " +
                                      std::to_string(vi.version));
            }
            if (vi.status != version::VersionStatus::kPublished) {
                throw VersionAborted(
                    "cannot clone " + std::string(to_string(vi.status)) +
                    " version " + std::to_string(vi.version));
            }
            (void)svc_.pin(src, vi.version);
            pinned_here = true;
        }
        try {
            info = svc_.clone_from(src_info.chunk_size,
                                   src_info.replication, vi.tree);
        } catch (...) {
            // Abandoned clone: drop the pin count this attempt added so
            // retirement of the source is not blocked forever. Pins
            // nest (VersionManager::pin), so this can never strip a
            // concurrent cloner's protection.
            if (pinned_here) {
                try {
                    svc_.unpin(src, vi.version);
                } catch (const Error&) {
                    // Best effort; a leaked pin only delays reclamation.
                }
            }
            throw;
        }
    }
    {
        const std::scoped_lock lock(info_mu_);
        info_cache_[info.id] = info;
    }
    return Blob(*this, info);
}

std::optional<version::VersionInfo> BlobSeerClient::cached_version(
    BlobId blob, Version v) {
    const std::scoped_lock lock(info_mu_);
    const auto it = version_cache_.find({blob, v});
    if (it == version_cache_.end()) {
        return std::nullopt;
    }
    return it->second;
}

void BlobSeerClient::remember_version(BlobId blob,
                                      const version::VersionInfo& vi) {
    if (vi.status != version::VersionStatus::kPublished) {
        return;  // only immutable facts are cacheable
    }
    const std::scoped_lock lock(info_mu_);
    version_cache_.emplace(std::pair{blob, vi.version}, vi);
}

version::BlobInfo BlobSeerClient::blob_info(BlobId blob) {
    {
        const std::scoped_lock lock(info_mu_);
        const auto it = info_cache_.find(blob);
        if (it != info_cache_.end()) {
            return it->second;
        }
    }
    const auto info = svc_.blob_info(blob);
    const std::scoped_lock lock(info_mu_);
    info_cache_[blob] = info;
    return info;
}

std::uint64_t BlobSeerClient::next_uid() {
    // Pack (client, boot epoch, allocation#) into 64 bits — 24 high
    // bits of client identity (bounded in the constructor), then a
    // 40-bit counter pre-seeded with the deployment boot epoch in its
    // top 12 bits ([epoch:12][alloc:28]): durable deployments re-mint
    // the same client ids after a restart, and the epoch keeps their
    // uid spaces disjoint (2^28 chunks per client per boot, 4095
    // boots). mix64 is a bijection, so uids stay collision-free while
    // the packed input is unique.
    const std::uint64_t n = uid_counter_.fetch_add(1);
    // Durable deployments (epoch >= 1): crossing into the next epoch's
    // block would silently re-mint uids a future boot will also mint —
    // fail loudly instead. Volatile deployments never mint an epoch and
    // keep the full 2^40 counter space.
    if (env_.uid_epoch != 0 && (n >> 28) != env_.uid_epoch) {
        throw Error("client " + std::to_string(env_.self) +
                    " exhausted its 2^28 chunk-uid allocations for boot "
                    "epoch " +
                    std::to_string(env_.uid_epoch));
    }
    return mix64((static_cast<std::uint64_t>(env_.self) << 40) |
                 (n & ((1ULL << 40) - 1)));
}

// ---- write path -----------------------------------------------------------

Version BlobSeerClient::write(BlobId blob, std::uint64_t offset,
                              ConstBytes data) {
    const Version v = write_impl(blob, offset, data);
    stats_.writes.add();
    stats_.bytes_written.add(data.size());
    return v;
}

Version BlobSeerClient::append(BlobId blob, ConstBytes data) {
    const Version v = write_impl(blob, std::nullopt, data);
    stats_.appends.add();
    stats_.bytes_written.add(data.size());
    return v;
}

std::vector<BlobSeerClient::UploadedChunk> BlobSeerClient::upload_all(
    BlobId blob, const std::vector<ConstBytes>& parts,
    const provider::PlacementPlan& plan) {
    const bool pipelined = env_.pipelined_replication;
    const std::size_t window_cap =
        std::max<std::size_t>(1, env_.max_inflight_chunks);

    // Per-chunk upload state machine, driven entirely by this thread:
    // puts are *issued* asynchronously (up to window_cap in flight at
    // once over the multiplexed transport) and *collected* oldest-first,
    // so failover — mark the provider dead, ask for a replacement
    // target, re-issue — runs on the collecting thread while the rest
    // of the window keeps streaming.
    struct State {
        ConstBytes payload;
        chunk::ChunkKey key{};
        std::vector<NodeId> targets;
        std::size_t next_target = 0;
        std::size_t in_flight = 0;
        std::size_t replacement_budget = 3;
        bool runnable_queued = false;
        UploadedChunk result;
    };
    std::vector<State> states(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
        State& st = states[i];
        st.payload = parts[i];
        st.targets = plan[i];
        st.key = chunk::ChunkKey{blob, next_uid()};
        st.result.key = st.key;
        st.result.bytes = static_cast<std::uint32_t>(parts[i].size());
    }

    struct PendingPut {
        Future<void> fut;
        std::size_t chunk = 0;
        NodeId target = kInvalidNode;
    };
    std::deque<PendingPut> window;
    std::deque<std::size_t> runnable;

    auto can_issue = [&](const State& st) {
        if (st.next_target >= st.targets.size()) {
            return false;
        }
        // Pipelined replication chains copies provider-to-provider, so
        // a chunk's next copy needs the previous one acknowledged; a
        // fan-out put has no such dependency.
        return !pipelined || st.in_flight == 0;
    };

    auto enqueue = [&](std::size_t idx) {
        if (!states[idx].runnable_queued && can_issue(states[idx])) {
            states[idx].runnable_queued = true;
            runnable.push_back(idx);
        }
    };
    for (std::size_t i = 0; i < states.size(); ++i) {
        enqueue(i);
    }

    auto handle_failure = [&](State& st, NodeId target,
                              const std::string& what) {
        stats_.chunk_retries.add();
        log_debug("client", "chunk put failed: " + what);
        // Tell the provider manager so it can corroborate the death and
        // start repair, then ask it for a replacement target (bounded).
        report_provider_failure(target);
        if (st.replacement_budget > 0) {
            --st.replacement_budget;
            try {
                auto fresh_plan = svc_.place(1, 1, st.payload.size());
                const NodeId fresh = fresh_plan.at(0).at(0);
                if (std::find(st.targets.begin(), st.targets.end(),
                              fresh) == st.targets.end() &&
                    std::find(st.result.replicas.begin(),
                              st.result.replicas.end(),
                              fresh) == st.result.replicas.end()) {
                    st.targets.push_back(fresh);
                }
            } catch (const Error&) {
                // No replacement available; degrade replication.
            }
        }
    };

    auto issue_one = [&](std::size_t idx) {
        State& st = states[idx];
        const NodeId target = st.targets[st.next_target++];
        // Pipelined replication: the first copy leaves the client; each
        // further copy is forwarded provider-to-provider (the previous
        // chain member's NIC pays, not the client's — GFS-style).
        const NodeId via = pipelined && !st.result.replicas.empty()
                               ? st.result.replicas.back()
                               : kInvalidNode;
        Future<void> fut;
        try {
            fut = svc_.put_chunk_async(target, st.key, st.payload, via);
        } catch (const RpcError& e) {
            // call_async can fail synchronously (connection refused,
            // resolve failure): same failover as an async failure.
            handle_failure(st, target, e.what());
            return;
        }
        stats_.inflight_chunk_rpcs.add();
        window.push_back(PendingPut{std::move(fut), idx, target});
        ++st.in_flight;
    };

    auto pump = [&] {
        while (window.size() < window_cap && !runnable.empty()) {
            const std::size_t idx = runnable.front();
            if (!can_issue(states[idx])) {
                states[idx].runnable_queued = false;
                runnable.pop_front();
                continue;
            }
            issue_one(idx);
            if (!can_issue(states[idx])) {
                states[idx].runnable_queued = false;
                runnable.pop_front();
            }
        }
    };

    auto collect_one = [&] {
        PendingPut put = std::move(window.front());
        window.pop_front();
        State& st = states[put.chunk];
        --st.in_flight;
        stats_.inflight_chunk_rpcs.sub();
        try {
            put.fut.get();
            st.result.replicas.push_back(put.target);
            stats_.chunk_put_rpcs.add();
        } catch (const RpcError& e) {
            handle_failure(st, put.target, e.what());
        }
        enqueue(put.chunk);
    };

    try {
        for (;;) {
            pump();
            if (window.empty()) {
                break;
            }
            collect_one();
        }
    } catch (...) {
        // A non-RpcError escaped (decode bug, consistency violation):
        // drain the window before unwinding — the futures reference the
        // caller's payload spans and the in-flight gauge must balance.
        while (!window.empty()) {
            stats_.inflight_chunk_rpcs.sub();
            try {
                window.front().fut.get();
            } catch (...) {
                // Already propagating the first failure.
            }
            window.pop_front();
        }
        throw;
    }

    std::vector<UploadedChunk> out;
    out.reserve(states.size());
    for (State& st : states) {
        if (st.result.replicas.empty()) {
            throw RpcError("no replica stored for " + st.key.to_string());
        }
        out.push_back(std::move(st.result));
    }
    return out;
}

std::vector<BlobSeerClient::UploadedChunk> BlobSeerClient::upload_all_cas(
    const std::vector<ConstBytes>& parts, std::uint32_t replication) {
    const std::size_t window_cap =
        std::max<std::size_t>(1, env_.max_inflight_chunks);

    // Content-addressed variant of upload_all. Targets come from the
    // data ring, not the provider manager: identical content must land
    // on identical providers or check-before-push never hits. Every
    // target is first asked whether it already holds the digest
    // (want_incref — a hit records this write's reference server-side);
    // only misses transfer bytes. Replication fans out directly (each
    // target needs its own check), so no pipelined chaining here.
    struct State {
        ConstBytes payload;
        chunk::ChunkKey key{};
        std::vector<NodeId> targets;
        std::size_t next_target = 0;
        UploadedChunk result;
    };
    std::vector<State> states(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
        State& st = states[i];
        st.payload = parts[i];
        const auto [hi, lo] = cas::digest128(cas::sha256(parts[i]));
        st.key = chunk::ChunkKey::content(hi, lo);
        st.targets = data_ring_.owners(st.key.hash(), replication);
        st.result.key = st.key;
        st.result.bytes = static_cast<std::uint32_t>(parts[i].size());
        stats_.cas_chunks.add();
    }

    struct Pending {
        Future<bool> check;
        Future<void> put;
        bool is_check = true;
        std::size_t chunk = 0;
        NodeId target = kInvalidNode;
    };
    std::deque<Pending> window;

    auto handle_failure = [&](NodeId target, const std::string& what) {
        stats_.chunk_retries.add();
        log_debug("client", "cas chunk transfer failed: " + what);
        report_provider_failure(target);
    };

    // Issue the next target's check for one chunk, if any remain.
    auto issue_check = [&](std::size_t idx) {
        State& st = states[idx];
        while (st.next_target < st.targets.size()) {
            const NodeId target = st.targets[st.next_target++];
            Pending p;
            p.chunk = idx;
            p.target = target;
            try {
                p.check = svc_.check_chunk_async(target, st.key, true,
                                                 st.payload.size());
            } catch (const RpcError& e) {
                handle_failure(target, e.what());
                continue;
            }
            stats_.inflight_chunk_rpcs.add();
            window.push_back(std::move(p));
            return;
        }
    };

    // The check came back a miss: ship the bytes. Large parts stream
    // (synchronously — one bounded session at a time from this client),
    // small ones ride a single async put through the window.
    auto transfer = [&](std::size_t idx, NodeId target) {
        State& st = states[idx];
        if (st.payload.size() > rpc::kStreamThresholdBytes) {
            try {
                svc_.push_chunk(target, st.key, st.payload);
            } catch (const RpcError& e) {
                handle_failure(target, e.what());
                issue_check(idx);
                return;
            }
            st.result.replicas.push_back(target);
            stats_.chunk_put_rpcs.add();
            stats_.cas_stream_pushes.add();
            stats_.cas_bytes_sent.add(st.payload.size());
            issue_check(idx);  // next replica target, if any
            return;
        }
        Pending p;
        p.is_check = false;
        p.chunk = idx;
        p.target = target;
        try {
            p.put = svc_.put_chunk_async(target, st.key, st.payload);
        } catch (const RpcError& e) {
            handle_failure(target, e.what());
            issue_check(idx);
            return;
        }
        stats_.inflight_chunk_rpcs.add();
        window.push_back(std::move(p));
    };

    auto collect_one = [&] {
        Pending p = std::move(window.front());
        window.pop_front();
        State& st = states[p.chunk];
        stats_.inflight_chunk_rpcs.sub();
        if (p.is_check) {
            bool present = false;
            try {
                present = p.check.get();
            } catch (const RpcError& e) {
                handle_failure(p.target, e.what());
                issue_check(p.chunk);
                return;
            }
            if (present) {
                // Reference already recorded provider-side (want_incref).
                st.result.replicas.push_back(p.target);
                stats_.cas_dedup_hits.add();
                stats_.cas_bytes_skipped.add(st.payload.size());
                issue_check(p.chunk);  // next replica target, if any
            } else {
                transfer(p.chunk, p.target);
            }
            return;
        }
        try {
            p.put.get();
            st.result.replicas.push_back(p.target);
            stats_.chunk_put_rpcs.add();
            stats_.cas_bytes_sent.add(st.payload.size());
            issue_check(p.chunk);  // next replica target, if any
        } catch (const RpcError& e) {
            handle_failure(p.target, e.what());
            issue_check(p.chunk);
        }
    };

    std::size_t next_start = 0;  // first chunk not yet started
    try {
        for (;;) {
            while (window.size() < window_cap &&
                   next_start < states.size()) {
                issue_check(next_start++);
            }
            if (window.empty()) {
                break;
            }
            collect_one();
        }
    } catch (...) {
        // A non-RpcError escaped: drain the window before unwinding —
        // the futures reference the caller's payload spans and the
        // in-flight gauge must balance.
        while (!window.empty()) {
            stats_.inflight_chunk_rpcs.sub();
            Pending& p = window.front();
            try {
                if (p.is_check) {
                    (void)p.check.get();
                } else {
                    p.put.get();
                }
            } catch (...) {
                // Already propagating the first failure.
            }
            window.pop_front();
        }
        throw;
    }

    std::vector<UploadedChunk> out;
    out.reserve(states.size());
    for (State& st : states) {
        if (st.result.replicas.empty()) {
            throw RpcError("no replica stored for " + st.key.to_string());
        }
        out.push_back(std::move(st.result));
    }
    return out;
}

Version BlobSeerClient::write_impl(BlobId blob,
                                   std::optional<std::uint64_t> offset_opt,
                                   ConstBytes data) {
    if (data.empty()) {
        throw InvalidArgument("zero-sized write");
    }
    const RootTrace root(env_.trace, offset_opt ? "write" : "append",
                         env_.self, last_trace_id_);
    const Stopwatch sw;
    const version::BlobInfo info = blob_info(blob);
    const std::uint64_t c = info.chunk_size;

    if (offset_opt && *offset_opt % c != 0) {
        throw InvalidArgument("write offset must be chunk-aligned");
    }

    // Chunk payload slices. For an explicit (aligned) write these are
    // known before version assignment, matching the paper's protocol of
    // uploading data before contacting the version manager; appends
    // resolve their offset at assign time, so they upload afterwards.
    std::vector<UploadedChunk> uploaded;
    std::vector<ConstBytes> payloads;
    Buffer merged_head;  // unaligned-append tail rewrite, if needed

    auto split_into = [c](ConstBytes bytes, std::vector<ConstBytes>& out) {
        for (std::size_t pos = 0; pos < bytes.size(); pos += c) {
            out.push_back(bytes.subspan(
                pos, std::min<std::size_t>(c, bytes.size() - pos)));
        }
    };

    auto upload_parts = [&](const std::vector<ConstBytes>& parts)
        -> std::vector<UploadedChunk> {
        if (cas_enabled()) {
            return upload_all_cas(parts, info.replication);
        }
        const auto plan = svc_.place(parts.size(), info.replication, c);
        return upload_all(blob, parts, plan);
    };

    version::AssignResult ar;
    if (offset_opt) {
        split_into(data, payloads);
        uploaded = upload_parts(payloads);
        try {
            ar = svc_.assign(blob, offset_opt, data.size());
        } catch (const Error&) {
            // Assignment refused (e.g. unaligned interior tail after a
            // concurrent extension): the uploaded chunks are unreachable;
            // release their references best-effort before propagating (a
            // decref of an unshared chunk erases it; a deduplicated one
            // just loses this write's reference).
            for (const auto& up : uploaded) {
                for (const NodeId r : up.replicas) {
                    try {
                        (void)svc_.chunk_decref(r, up.key);
                    } catch (const RpcError&) {
                        // Leaked reference; it only delays reclamation.
                    }
                }
            }
            throw;
        }
    } else {
        ar = svc_.assign(blob, std::nullopt, data.size());
        if (ar.offset % c != 0) {
            // Appending to an unaligned end: the trailing chunk must be
            // rewritten whole, merging the published predecessor's bytes.
            const std::uint64_t slot_start = (ar.offset / c) * c;
            const std::uint64_t prefix_len = ar.offset - slot_start;
            const Version prev = ar.version - 1;
            const auto pv =
                svc_.wait_published(blob, prev, env_.publish_timeout);
            if (pv.status == version::VersionStatus::kAborted) {
                throw VersionAborted(
                    "append predecessor aborted; this version is dead too");
            }
            const std::uint64_t head_data =
                std::min<std::uint64_t>(c - prefix_len, data.size());
            merged_head.resize(prefix_len + head_data);
            read_tail_for_merge(blob, pv, slot_start,
                                MutableBytes(merged_head.data(), prefix_len));
            std::memcpy(merged_head.data() + prefix_len, data.data(),
                        head_data);
            payloads.emplace_back(merged_head.data(), merged_head.size());
            split_into(data.subspan(head_data), payloads);
        } else {
            split_into(data, payloads);
        }
        uploaded = upload_parts(payloads);
    }

    // Assemble leaves in slot order and build the metadata tree.
    const meta::TreeGeometry geo(c);
    const ByteRange write_range{ar.offset, data.size()};
    const meta::SlotRange write_slots = geo.slots_of(write_range);
    if (uploaded.size() != write_slots.count) {
        throw ConsistencyError("chunk count does not match written slots");
    }

    meta::BuildInput in;
    in.blob = blob;
    in.chunk_size = c;
    in.version = ar.version;
    in.write_range = write_range;
    in.size_before = ar.size_before;
    in.size_after = ar.size_after;
    in.base = ar.base;
    in.concurrent = std::move(ar.concurrent);
    in.borders = std::move(ar.borders);
    in.leaves.reserve(uploaded.size());
    for (const auto& up : uploaded) {
        in.leaves.push_back(
            up.key.is_content()
                ? meta::MetaNode::cas_leaf(up.replicas, up.key.blob,
                                           up.key.uid, up.bytes)
                : meta::MetaNode::leaf(up.replicas, up.key.uid, up.bytes));
    }
    stats_.tree_base_reads.add(build_version_tree(cache_, in).store_reads);

    svc_.commit(blob, ar.version);
    stats_.write_latency_us.record(sw.elapsed_us());
    return ar.version;
}

// ---- read path ---------------------------------------------------------------

std::size_t BlobSeerClient::read(BlobId blob, Version version,
                                 std::uint64_t offset, MutableBytes out) {
    if (out.empty()) {
        return 0;
    }
    const RootTrace root(env_.trace, "read", env_.self, last_trace_id_);
    const Stopwatch sw;
    version::VersionInfo vi;
    if (const auto cached =
            version != kLatestVersion
                ? cached_version(blob, version)
                : std::optional<version::VersionInfo>{}) {
        vi = *cached;
    } else {
        vi = svc_.get_version(blob, version);
        if (vi.status == version::VersionStatus::kPending ||
            vi.status == version::VersionStatus::kCommitted) {
            vi = svc_.wait_published(blob, vi.version,
                                     env_.publish_timeout);
        }
        if (vi.status == version::VersionStatus::kAborted) {
            throw VersionAborted("read of aborted version " +
                                 std::to_string(vi.version));
        }
        if (vi.status == version::VersionStatus::kRetired) {
            throw VersionRetired("read of retired version " +
                                 std::to_string(vi.version));
        }
        remember_version(blob, vi);
    }
    if (offset + out.size() > vi.size) {
        throw InvalidArgument("read past end of snapshot v" +
                              std::to_string(vi.version) + " (size " +
                              std::to_string(vi.size) + ")");
    }

    const version::BlobInfo info = blob_info(blob);
    const auto plan =
        meta::plan_read(cache_, vi.tree.blob, vi.tree.version,
                        info.chunk_size, vi.size, {offset, out.size()});

    fetch_all(plan.segments, offset, out);

    stats_.reads.add();
    stats_.bytes_read.add(out.size());
    stats_.read_latency_us.record(sw.elapsed_us());
    return out.size();
}

// ---- asynchronous data path ------------------------------------------------
//
// A whole operation becomes one I/O-pool task that drives its own
// bounded in-flight window — overlap *within* an operation comes from
// the window, overlap *across* operations from the pool. The caller
// owns the data/out buffers until the future completes.

Future<Version> BlobSeerClient::write_async(BlobId blob,
                                            std::uint64_t offset,
                                            ConstBytes data) {
    return submit_async<Version>(
        [this, blob, offset, data] { return write(blob, offset, data); });
}

Future<Version> BlobSeerClient::append_async(BlobId blob, ConstBytes data) {
    return submit_async<Version>(
        [this, blob, data] { return append(blob, data); });
}

Future<std::size_t> BlobSeerClient::read_async(BlobId blob, Version version,
                                               std::uint64_t offset,
                                               MutableBytes out) {
    return submit_async<std::size_t>([this, blob, version, offset, out] {
        return read(blob, version, offset, out);
    });
}

std::size_t BlobSeerClient::read_available(BlobId blob, Version version,
                                           std::uint64_t offset,
                                           MutableBytes out) {
    const auto vi = stat(blob, version);
    if (offset >= vi.size) {
        return 0;
    }
    const std::size_t n =
        std::min<std::uint64_t>(out.size(), vi.size - offset);
    return read(blob, vi.version, offset, out.first(n));
}

void BlobSeerClient::update_health_view(
    std::unordered_map<NodeId, double> view) {
    const std::scoped_lock lock(health_mu_);
    health_view_ = std::move(view);
}

bool BlobSeerClient::is_healthy(NodeId node) const {
    const std::scoped_lock lock(health_mu_);
    const auto it = health_view_.find(node);
    return it == health_view_.end() || it->second >= 0.5;
}

std::vector<NodeId> BlobSeerClient::replica_order(
    const meta::ReadSegment& seg) const {
    const std::size_t n = seg.replicas.size();
    if (n == 0) {
        throw ConsistencyError("leaf with no replicas reached fetch");
    }
    // Spread read load across replicas: different clients start at
    // different replicas of the same chunk — but replicas flagged
    // unhealthy by the QoS feedback go to the back of the line.
    const std::size_t start =
        static_cast<std::size_t>(mix64(env_.self ^ seg.chunk.uid)) % n;
    std::vector<NodeId> order;
    order.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
        const NodeId r = seg.replicas[(start + k) % n];
        if (is_healthy(r)) {
            order.push_back(r);
        }
    }
    for (std::size_t k = 0; k < n; ++k) {
        const NodeId r = seg.replicas[(start + k) % n];
        if (!is_healthy(r)) {
            order.push_back(r);
        }
    }
    return order;
}

void BlobSeerClient::fetch_all(
    const std::vector<meta::ReadSegment>& segments, std::uint64_t offset,
    MutableBytes out) {
    const std::size_t window_cap =
        std::max<std::size_t>(1, env_.max_inflight_chunks);

    // The scatter-gather twin of upload_all: the plan's segments grouped
    // into chunk-get-batches per chosen provider, each at most one
    // reply's byte cap, with up to window_cap keys in flight, collected
    // oldest-first. A key its replica lacks, or whose batch failed on
    // delivery, retries alone on its next replica in its preference
    // order; keys a reply still leaves unserved go back to the same
    // provider.
    struct State {
        const meta::ReadSegment* seg = nullptr;
        MutableBytes slice;
        std::vector<NodeId> order;
        std::size_t next = 0;
        std::size_t passes = 0;
        bool done = false;
        std::string last_error;
    };
    struct Batch {
        NodeId target = kInvalidNode;
        std::vector<std::size_t> keys;  ///< indices into states
    };
    std::vector<State> states;
    states.reserve(segments.size());
    for (const meta::ReadSegment& seg : segments) {
        MutableBytes slice = out.subspan(seg.blob_range.offset - offset,
                                         seg.blob_range.size);
        if (seg.hole) {
            std::memset(slice.data(), 0, slice.size());
            continue;
        }
        states.push_back(State{&seg, slice, replica_order(seg), 0, 0,
                               false, {}});
    }

    // Greedy replica cover: the provider holding the most still-unassigned
    // segments takes all of them, until none is left, so the plan costs
    // few batches. Healthy replicas are covered first; a segment with
    // none left gets an unhealthy one in a second round. Ties go to the
    // lowest mix64(self ^ node): each client has its own provider
    // preference, so clients still spread load. A provider's keys are
    // split where a batch would pass the reply cap, so the provider
    // serves every key it is sent.
    std::vector<std::vector<Batch>> groups;  // per chosen provider
    std::vector<bool> assigned(states.size(), false);
    for (const bool healthy_only : {true, false}) {
        std::unordered_map<NodeId, std::vector<std::size_t>> holds;
        for (std::size_t i = 0; i < states.size(); ++i) {
            for (const NodeId r : states[i].seg->replicas) {
                if (!assigned[i] && (!healthy_only || is_healthy(r))) {
                    holds[r].push_back(i);
                }
            }
        }
        for (;;) {
            NodeId best = kInvalidNode;
            std::size_t best_n = 0;
            std::uint64_t best_rank = 0;
            for (const auto& [node, held] : holds) {
                const auto n = static_cast<std::size_t>(
                    std::count_if(held.begin(), held.end(),
                                  [&](std::size_t i) { return !assigned[i]; }));
                const std::uint64_t rank = mix64(env_.self ^ node);
                if (n > best_n || (n == best_n && n > 0 && rank < best_rank)) {
                    best = node;
                    best_n = n;
                    best_rank = rank;
                }
            }
            if (best_n == 0) {
                break;
            }
            std::vector<Batch>& group = groups.emplace_back();
            std::uint64_t bytes = 0;  // in group.back()
            for (const std::size_t i : holds[best]) {
                if (assigned[i]) {
                    continue;
                }
                assigned[i] = true;
                // The chosen replica leads the key's failover order.
                State& st = states[i];
                const auto it =
                    std::find(st.order.begin(), st.order.end(), best);
                std::rotate(st.order.begin(), it, it + 1);
                st.next = 1;
                if (group.empty() || group.back().keys.size() == window_cap ||
                    bytes + st.slice.size() > rpc::kChunkBatchReplyCap) {
                    group.push_back(Batch{best, {}});
                    bytes = 0;
                }
                group.back().keys.push_back(i);
                bytes += st.slice.size();
            }
            holds.erase(best);
        }
    }
    // Round-robin over the providers, so the window's first batches go
    // to different providers rather than all to the largest one.
    std::deque<Batch> todo;
    for (std::size_t round = 0;; ++round) {
        const std::size_t queued = todo.size();
        for (std::vector<Batch>& group : groups) {
            if (round < group.size()) {
                todo.push_back(std::move(group[round]));
            }
        }
        if (todo.size() == queued) {
            break;
        }
    }

    struct PendingBatch {
        Future<rpc::ServiceClient::ChunkBatch> fut;
        Batch batch;
    };
    std::deque<PendingBatch> window;
    std::size_t inflight = 0;  // keys in the window

    // Queue key idx alone on its next replica. Every replica failing in
    // one walk is, under provider churn, usually a node mid-bounce
    // rather than data loss: one brief second pass separates the two.
    // With both passes spent st.done stays false and the post-drain
    // check reports the NotFoundError.
    auto next_replica = [&](std::size_t idx) {
        State& st = states[idx];
        if (st.next == st.order.size()) {
            if (st.passes > 0) {
                return;
            }
            st.passes = 1;
            st.next = 0;
            std::this_thread::sleep_for(milliseconds(2));
        }
        todo.push_back(Batch{st.order[st.next++], {idx}});
    };
    // A delivery failure (unlike NotFound, where the provider answered)
    // is evidence of a death worth repairing.
    auto fail_batch = [&](const Batch& b, const std::string& why,
                          bool delivery) {
        if (delivery) {
            report_provider_failure(b.target);
        }
        for (const std::size_t idx : b.keys) {
            states[idx].last_error = why;
            stats_.chunk_retries.add();
            next_replica(idx);
        }
    };

    auto issue = [&](Batch b) {
        std::vector<rpc::ChunkRead> reads;
        reads.reserve(b.keys.size());
        for (const std::size_t idx : b.keys) {
            const State& st = states[idx];
            reads.push_back(
                {st.seg->chunk, st.seg->chunk_offset, st.slice.size()});
        }
        Future<rpc::ServiceClient::ChunkBatch> fut;
        try {
            fut = svc_.get_chunk_batch_async(b.target, reads);
        } catch (const RpcError& e) {
            // call_async can fail synchronously (connection refused):
            // like any other delivery failure.
            fail_batch(b, e.what(), true);
            return;
        }
        inflight += b.keys.size();
        stats_.inflight_chunk_rpcs.add(b.keys.size());
        window.push_back(PendingBatch{std::move(fut), std::move(b)});
    };

    auto collect_one = [&] {
        PendingBatch p = std::move(window.front());
        window.pop_front();
        inflight -= p.batch.keys.size();
        stats_.inflight_chunk_rpcs.sub(p.batch.keys.size());
        rpc::ServiceClient::ChunkBatch reply;
        try {
            reply = p.fut.get();
        } catch (const RpcError& e) {
            fail_batch(p.batch, e.what(), true);
            return;
        } catch (const NotFoundError& e) {
            fail_batch(p.batch, e.what(), false);
            return;
        }
        Batch unserved{p.batch.target, {}};
        for (std::size_t i = 0; i < p.batch.keys.size(); ++i) {
            const std::size_t idx = p.batch.keys[i];
            State& st = states[idx];
            const rpc::ChunkReadEntry& e = reply.entries[i];
            switch (e.status) {
                case rpc::ChunkReadStatus::kServed:
                    if (st.seg->chunk_offset + st.slice.size() >
                            e.chunk_size ||
                        e.length < st.slice.size()) {
                        throw ConsistencyError(
                            "chunk shorter than metadata claims: " +
                            st.seg->chunk.to_string());
                    }
                    std::memcpy(st.slice.data(), reply.slice(i).data(),
                                st.slice.size());
                    stats_.chunk_get_rpcs.add();
                    st.done = true;
                    break;
                case rpc::ChunkReadStatus::kNotFound:
                    st.last_error = st.seg->chunk.to_string() +
                                    " not found on provider " +
                                    std::to_string(p.batch.target);
                    stats_.chunk_retries.add();
                    next_replica(idx);
                    break;
                case rpc::ChunkReadStatus::kNotServed:
                    unserved.keys.push_back(idx);
                    break;
            }
        }
        if (!unserved.keys.empty()) {
            todo.push_front(std::move(unserved));
        }
    };

    try {
        for (;;) {
            while (!todo.empty() &&
                   (window.empty() ||
                    inflight + todo.front().keys.size() <= window_cap)) {
                Batch b = std::move(todo.front());
                todo.pop_front();
                issue(std::move(b));
            }
            if (window.empty()) {
                break;
            }
            collect_one();
        }
    } catch (...) {
        // ConsistencyError (or another fatal type) is propagating:
        // drain the window first — in-flight replies still target the
        // caller's out buffer via their states, and the gauge must
        // balance.
        while (!window.empty()) {
            stats_.inflight_chunk_rpcs.sub(window.front().batch.keys.size());
            try {
                (void)window.front().fut.get();
            } catch (...) {
                // Already propagating the first failure.
            }
            window.pop_front();
        }
        throw;
    }

    for (const State& st : states) {
        if (!st.done && !fetch_from_any_provider(*st.seg, st.slice)) {
            throw NotFoundError("all replicas failed for " +
                                st.seg->chunk.to_string() + " (" +
                                st.last_error + ")");
        }
    }
}

bool BlobSeerClient::fetch_from_any_provider(const meta::ReadSegment& seg,
                                             MutableBytes out) {
    for (const NodeId target : env_.data_nodes) {
        if (std::find(seg.replicas.begin(), seg.replicas.end(), target) !=
            seg.replicas.end()) {
            continue;  // the preference-order walks already tried it
        }
        try {
            const auto slice = svc_.get_chunk(
                target, seg.chunk, seg.chunk_offset, out.size());
            if (seg.chunk_offset + out.size() > slice.chunk_size ||
                slice.bytes.size() < out.size()) {
                continue;  // truncated copy: keep probing
            }
            std::memcpy(out.data(), slice.bytes.data(), out.size());
            stats_.chunk_get_rpcs.add();
            stats_.chunk_locates.add();
            return true;
        } catch (const RpcError&) {
            stats_.chunk_retries.add();
        } catch (const NotFoundError&) {
            stats_.chunk_retries.add();
        }
    }
    return false;
}

void BlobSeerClient::report_provider_failure(NodeId target) {
    {
        const std::scoped_lock lock(reported_mu_);
        if (!reported_dead_.insert(target).second) {
            return;  // this client already reported it
        }
    }
    try {
        (void)svc_.report_failure(target);
    } catch (const RpcError&) {
        // Provider manager unreachable: forget the dedup entry so a
        // later failure gets to retry the report.
        const std::scoped_lock lock(reported_mu_);
        reported_dead_.erase(target);
    }
}

void BlobSeerClient::read_tail_for_merge(BlobId blob,
                                         const version::VersionInfo& vi,
                                         std::uint64_t slot_start,
                                         MutableBytes out) {
    const version::BlobInfo info = blob_info(blob);
    const auto plan =
        meta::plan_read(cache_, vi.tree.blob, vi.tree.version,
                        info.chunk_size, vi.size,
                        {slot_start, out.size()});
    fetch_all(plan.segments, slot_start, out);
}

// ---- queries ------------------------------------------------------------------

version::VersionInfo BlobSeerClient::stat(BlobId blob, Version version) {
    return svc_.get_version(blob, version);
}

version::VersionInfo BlobSeerClient::wait_published(BlobId blob,
                                                    Version version) {
    const auto vi =
        svc_.wait_published(blob, version, env_.publish_timeout);
    if (vi.status == version::VersionStatus::kAborted) {
        throw VersionAborted("version " + std::to_string(version) +
                             " aborted");
    }
    return vi;
}

std::vector<SegmentLocation> BlobSeerClient::locate(BlobId blob,
                                                    Version version,
                                                    ByteRange range) {
    version::VersionInfo vi = svc_.get_version(blob, version);
    if (vi.status != version::VersionStatus::kPublished) {
        throw InvalidArgument("locate on unpublished version");
    }
    if (range.end() > vi.size) {
        throw InvalidArgument("locate past end of snapshot");
    }
    const version::BlobInfo info = blob_info(blob);
    const auto plan = meta::plan_read(cache_, vi.tree.blob, vi.tree.version,
                                      info.chunk_size, vi.size, range);
    std::vector<SegmentLocation> out;
    out.reserve(plan.segments.size());
    for (const auto& seg : plan.segments) {
        out.push_back(
            SegmentLocation{seg.blob_range, seg.hole, seg.replicas});
    }
    return out;
}

std::vector<version::VersionManager::VersionSummary> BlobSeerClient::history(
    BlobId blob, Version from, Version to) {
    return svc_.history(blob, from, to);
}

std::vector<ByteRange> BlobSeerClient::changed_ranges(BlobId blob,
                                                      Version from,
                                                      Version to) {
    if (from > to && to != kLatestVersion) {
        throw InvalidArgument("changed_ranges needs from <= to");
    }
    auto summaries = history(blob, from + 1, to);
    std::vector<ByteRange> ranges;
    for (const auto& s : summaries) {
        if (s.status == version::VersionStatus::kAborted || s.size == 0) {
            continue;
        }
        ranges.push_back(ByteRange{s.offset, s.size});
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const ByteRange& a, const ByteRange& b) {
                  return a.offset < b.offset;
              });
    std::vector<ByteRange> merged;
    for (const ByteRange& r : ranges) {
        if (!merged.empty() && r.offset <= merged.back().end()) {
            merged.back().size =
                std::max(merged.back().end(), r.end()) -
                merged.back().offset;
        } else {
            merged.push_back(r);
        }
    }
    return merged;
}

void BlobSeerClient::pin(BlobId blob, Version version) {
    svc_.pin(blob, version);
}

void BlobSeerClient::unpin(BlobId blob, Version version) {
    svc_.unpin(blob, version);
}

BlobSeerClient::RetireStats BlobSeerClient::retire_versions(
    BlobId blob, Version keep_from) {
    const auto info = svc_.retire(blob, keep_from);
    const version::BlobInfo binfo = blob_info(blob);
    const meta::TreeGeometry geo(binfo.chunk_size);

    RetireStats stats;
    stats.versions = info.retired.size();

    // A node (w, R) lost its last reader iff some version u in
    // (w, keep_from] also creates R (every surviving tree then resolves
    // R to u or newer) AND no pinned snapshot sits in [w, u) (it would
    // still read w's node).
    auto deletable = [&](Version w, const meta::SlotRange& r) {
        for (const auto& d : info.descriptors) {
            if (d.version <= w) {
                continue;
            }
            if (creates_node(d, r, geo)) {
                for (const Version p : info.pinned) {
                    if (p >= w && p < d.version) {
                        return false;
                    }
                }
                return true;
            }
        }
        return false;  // keep_from itself still reads this node
    };

    for (const Version w : info.retired) {
        const auto it = std::find_if(
            info.descriptors.begin(), info.descriptors.end(),
            [w](const meta::WriteDescriptor& d) { return d.version == w; });
        if (it == info.descriptors.end()) {
            continue;
        }
        for (const meta::SlotRange& r : created_ranges(*it, geo)) {
            if (!deletable(w, r)) {
                continue;
            }
            const meta::MetaKey key{blob, w, r};
            const auto node = dht_.try_get(key);
            if (node && node->is_leaf() && !node->replicas.empty()) {
                const chunk::ChunkKey ck = node->chunk_key(blob);
                for (const NodeId target : node->replicas) {
                    try {
                        (void)svc_.chunk_decref(target, ck);
                    } catch (const RpcError&) {
                        // Dead provider holds no reclaimable bytes.
                    }
                }
                ++stats.chunks;
            }
            cache_.erase(key);
            ++stats.meta_nodes;
        }
    }
    {
        // Drop this client's own cached facts about retired snapshots.
        const std::scoped_lock lock(info_mu_);
        for (const Version w : info.retired) {
            version_cache_.erase({blob, w});
        }
    }
    return stats;
}

BlobSeerClient::DeleteStats BlobSeerClient::delete_blob(BlobId blob) {
    DeleteStats out;
    const auto vi = svc_.get_version(blob, kLatestVersion);
    if (vi.version > 0 &&
        vi.status == version::VersionStatus::kPublished) {
        // Tear down the history first: retire reclaims every node and
        // chunk reference only older snapshots could reach, so the walk
        // below only has the latest tree left to release.
        const auto rs = retire_versions(blob, vi.version);
        out.versions = rs.versions + 1;
        out.meta_nodes = rs.meta_nodes;
        out.chunks = rs.chunks;

        const version::BlobInfo info = blob_info(blob);
        const meta::TreeGeometry geo(info.chunk_size);
        const meta::SlotRange root = geo.root_range(vi.size);
        if (!root.empty()) {
            delete_walk(blob, meta::ChildRef{vi.tree.blob, vi.tree.version},
                        root, out);
        }
    }
    const std::scoped_lock lock(info_mu_);
    info_cache_.erase(blob);
    for (auto it = version_cache_.lower_bound({blob, 0});
         it != version_cache_.end() && it->first.first == blob;) {
        it = version_cache_.erase(it);
    }
    return out;
}

void BlobSeerClient::delete_walk(BlobId blob, const meta::ChildRef& ref,
                                 const meta::SlotRange& r,
                                 DeleteStats& out) {
    if (ref.is_hole() || ref.blob != blob) {
        // Holes own nothing; a foreign blob id marks a clone boundary —
        // the origin blob owns that subtree's nodes and its chunk
        // references, and reclaiming them here would corrupt it.
        return;
    }
    const meta::MetaKey key{ref.blob, ref.version, r};
    const auto node = dht_.try_get(key);
    if (!node) {
        return;  // already reclaimed, or its writer died mid-store
    }
    if (r.is_leaf()) {
        if (node->is_leaf() && !node->replicas.empty()) {
            const chunk::ChunkKey ck = node->chunk_key(ref.blob);
            for (const NodeId target : node->replicas) {
                try {
                    (void)svc_.chunk_decref(target, ck);
                } catch (const RpcError&) {
                    // Dead provider holds no reclaimable bytes.
                }
            }
            ++out.chunks;
        }
    } else if (!node->is_leaf()) {
        delete_walk(blob, node->left, r.left(), out);
        delete_walk(blob, node->right, r.right(), out);
    }
    cache_.erase(key);
    ++out.meta_nodes;
}

std::size_t BlobSeerClient::gc_aborted_version(BlobId blob, Version version) {
    const auto vi = svc_.get_version(blob, version);
    if (vi.status != version::VersionStatus::kAborted) {
        throw InvalidArgument("gc of non-aborted version " +
                              std::to_string(version));
    }
    const auto desc = svc_.descriptor_of(blob, version);
    const version::BlobInfo info = blob_info(blob);
    const meta::TreeGeometry geo(info.chunk_size);

    std::size_t removed = 0;
    for (const meta::SlotRange& r : created_ranges(desc, geo)) {
        const meta::MetaKey key{blob, version, r};
        // Bypass the cache: aborted nodes were never read through it.
        const auto node = dht_.try_get(key);
        if (!node) {
            continue;  // writer died before storing this one
        }
        if (node->is_leaf() && !node->replicas.empty()) {
            const chunk::ChunkKey ck = node->chunk_key(blob);
            for (const NodeId target : node->replicas) {
                try {
                    (void)svc_.chunk_decref(target, ck);
                } catch (const RpcError&) {
                    // Dead provider: nothing to reclaim there anyway.
                }
            }
        }
        dht_.erase(key);
        ++removed;
    }
    return removed;
}

}  // namespace blobseer::core
