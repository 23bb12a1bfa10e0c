/// \file blobseer_cli.cpp
/// \brief Interactive / scriptable shell over a BlobSeer cluster.
///
/// Two modes:
///  * default — boots an in-process cluster (simulated network) and
///    exposes the whole public API as shell commands;
///  * `--connect host:port` — attaches to a running blobseer_serverd
///    daemon over TCP; the same commands travel the real wire protocol
///    (fault-injection commands need the in-process cluster and are
///    unavailable remotely).
///
/// `--parallel N` drives the data path through the async client API:
/// writes/appends stream their chunks through an N-deep in-flight
/// window, and reads split into N concurrent read_async sub-ranges.
/// `stats` dumps the client's counters, including the in-flight window
/// gauge and its high-water mark.
///
/// Reads commands from stdin, one per line; `help` lists them. Payloads
/// are deterministic patterns tagged by a user-chosen integer so reads
/// can verify which write produced the bytes.
///
///   $ printf 'create 65536\nappend 1 131072 7\nstat 1\nquit\n' | ./tools/blobseer_cli
///   $ ./tools/blobseer_cli --connect 127.0.0.1:4400 --parallel 32

#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/client.hpp"
#include "core/cluster.hpp"
#include "core/remote.hpp"

using namespace blobseer;

namespace {

class Shell {
  public:
    Shell(std::size_t parallel, bool trace)
        : parallel_(parallel), trace_(trace) {
        core::ClusterConfig cfg;
        cfg.data_providers = 8;
        cfg.metadata_providers = 4;
        cfg.default_replication = 2;
        cfg.network.latency = microseconds(50);
        cfg.network.node_bandwidth_bps = 400ULL << 20;
        cfg.client_max_inflight_chunks = std::max<std::size_t>(parallel, 1);
        cfg.client_trace = trace;
        cluster_ = std::make_unique<core::Cluster>(cfg);
        client_ = cluster_->make_client();
        std::printf("blobseer-cli: cluster up (%zu data providers, %zu "
                    "metadata providers). Type 'help'.\n",
                    cluster_->data_provider_count(),
                    cluster_->metadata_provider_count());
    }

    Shell(const std::string& host, std::uint16_t port, std::size_t parallel,
          bool trace)
        : parallel_(parallel), trace_(trace) {
        core::RemoteOptions options;
        options.max_inflight_chunks = std::max<std::size_t>(parallel, 1);
        core::ClientEnv env = core::connect_tcp(host, port, options);
        env.trace = trace;
        client_ = std::make_unique<core::BlobSeerClient>(std::move(env));
        std::printf("blobseer-cli: connected to %s:%u (client id %u). "
                    "Type 'help'.\n",
                    host.c_str(), port, client_->node());
    }

    int run() {
        std::string line;
        while (std::getline(std::cin, line)) {
            if (!dispatch(line)) {
                break;
            }
        }
        return 0;
    }

  private:
    static Version parse_version(const std::string& s) {
        return s == "latest" ? kLatestVersion : std::stoull(s);
    }

    bool dispatch(const std::string& line) {
        std::istringstream in(line);
        std::string cmd;
        if (!(in >> cmd) || cmd.empty() || cmd[0] == '#') {
            return true;
        }
        try {
            if (cmd == "quit" || cmd == "exit") {
                return false;
            } else if (cmd == "help") {
                help();
            } else if (cmd == "create") {
                std::uint64_t chunk = 0;
                std::uint32_t repl = 0;
                in >> chunk;
                const bool has_repl = static_cast<bool>(in >> repl);
                const auto blob =
                    has_repl ? client_->create(chunk, repl)
                             : client_->create(chunk);
                std::printf("blob %llu created (chunk %llu, replication "
                            "%u)\n",
                            (unsigned long long)blob.id(),
                            (unsigned long long)blob.chunk_size(),
                            blob.replication());
            } else if (cmd == "write" || cmd == "append") {
                BlobId id = 0;
                std::uint64_t offset = 0;
                std::uint64_t size = 0;
                std::uint64_t tag = 0;
                in >> id;
                if (cmd == "write") {
                    in >> offset;
                }
                in >> size >> tag;
                // Optional trailing blob id: key the pattern off another
                // blob so two blobs can carry byte-identical payloads
                // (exercises cross-blob dedup under --cas).
                BlobId pattern_id = id;
                if (!(in >> pattern_id)) {
                    pattern_id = id;
                }
                const Buffer data = make_pattern(pattern_id, tag, 0, size);
                // The put path always streams through the client's
                // in-flight window (sized by --parallel); async only
                // changes which thread drives it.
                const Version v =
                    cmd == "write"
                        ? (parallel_ > 1
                               ? client_->write_async(id, offset, data)
                                     .get()
                               : client_->write(id, offset, data))
                        : (parallel_ > 1
                               ? client_->append_async(id, data).get()
                               : client_->append(id, data));
                std::printf("-> version %llu\n", (unsigned long long)v);
                print_trace_id();
            } else if (cmd == "read") {
                BlobId id = 0;
                std::string vs;
                std::uint64_t offset = 0;
                std::uint64_t size = 0;
                std::uint64_t tag = 0;
                in >> id >> vs >> offset >> size;
                const bool check = static_cast<bool>(in >> tag);
                Buffer out(size);
                if (parallel_ > 1 && size > 0) {
                    // Split the range into --parallel concurrent
                    // read_async sub-reads of one pinned version.
                    const Version pinned =
                        client_->stat(id, parse_version(vs)).version;
                    const std::uint64_t stripe =
                        std::max<std::uint64_t>(1, size / parallel_);
                    std::vector<Future<std::size_t>> parts;
                    for (std::uint64_t pos = 0; pos < size;
                         pos += stripe) {
                        const std::uint64_t n =
                            std::min<std::uint64_t>(stripe, size - pos);
                        parts.push_back(client_->read_async(
                            id, pinned, offset + pos,
                            MutableBytes(out.data() + pos, n)));
                    }
                    for (auto& part : parts) {
                        (void)part.get();
                    }
                } else {
                    client_->read(id, parse_version(vs), offset, out);
                }
                std::printf("read %llu bytes, fnv=%016llx%s\n",
                            (unsigned long long)size,
                            (unsigned long long)fnv1a64(ConstBytes(out)),
                            !check ? ""
                            : verify_pattern(id, tag, 0, out) == -1
                                ? " [tag matches]"
                                : " [TAG MISMATCH]");
                print_trace_id();
            } else if (cmd == "stats") {
                print_stats();
            } else if (cmd == "metrics") {
                NodeId node = rpc::kControlNode;
                in >> node;
                print_metrics(node);
            } else if (cmd == "trace") {
                std::string id_text;
                in >> id_text;
                print_trace(std::stoull(id_text, nullptr, 16));
            } else if (cmd == "vm-status") {
                print_vm_status();
            } else if (cmd == "repair-status") {
                print_repair_status();
            } else if (cmd == "parallel") {
                std::size_t n = 1;
                in >> n;
                parallel_ = std::max<std::size_t>(n, 1);
                std::printf("parallel = %zu (read splitting; the write "
                            "window stays at its startup value)\n",
                            parallel_);
            } else if (cmd == "stat") {
                BlobId id = 0;
                std::string vs = "latest";
                in >> id >> vs;
                const auto vi = client_->stat(id, parse_version(vs));
                std::printf("blob %llu v%llu: size %llu, status %s\n",
                            (unsigned long long)id,
                            (unsigned long long)vi.version,
                            (unsigned long long)vi.size,
                            to_string(vi.status));
            } else if (cmd == "history") {
                BlobId id = 0;
                in >> id;
                for (const auto& s : client_->history(id)) {
                    std::printf("  v%-4llu %-9s write [%llu, %llu) -> "
                                "size %llu\n",
                                (unsigned long long)s.version,
                                to_string(s.status),
                                (unsigned long long)s.offset,
                                (unsigned long long)(s.offset + s.size),
                                (unsigned long long)s.size_after);
                }
            } else if (cmd == "diff") {
                BlobId id = 0;
                Version from = 0;
                Version to = 0;
                in >> id >> from >> to;
                for (const auto& r : client_->changed_ranges(id, from, to)) {
                    std::printf("  [%llu, %llu)\n",
                                (unsigned long long)r.offset,
                                (unsigned long long)r.end());
                }
            } else if (cmd == "clone") {
                BlobId src = 0;
                std::string vs = "latest";
                in >> src >> vs;
                const auto blob = client_->clone(src, parse_version(vs));
                std::printf("clone -> blob %llu\n",
                            (unsigned long long)blob.id());
            } else if (cmd == "pin" || cmd == "unpin") {
                BlobId id = 0;
                Version v = 0;
                in >> id >> v;
                if (cmd == "pin") {
                    client_->pin(id, v);
                } else {
                    client_->unpin(id, v);
                }
                std::printf("ok\n");
            } else if (cmd == "retire") {
                BlobId id = 0;
                Version keep = 0;
                in >> id >> keep;
                const auto st = client_->retire_versions(id, keep);
                std::printf("retired %zu versions, freed %zu chunks, %zu "
                            "metadata nodes\n",
                            st.versions, st.chunks, st.meta_nodes);
            } else if (cmd == "delete") {
                BlobId id = 0;
                in >> id;
                const auto st = client_->delete_blob(id);
                std::printf("deleted blob %llu: %zu versions, released "
                            "%zu chunk refs, erased %zu metadata nodes\n",
                            (unsigned long long)id, st.versions, st.chunks,
                            st.meta_nodes);
            } else if (cmd == "dedup-stats") {
                print_dedup_stats();
            } else if (cmd == "locate") {
                BlobId id = 0;
                std::string vs;
                std::uint64_t offset = 0;
                std::uint64_t size = 0;
                in >> id >> vs >> offset >> size;
                const auto vi = client_->stat(id, parse_version(vs));
                for (const auto& loc :
                     client_->locate(id, vi.version, {offset, size})) {
                    std::string nodes;
                    for (const NodeId n : loc.providers) {
                        nodes += std::to_string(n) + " ";
                    }
                    std::printf("  [%llu, %llu) %s\n",
                                (unsigned long long)loc.range.offset,
                                (unsigned long long)loc.range.end(),
                                loc.hole ? "(hole)" : nodes.c_str());
                }
            } else if (cmd == "providers" || cmd == "kill" ||
                       cmd == "recover" || cmd == "degrade" ||
                       cmd == "restore") {
                if (cluster_ == nullptr) {
                    std::printf("'%s' needs the in-process cluster (not "
                                "available over --connect)\n",
                                cmd.c_str());
                    return true;
                }
                dispatch_cluster(cmd, in);
            } else {
                std::printf("unknown command '%s' (try 'help')\n",
                            cmd.c_str());
            }
        } catch (const Error& e) {
            std::printf("error: %s\n", e.what());
        } catch (const std::exception& e) {
            std::printf("bad arguments: %s\n", e.what());
        }
        return true;
    }

    void print_stats() const {
        const auto& st = client_->stats();
        std::printf(
            "client stats:\n"
            "  ops:        %llu writes, %llu appends, %llu reads\n"
            "  bytes:      %llu written, %llu read\n"
            "  chunk rpcs: %llu puts, %llu gets, %llu retries\n"
            "  in-flight:  %llu now, %llu high-water (window limit)\n"
            "  latency us: write mean %.0f p99 %llu, read mean %.0f "
            "p99 %llu\n",
            (unsigned long long)st.writes.get(),
            (unsigned long long)st.appends.get(),
            (unsigned long long)st.reads.get(),
            (unsigned long long)st.bytes_written.get(),
            (unsigned long long)st.bytes_read.get(),
            (unsigned long long)st.chunk_put_rpcs.get(),
            (unsigned long long)st.chunk_get_rpcs.get(),
            (unsigned long long)st.chunk_retries.get(),
            (unsigned long long)st.inflight_chunk_rpcs.get(),
            (unsigned long long)st.inflight_chunk_rpcs.high_water(),
            st.write_latency_us.mean(),
            (unsigned long long)st.write_latency_us.quantile(0.99),
            st.read_latency_us.mean(),
            (unsigned long long)st.read_latency_us.quantile(0.99));
    }

    /// After a traced write/read: tell the operator the id to feed to
    /// `trace <id>` (scripts grep this line).
    void print_trace_id() const {
        if (trace_ && client_->last_trace_id() != 0) {
            std::printf("trace id %016llx\n",
                        (unsigned long long)client_->last_trace_id());
        }
    }

    void print_metrics(NodeId node) {
        const auto snap = client_->services().metrics_dump(node);
        const std::string text = render_prometheus(snap);
        std::fputs(text.c_str(), stdout);
        std::printf("# %zu series\n", snap.samples.size());
    }

    /// Collect the trace's spans from this process plus every daemon
    /// reachable through the transport and print the merged span tree.
    void print_trace(std::uint64_t trace_id) {
        // Local half: root + per-RPC client spans live in this process's
        // ring, not behind any RPC.
        std::vector<trace::SpanRecord> spans =
            trace::buffer().snapshot(trace_id);
        // Remote halves: the default endpoint plus each data node (an
        // external provider daemon answers for its own node; in the
        // all-in-one deployment every query lands on the same process
        // and the duplicates are filtered below).
        auto& svc = client_->services();
        auto fetch = [&](NodeId node) {
            try {
                const auto remote = svc.trace_dump(trace_id, 0, node);
                spans.insert(spans.end(), remote.begin(), remote.end());
            } catch (const Error&) {
                // A dead node keeps its spans; show what the rest saw.
            }
        };
        fetch(rpc::kControlNode);
        for (const NodeId node : client_->data_nodes()) {
            fetch(node);
        }

        // One record per (span id, kind, node): querying one process
        // through several node ids returns identical copies.
        std::sort(spans.begin(), spans.end(),
                  [](const trace::SpanRecord& a, const trace::SpanRecord& b) {
                      return std::tie(a.span_id, a.kind, a.node,
                                      a.start_unix_us) <
                             std::tie(b.span_id, b.kind, b.node,
                                      b.start_unix_us);
                  });
        spans.erase(std::unique(spans.begin(), spans.end(),
                                [](const trace::SpanRecord& a,
                                   const trace::SpanRecord& b) {
                                    return a.span_id == b.span_id &&
                                           a.kind == b.kind &&
                                           a.node == b.node &&
                                           a.start_unix_us ==
                                               b.start_unix_us;
                                }),
                    spans.end());
        if (spans.empty()) {
            std::printf("no spans for trace %016llx (ring rolled over, or "
                        "wrong id?)\n",
                        (unsigned long long)trace_id);
            return;
        }

        // Dapper-style merge: the client half carries the parent edge,
        // the server half (same span id) the remote-side timing.
        std::map<std::uint32_t, const trace::SpanRecord*> client_half;
        std::map<std::uint32_t, const trace::SpanRecord*> server_half;
        for (const auto& s : spans) {
            auto& half = s.kind == trace::SpanRecord::kClient ? client_half
                                                              : server_half;
            half.emplace(s.span_id, &s);
        }
        std::map<std::uint32_t, std::vector<std::uint32_t>> children;
        std::vector<std::uint32_t> roots;
        for (const auto& [id, rec] : client_half) {
            if (rec->parent_span != 0 &&
                client_half.count(rec->parent_span) != 0) {
                children[rec->parent_span].push_back(id);
            } else {
                roots.push_back(id);
            }
        }
        // Server-only spans (their client half aged out of a ring).
        for (const auto& [id, rec] : server_half) {
            if (client_half.count(id) == 0) {
                roots.push_back(id);
            }
        }

        std::printf("trace %016llx: %zu span(s)\n",
                    (unsigned long long)trace_id, spans.size());
        auto print_node = [&](auto&& self, std::uint32_t id,
                              int depth) -> void {
            const auto* c = client_half.count(id) != 0 ? client_half[id]
                                                       : nullptr;
            const auto* s = server_half.count(id) != 0 ? server_half[id]
                                                       : nullptr;
            const auto* any = c != nullptr ? c : s;
            const std::string op(any->op_name());
            std::printf("%*s%s", depth * 2, "", op.c_str());
            if (c != nullptr) {
                std::printf("  client[node %u] %llu us", c->node,
                            (unsigned long long)c->duration_us);
                if (c->bytes != 0) {
                    std::printf(", %llu bytes",
                                (unsigned long long)c->bytes);
                }
                if (c->status != 0) {
                    std::printf(", status %u", c->status);
                }
            }
            if (s != nullptr) {
                std::printf("  server[node %u] %llu us (queued %llu us)",
                            s->node, (unsigned long long)s->duration_us,
                            (unsigned long long)s->queue_us);
                if (s->status != 0) {
                    std::printf(", status %u", s->status);
                }
            }
            std::printf("\n");
            if (const auto it = children.find(id); it != children.end()) {
                for (const std::uint32_t child : it->second) {
                    self(self, child, depth + 1);
                }
            }
        };
        for (const std::uint32_t root : roots) {
            print_node(print_node, root, 1);
        }
    }

    void print_dedup_stats() {
        // Rendered from each data provider's registry series, fetched
        // from the process serving that node (an external provider
        // daemon answers for itself), so the same command works over
        // --connect and in-process alike (the counters are per-boot, the
        // store snapshots live — same contract as stats).
        static constexpr const char* kSeries[] = {
            "provider_chunks_stored",     "provider_stored_bytes",
            "dedup_check_hits_total",     "dedup_check_misses_total",
            "dedup_bytes_skipped_total",  "dedup_dup_puts_total",
            "cas_decrefs_total",          "cas_reclaimed_chunks_total",
            "cas_reclaimed_bytes_total"};
        enum : std::size_t {
            kChunks, kBytes, kHits, kMisses, kSkipped, kDups, kDecrefs,
            kReclaimedChunks, kReclaimedBytes, kFields
        };
        auto& svc = client_->services();
        std::array<std::uint64_t, kFields> total{};
        for (const NodeId node : client_->data_nodes()) {
            const auto snap = svc.metrics_dump(node);
            std::array<std::uint64_t, kFields> s{};
            for (std::size_t i = 0; i < kFields; ++i) {
                s[i] = sum_series(snap, kSeries[i],
                                  {"node", std::to_string(node)});
                total[i] += s[i];
            }
            std::printf("  dp node %u: %llu chunks / %llu bytes stored, "
                        "%llu dup refs, %llu bytes skipped, %llu chunks / "
                        "%llu bytes reclaimed\n",
                        node, (unsigned long long)s[kChunks],
                        (unsigned long long)s[kBytes],
                        (unsigned long long)(s[kHits] + s[kDups]),
                        (unsigned long long)s[kSkipped],
                        (unsigned long long)s[kReclaimedChunks],
                        (unsigned long long)s[kReclaimedBytes]);
        }
        const auto& st = client_->stats();
        std::printf(
            "dedup totals:\n"
            "  stored:     %llu chunks, %llu bytes\n"
            "  referenced: %llu extra refs (check hits %llu, misses "
            "%llu, dup puts %llu)\n"
            "  skipped:    %llu bytes kept off the wire\n"
            "  gc:         %llu decrefs, %llu chunks / %llu bytes "
            "reclaimed\n"
            "  client cas: %llu chunks, %llu dedup hits, %llu bytes "
            "skipped, %llu bytes sent\n",
            (unsigned long long)total[kChunks],
            (unsigned long long)total[kBytes],
            (unsigned long long)(total[kHits] + total[kDups]),
            (unsigned long long)total[kHits],
            (unsigned long long)total[kMisses],
            (unsigned long long)total[kDups],
            (unsigned long long)total[kSkipped],
            (unsigned long long)total[kDecrefs],
            (unsigned long long)total[kReclaimedChunks],
            (unsigned long long)total[kReclaimedBytes],
            (unsigned long long)st.cas_chunks.get(),
            (unsigned long long)st.cas_dedup_hits.get(),
            (unsigned long long)st.cas_bytes_skipped.get(),
            (unsigned long long)st.cas_bytes_sent.get());
    }

    void print_vm_status() {
        // One kMetricsDump from the daemon hosting the shards (the same
        // command works in-process), read per shard by its label.
        auto& svc = client_->services();
        const MetricsSnapshot snap = svc.metrics_dump();
        for (std::size_t i = 0; i < svc.vm_nodes().size(); ++i) {
            const std::pair<std::string, std::string> shard{
                "shard", std::to_string(i)};
            const auto get = [&](const char* name) {
                return (unsigned long long)sum_series(snap, name, shard);
            };
            std::printf(
                "  shard %zu (node %u): blobs %llu, published %llu, "
                "backlog %llu (high-water %llu), assigns %llu, commits "
                "%llu, aborts %llu\n",
                i, svc.vm_nodes()[i], get("vm_blobs"),
                get("vm_publishes_total"), get("vm_publish_backlog"),
                (unsigned long long)sum_series(snap, "vm_publish_backlog",
                                               shard,
                                               &MetricSample::high_water),
                get("vm_assigns_total"), get("vm_commits_total"),
                get("vm_aborts_total"));
        }
    }

    void print_repair_status() {
        // One kMetricsDump from the manager's daemon: the repair_*
        // series plus one pm_provider_* row per provider. Scripts parse
        // the `repair:` line (e2e_tcp.sh phase 4 polls it).
        const MetricsSnapshot snap = client_->services().metrics_dump();
        const auto get = [&](const char* name,
                             const std::pair<std::string, std::string>&
                                 label = {}) {
            return (unsigned long long)sum_series(snap, name, label);
        };
        std::printf(
            "repair: backlog %llu (high-water %llu), enqueued %llu, "
            "completed %llu, skipped %llu, failed %llu, deferred %llu, "
            "under-replicated %llu\n",
            get("repair_backlog"), get("repair_backlog_peak"),
            get("repair_enqueued_total"), get("repair_completed_total"),
            get("repair_skipped_total"), get("repair_failed_total"),
            get("repair_deferred_total"), get("repair_under_replicated"));
        for (const MetricSample& row : snap.samples) {
            const auto it = std::find_if(
                row.labels.begin(), row.labels.end(),
                [](const auto& l) { return l.first == "node"; });
            if (row.name != "pm_provider_alive" || it == row.labels.end()) {
                continue;
            }
            const auto& node = *it;
            const char* alive = row.value != 0 ? "alive" : "dead";
            const bool beaten = std::any_of(
                snap.samples.begin(), snap.samples.end(),
                [&](const MetricSample& s) {
                    return s.name == "pm_provider_last_beat_age_ms" &&
                           s.labels == row.labels;
                });
            if (!beaten) {
                std::printf("  provider %s: %s%s, %llu chunks / %llu "
                            "bytes\n",
                            node.second.c_str(), alive,
                            get("pm_provider_heartbeating", node) != 0
                                ? ", heartbeating (no beat yet)"
                                : "",
                            get("pm_provider_chunks", node),
                            get("pm_provider_bytes", node));
            } else {
                std::printf("  provider %s: %s, %llu beats (last %llums "
                            "ago), %llu chunks / %llu bytes\n",
                            node.second.c_str(), alive,
                            get("pm_provider_beats_total", node),
                            get("pm_provider_last_beat_age_ms", node),
                            get("pm_provider_chunks", node),
                            get("pm_provider_bytes", node));
            }
        }
    }

    void dispatch_cluster(const std::string& cmd, std::istringstream& in) {
        if (cmd == "providers") {
            for (std::size_t i = 0;
                 i < cluster_->data_provider_count(); ++i) {
                auto& dp = cluster_->data_provider(i);
                std::printf("  dp-%zu node=%u alive=%s bytes=%llu "
                            "chunks=%zu\n",
                            i, dp.node(),
                            cluster_->network().is_alive(dp.node())
                                ? "yes"
                                : "no",
                            (unsigned long long)dp.stored_bytes(),
                            dp.store().count());
            }
        } else if (cmd == "kill") {
            std::size_t i = 0;
            int lose = 0;
            in >> i >> lose;
            cluster_->kill_data_provider(i, lose != 0);
            std::printf("dp-%zu killed%s\n", i,
                        lose ? " (volatile state lost)" : "");
        } else if (cmd == "recover") {
            std::size_t i = 0;
            in >> i;
            cluster_->recover_data_provider(i);
            std::printf("dp-%zu recovered\n", i);
        } else if (cmd == "degrade") {
            std::size_t i = 0;
            double factor = 1.0;
            in >> i >> factor;
            cluster_->degrade_data_provider(i, factor);
            std::printf("dp-%zu degraded %.1fx\n", i, factor);
        } else if (cmd == "restore") {
            std::size_t i = 0;
            in >> i;
            cluster_->restore_data_provider(i);
            std::printf("dp-%zu restored\n", i);
        }
    }

    static void help() {
        std::printf(
            "commands:\n"
            "  create <chunk_bytes> [replication]\n"
            "  write <blob> <offset> <size> <tag> [pattern-blob]\n"
            "                  (pattern payload; optional pattern-blob\n"
            "                   keys the bytes off another blob id)\n"
            "  append <blob> <size> <tag>\n"
            "  read <blob> <version|latest> <offset> <size> [tag]\n"
            "  stat <blob> [version|latest]\n"
            "  history <blob>\n"
            "  diff <blob> <from_version> <to_version>\n"
            "  clone <blob> [version|latest]\n"
            "  pin|unpin <blob> <version>\n"
            "  retire <blob> <keep_from_version>\n"
            "  delete <blob>              (decref chunks, erase metadata)\n"
            "  locate <blob> <version|latest> <offset> <size>\n"
            "  stats                              (client counter dump)\n"
            "  metrics [node]     (Prometheus-text registry snapshot of\n"
            "                      the daemon serving that node; default:\n"
            "                      the default endpoint)\n"
            "  trace <id-hex>     (merged span tree of one --trace'd op)\n"
            "  vm-status          (per-shard version-manager series)\n"
            "  dedup-stats        (per-provider dedup/GC series)\n"
            "  repair-status      (repair gauges + membership rows)\n"
            "                     (all three render a metrics snapshot)\n"
            "  parallel <n>                       (async read splitting)\n"
            "  providers | kill <i> <lose01> | recover <i>\n"
            "  degrade <i> <factor> | restore <i>\n"
            "  help | quit\n");
    }

    std::unique_ptr<core::Cluster> cluster_;
    std::unique_ptr<core::BlobSeerClient> client_;
    std::size_t parallel_ = 1;
    bool trace_ = false;
};

}  // namespace

int main(int argc, char** argv) {
    // Line-buffer stdout even when redirected: scripted sessions (the
    // e2e harness drives the shell through a FIFO) read results — e.g.
    // the printed trace id — back mid-session.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    std::string connect;
    std::size_t parallel = 1;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--connect" && i + 1 < argc) {
            connect = argv[++i];
        } else if (arg == "--parallel" && i + 1 < argc) {
            try {
                parallel = std::max<std::size_t>(
                    1, std::stoul(argv[++i]));
            } catch (const std::exception&) {
                std::fprintf(stderr, "--parallel needs a number\n");
                return 2;
            }
        } else if (arg == "--trace") {
            trace = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--connect host:port] [--parallel N] "
                         "[--trace]\n",
                         argv[0]);
            return 2;
        }
    }
    try {
        if (!connect.empty()) {
            const auto colon = connect.rfind(':');
            unsigned long port = 0;
            try {
                port = colon == std::string::npos
                           ? 0
                           : std::stoul(connect.substr(colon + 1));
            } catch (const std::exception&) {
                port = 0;
            }
            if (colon == std::string::npos || colon == 0 || port == 0 ||
                port > 65535) {
                std::fprintf(stderr,
                             "--connect needs host:port (got '%s')\n",
                             connect.c_str());
                return 2;
            }
            Shell shell(connect.substr(0, colon),
                        static_cast<std::uint16_t>(port), parallel, trace);
            return shell.run();
        }
        Shell shell(parallel, trace);
        return shell.run();
    } catch (const Error& e) {
        std::fprintf(stderr, "blobseer-cli: %s\n", e.what());
        return 1;
    }
}
