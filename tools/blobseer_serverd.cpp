/// \file blobseer_serverd.cpp
/// \brief All-in-one BlobSeer provider daemon.
///
/// Boots a full deployment (version manager, provider manager, data and
/// metadata providers) in one process and serves its RPC dispatcher over
/// TCP. Remote clients bootstrap with the kTopology handshake
/// (core::connect_tcp) and then speak the ordinary wire protocol —
/// `blobseer_cli --connect host:port` gives an interactive shell against
/// a running daemon.
///
///   $ ./tools/blobseer_serverd --port 4400 --data-providers 8
///   blobseer-serverd: listening on 0.0.0.0:4400
///
/// The intra-daemon simulated network is configured with zero cost: the
/// real socket is the wire now. Use --sim-latency-us to re-enable
/// simulated per-hop service latency (e.g. to emulate a WAN deployment
/// behind one endpoint).
///
/// The RPC port also answers `GET /metrics` with the process metrics
/// registry in the Prometheus text format (`curl host:4400/metrics`).
///
/// Stops on SIGINT/SIGTERM.

#include <algorithm>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "core/cluster.hpp"
#include "rpc/service_client.hpp"
#include "rpc/tcp_transport.hpp"

using namespace blobseer;

namespace {

void usage(const char* argv0) {
    std::printf(
        "usage: %s [options]\n"
        "  --port <n>            listen port (default 4400; 0 = ephemeral);\n"
        "                        also answers GET /metrics (Prometheus)\n"
        "  --bind <addr>         bind address (default 0.0.0.0)\n"
        "  --data-providers <n>  data provider count (default 8)\n"
        "  --meta-providers <n>  metadata provider count (default 4)\n"
        "  --vm-shards <n>       version-manager shard count (default 1)\n"
        "  --abort-stalled-ms <n> abort writers stalled longer than n ms\n"
        "                        (background sweep; default 0 = off)\n"
        "  --replication <n>     default chunk replication (default 2)\n"
        "  --meta-replication <n> metadata replication (default 1)\n"
        "  --store <ram|log|two-tier-log|three-tier-log>\n"
        "                        storage preset (default ram: RAM only,\n"
        "                        nothing survives a restart). log: chunks,\n"
        "                        metadata and version-manager journal\n"
        "                        persist under --disk-root on the log\n"
        "                        engine. two-tier-log adds a RAM cache\n"
        "                        over each chunk store; three-tier-log\n"
        "                        also a compressed file cache between\n"
        "                        the RAM tier and the log engine\n"
        "  --ram-cache-mb <n>    RAM cache budget per provider in MiB\n"
        "                        (two/three-tier-log; default 64)\n"
        "  --file-cache-mb <n>   compressed file-cache budget per\n"
        "                        provider in MiB (three-tier-log;\n"
        "                        default 256)\n"
        "  --file-cache-dir <path>  root for the per-provider file\n"
        "                        caches (default: <disk-root>/file-cache;\n"
        "                        disposable, safe on tmpfs)\n"
        "  --compress-cold       recompress cold records at compaction\n"
        "                        time (log presets; engine files\n"
        "                        become format v2)\n"
        "  --cas                 content-addressed chunks: dedup by\n"
        "                        SHA-256, check-before-push, refcounted GC\n"
        "  --disk-root <path>    root of durable state (log presets)\n"
        "  --sim-latency-us <n>  simulated intra-daemon latency (default 0)\n"
        "  --workers <n>         RPC dispatch worker threads (default:\n"
        "                        hardware-sized; min 4)\n"
        "  --io-threads <n>      RPC event-loop (reactor) threads moving\n"
        "                        socket bytes (default 2)\n"
        "  --idle-timeout-ms <n> close client connections idle longer\n"
        "                        than n ms (default 0 = never)\n"
        "  --heartbeat-timeout-ms <n>  declare an external provider dead\n"
        "                        after n ms without a heartbeat (default\n"
        "                        0 = off)\n"
        "  --repair-interval-ms <n>  background re-replication drain\n"
        "                        period (default 0 = off)\n"
        "  --log-level <debug|info|warn|error>\n"
        "                        stderr log threshold (default warn)\n"
        "provider mode (standalone data-provider daemon):\n"
        "  --provider            run as a data provider instead of a\n"
        "                        full deployment\n"
        "  --join <host:port>    manager daemon to join (required)\n"
        "  --name <s>            stable provider name; rejoining under\n"
        "                        the same name reclaims the node id\n"
        "                        (required)\n"
        "  --announce-host <addr> address advertised to clients\n"
        "                        (default 127.0.0.1)\n"
        "  --beat-interval-ms <n> heartbeat period (default 500)\n"
        "  --help\n",
        argv0);
}

/// Standalone data-provider daemon: join the manager by name, serve the
/// data-provider RPCs on an own port, announce endpoint + inventory, and
/// heartbeat with incremental inventory deltas until shut down.
int run_provider(const core::ClusterConfig& cfg, const std::string& join,
                 const std::string& name, std::uint16_t port,
                 const std::string& bind_addr,
                 const std::string& announce_host, long long beat_ms,
                 const rpc::TcpRpcServer::Options& server_opts,
                 sigset_t* signals) {
    const auto colon = join.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= join.size()) {
        std::fprintf(stderr, "--join wants host:port, got '%s'\n",
                     join.c_str());
        return 2;
    }
    const std::string mgr_host = join.substr(0, colon);
    const auto mgr_port = static_cast<std::uint16_t>(
        std::atoi(join.c_str() + colon + 1));

    rpc::TcpTransport to_manager(mgr_host, mgr_port);
    const rpc::Topology topo = rpc::fetch_topology(to_manager);
    rpc::ServiceClient svc(to_manager, topo.vm_nodes, topo.pm_node,
                           topo.client_id);

    const auto joined = svc.provider_join(name);
    provider::DataProvider dp(joined.node, core::make_chunk_store(cfg, name));

    rpc::Dispatcher dispatcher;
    dispatcher.add_data_provider(joined.node, &dp);
    rpc::TcpRpcServer::Options opts = server_opts;
    opts.port = port;
    opts.bind_addr = bind_addr;
    rpc::TcpRpcServer server(dispatcher, opts);

    // A durable store restarts with its chunks; the announce carries the
    // full inventory so the manager can count them (and cancel repairs
    // the rejoin just satisfied).
    svc.provider_announce(joined.node, announce_host, server.port(),
                          dp.inventory());
    std::printf("blobseer-serverd: provider '%s' node %u (%s) listening "
                "on %s:%u, joined %s\n",
                name.c_str(), joined.node,
                joined.rejoin ? "rejoin" : "new", bind_addr.c_str(),
                server.port(), join.c_str());
    std::fflush(stdout);

    std::jthread beater([&](std::stop_token stop) {
        std::uint64_t seq = 0;
        // Deltas drain only after an acknowledged beat, so a beat lost
        // to a manager hiccup is retried with the same payload — the
        // inventory view converges without a full re-announce.
        provider::DataProvider::InventoryDelta pending;
        bool have_pending = false;
        const auto tick = milliseconds(std::max(beat_ms, 50LL));
        std::mutex mu;
        std::condition_variable_any cv;
        std::unique_lock lock(mu);
        while (!stop.stop_requested()) {
            lock.unlock();
            try {
                if (!have_pending) {
                    pending = dp.drain_inventory_delta();
                    have_pending = true;
                }
                if (svc.provider_beat(joined.node, ++seq, pending.added,
                                      pending.removed)) {
                    pending = {};
                    have_pending = false;
                } else {
                    // The manager does not know us — it restarted. Joining
                    // again under our name reclaims the id on a manager
                    // that journals membership; a manager that lost it
                    // mints a fresh id we cannot adopt mid-flight.
                    const auto back = svc.provider_join(name);
                    if (back.node == joined.node) {
                        svc.provider_announce(joined.node, announce_host,
                                              server.port(),
                                              dp.inventory());
                        pending = {};  // the announce carried everything
                        have_pending = false;
                    } else {
                        std::fprintf(stderr,
                                     "blobseer-serverd: manager reassigned "
                                     "node %u -> %u; restart this "
                                     "provider\n",
                                     joined.node, back.node);
                        lock.lock();
                        return;
                    }
                }
            } catch (const Error& e) {
                // Manager unreachable: keep the pending delta and retry.
                std::fprintf(stderr,
                             "blobseer-serverd: heartbeat failed: %s\n",
                             e.what());
            }
            lock.lock();
            cv.wait_for(lock, stop, tick, [] { return false; });
        }
    });

    int sig = 0;
    sigwait(signals, &sig);
    std::printf("blobseer-serverd: %s, provider '%s' shutting down\n",
                strsignal(sig), name.c_str());
    beater = {};
    server.stop();
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    core::ClusterConfig cfg;
    cfg.data_providers = 8;
    cfg.metadata_providers = 4;
    cfg.default_replication = 2;
    // The socket is the wire; by default the simulator charges nothing.
    cfg.network.latency = Duration::zero();
    cfg.network.node_bandwidth_bps = 0;

    std::uint16_t port = 4400;
    bool port_set = false;
    std::string bind_addr = "0.0.0.0";
    // workers 0 = hardware-sized default; io_threads 0 = reactor default.
    rpc::TcpRpcServer::Options server_opts;
    // Tier sizes; only the tiers the --store preset enables get them.
    std::uint64_t ram_cache_mb = 64;
    std::uint64_t file_cache_mb = 256;
    bool ram_tier = false;
    bool file_tier = false;
    long long abort_stalled_ms = 0;  // 0 = no background stalled sweep

    bool provider_mode = false;
    std::string join_addr;
    std::string provider_name;
    std::string announce_host = "127.0.0.1";
    long long beat_interval_ms = 500;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--port") {
            port = static_cast<std::uint16_t>(std::atoi(next()));
            port_set = true;
        } else if (arg == "--bind") {
            bind_addr = next();
        } else if (arg == "--data-providers") {
            cfg.data_providers = static_cast<std::size_t>(std::atoi(next()));
        } else if (arg == "--meta-providers") {
            cfg.metadata_providers =
                static_cast<std::size_t>(std::atoi(next()));
        } else if (arg == "--vm-shards") {
            cfg.num_version_managers =
                static_cast<std::size_t>(std::atoi(next()));
        } else if (arg == "--abort-stalled-ms") {
            abort_stalled_ms = std::atoll(next());
        } else if (arg == "--replication") {
            cfg.default_replication =
                static_cast<std::uint32_t>(std::atoi(next()));
        } else if (arg == "--meta-replication") {
            cfg.meta_replication =
                static_cast<std::uint32_t>(std::atoi(next()));
        } else if (arg == "--store") {
            const std::string s = next();
            cfg.durable = s != "ram";
            ram_tier = s == "two-tier-log" || s == "three-tier-log";
            file_tier = s == "three-tier-log";
            if (s != "ram" && s != "log" && !ram_tier) {
                std::fprintf(stderr, "unknown store backend '%s'\n",
                             s.c_str());
                return 2;
            }
        } else if (arg == "--cas") {
            cfg.content_addressed = true;
        } else if (arg == "--disk-root") {
            cfg.disk_root = next();
        } else if (arg == "--ram-cache-mb") {
            ram_cache_mb = static_cast<std::uint64_t>(std::atoll(next()));
        } else if (arg == "--file-cache-mb") {
            file_cache_mb = static_cast<std::uint64_t>(std::atoll(next()));
        } else if (arg == "--file-cache-dir") {
            cfg.file_cache_dir = next();
        } else if (arg == "--compress-cold") {
            cfg.compress_cold_segments = true;
        } else if (arg == "--sim-latency-us") {
            cfg.network.latency = microseconds(std::atoll(next()));
        } else if (arg == "--workers") {
            server_opts.workers = static_cast<std::size_t>(std::atoll(next()));
        } else if (arg == "--io-threads") {
            server_opts.io_threads =
                static_cast<std::size_t>(std::atoll(next()));
        } else if (arg == "--idle-timeout-ms") {
            server_opts.idle_timeout_ms =
                static_cast<std::uint64_t>(std::atoll(next()));
        } else if (arg == "--heartbeat-timeout-ms") {
            cfg.heartbeat_timeout = milliseconds(std::atoll(next()));
        } else if (arg == "--repair-interval-ms") {
            cfg.repair_interval = milliseconds(std::atoll(next()));
        } else if (arg == "--provider") {
            provider_mode = true;
        } else if (arg == "--join") {
            join_addr = next();
        } else if (arg == "--name") {
            provider_name = next();
        } else if (arg == "--announce-host") {
            announce_host = next();
        } else if (arg == "--beat-interval-ms") {
            beat_interval_ms = std::atoll(next());
        } else if (arg == "--log-level") {
            const char* s = next();
            const auto level = parse_log_level(s);
            if (!level) {
                std::fprintf(stderr, "unknown log level '%s'\n", s);
                return 2;
            }
            Logger::instance().set_level(*level);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    cfg.ram_cache_budget = ram_tier ? ram_cache_mb << 20 : 0;
    cfg.file_cache_budget = file_tier ? file_cache_mb << 20 : 0;

    // Block the shutdown signals before any thread spawns so the accept
    // and connection threads inherit the mask and sigwait gets them.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);

    if (provider_mode) {
        if (join_addr.empty() || provider_name.empty()) {
            std::fprintf(stderr,
                         "--provider requires --join and --name\n");
            return 2;
        }
        // Provider mode defaults to an ephemeral port: several providers
        // usually share a host (and port 4400 belongs to the manager).
        if (!port_set) {
            port = 0;
        }
        try {
            return run_provider(cfg, join_addr, provider_name, port,
                                bind_addr, announce_host,
                                beat_interval_ms, server_opts, &set);
        } catch (const Error& e) {
            std::fprintf(stderr, "blobseer-serverd: %s\n", e.what());
            return 1;
        }
    }

    try {
        core::Cluster cluster(cfg);
        server_opts.port = port;
        server_opts.bind_addr = bind_addr;
        rpc::TcpRpcServer server(cluster.dispatcher(), server_opts);
        std::printf("blobseer-serverd: listening on %s:%u (%zu data "
                    "providers, %zu metadata providers, %zu vm shards)\n",
                    bind_addr.c_str(), server.port(), cfg.data_providers,
                    cfg.metadata_providers,
                    cluster.version_manager_count());
        std::fflush(stdout);

        // Background recovery sweep: each tick applies the stalled-write
        // timeout policy to a bounded batch of blobs per shard, so a
        // writer that died between assign and commit cannot block a
        // blob's publication forever.
        std::jthread sweeper;
        if (abort_stalled_ms > 0) {
            sweeper = std::jthread([&cluster, abort_stalled_ms](
                                       std::stop_token stop) {
                const auto max_age = milliseconds(abort_stalled_ms);
                const auto tick =
                    milliseconds(std::max(abort_stalled_ms / 4, 10LL));
                std::mutex mu;
                std::condition_variable_any cv;
                std::unique_lock lock(mu);
                while (!stop.stop_requested()) {
                    try {
                        for (std::size_t i = 0;
                             i < cluster.version_manager_count(); ++i) {
                            const std::size_t n =
                                cluster.version_manager(i).sweep_stalled(
                                    max_age, 64);
                            if (n > 0) {
                                std::printf("blobseer-serverd: aborted "
                                            "%zu stalled version(s) on "
                                            "shard %zu\n",
                                            n, i);
                                std::fflush(stdout);
                            }
                        }
                    } catch (const std::exception& e) {
                        // A sweep failure (e.g. a failed journal append
                        // latching the shard) must not std::terminate
                        // the daemon: stop sweeping, keep serving — the
                        // shard's own fail latch already guards its
                        // journal consistency.
                        std::fprintf(stderr,
                                     "blobseer-serverd: stalled sweep "
                                     "failed, sweeper stopped: %s\n",
                                     e.what());
                        return;
                    }
                    cv.wait_for(lock, stop, tick, [] { return false; });
                }
            });
        }

        int sig = 0;
        sigwait(&set, &sig);
        std::printf("blobseer-serverd: %s, shutting down\n",
                    strsignal(sig));
        sweeper = {};
        server.stop();
        const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
        for (std::size_t i = 0; i < cluster.version_manager_count(); ++i) {
            const std::pair<std::string, std::string> shard{
                "shard", std::to_string(i)};
            const auto get = [&](const char* name) {
                return (unsigned long long)sum_series(snap, name, shard);
            };
            std::printf(
                "blobseer-serverd: vm shard %zu: %llu blobs, %llu "
                "assigns, %llu commits, %llu aborts, %llu publishes, "
                "backlog %llu (high-water %llu)\n",
                i, get("vm_blobs"), get("vm_assigns_total"),
                get("vm_commits_total"), get("vm_aborts_total"),
                get("vm_publishes_total"), get("vm_publish_backlog"),
                (unsigned long long)sum_series(snap, "vm_publish_backlog",
                                               shard,
                                               &MetricSample::high_water));
        }
        return 0;
    } catch (const Error& e) {
        std::fprintf(stderr, "blobseer-serverd: %s\n", e.what());
        return 1;
    }
}
