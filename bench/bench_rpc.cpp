/// \file bench_rpc.cpp
/// \brief RPC-stack microbenchmark: direct call vs. SimTransport vs.
///        TCP loopback.
///
/// Quantifies what each layer of the new wire protocol costs:
///
///  * direct — invoke the service object, no serialization (the seed's
///    original call path, kept as the floor);
///  * sim    — full encode → dispatch → decode round trip through
///    SimTransport with a zero-cost simulated wire (codec + dispatch
///    overhead);
///  * tcp    — the same frames over real loopback sockets against an
///    in-process TcpRpcServer (adds syscalls and TCP).
///
/// Three workloads: a small control RPC (get-version, ~60-byte frames),
/// a 64 KiB chunk put+get pair, and an in-flight window sweep — 1/8/64
/// outstanding get_chunk requests over ONE multiplexed TCP connection
/// (window 1 is exactly the old serial one-request-per-connection
/// behavior, so the sweep quantifies what protocol v3 multiplexing
/// buys). Reported: throughput, mean and p99 latency, speedup.
///
///   $ BLOBSEER_BENCH_SCALE=0.25 ./bench_rpc   # quick smoke run

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <vector>

#include "bench_util.hpp"
#include "common/metrics.hpp"
#include "rpc/service_client.hpp"
#include "rpc/sim_transport.hpp"
#include "rpc/tcp_transport.hpp"

using namespace blobseer;

namespace {

struct RunStats {
    double ops_per_s = 0;
    double mean_us = 0;
    double p99_us = 0;
    double mb_per_s = 0;  ///< payload throughput (chunk workload only)
};

/// Blocking loopback connect (no framing: used for parked idle
/// connections in the connection sweep).
int connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

std::size_t open_fd_count() {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        ++n;
    }
    return n;
}

RunStats timed_loop(std::size_t n, std::uint64_t payload_bytes,
                    const std::function<void()>& op) {
    std::vector<std::uint64_t> lat_us;
    lat_us.reserve(n);
    const Stopwatch total;
    for (std::size_t i = 0; i < n; ++i) {
        const Stopwatch sw;
        op();
        lat_us.push_back(sw.elapsed_us());
    }
    const double secs = total.elapsed_seconds();
    std::sort(lat_us.begin(), lat_us.end());
    RunStats s;
    s.ops_per_s = static_cast<double>(n) / secs;
    std::uint64_t sum = 0;
    for (const std::uint64_t v : lat_us) {
        sum += v;
    }
    s.mean_us = static_cast<double>(sum) / static_cast<double>(n);
    s.p99_us = static_cast<double>(lat_us[(n * 99) / 100]);
    s.mb_per_s = static_cast<double>(n) * static_cast<double>(payload_bytes) /
                 secs / (1 << 20);
    return s;
}

}  // namespace

int main() {
    core::ClusterConfig cfg;
    cfg.data_providers = 4;
    cfg.metadata_providers = 2;
    cfg.default_replication = 1;
    // Zero-cost simulated wire: the difference between modes is pure
    // protocol overhead, not modeled bandwidth.
    cfg.network.latency = Duration::zero();
    cfg.network.node_bandwidth_bps = 0;
    core::Cluster cluster(cfg);

    // One published version to query, one stored chunk to re-fetch.
    auto client = cluster.make_client("bench");
    auto blob = client->create(64 << 10);
    const Buffer payload = make_pattern(blob.id(), 1, 0, 64 << 10);
    blob.write(0, payload);

    const NodeId bench_node = cluster.network().add_node("bench-rpc");
    rpc::SimTransport sim(cluster.network(), bench_node,
                          cluster.dispatcher());
    rpc::TcpRpcServer server(cluster.dispatcher(),
                             {.bind_addr = "127.0.0.1"});
    rpc::TcpTransport tcp("127.0.0.1", server.port());

    rpc::ServiceClient sim_svc(sim, cluster.version_manager_nodes(),
                               cluster.provider_manager_node());
    rpc::ServiceClient tcp_svc(tcp, cluster.version_manager_nodes(),
                               cluster.provider_manager_node());

    const std::size_t n_small = bench::scaled(20000);
    const std::size_t n_chunk = bench::scaled(1500);
    const BlobId id = blob.id();
    auto& vm = cluster.version_manager();
    auto& dp = cluster.data_provider(0);
    const NodeId dp_node = dp.node();

    // -- small control RPC ---------------------------------------------------
    bench::Table small({"mode", "ops/s", "mean us", "p99 us"});
    const auto run_small = [&](const char* mode,
                               const std::function<void()>& op) {
        const RunStats s = timed_loop(n_small, 0, op);
        small.row(mode, s.ops_per_s, s.mean_us, s.p99_us);
    };
    run_small("direct", [&] { (void)vm.get_version(id, kLatestVersion); });
    run_small("sim", [&] { (void)sim_svc.get_version(id, kLatestVersion); });
    run_small("tcp", [&] { (void)tcp_svc.get_version(id, kLatestVersion); });
    small.print("get-version RPC (" + std::to_string(n_small) + " ops)");

    // -- 64 KiB chunk put+get ------------------------------------------------
    bench::Table chunks({"mode", "pairs/s", "MB/s", "mean us", "p99 us"});
    std::uint64_t uid = 1u << 20;
    const auto run_chunk = [&](const char* mode,
                               const std::function<void()>& op) {
        const RunStats s = timed_loop(n_chunk, 2 * payload.size(), op);
        chunks.row(mode, s.ops_per_s, s.mb_per_s, s.mean_us, s.p99_us);
    };
    run_chunk("direct", [&] {
        const chunk::ChunkKey key{id, uid++};
        dp.put_chunk(key, std::make_shared<const Buffer>(payload));
        (void)dp.get_chunk(key);
    });
    run_chunk("sim", [&] {
        const chunk::ChunkKey key{id, uid++};
        sim_svc.put_chunk(dp_node, key, payload);
        (void)sim_svc.get_chunk(dp_node, key, 0, 0);
    });
    run_chunk("tcp", [&] {
        const chunk::ChunkKey key{id, uid++};
        tcp_svc.put_chunk(dp_node, key, payload);
        (void)tcp_svc.get_chunk(dp_node, key, 0, 0);
    });
    chunks.print("64 KiB chunk put+get (" + std::to_string(n_chunk) +
                 " pairs)");

    // -- in-flight window sweep over one multiplexed TCP connection ----------
    //
    // One stored chunk is fetched n times with a bounded number of
    // get_chunk requests outstanding, all on the single connection the
    // transport multiplexes to the server. window=1 reproduces the old
    // serial wire (each request waits for its response); deeper windows
    // overlap requests, server dispatch and responses. Two chunk sizes
    // bracket the regimes: 4 KiB is round-trip-latency-bound (where
    // multiplexing is the win), 64 KiB is loopback-bandwidth-bound —
    // the serial wire already streams near line rate there, and a deep
    // window only adds buffer churn (use modest windows for bulk
    // transfers on few-core hosts). The sweep server gets 2 dispatch
    // workers: enough to overlap request parse with response write,
    // without preemption noise on small machines.
    rpc::TcpRpcServer sweep_server(cluster.dispatcher(),
                                   {.bind_addr = "127.0.0.1", .workers = 2});
    rpc::TcpTransport sweep_tcp("127.0.0.1", sweep_server.port());
    rpc::ServiceClient sweep_svc(sweep_tcp,
                                 cluster.version_manager_nodes(),
                                 cluster.provider_manager_node());
    struct SweepCase {
        const char* label;
        std::size_t stored_bytes;  ///< chunk stored on the provider
        std::size_t slice_bytes;   ///< bytes fetched per get (0 = all)
        std::size_t n;
    };
    const SweepCase cases[] = {
        // Fine-grained slice reads (the paper's fine-grain access
        // pattern): latency-bound, where multiplexing pays most.
        {"512 B slices of a 64 KiB chunk", 64 << 10, 512,
         bench::scaled(20000)},
        {"4 KiB whole-chunk gets", 4 << 10, 0, bench::scaled(20000)},
        {"64 KiB whole-chunk gets", 64 << 10, 0, bench::scaled(4000)},
    };
    for (const SweepCase& c : cases) {
        const chunk::ChunkKey sweep_key{id, uid++};
        const Buffer sweep_payload = make_pattern(id, 9, 0, c.stored_bytes);
        sweep_svc.put_chunk(dp_node, sweep_key, sweep_payload);
        const std::size_t expect =
            c.slice_bytes == 0 ? c.stored_bytes : c.slice_bytes;

        bench::Table sweep({"window", "ops/s", "MB/s", "speedup"});
        double serial_ops = 0;
        for (const std::size_t window : {std::size_t{1}, std::size_t{8},
                                         std::size_t{64}}) {
            const Stopwatch sw;
            std::deque<Future<rpc::ServiceClient::ChunkSlice>> inflight;
            for (std::size_t i = 0; i < c.n; ++i) {
                if (inflight.size() == window) {
                    if (inflight.front().get().bytes.size() != expect) {
                        std::fprintf(stderr,
                                     "sweep: short chunk readback\n");
                        return 1;
                    }
                    inflight.pop_front();
                }
                inflight.push_back(sweep_svc.get_chunk_async(
                    dp_node, sweep_key, 0, c.slice_bytes));
            }
            while (!inflight.empty()) {
                (void)inflight.front().get();
                inflight.pop_front();
            }
            const double secs = sw.elapsed_seconds();
            const double ops = static_cast<double>(c.n) / secs;
            if (window == 1) {
                serial_ops = ops;
            }
            sweep.row(std::to_string(window).c_str(), ops,
                      static_cast<double>(c.n) *
                          static_cast<double>(expect) / secs / (1 << 20),
                      ops / serial_ops);
        }
        sweep.print(std::string(c.label) +
                    ", in-flight window over one TCP connection (" +
                    std::to_string(c.n) +
                    " ops; window 1 = old serial wire)");
    }

    // -- bytes copied per 64 KiB get_chunk: zero-copy on vs. off -------------
    //
    // rpc_bytes_copied_total counts payload bytes flattened into the
    // response buffer; the scatter-gather path ships the store's bytes
    // by reference and never touches the counter. The per-read diff is
    // the direct measure of what the zero-copy read path removes.
    {
        Counter& copied = MetricsRegistry::instance().counter(
            "rpc_bytes_copied_total", {});
        const std::size_t n_zc = bench::scaled(2000);
        const chunk::ChunkKey zc_key{id, uid++};
        const Buffer zc_payload = make_pattern(id, 11, 0, 64 << 10);
        bench::Table zc(
            {"mode", "reads", "bytes copied", "copied/read", "MB/s"});
        for (const bool zero_copy : {false, true}) {
            rpc::TcpRpcServer::Options o;
            o.bind_addr = "127.0.0.1";
            o.zero_copy = zero_copy;
            rpc::TcpRpcServer zc_server(cluster.dispatcher(),
                                        std::move(o));
            rpc::TcpTransport zc_tcp("127.0.0.1", zc_server.port());
            rpc::ServiceClient zc_svc(zc_tcp,
                                      cluster.version_manager_nodes(),
                                      cluster.provider_manager_node());
            if (!zero_copy) {  // first pass: store the chunk once
                zc_svc.put_chunk(dp_node, zc_key, zc_payload);
            }
            const std::uint64_t before = copied.get();
            const Stopwatch sw;
            std::deque<Future<rpc::ServiceClient::ChunkSlice>> inflight;
            for (std::size_t i = 0; i < n_zc; ++i) {
                if (inflight.size() == 16) {
                    if (inflight.front().get().bytes !=
                        zc_payload) {
                        std::fprintf(stderr, "zc: bad readback\n");
                        return 1;
                    }
                    inflight.pop_front();
                }
                inflight.push_back(
                    zc_svc.get_chunk_async(dp_node, zc_key, 0, 0));
            }
            while (!inflight.empty()) {
                (void)inflight.front().get();
                inflight.pop_front();
            }
            const double secs = sw.elapsed_seconds();
            const std::uint64_t delta = copied.get() - before;
            zc.row(zero_copy ? "zero-copy" : "flatten", n_zc, delta,
                   static_cast<double>(delta) /
                       static_cast<double>(n_zc),
                   static_cast<double>(n_zc) *
                       static_cast<double>(zc_payload.size()) / secs /
                       (1 << 20));
        }
        zc.print("64 KiB get_chunk response copies "
                 "(rpc_bytes_copied_total diff)");
    }

    // -- connection sweep: a parked crowd on fixed io threads ----------------
    //
    // 1k+ idle connections cost the reactor fds, not threads; active
    // clients keep full throughput through the crowd; the idle-timeout
    // sweep then reaps every parked connection (fd-count verified).
    {
        rlimit rl{};
        if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < 8192) {
            rlimit want = rl;
            want.rlim_cur = std::min<rlim_t>(8192, rl.rlim_max);
            if (::setrlimit(RLIMIT_NOFILE, &want) == 0) {
                rl = want;
            }
        }
        const std::size_t baseline_fds = open_fd_count();
        // Both endpoints of every loopback connection live in this
        // process: 2 fds each, plus headroom for the active clients.
        std::size_t idle_target = bench::scaled(1024);
        if (rl.rlim_cur > baseline_fds + 256) {
            idle_target = std::min<std::size_t>(
                idle_target, (rl.rlim_cur - baseline_fds - 256) / 2);
        } else {
            idle_target = std::min<std::size_t>(idle_target, 64);
        }

        rpc::TcpRpcServer::Options copt;
        copt.bind_addr = "127.0.0.1";
        copt.io_threads = 2;
        copt.idle_timeout_ms = 3000;
        rpc::TcpRpcServer conn_server(cluster.dispatcher(),
                                      std::move(copt));

        std::vector<int> idle;
        idle.reserve(idle_target);
        for (std::size_t i = 0; i < idle_target; ++i) {
            const int fd = connect_loopback(conn_server.port());
            if (fd < 0) {
                break;
            }
            idle.push_back(fd);
        }
        const Stopwatch accept_sw;
        while (conn_server.connection_count() < idle.size() &&
               accept_sw.elapsed_seconds() < 10.0) {
            std::this_thread::sleep_for(milliseconds(5));
        }
        if (conn_server.connection_count() < idle.size()) {
            std::fprintf(stderr, "sweep: only %zu/%zu connections up\n",
                         conn_server.connection_count(), idle.size());
            return 1;
        }
        const std::size_t fds_parked = open_fd_count();

        // Active traffic through the parked crowd.
        const chunk::ChunkKey conn_key{id, uid++};
        const Buffer conn_payload = make_pattern(id, 13, 0, 64 << 10);
        {
            rpc::TcpTransport seed_tcp("127.0.0.1", conn_server.port());
            rpc::ServiceClient seed_svc(
                seed_tcp, cluster.version_manager_nodes(),
                cluster.provider_manager_node());
            seed_svc.put_chunk(dp_node, conn_key, conn_payload);
        }
        const std::size_t active_clients = 8;
        const std::size_t per_client = bench::scaled(400);
        std::atomic<bool> failed{false};
        const double secs = bench::run_clients(
            active_clients, [&](std::size_t) {
                rpc::TcpTransport t("127.0.0.1", conn_server.port());
                rpc::ServiceClient svc(
                    t, cluster.version_manager_nodes(),
                    cluster.provider_manager_node());
                std::deque<Future<rpc::ServiceClient::ChunkSlice>> fl;
                for (std::size_t i = 0; i < per_client; ++i) {
                    if (fl.size() == 8) {
                        if (fl.front().get().bytes.size() !=
                            conn_payload.size()) {
                            failed.store(true);
                            return;
                        }
                        fl.pop_front();
                    }
                    fl.push_back(svc.get_chunk_async(dp_node, conn_key,
                                                     0, 0));
                }
                while (!fl.empty()) {
                    (void)fl.front().get();
                    fl.pop_front();
                }
            });
        if (failed.load()) {
            std::fprintf(stderr, "sweep: short readback under load\n");
            return 1;
        }
        const std::uint64_t reads = active_clients * per_client;

        bench::Table conns({"idle conns", "io threads", "open fds",
                            "reads/s", "MB/s"});
        conns.row(idle.size(), std::size_t{2}, fds_parked,
                  static_cast<double>(reads) / secs,
                  static_cast<double>(reads) *
                      static_cast<double>(conn_payload.size()) / secs /
                      (1 << 20));
        conns.print("64 KiB reads through " +
                    std::to_string(idle.size()) +
                    " parked idle connections (8 clients, window 8)");

        // Idle reaping: every parked connection must be closed by the
        // sweep, surfacing EOF client-side, and the server fd count
        // must fall back to the baseline.
        const Stopwatch reap_sw;
        while (conn_server.connection_count() > 0 &&
               reap_sw.elapsed_seconds() < 20.0) {
            std::this_thread::sleep_for(milliseconds(20));
        }
        if (conn_server.connection_count() != 0) {
            std::fprintf(stderr, "sweep: %zu connections not reaped\n",
                         conn_server.connection_count());
            return 1;
        }
        char b = 0;
        if (::recv(idle.front(), &b, 1, 0) != 0) {
            std::fprintf(stderr, "sweep: no EOF on a reaped conn\n");
            return 1;
        }
        for (const int fd : idle) {
            ::close(fd);
        }
        // Give the loops one beat to settle retired handlers (the
        // server-side fds close when those release their last refs).
        std::this_thread::sleep_for(milliseconds(100));
        const std::size_t fds_after = open_fd_count();
        if (fds_after > baseline_fds + 16) {
            std::fprintf(stderr, "sweep: fd leak (%zu -> %zu)\n",
                         baseline_fds, fds_after);
            return 1;
        }
        std::printf("\nidle sweep: %zu connections reaped in %.1fs; "
                    "fds %zu -> %zu -> %zu\n",
                    idle.size(), reap_sw.elapsed_seconds(),
                    baseline_fds, fds_parked, fds_after);
    }

    return 0;
}
