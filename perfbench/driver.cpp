/// \file driver.cpp
/// \brief End-to-end benchmark driver: boots a real blobseer_serverd on
///        loopback, drives one workload through BlobSeerClient over TCP
///        for a fixed time, checks every byte it reads back, and prints
///        one JSON result line on stdout.
///
///   perfbench_driver --serverd <path> --work-dir <dir> --workload <name>
///                    --seed <n> --seconds <s> --trace <0|1>
///
/// Every workload is a closed loop of 8 clients (kWorkers), each on its
/// own TCP connection, against one daemon with the three-tier chunk store
/// (RAM tier, compressed file cache, log engine; log-backed metadata and
/// a journaled version manager):
///
///   vm_boot        the paper's VM multi-deployment cycle: clone a 16 MiB
///                  gold image, write one 64 KiB config block
///                  copy-on-write, read the 1 MiB boot region back from
///                  the new snapshot. The instance is deleted afterwards,
///                  untimed, so the live data stays constant. The hot set
///                  fits the RAM tier.
///   tiered_read    1 MiB reads at uniform random chunk-aligned offsets of
///                  a 64 MiB dataset, 4x the RAM tier: most chunks are
///                  served by the compressed file cache.
///   append_ingest  4 KiB records appended concurrently to a shared log
///                  blob that rolls over to a fresh blob every 1024
///                  records; every log is read back and checked record by
///                  record at the end.
///
/// --trace 0 reports the end-to-end metrics. --trace 1 runs the same loop
/// with each operation inside a sampled trace of its own, gathers the
/// op's client span halves (this process) and server halves (the
/// daemon's span ring), and reports where the time went, split so the
/// parts add up to the op's latency, plus the daemon's counter deltas.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/hash.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/client.hpp"
#include "core/remote.hpp"

using namespace blobseer;
namespace fs = std::filesystem;

namespace {

/// Enough clients to keep a 4-core host busy: a saturated run is bound by
/// CPU, which shared-host noise moves far less than it moves an idle
/// run's thread wake-ups.
constexpr std::size_t kWorkers = 8;
/// Set-up (daemon boot, client connects, dataset load) is repeated this
/// many times per run and reported as the median.
constexpr int kSetupRounds = 5;
constexpr double kWarmupSeconds = 1.0;
constexpr std::uint64_t kChunk = 64 << 10;
constexpr int kRamCacheMb = 4;    // per data provider (8 providers)
constexpr int kFileCacheMb = 64;  // per data provider

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Deterministic content keyed by (tag, absolute offset). 64-byte lines
/// alternate between pseudo-random words and a repeated byte, so the data
/// compresses about 2:1 like real images and logs and the compressed
/// tiers do real work. Offsets and sizes are multiples of 8.
void fill_content(std::uint64_t tag, std::uint64_t offset, MutableBytes out) {
    for (std::size_t i = 0; i + 8 <= out.size(); i += 8) {
        const std::uint64_t word = (offset + i) / 8;
        const std::uint64_t line = mix64(tag ^ (word / 8));
        const std::uint64_t v = (line & 1) != 0
                                    ? mix64(hash_combine(tag, word))
                                    : 0x0101010101010101ULL * (line >> 56);
        std::memcpy(out.data() + i, &v, 8);
    }
}

[[nodiscard]] bool same(ConstBytes got, ConstBytes want) {
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(), got.size()) == 0;
}

// ---- daemon --------------------------------------------------------------

/// One blobseer_serverd child on an ephemeral loopback port. The
/// destructor stops it (SIGTERM, SIGKILL after 30 s) and reaps it.
class Daemon {
  public:
    Daemon(const std::string& serverd, const fs::path& dir) {
        fs::create_directories(dir);
        const std::string log = (dir / "serverd.log").string();
        std::vector<std::string> args = {
            serverd,        "--port",
            "0",            "--bind",
            "127.0.0.1",    "--store",
            "three-tier-log", "--disk-root",
            (dir / "data").string(), "--ram-cache-mb",
            std::to_string(kRamCacheMb), "--file-cache-mb",
            std::to_string(kFileCacheMb), "--log-level",
            "error"};
        std::vector<char*> argv;
        for (std::string& a : args) {
            argv.push_back(a.data());
        }
        argv.push_back(nullptr);
        const int fd = ::open(log.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        if (fd < 0) {
            throw std::runtime_error("cannot create " + log);
        }
        pid_ = ::fork();
        if (pid_ == 0) {
            // Die with the driver even when it is killed outright.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        ::close(fd);
        if (pid_ < 0) {
            throw std::runtime_error("fork failed");
        }
        try {
            port_ = wait_listening(log);
        } catch (...) {
            stop();
            throw;
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    void stop() noexcept {
        if (pid_ <= 0) {
            return;
        }
        ::kill(pid_, SIGTERM);
        const auto t0 = SteadyClock::now();
        while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
            if (seconds_since(t0) > 30.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, nullptr, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
    }

  private:
    /// Poll the daemon's log for its "listening on 127.0.0.1:<port>" line.
    std::uint16_t wait_listening(const std::string& log) {
        static constexpr std::string_view kMarker = "listening on 127.0.0.1:";
        const auto t0 = SteadyClock::now();
        while (seconds_since(t0) < 60.0) {
            std::ifstream in(log);
            const std::string text((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
            if (const auto at = text.find(kMarker); at != std::string::npos) {
                return static_cast<std::uint16_t>(
                    std::stoul(text.substr(at + kMarker.size())));
            }
            if (::waitpid(pid_, nullptr, WNOHANG) != 0) {
                pid_ = -1;
                throw std::runtime_error("blobseer_serverd exited: " + text);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw std::runtime_error("blobseer_serverd did not start listening");
    }

    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

// ---- workloads -----------------------------------------------------------

/// Per-client loop state. Workload-specific fields are plain members:
/// there are three workloads, not a plugin system.
struct Worker {
    std::size_t index = 0;
    std::mt19937_64 rng;
    std::uint64_t ops = 0;            ///< ops started (tags fresh content)
    BlobId instance = 0;              ///< vm_boot: instance to tear down
    std::vector<std::uint64_t> acked; ///< append_ingest: acked record seqs
};

using Clients = std::vector<std::unique_ptr<core::BlobSeerClient>>;

class Workload {
  public:
    virtual ~Workload() = default;
    /// Load the dataset the ops work on (timed as part of set-up).
    virtual void prepare(core::BlobSeerClient& client) = 0;
    /// One user-visible operation; false when it read back wrong bytes.
    virtual bool op(core::BlobSeerClient& client, Worker& w) = 0;
    /// Untimed clean-up after an op.
    virtual void after_op(core::BlobSeerClient& /*client*/, Worker& /*w*/) {}
    /// End-of-run check of everything the ops left behind.
    virtual bool verify(const Clients& /*clients*/,
                        const std::vector<Worker>& /*workers*/) {
        return true;
    }
};

class VmBoot final : public Workload {
  public:
    static constexpr std::uint64_t kImage = 16 << 20;
    static constexpr std::uint64_t kBootRegion = 1 << 20;

    explicit VmBoot(std::uint64_t seed)
        : tag_(hash_combine(seed, 1)), image_(kImage) {
        fill_content(tag_, 0, image_);
    }

    void prepare(core::BlobSeerClient& client) override {
        gold_ = client.create(kChunk).id();
        constexpr std::uint64_t kStripe = 4 << 20;
        for (std::uint64_t off = 0; off < kImage; off += kStripe) {
            client.write(gold_, off, ConstBytes(image_).subspan(off, kStripe));
        }
    }

    bool op(core::BlobSeerClient& client, Worker& w) override {
        core::Blob disk = client.clone(gold_);
        w.instance = disk.id();
        const std::uint64_t block =
            w.rng() % (kBootRegion / kChunk) * kChunk;
        Buffer config(kChunk);
        fill_content(hash_combine(tag_, hash_combine(w.index, w.ops)), 0,
                     config);
        const Version v = disk.write(block, config);
        Buffer boot(kBootRegion);
        disk.read(v, 0, boot);
        const ConstBytes got(boot);
        const ConstBytes gold(image_);
        return same(got.first(block), gold.first(block)) &&
               same(got.subspan(block, kChunk), config) &&
               same(got.subspan(block + kChunk),
                    gold.subspan(block + kChunk, kBootRegion - block - kChunk));
    }

    void after_op(core::BlobSeerClient& client, Worker& w) override {
        if (w.instance != 0) {
            client.delete_blob(w.instance);
            w.instance = 0;
        }
    }

  private:
    std::uint64_t tag_;
    Buffer image_;
    BlobId gold_ = 0;
};

class TieredRead final : public Workload {
  public:
    static constexpr std::uint64_t kDataset = 64 << 20;
    static constexpr std::uint64_t kRead = 1 << 20;

    explicit TieredRead(std::uint64_t seed)
        : tag_(hash_combine(seed, 2)), data_(kDataset) {
        fill_content(tag_, 0, data_);
    }

    void prepare(core::BlobSeerClient& client) override {
        blob_ = client.create(kChunk).id();
        constexpr std::uint64_t kStripe = 4 << 20;
        for (std::uint64_t off = 0; off < kDataset; off += kStripe) {
            version_ = client.write(blob_, off,
                                    ConstBytes(data_).subspan(off, kStripe));
        }
    }

    bool op(core::BlobSeerClient& client, Worker& w) override {
        const std::uint64_t off =
            w.rng() % ((kDataset - kRead) / kChunk + 1) * kChunk;
        Buffer out(kRead);
        client.read(blob_, version_, off, out);
        return same(out, ConstBytes(data_).subspan(off, kRead));
    }

  private:
    std::uint64_t tag_;
    Buffer data_;
    BlobId blob_ = 0;
    Version version_ = 0;
};

class AppendIngest final : public Workload {
  public:
    static constexpr std::uint64_t kRecord = 4 << 10;
    /// Appends per log blob before ingestion rolls over to a fresh blob,
    /// as log pipelines roll files. The blob being appended to then stays
    /// between 1 and 1024 chunks, so an append costs the same (metadata
    /// tree depth, cache footprint) at any point of a run of any length.
    static constexpr std::uint64_t kRollover = 1024;

    explicit AppendIngest(std::uint64_t seed) : tag_(hash_combine(seed, 3)) {}

    void prepare(core::BlobSeerClient& client) override {
        logs_ = {client.create(kRecord).id()};
        tickets_ = 0;
    }

    bool op(core::BlobSeerClient& client, Worker& w) override {
        const std::uint64_t ticket = tickets_.fetch_add(1);
        client.append(log(client, ticket / kRollover), record(w.index, w.ops));
        w.acked.push_back(w.ops);
        return true;
    }

    /// Read every log back, the logs split over all clients: each slot
    /// must hold an intact record, no record twice, and every
    /// acknowledged append must be there.
    bool verify(const Clients& clients,
                const std::vector<Worker>& workers) override {
        using Seen = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
        std::vector<Seen> seen(clients.size());
        std::vector<char> intact(clients.size(), 1);
        {
            std::vector<std::jthread> readers;
            for (std::size_t t = 0; t < clients.size(); ++t) {
                readers.emplace_back([&, t] {
                    Buffer buf;
                    for (std::size_t i = t; i < logs_.size();
                         i += clients.size()) {
                        const auto vi = clients[t]->stat(logs_[i]);
                        if (vi.size % kRecord != 0 ||
                            vi.size > kRollover * kRecord) {
                            intact[t] = 0;
                            return;
                        }
                        buf.resize(vi.size);
                        clients[t]->read(logs_[i], vi.version, 0, buf);
                        for (std::uint64_t at = 0; at < buf.size();
                             at += kRecord) {
                            std::uint32_t head[2];
                            std::memcpy(head, buf.data() + at, sizeof(head));
                            if (head[0] >= workers.size() ||
                                head[1] >= workers[head[0]].ops ||
                                !same(ConstBytes(buf).subspan(at, kRecord),
                                      record(head[0], head[1]))) {
                                intact[t] = 0;
                                return;
                            }
                            seen[t].emplace_back(head[0], head[1]);
                        }
                    }
                });
            }
        }
        std::set<std::pair<std::uint64_t, std::uint64_t>> all;
        std::size_t slots = 0;
        for (std::size_t t = 0; t < clients.size(); ++t) {
            if (intact[t] == 0) {
                return false;
            }
            all.insert(seen[t].begin(), seen[t].end());
            slots += seen[t].size();
        }
        for (const Worker& w : workers) {
            for (const std::uint64_t seq : w.acked) {
                if (!all.contains({w.index, seq})) {
                    return false;
                }
            }
        }
        return all.size() == slots;  // no record twice
    }

  private:
    /// The \p i-th log blob, created by whichever worker needs it first.
    BlobId log(core::BlobSeerClient& client, std::size_t i) {
        const std::scoped_lock lock(logs_mu_);
        while (logs_.size() <= i) {
            logs_.push_back(client.create(kRecord).id());
        }
        return logs_[i];
    }

    /// Record \p seq of worker \p writer: content keyed by both, with
    /// (writer, seq) as two u32s in its first 8 bytes.
    [[nodiscard]] Buffer record(std::uint64_t writer, std::uint64_t seq) const {
        Buffer rec(kRecord);
        fill_content(hash_combine(tag_, hash_combine(writer, seq)), 0, rec);
        const std::uint32_t head[2] = {static_cast<std::uint32_t>(writer),
                                       static_cast<std::uint32_t>(seq)};
        std::memcpy(rec.data(), head, sizeof(head));
        return rec;
    }

    std::uint64_t tag_;
    std::atomic<std::uint64_t> tickets_{0};  ///< appends started, all logs
    std::mutex logs_mu_;                     // guards logs_
    std::vector<BlobId> logs_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
    if (name == "vm_boot") {
        return std::make_unique<VmBoot>(seed);
    }
    if (name == "tiered_read") {
        return std::make_unique<TieredRead>(seed);
    }
    if (name == "append_ingest") {
        return std::make_unique<AppendIngest>(seed);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---- per-layer breakdown from trace spans ---------------------------------

/// Accumulates, over traced ops, where each op's time went. An op's RPCs
/// overlap (windowed chunk transfers), so the summed per-RPC layer times
/// are scaled to the wall time the RPCs covered: client + wire + queue +
/// handlers == op latency for every op.
struct Breakdown {
    std::uint64_t ops = 0;
    std::uint64_t rpcs = 0;
    double op_us = 0;
    double client_us = 0;  ///< op time outside any RPC: planning, checks
    double wire_us = 0;    ///< RPC round trip minus the server's share
    double queue_us = 0;   ///< wait for a dispatch worker
    double vm_us = 0;      ///< version/provider-manager handlers
    double meta_us = 0;    ///< metadata-provider handlers
    double data_us = 0;    ///< data-provider (chunk) handlers

    void add(std::uint64_t start_us, std::uint64_t dur_us,
             const std::vector<trace::SpanRecord>& local,
             const std::vector<trace::SpanRecord>& remote) {
        std::unordered_map<std::uint32_t, const trace::SpanRecord*> server;
        for (const auto& s : remote) {
            if (s.kind == trace::SpanRecord::kServer) {
                server.emplace(s.span_id, &s);
            }
        }
        double wire = 0;
        double queue = 0;
        double vm = 0;
        double meta = 0;
        double data = 0;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
        for (const auto& c : local) {
            if (c.kind != trace::SpanRecord::kClient) {
                continue;
            }
            ++rpcs;
            spans.emplace_back(c.start_unix_us,
                               c.start_unix_us + c.duration_us);
            const auto it = server.find(c.span_id);
            if (it == server.end()) {
                wire += static_cast<double>(c.duration_us);
                continue;
            }
            const trace::SpanRecord& s = *it->second;
            const double handled = static_cast<double>(s.duration_us);
            wire += std::max(0.0, static_cast<double>(c.duration_us) -
                                      static_cast<double>(s.queue_us) -
                                      handled);
            queue += static_cast<double>(s.queue_us);
            const std::string_view name = c.op_name();
            (name.starts_with("chunk-")  ? data
             : name.starts_with("meta-") ? meta
                                         : vm) += handled;
        }

        // Wall time covered by at least one RPC, clipped to the op.
        std::sort(spans.begin(), spans.end());
        const std::uint64_t end_us = start_us + dur_us;
        std::uint64_t covered = 0;
        std::uint64_t reach = start_us;
        for (auto [b, e] : spans) {
            b = std::max(b, reach);
            e = std::min(e, end_us);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }

        const double total = wire + queue + vm + meta + data;
        const double scale =
            total > 0 ? static_cast<double>(covered) / total : 0.0;
        ++ops;
        op_us += static_cast<double>(dur_us);
        client_us += static_cast<double>(dur_us - covered);
        wire_us += wire * scale;
        queue_us += queue * scale;
        vm_us += vm * scale;
        meta_us += meta * scale;
        data_us += data * scale;
    }

    void merge(const Breakdown& o) {
        ops += o.ops;
        rpcs += o.rpcs;
        op_us += o.op_us;
        client_us += o.client_us;
        wire_us += o.wire_us;
        queue_us += o.queue_us;
        vm_us += o.vm_us;
        meta_us += o.meta_us;
        data_us += o.data_us;
    }
};

// ---- measurement loop ----------------------------------------------------

/// One successful op: when it completed (seconds into the phase) and
/// how long it took.
struct Sample {
    double end_s = 0;
    double ms = 0;
};

struct LoopResult {
    std::vector<Sample> samples;  ///< successful ops only
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;  ///< threw or read back wrong bytes
    std::uint64_t wrong = 0;   ///< read back wrong bytes
    Breakdown breakdown;
};

/// Run \p wl on one client until \p deadline. With \p traced, each op
/// runs inside its own sampled trace whose spans are gathered afterwards.
void run_loop(Workload& wl, core::BlobSeerClient& client, Worker& w,
              SteadyClock::time_point phase_start,
              SteadyClock::time_point deadline, bool traced,
              LoopResult& out) {
    while (SteadyClock::now() < deadline) {
        ++out.attempted;
        trace::TraceContext ctx;
        if (traced) {
            ctx.trace_id = trace::new_trace_id();
            ctx.span_id = trace::new_span_id();
            ctx.flags = trace::TraceContext::kSampled;
        }
        const std::uint64_t start_us = trace::now_unix_us();
        const auto t0 = SteadyClock::now();
        bool ok = false;
        try {
            const trace::TraceScope scope(ctx);
            ok = wl.op(client, w);
            if (!ok) {
                ++out.wrong;
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: op failed: %s\n", e.what());
        }
        const double ms = seconds_since(t0) * 1e3;
        ++w.ops;
        if (ok) {
            out.samples.push_back({seconds_since(phase_start), ms});
            if (traced) {
                const std::uint64_t dur_us = trace::now_unix_us() - start_us;
                out.breakdown.add(
                    start_us, dur_us, trace::buffer().snapshot(ctx.trace_id),
                    client.services().trace_dump(ctx.trace_id));
            }
        } else {
            ++out.failed;
        }
        try {
            wl.after_op(client, w);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: clean-up failed: %s\n",
                         e.what());
            ++out.failed;
        }
    }
}

/// All workers in parallel until \p seconds have passed; returns the
/// merged result and the wall time until the last worker finished.
std::pair<LoopResult, double> run_phase(
    Workload& wl, const Clients& clients,
    std::vector<Worker>& workers, double seconds, bool traced) {
    std::vector<LoopResult> results(workers.size());
    const auto t0 = SteadyClock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double>(seconds));
    {
        std::vector<std::jthread> threads;
        for (std::size_t i = 0; i < workers.size(); ++i) {
            threads.emplace_back([&, i] {
                run_loop(wl, *clients[i], workers[i], t0, deadline, traced,
                         results[i]);
            });
        }
    }
    const double wall = seconds_since(t0);
    LoopResult all;
    for (LoopResult& r : results) {
        all.samples.insert(all.samples.end(), r.samples.begin(),
                           r.samples.end());
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.wrong += r.wrong;
        all.breakdown.merge(r.breakdown);
    }
    return {std::move(all), wall};
}

// ---- reporting -----------------------------------------------------------

[[nodiscard]] double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

struct WindowStats {
    double p50_ms = 0;
    double p90_ms = 0;
    double ops_s = 0;
};

/// Split the measured \p seconds into kWindows equal windows by op
/// completion time and report the median over windows of each window's
/// p50, p90 and throughput, so a short burst of outside load on a shared
/// machine moves one window, not the result. Ops still in flight at the
/// deadline count in no window.
[[nodiscard]] WindowStats windowed(const std::vector<Sample>& samples,
                                   double seconds) {
    constexpr std::size_t kWindows = 10;
    const double width = seconds / kWindows;
    std::vector<std::vector<double>> ms(kWindows);
    for (const Sample& s : samples) {
        const auto w = static_cast<std::size_t>(s.end_s / width);
        if (w < kWindows) {
            ms[w].push_back(s.ms);
        }
    }
    std::vector<double> p50;
    std::vector<double> p90;
    std::vector<double> ops_s;
    for (const auto& v : ms) {
        p50.push_back(quantile(v, 0.50));
        p90.push_back(quantile(v, 0.90));
        ops_s.push_back(static_cast<double>(v.size()) / width);
    }
    std::fprintf(stderr, "perfbench: ops/s per window:");
    for (const double v : ops_s) {
        std::fprintf(stderr, " %.0f", v);
    }
    std::fprintf(stderr, "\n");
    return {quantile(p50, 0.5), quantile(p90, 0.5), quantile(ops_s, 0.5)};
}

/// Counter and gauge values summed over all label sets, by name. The
/// benchmark's own scrapes (metrics-dump, trace-dump) are left out.
[[nodiscard]] std::map<std::string, double> totals(const MetricsSnapshot& s) {
    std::map<std::string, double> out;
    for (const MetricSample& m : s.samples) {
        const bool own_scrape = std::any_of(
            m.labels.begin(), m.labels.end(), [](const auto& label) {
                return label.first == "op" && (label.second == "trace-dump" ||
                                               label.second == "metrics-dump");
            });
        if (m.kind != MetricKind::kHistogram && !own_scrape) {
            out[m.name] += static_cast<double>(m.value);
        }
    }
    return out;
}

[[nodiscard]] double ratio(double num, double den) {
    return den > 0 ? num / den : 0.0;
}

class JsonMetrics {
  public:
    void add(const std::string& name, double value, const std::string& unit) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", value);
        body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
                 num + ", \"unit\": \"" + unit + "\"}";
    }
    [[nodiscard]] const std::string& str() const noexcept { return body_; }

  private:
    std::string body_;
};

struct Options {
    std::string serverd;
    fs::path work_dir;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + arg);
        }
        const std::string val = argv[++i];
        if (arg == "--serverd") {
            o.serverd = val;
        } else if (arg == "--work-dir") {
            o.work_dir = val;
        } else if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            o.seed = std::stoull(val);
        } else if (arg == "--seconds") {
            o.seconds = std::stod(val);
        } else if (arg == "--trace") {
            o.trace = val == "1";
        } else {
            throw std::invalid_argument("unknown option " + arg);
        }
    }
    if (o.serverd.empty() || o.work_dir.empty() || o.workload.empty()) {
        throw std::invalid_argument(
            "--serverd, --work-dir and --workload are required");
    }
    return o;
}

int run(const Options& opt) {
    const std::unique_ptr<Workload> wl = make_workload(opt.workload, opt.seed);

    // Set-up: a fresh daemon, every client connected, the dataset loaded.
    // Repeated; the last round's deployment is the one measured.
    std::vector<double> setup_s;
    std::unique_ptr<Daemon> daemon;
    Clients clients;
    for (int round = 0; round < kSetupRounds; ++round) {
        clients.clear();
        daemon.reset();
        fs::remove_all(opt.work_dir);
        const auto t0 = SteadyClock::now();
        daemon = std::make_unique<Daemon>(opt.serverd, opt.work_dir);
        for (std::size_t i = 0; i < kWorkers; ++i) {
            clients.push_back(std::make_unique<core::BlobSeerClient>(
                core::connect_tcp("127.0.0.1", daemon->port())));
        }
        wl->prepare(*clients[0]);
        setup_s.push_back(seconds_since(t0));
    }

    std::vector<Worker> workers(kWorkers);
    for (std::size_t i = 0; i < kWorkers; ++i) {
        workers[i].index = i;
        workers[i].rng.seed(hash_combine(opt.seed, i));
    }
    const auto warm =
        run_phase(*wl, clients, workers, kWarmupSeconds, false).first;

    auto& svc = clients[0]->services();
    const auto counters_before = totals(svc.metrics_dump());
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    for (const auto& c : clients) {
        cache_hits -= c->meta_cache().hits();
        cache_misses -= c->meta_cache().misses();
    }
    auto [res, wall] = run_phase(*wl, clients, workers, opt.seconds, opt.trace);
    for (const auto& c : clients) {
        cache_hits += c->meta_cache().hits();
        cache_misses += c->meta_cache().misses();
    }
    auto counters = totals(svc.metrics_dump());
    for (auto& [name, value] : counters) {
        value -= counters_before.contains(name) ? counters_before.at(name) : 0;
    }
    const auto t_verify = SteadyClock::now();
    const bool verified = wl->verify(clients, workers);
    const double verify_s = seconds_since(t_verify);
    const auto t_stop = SteadyClock::now();
    clients.clear();
    daemon.reset();
    fs::remove_all(opt.work_dir);
    const double setup_median = quantile(setup_s, 0.5);
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: setup %.3f s (median of %d), %llu "
                 "ops in %.2f s, verify %.2f s, teardown %.2f s\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed), setup_median,
                 kSetupRounds, static_cast<unsigned long long>(res.attempted),
                 wall, verify_s, seconds_since(t_stop));

    const bool correct = verified && res.wrong == 0 && warm.wrong == 0;
    const double ok_ops = static_cast<double>(res.samples.size());
    JsonMetrics m;
    if (!opt.trace) {
        const WindowStats ws = windowed(res.samples, opt.seconds);
        m.add("latency_p50_ms", ws.p50_ms, "ms");
        m.add("latency_p90_ms", ws.p90_ms, "ms");
        m.add("throughput_ops_s", ws.ops_s, "1/s");
        m.add("setup_s", setup_median, "s");
    } else {
        const Breakdown& b = res.breakdown;
        const double n = static_cast<double>(b.ops);
        m.add("op_ms", ratio(b.op_us, n) / 1e3, "ms");
        m.add("client_ms", ratio(b.client_us, n) / 1e3, "ms");
        m.add("wire_ms", ratio(b.wire_us, n) / 1e3, "ms");
        m.add("queue_ms", ratio(b.queue_us, n) / 1e3, "ms");
        m.add("handler_vm_ms", ratio(b.vm_us, n) / 1e3, "ms");
        m.add("handler_meta_ms", ratio(b.meta_us, n) / 1e3, "ms");
        m.add("handler_data_ms", ratio(b.data_us, n) / 1e3, "ms");
        m.add("rpcs_per_op", ratio(static_cast<double>(b.rpcs), n), "count");
        m.add("traced_ops_s", ok_ops / wall, "1/s");
        m.add("meta_cache_hit_ratio",
              ratio(static_cast<double>(cache_hits),
                    static_cast<double>(cache_hits + cache_misses)),
              "ratio");
        auto c = [&counters](const char* name) {
            return counters.contains(name) ? counters.at(name) : 0.0;
        };
        m.add("ram_hit_ratio",
              ratio(c("tier_ram_hits_total"),
                    c("tier_ram_hits_total") + c("tier_ram_misses_total")),
              "ratio");
        m.add("file_cache_hit_ratio",
              ratio(c("file_cache_hits_total"),
                    c("file_cache_hits_total") + c("file_cache_misses_total")),
              "ratio");
        m.add("engine_reads_per_op",
              ratio(c("engine_gets_total") + c("engine_ref_gets_mmap_total") +
                        c("engine_ref_gets_copy_total"),
                    ok_ops),
              "count");
        m.add("engine_appends_per_op", ratio(c("engine_appends_total"), ok_ops),
              "count");
        m.add("tier_promotions_per_op",
              ratio(c("tier_promotions_total"), ok_ops), "count");
        m.add("tier_demotions_per_op", ratio(c("tier_demotions_total"), ok_ops),
              "count");
        m.add("server_rpcs_per_op",
              ratio(c("rpc_server_requests_total"), ok_ops), "count");
        m.add("bytes_copied_per_op", ratio(c("rpc_bytes_copied_total"), ok_ops),
              "B");
        m.add("compactions", c("engine_compactions_total"), "count");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed), m.str().c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
