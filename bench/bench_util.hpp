/// \file bench_util.hpp
/// \brief Shared experiment-harness utilities: Grid'5000-flavoured
///        cluster configurations, a multi-client workload driver and a
///        plain-text table printer that mimics the paper's figures.
///
/// Scale note: every bench models a 1 GbE cluster scaled down so the
/// whole suite runs in minutes on one machine. The benches compare curve
/// *shapes* (who wins, where curves flatten) rather than absolute MB/s,
/// per DESIGN.md §2.

#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "core/client.hpp"
#include "core/cluster.hpp"

namespace blobseer::bench {

/// Scale factor for quick smoke runs: BLOBSEER_BENCH_SCALE=0.25 quarters
/// the per-client work. Defaults to 1.
[[nodiscard]] inline double bench_scale() {
    const char* env = std::getenv("BLOBSEER_BENCH_SCALE");
    if (env == nullptr) {
        return 1.0;
    }
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
}

[[nodiscard]] inline std::size_t scaled(std::size_t n) {
    const double s = bench_scale();
    const auto v = static_cast<std::size_t>(n * s);
    return v == 0 ? 1 : v;
}

/// Cluster configuration modeling a slice of Grid'5000: 1 GbE NICs
/// (scaled to 100 MB/s), ~150 us one-way latency, DHT metadata providers
/// with finite service capacity.
[[nodiscard]] inline core::ClusterConfig grid_config(
    std::size_t data_providers, std::size_t metadata_providers,
    std::uint64_t meta_ops_per_second = 20'000) {
    core::ClusterConfig cfg;
    cfg.data_providers = data_providers;
    cfg.metadata_providers = metadata_providers;
    cfg.network.latency = microseconds(150);
    cfg.network.node_bandwidth_bps = 100ULL << 20;  // 100 MB/s per NIC
    cfg.meta_ops_per_second = meta_ops_per_second;
    cfg.client_io_threads = 4;
    cfg.publish_timeout = seconds(60);
    return cfg;
}

/// Run \p clients threads, each executing fn(client_index), and return
/// the wall-clock seconds the slowest took.
inline double run_clients(std::size_t clients,
                          const std::function<void(std::size_t)>& fn) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const Stopwatch sw;
    for (std::size_t i = 0; i < clients; ++i) {
        threads.emplace_back([&fn, i] { fn(i); });
    }
    for (auto& t : threads) {
        t.join();
    }
    return sw.elapsed_seconds();
}

[[nodiscard]] inline double mbps(std::uint64_t bytes, double seconds) {
    return seconds <= 0.0
               ? 0.0
               : static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds;
}

/// Fixed-width table printer.
class Table {
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers)) {}

    template <typename... Args>
    void row(Args... args) {
        std::vector<std::string> cells;
        (cells.push_back(cell(args)), ...);
        rows_.push_back(std::move(cells));
    }

    void print(const std::string& title) const {
        std::printf("\n== %s ==\n", title.c_str());
        std::vector<std::size_t> width(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            width[c] = headers_[c].size();
            for (const auto& r : rows_) {
                width[c] = std::max(width[c], r.at(c).size());
            }
        }
        print_row(headers_, width);
        std::string sep;
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            sep += std::string(width[c], '-');
            sep += c + 1 < headers_.size() ? "-+-" : "";
        }
        std::printf("%s\n", sep.c_str());
        for (const auto& r : rows_) {
            print_row(r, width);
        }
        std::fflush(stdout);
    }

  private:
    static std::string cell(const char* s) { return s; }
    static std::string cell(const std::string& s) { return s; }
    static std::string cell(double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.2f", v);
        return buf;
    }
    template <typename T>
    static std::string cell(T v) {
        return std::to_string(v);
    }

    static void print_row(const std::vector<std::string>& cells,
                          const std::vector<std::size_t>& width) {
        std::string line;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            std::string s = cells[c];
            s.resize(width[c], ' ');
            line += s;
            line += c + 1 < cells.size() ? " | " : "";
        }
        std::printf("%s\n", line.c_str());
    }

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace blobseer::bench
