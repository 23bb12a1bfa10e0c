/// \file metrics.hpp
/// \brief Process-wide metrics registry (DESIGN.md §13).
///
/// Every observable quantity in a deployment — client counters, per-service
/// RPC stats, version-manager gauges, repair/dedup/CAS counters, engine
/// compaction totals, thread-pool backlogs — registers here under a stable
/// name plus a label set, and one snapshot() walks them all. The registry
/// is the one status surface: the kMetricsDump RPC, the Prometheus
/// /metrics scrape (answered on every daemon's RPC port) and
/// `blobseer_cli metrics` serve it, and `blobseer_cli vm-status`,
/// `repair-status` and `dedup-stats` render their lines from it.
///
/// Two registration styles:
///
///  * owned:   `registry.counter("rpc_server_requests_total", labels)`
///             get-or-creates a registry-owned metric with a stable
///             address for the process lifetime (hot paths cache the
///             reference; there is no per-increment registry cost).
///  * bound:   services whose stats are struct members (ServiceStats,
///             ClientStats, ...) bind non-owning pointers through a
///             MetricsGroup, whose destructor unbinds them — the group is
///             declared AFTER the metrics it binds so deregistration
///             happens first.
///
/// Callback metrics cover quantities that already live behind a service's
/// own lock (repair backlog, chunks stored, pool queue depth): the
/// registry samples the std::function at snapshot time. Callbacks must be
/// cheap and must not call back into the registry. A collector is the
/// same idea for a family whose members come and go (one row of series
/// per provider): one callback returns every sample at snapshot time,
/// so members never register or unregister themselves.
///
/// Name collisions (two live DataProviders with the same node id in two
/// test clusters) are made unique with an automatic "inst" label instead
/// of being rejected — a test fixture must never fail because an earlier
/// fixture leaked a name.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace blobseer {

/// Ordered label set attached to one metric (rendered in given order).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t {
    kCounter = 0,
    kGauge = 1,
    kHistogram = 2,
    kMeter = 3,
    kCallback = 4,  ///< gauge-valued, sampled from a function
};

/// One metric's value at snapshot time. Field usage by kind:
///  counter/callback: value; gauge: value + high_water;
///  meter: value = all-time bytes, sum = bytes in the last 10 windows;
///  histogram: count/sum/min/max + per-bucket (upper_bound, count) pairs
///  for the non-empty buckets.
struct MetricSample {
    std::string name;
    MetricLabels labels;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t value = 0;
    std::uint64_t high_water = 0;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

    bool operator==(const MetricSample&) const = default;
};

struct MetricsSnapshot {
    std::vector<MetricSample> samples;

    bool operator==(const MetricsSnapshot&) const = default;
};

/// Sum of \p field over every series in \p snap named \p name whose
/// labels include \p label — e.g. one provider's counter, selected by
/// its ("node", id) label. An empty label matches every series; \p field
/// defaults to the value (a gauge's peak is &MetricSample::high_water).
[[nodiscard]] std::uint64_t sum_series(
    const MetricsSnapshot& snap, const std::string& name,
    const std::pair<std::string, std::string>& label = {},
    std::uint64_t MetricSample::*field = &MetricSample::value);

/// Render a snapshot in the Prometheus text exposition format (0.0.4):
/// counters as `name_total`-style plain series, gauges with a `_peak`
/// companion, histograms as cumulative `_bucket{le=...}` + `_sum` +
/// `_count`.
[[nodiscard]] std::string render_prometheus(const MetricsSnapshot& snap);

class MetricsRegistry {
  public:
    /// The process-wide registry every service binds to.
    static MetricsRegistry& instance();

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    // ---- owned metrics (get-or-create; addresses stable forever) ---------

    [[nodiscard]] Counter& counter(const std::string& name,
                                   MetricLabels labels = {});
    [[nodiscard]] Gauge& gauge(const std::string& name,
                               MetricLabels labels = {});
    [[nodiscard]] Histogram& histogram(const std::string& name,
                                       MetricLabels labels = {});

    // ---- bound metrics (non-owning; unbind before the metric dies) ------

    std::uint64_t bind(const std::string& name, MetricLabels labels,
                       const Counter* c);
    std::uint64_t bind(const std::string& name, MetricLabels labels,
                       const Gauge* g);
    std::uint64_t bind(const std::string& name, MetricLabels labels,
                       const Histogram* h);
    std::uint64_t bind(const std::string& name, MetricLabels labels,
                       const Meter* m);
    std::uint64_t bind_callback(const std::string& name, MetricLabels labels,
                                std::function<std::uint64_t()> fn);
    /// Bind a collector: \p fn returns whole samples at snapshot time.
    /// \p name only keys the registration; the samples carry their own
    /// names and labels (plus an "inst" label if \p name collides).
    std::uint64_t bind_collector(
        const std::string& name,
        std::function<std::vector<MetricSample>()> fn);

    void unbind(std::uint64_t id);

    /// Sample every registered metric. Callback metrics and collectors
    /// run their functions here, under the registry lock — keep them
    /// cheap.
    [[nodiscard]] MetricsSnapshot snapshot() const;

    /// Registered series count (tests).
    [[nodiscard]] std::size_t size() const;

  private:
    struct Entry {
        std::uint64_t id = 0;
        std::string name;
        MetricLabels labels;
        MetricKind kind = MetricKind::kCounter;
        // Exactly one source is set, matching kind.
        const Counter* counter = nullptr;
        const Gauge* gauge = nullptr;
        const Histogram* histogram = nullptr;
        const Meter* meter = nullptr;
        std::function<std::uint64_t()> callback;
        std::function<std::vector<MetricSample>()> collector;
        // Owned metrics keep their storage here (bound ones leave it
        // empty); unique_ptr keeps the address stable across rehashes.
        std::unique_ptr<Counter> owned_counter;
        std::unique_ptr<Gauge> owned_gauge;
        std::unique_ptr<Histogram> owned_histogram;
    };

    /// Map key: name plus rendered labels (one series per combination).
    [[nodiscard]] static std::string key_of(const std::string& name,
                                            const MetricLabels& labels);

    /// Insert \p e under its key, adding an "inst" label on collision.
    /// Returns the entry's id. Callers hold mu_.
    std::uint64_t insert_locked(Entry e);

    mutable std::mutex mu_;  // guards entries_ and next_id_
    std::map<std::string, Entry> entries_;
    std::uint64_t next_id_ = 1;
};

/// RAII batch of bound registrations: owners bind their member metrics
/// through a group declared AFTER those members, so everything unbinds
/// before the metrics destruct. Move-only.
class MetricsGroup {
  public:
    MetricsGroup() : registry_(&MetricsRegistry::instance()) {}
    explicit MetricsGroup(MetricsRegistry& registry)
        : registry_(&registry) {}

    MetricsGroup(MetricsGroup&& other) noexcept
        : registry_(other.registry_), ids_(std::move(other.ids_)) {
        other.ids_.clear();
    }
    MetricsGroup& operator=(MetricsGroup&&) = delete;
    MetricsGroup(const MetricsGroup&) = delete;
    MetricsGroup& operator=(const MetricsGroup&) = delete;

    ~MetricsGroup() { release(); }

    void counter(const std::string& name, MetricLabels labels,
                 const Counter& c) {
        ids_.push_back(registry_->bind(name, std::move(labels), &c));
    }
    void gauge(const std::string& name, MetricLabels labels,
               const Gauge& g) {
        ids_.push_back(registry_->bind(name, std::move(labels), &g));
    }
    void histogram(const std::string& name, MetricLabels labels,
                   const Histogram& h) {
        ids_.push_back(registry_->bind(name, std::move(labels), &h));
    }
    void meter(const std::string& name, MetricLabels labels,
               const Meter& m) {
        ids_.push_back(registry_->bind(name, std::move(labels), &m));
    }
    void callback(const std::string& name, MetricLabels labels,
                  std::function<std::uint64_t()> fn) {
        ids_.push_back(
            registry_->bind_callback(name, std::move(labels), std::move(fn)));
    }

    void collector(const std::string& name,
                   std::function<std::vector<MetricSample>()> fn) {
        ids_.push_back(registry_->bind_collector(name, std::move(fn)));
    }

    /// Unbind everything now (also called by the destructor).
    void release() noexcept {
        for (const std::uint64_t id : ids_) {
            registry_->unbind(id);
        }
        ids_.clear();
    }

  private:
    MetricsRegistry* registry_;
    std::vector<std::uint64_t> ids_;
};

/// Bind the four ServiceStats counters plus the latency histogram under
/// the canonical rpc_service_* names.
inline void bind_service_stats(MetricsGroup& group, const ServiceStats& s,
                               MetricLabels labels) {
    group.counter("rpc_service_ops_total", labels, s.ops);
    group.counter("rpc_service_bytes_in_total", labels, s.bytes_in);
    group.counter("rpc_service_bytes_out_total", labels, s.bytes_out);
    group.counter("rpc_service_errors_total", labels, s.errors);
    group.histogram("rpc_service_latency_us", std::move(labels),
                    s.latency_us);
}

}  // namespace blobseer
