#include "common/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace blobseer {
namespace {

/// Escape a label value for the text exposition format (backslash,
/// double-quote and newline must be escaped inside label values).
std::string escape_label(const std::string& v) {
    std::string out;
    out.reserve(v.size());
    for (const char c : v) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '"': out += "\\\""; break;
            case '\n': out += "\\n"; break;
            default: out += c;
        }
    }
    return out;
}

std::string render_labels(const MetricLabels& labels) {
    if (labels.empty()) {
        return "";
    }
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += k;
        out += "=\"";
        out += escape_label(v);
        out += '"';
    }
    out += '}';
    return out;
}

/// Labels plus one extra pair — for histogram `le` and gauge `_peak`
/// style companions that extend the base label set.
std::string render_labels_plus(const MetricLabels& labels,
                               const std::string& key,
                               const std::string& value) {
    MetricLabels extended = labels;
    extended.emplace_back(key, value);
    return render_labels(extended);
}

void append_series(std::string& out, const std::string& name,
                   const std::string& labels, std::uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    out += name;
    out += labels;
    out += ' ';
    out += buf;
    out += '\n';
}

}  // namespace

std::uint64_t sum_series(const MetricsSnapshot& snap,
                         const std::string& name,
                         const std::pair<std::string, std::string>& label,
                         std::uint64_t MetricSample::*field) {
    std::uint64_t total = 0;
    for (const MetricSample& s : snap.samples) {
        if (s.name == name &&
            (label.first.empty() ||
             std::find(s.labels.begin(), s.labels.end(), label) !=
                 s.labels.end())) {
            total += s.*field;
        }
    }
    return total;
}

std::string render_prometheus(const MetricsSnapshot& snap) {
    std::string out;
    out.reserve(snap.samples.size() * 64);
    for (const MetricSample& s : snap.samples) {
        const std::string labels = render_labels(s.labels);
        switch (s.kind) {
            case MetricKind::kCounter:
            case MetricKind::kCallback:
                append_series(out, s.name, labels, s.value);
                break;
            case MetricKind::kGauge:
                append_series(out, s.name, labels, s.value);
                append_series(out, s.name + "_peak", labels, s.high_water);
                break;
            case MetricKind::kMeter:
                append_series(out, s.name + "_total", labels, s.value);
                append_series(out, s.name + "_recent", labels, s.sum);
                break;
            case MetricKind::kHistogram: {
                // Buckets arrive as per-bucket counts with inclusive
                // upper bounds; Prometheus wants cumulative `le` series
                // capped by `+Inf`.
                std::uint64_t cumulative = 0;
                for (const auto& [upper, count] : s.buckets) {
                    cumulative += count;
                    char le[32];
                    std::snprintf(le, sizeof(le), "%llu",
                                  static_cast<unsigned long long>(upper));
                    append_series(out, s.name + "_bucket",
                                  render_labels_plus(s.labels, "le", le),
                                  cumulative);
                }
                append_series(out, s.name + "_bucket",
                              render_labels_plus(s.labels, "le", "+Inf"),
                              s.count);
                append_series(out, s.name + "_sum", labels, s.sum);
                append_series(out, s.name + "_count", labels, s.count);
                break;
            }
        }
    }
    return out;
}

MetricsRegistry& MetricsRegistry::instance() {
    static MetricsRegistry registry;
    return registry;
}

std::string MetricsRegistry::key_of(const std::string& name,
                                    const MetricLabels& labels) {
    std::string key = name;
    for (const auto& [k, v] : labels) {
        key += '\x1f';  // unit separator — can't appear in rendered names
        key += k;
        key += '\x1e';
        key += v;
    }
    return key;
}

std::uint64_t MetricsRegistry::insert_locked(Entry e) {
    e.id = next_id_++;
    std::string key = key_of(e.name, e.labels);
    if (entries_.count(key) != 0) {
        // Same name+labels already live (e.g. two single-node clusters in
        // one test binary): disambiguate with an instance label instead
        // of failing the caller.
        e.labels.emplace_back("inst", std::to_string(e.id));
        key = key_of(e.name, e.labels);
    }
    const std::uint64_t id = e.id;
    entries_.emplace(std::move(key), std::move(e));
    return id;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  MetricLabels labels) {
    const std::scoped_lock lock(mu_);
    const std::string key = key_of(name, labels);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.owned_counter) {
        return *it->second.owned_counter;
    }
    Entry e;
    e.name = name;
    e.labels = std::move(labels);
    e.kind = MetricKind::kCounter;
    e.owned_counter = std::make_unique<Counter>();
    e.counter = e.owned_counter.get();
    Counter& ref = *e.owned_counter;
    insert_locked(std::move(e));
    return ref;
}

Gauge& MetricsRegistry::gauge(const std::string& name, MetricLabels labels) {
    const std::scoped_lock lock(mu_);
    const std::string key = key_of(name, labels);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.owned_gauge) {
        return *it->second.owned_gauge;
    }
    Entry e;
    e.name = name;
    e.labels = std::move(labels);
    e.kind = MetricKind::kGauge;
    e.owned_gauge = std::make_unique<Gauge>();
    e.gauge = e.owned_gauge.get();
    Gauge& ref = *e.owned_gauge;
    insert_locked(std::move(e));
    return ref;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      MetricLabels labels) {
    const std::scoped_lock lock(mu_);
    const std::string key = key_of(name, labels);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.owned_histogram) {
        return *it->second.owned_histogram;
    }
    Entry e;
    e.name = name;
    e.labels = std::move(labels);
    e.kind = MetricKind::kHistogram;
    e.owned_histogram = std::make_unique<Histogram>();
    e.histogram = e.owned_histogram.get();
    Histogram& ref = *e.owned_histogram;
    insert_locked(std::move(e));
    return ref;
}

std::uint64_t MetricsRegistry::bind(const std::string& name,
                                    MetricLabels labels, const Counter* c) {
    const std::scoped_lock lock(mu_);
    Entry e;
    e.name = name;
    e.labels = std::move(labels);
    e.kind = MetricKind::kCounter;
    e.counter = c;
    return insert_locked(std::move(e));
}

std::uint64_t MetricsRegistry::bind(const std::string& name,
                                    MetricLabels labels, const Gauge* g) {
    const std::scoped_lock lock(mu_);
    Entry e;
    e.name = name;
    e.labels = std::move(labels);
    e.kind = MetricKind::kGauge;
    e.gauge = g;
    return insert_locked(std::move(e));
}

std::uint64_t MetricsRegistry::bind(const std::string& name,
                                    MetricLabels labels, const Histogram* h) {
    const std::scoped_lock lock(mu_);
    Entry e;
    e.name = name;
    e.labels = std::move(labels);
    e.kind = MetricKind::kHistogram;
    e.histogram = h;
    return insert_locked(std::move(e));
}

std::uint64_t MetricsRegistry::bind(const std::string& name,
                                    MetricLabels labels, const Meter* m) {
    const std::scoped_lock lock(mu_);
    Entry e;
    e.name = name;
    e.labels = std::move(labels);
    e.kind = MetricKind::kMeter;
    e.meter = m;
    return insert_locked(std::move(e));
}

std::uint64_t MetricsRegistry::bind_callback(
    const std::string& name, MetricLabels labels,
    std::function<std::uint64_t()> fn) {
    const std::scoped_lock lock(mu_);
    Entry e;
    e.name = name;
    e.labels = std::move(labels);
    e.kind = MetricKind::kCallback;
    e.callback = std::move(fn);
    return insert_locked(std::move(e));
}

std::uint64_t MetricsRegistry::bind_collector(
    const std::string& name,
    std::function<std::vector<MetricSample>()> fn) {
    const std::scoped_lock lock(mu_);
    Entry e;
    e.name = name;
    e.collector = std::move(fn);
    return insert_locked(std::move(e));
}

void MetricsRegistry::unbind(std::uint64_t id) {
    const std::scoped_lock lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.id == id) {
            entries_.erase(it);
            return;
        }
    }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    const std::scoped_lock lock(mu_);
    MetricsSnapshot snap;
    snap.samples.reserve(entries_.size());
    for (const auto& [key, e] : entries_) {
        if (e.collector) {
            for (MetricSample& s : e.collector()) {
                s.labels.insert(s.labels.end(), e.labels.begin(),
                                e.labels.end());
                snap.samples.push_back(std::move(s));
            }
            continue;
        }
        MetricSample s;
        s.name = e.name;
        s.labels = e.labels;
        s.kind = e.kind;
        switch (e.kind) {
            case MetricKind::kCounter:
                s.value = e.counter->get();
                break;
            case MetricKind::kGauge:
                s.value = e.gauge->get();
                s.high_water = e.gauge->high_water();
                break;
            case MetricKind::kHistogram: {
                const Histogram::Snapshot h = e.histogram->snapshot();
                s.count = h.count;
                s.sum = h.sum;
                s.min = h.min;
                s.max = h.max;
                for (std::size_t i = 0; i < h.buckets.size(); ++i) {
                    if (h.buckets[i] != 0) {
                        s.buckets.emplace_back(Histogram::upper_bound(i),
                                               h.buckets[i]);
                    }
                }
                break;
            }
            case MetricKind::kMeter:
                s.value = e.meter->total_bytes();
                s.sum = e.meter->recent_bytes(10);
                break;
            case MetricKind::kCallback:
                s.value = e.callback();
                break;
        }
        snap.samples.push_back(std::move(s));
    }
    return snap;
}

std::size_t MetricsRegistry::size() const {
    const std::scoped_lock lock(mu_);
    return entries_.size();
}

}  // namespace blobseer
