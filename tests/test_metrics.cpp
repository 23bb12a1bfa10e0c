/// \file test_metrics.cpp
/// \brief Histogram bucket math, the Meter ring bound, and the metrics
/// registry (ownership, binding, collectors, collisions, concurrency,
/// rendering).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/stats.hpp"

namespace blobseer {
namespace {

// ---- Histogram bucket math ---------------------------------------------------

TEST(HistogramBuckets, SmallValuesAreExact) {
    EXPECT_EQ(Histogram::bucket_of(0), 0u);
    EXPECT_EQ(Histogram::bucket_of(1), 1u);
    EXPECT_EQ(Histogram::upper_bound(0), 0u);
    EXPECT_EQ(Histogram::upper_bound(1), 1u);
}

TEST(HistogramBuckets, PowersOfTwoStartTheirBucketGroup) {
    // 4 sub-buckets per power of two: 2^k (k >= 2) lands on sub-bucket 0
    // of its group, index 2 + (k - 1) * 4.
    for (int k = 2; k <= 31; ++k) {
        EXPECT_EQ(Histogram::bucket_of(1ULL << k),
                  2u + static_cast<std::size_t>(k - 1) * 4)
            << "k=" << k;
    }
}

TEST(HistogramBuckets, TopBucketSaturates) {
    constexpr std::size_t top = Histogram::kBuckets - 1;
    EXPECT_EQ(Histogram::bucket_of(~0ULL), top);
    EXPECT_EQ(Histogram::bucket_of(1ULL << 40), top);
    EXPECT_EQ(Histogram::bucket_of(1ULL << 33), top);
}

TEST(HistogramBuckets, UpperBoundRoundTripsThroughBucketOf) {
    // Buckets 2..5 are a seam of the indexing scheme no value ever lands
    // in (values 2..7 map to 4..9); everywhere else upper_bound(i) must
    // itself fall in bucket i.
    EXPECT_EQ(Histogram::bucket_of(Histogram::upper_bound(0)), 0u);
    EXPECT_EQ(Histogram::bucket_of(Histogram::upper_bound(1)), 1u);
    for (std::size_t i = 6; i < Histogram::kBuckets; ++i) {
        EXPECT_EQ(Histogram::bucket_of(Histogram::upper_bound(i)), i)
            << "bucket " << i;
    }
}

TEST(HistogramBuckets, UpperBoundStrictlyIncreasesOverReachableBuckets) {
    for (std::size_t i = 7; i < Histogram::kBuckets; ++i) {
        EXPECT_LT(Histogram::upper_bound(i - 1), Histogram::upper_bound(i))
            << "bucket " << i;
    }
}

TEST(HistogramBuckets, EveryValueIsAtMostItsBucketUpperBound) {
    for (std::uint64_t v : {0ULL, 1ULL, 2ULL, 3ULL, 7ULL, 9ULL, 100ULL,
                            4095ULL, 4096ULL, 4097ULL, 999'999ULL,
                            (1ULL << 32) - 1, 1ULL << 32}) {
        EXPECT_LE(v, Histogram::upper_bound(Histogram::bucket_of(v)))
            << "v=" << v;
    }
}

TEST(HistogramBuckets, BucketOfIsMonotone) {
    std::size_t prev = 0;
    for (std::uint64_t v = 0; v < 20'000; ++v) {
        const std::size_t b = Histogram::bucket_of(v);
        EXPECT_GE(b, prev) << "v=" << v;
        prev = b;
    }
}

TEST(HistogramQuantile, EmptyIsZero) {
    const Histogram h;
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(HistogramQuantile, SingleSampleEveryQuantileIsItsBucket) {
    Histogram h;
    h.record(100);
    const std::uint64_t ub =
        Histogram::upper_bound(Histogram::bucket_of(100));
    EXPECT_EQ(h.quantile(0.0), ub);
    EXPECT_EQ(h.quantile(0.5), ub);
    EXPECT_EQ(h.quantile(1.0), ub);
}

TEST(HistogramQuantile, SpreadSamplesSeparateTails) {
    Histogram h;
    for (int i = 0; i < 99; ++i) {
        h.record(10);
    }
    h.record(1'000'000);
    const std::uint64_t low =
        Histogram::upper_bound(Histogram::bucket_of(10));
    const std::uint64_t high =
        Histogram::upper_bound(Histogram::bucket_of(1'000'000));
    EXPECT_EQ(h.quantile(0.5), low);
    EXPECT_EQ(h.quantile(1.0), high);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 1'000'000u);
}

// ---- Meter ring bound --------------------------------------------------------

TEST(Meter, RingNeverGrowsPastCapacity) {
    // Regression: the original deque-backed meter kept one slot per
    // elapsed window forever. With a 1 ms window and a 4-slot ring,
    // recording across >> 4 windows must age slots out, not grow.
    Meter m(milliseconds(1), 4);
    ASSERT_EQ(m.capacity(), 4u);
    for (int i = 0; i < 8; ++i) {
        m.record(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    EXPECT_LE(m.series().size(), m.capacity());
    EXPECT_GT(m.dropped_windows(), 0u);
    // Bytes that aged out of the ring stay visible in the total.
    EXPECT_EQ(m.total_bytes(), 8u);
}

TEST(Meter, CapacityFloorIsTwo) {
    const Meter m(milliseconds(1), 0);
    EXPECT_EQ(m.capacity(), 2u);
}

TEST(Meter, LongIdleGapZeroesTheRing) {
    Meter m(milliseconds(1), 4);
    m.record(7);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    m.record(5);  // gap >> capacity windows: every old slot must clear
    std::uint64_t ring_sum = 0;
    for (const std::uint64_t w : m.series()) {
        ring_sum += w;
    }
    EXPECT_EQ(ring_sum, 5u);
    EXPECT_EQ(m.total_bytes(), 12u);
}

// ---- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, OwnedMetricsAreGetOrCreate) {
    MetricsRegistry reg;
    Counter& a = reg.counter("ops_total", {{"node", "1"}});
    Counter& b = reg.counter("ops_total", {{"node", "1"}});
    Counter& c = reg.counter("ops_total", {{"node", "2"}});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    a.add(3);
    EXPECT_EQ(b.get(), 3u);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, SnapshotCarriesEveryKind) {
    MetricsRegistry reg;
    reg.counter("c_total").add(5);
    Gauge& g = reg.gauge("g");
    g.add(4);
    g.sub(1);
    reg.histogram("h_us").record(100);
    Meter m;
    MetricsGroup group(reg);
    group.meter("m_bytes", {}, m);
    group.callback("cb", {}, [] { return 42ULL; });
    m.record(10);

    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 5u);
    bool saw_counter = false, saw_gauge = false, saw_hist = false,
         saw_meter = false, saw_cb = false;
    for (const MetricSample& s : snap.samples) {
        if (s.name == "c_total") {
            saw_counter = true;
            EXPECT_EQ(s.kind, MetricKind::kCounter);
            EXPECT_EQ(s.value, 5u);
        } else if (s.name == "g") {
            saw_gauge = true;
            EXPECT_EQ(s.value, 3u);
            EXPECT_EQ(s.high_water, 4u);
        } else if (s.name == "h_us") {
            saw_hist = true;
            EXPECT_EQ(s.count, 1u);
            EXPECT_EQ(s.sum, 100u);
            ASSERT_FALSE(s.buckets.empty());
        } else if (s.name == "m_bytes") {
            saw_meter = true;
            EXPECT_EQ(s.value, 10u);
        } else if (s.name == "cb") {
            saw_cb = true;
            EXPECT_EQ(s.value, 42u);
        }
    }
    EXPECT_TRUE(saw_counter && saw_gauge && saw_hist && saw_meter && saw_cb);
}

TEST(MetricsRegistry, GroupDestructionUnbinds) {
    MetricsRegistry reg;
    Counter external;
    {
        MetricsGroup group(reg);
        group.counter("bound_total", {}, external);
        EXPECT_EQ(reg.size(), 1u);
    }
    EXPECT_EQ(reg.size(), 0u);
    // The external counter must be safe to touch after unbinding.
    external.add(1);
    EXPECT_TRUE(reg.snapshot().samples.empty());
}

TEST(MetricsRegistry, DuplicateKeyGetsInstanceLabel) {
    MetricsRegistry reg;
    Counter a, b;
    MetricsGroup group(reg);
    group.counter("dup_total", {{"node", "1"}}, a);
    group.counter("dup_total", {{"node", "1"}}, b);
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 2u);
    int inst_labels = 0;
    for (const MetricSample& s : snap.samples) {
        EXPECT_EQ(s.name, "dup_total");
        for (const auto& [k, v] : s.labels) {
            if (k == "inst") {
                ++inst_labels;
            }
        }
    }
    EXPECT_EQ(inst_labels, 1);
}

TEST(MetricsRegistry, CollectorSamplesJoinSnapshotUntilUnbound) {
    // One collector emits a row per member at snapshot time; members
    // come and go without registering anything themselves.
    MetricsRegistry reg;
    std::vector<std::string> members{"7", "9"};
    const auto rows = [&members] {
        std::vector<MetricSample> out;
        for (const std::string& node : members) {
            MetricSample s;
            s.name = "member_up";
            s.labels = {{"node", node}};
            s.kind = MetricKind::kCallback;
            s.value = 1;
            out.push_back(std::move(s));
        }
        return out;
    };
    {
        MetricsGroup group(reg);
        group.collector("members", rows);
        reg.counter("other_total").add(3);
        EXPECT_EQ(reg.size(), 2u);

        MetricsSnapshot snap = reg.snapshot();
        ASSERT_EQ(snap.samples.size(), 3u);
        EXPECT_EQ(sum_series(snap, "member_up"), 2u);
        EXPECT_EQ(sum_series(snap, "member_up", {"node", "9"}), 1u);
        EXPECT_EQ(sum_series(snap, "other_total"), 3u);
        const std::string text = render_prometheus(snap);
        EXPECT_NE(text.find("member_up{node=\"7\"} 1\n"), std::string::npos)
            << text;
        EXPECT_NE(text.find("member_up{node=\"9\"} 1\n"), std::string::npos);

        members.emplace_back("11");  // a member joins: no registration
        snap = reg.snapshot();
        EXPECT_EQ(sum_series(snap, "member_up"), 3u);
        EXPECT_EQ(reg.size(), 2u);

        // A second collector under the same name keeps its rows apart
        // with the instance label, like any colliding series.
        MetricsGroup twin(reg);
        twin.collector("members", rows);
        snap = reg.snapshot();
        EXPECT_EQ(sum_series(snap, "member_up", {"node", "11"}), 2u);
    }
    // Unbinding the collector removes every row it emitted.
    const MetricsSnapshot after = reg.snapshot();
    ASSERT_EQ(after.samples.size(), 1u);
    EXPECT_EQ(after.samples[0].name, "other_total");
    EXPECT_EQ(render_prometheus(after).find("member_up"), std::string::npos);
}

TEST(MetricsRegistry, SumSeriesSelectsByLabelAndField) {
    MetricsRegistry reg;
    reg.gauge("depth", {{"shard", "0"}}).add(4);
    reg.gauge("depth", {{"shard", "0"}}).sub(3);
    reg.gauge("depth", {{"shard", "1"}}).add(2);
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(sum_series(snap, "depth"), 3u);  // empty label: every series
    EXPECT_EQ(sum_series(snap, "depth", {"shard", "0"}), 1u);
    EXPECT_EQ(sum_series(snap, "depth", {"shard", "0"},
                         &MetricSample::high_water),
              4u);
    EXPECT_EQ(sum_series(snap, "depth", {"shard", "2"}), 0u);
    EXPECT_EQ(sum_series(snap, "absent"), 0u);
}

TEST(MetricsRegistry, ConcurrentRegisterBindAndSnapshot) {
    // Satellite coverage for TSan: owned-metric creation, bind/unbind
    // churn and snapshots race against each other on one registry.
    MetricsRegistry reg;
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;

    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&reg, t] {
            for (int i = 0; i < 200; ++i) {
                Counter& c = reg.counter(
                    "worker_total", {{"t", std::to_string(t)},
                                     {"i", std::to_string(i % 8)}});
                c.add(1);
                reg.histogram("worker_us",
                              {{"t", std::to_string(t)}})
                    .record(static_cast<std::uint64_t>(i));
            }
        });
    }
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&reg] {
            for (int i = 0; i < 100; ++i) {
                Counter ephemeral;
                MetricsGroup group(reg);
                group.counter("ephemeral_total",
                              {{"i", std::to_string(i)}}, ephemeral);
                ephemeral.add(1);
                group.callback("ephemeral_cb", {},
                               [] { return 1ULL; });
                group.collector("ephemeral_rows", [] {
                    return std::vector<MetricSample>(2);
                });
            }
        });
    }
    threads.emplace_back([&reg, &stop] {
        while (!stop.load(std::memory_order_relaxed)) {
            const MetricsSnapshot snap = reg.snapshot();
            (void)render_prometheus(snap);
        }
    });

    for (std::size_t i = 0; i + 1 < threads.size(); ++i) {
        threads[i].join();
    }
    stop.store(true, std::memory_order_relaxed);
    threads.back().join();

    // 2 threads x 8 counter keys + 2 histograms survive; every
    // ephemeral binding unbound with its group.
    EXPECT_EQ(reg.size(), 18u);
    std::uint64_t total = 0;
    for (const MetricSample& s : reg.snapshot().samples) {
        if (s.name == "worker_total") {
            total += s.value;
        }
    }
    EXPECT_EQ(total, 400u);
}

// ---- Prometheus rendering ----------------------------------------------------

TEST(RenderPrometheus, CounterGaugeAndEscaping) {
    MetricsRegistry reg;
    reg.counter("ops_total", {{"svc", "a\"b\\c"}}).add(7);
    Gauge& g = reg.gauge("inflight");
    g.add(2);
    const std::string text = render_prometheus(reg.snapshot());
    EXPECT_NE(text.find("ops_total{svc=\"a\\\"b\\\\c\"} 7\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("inflight 2\n"), std::string::npos);
    EXPECT_NE(text.find("inflight_peak 2\n"), std::string::npos);
}

TEST(RenderPrometheus, HistogramIsCumulativeWithInf) {
    MetricsRegistry reg;
    Histogram& h = reg.histogram("lat_us", {{"op", "write"}});
    h.record(1);
    h.record(1);
    h.record(1'000'000);
    const std::string text = render_prometheus(reg.snapshot());
    // Bucket counts must be cumulative: the le="1" series carries 2, the
    // +Inf series the full count, and _sum/_count close the family.
    EXPECT_NE(text.find("lat_us_bucket{op=\"write\",le=\"1\"} 2\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("lat_us_bucket{op=\"write\",le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_us_sum{op=\"write\"} 1000002\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_us_count{op=\"write\"} 3\n"),
              std::string::npos);
}

TEST(RenderPrometheus, MeterRendersTotalAndRecent) {
    MetricsRegistry reg;
    Meter m;
    MetricsGroup group(reg);
    group.meter("xfer_bytes", {}, m);
    m.record(128);
    const std::string text = render_prometheus(reg.snapshot());
    EXPECT_NE(text.find("xfer_bytes_total 128\n"), std::string::npos);
    EXPECT_NE(text.find("xfer_bytes_recent"), std::string::npos);
}

}  // namespace
}  // namespace blobseer
