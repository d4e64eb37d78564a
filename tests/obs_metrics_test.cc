// Unit + concurrency tests for the observability metrics layer: the
// log-bucketed lock-striped histogram (bucket math, percentile
// interpolation, concurrent record/snapshot, interval deltas), and the
// MetricsRegistry (get-or-create identity, callback metrics, owner-scoped
// unregistration).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace chrono::obs {
namespace {

// ---- Bucket math --------------------------------------------------------

TEST(HistogramBuckets, SmallValuesAreExact) {
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketUpperBound(static_cast<int>(v)), v);
  }
}

TEST(HistogramBuckets, IndexAndBoundAreConsistent) {
  // Every bucket's upper bound maps back into that bucket, and the next
  // value spills into the following bucket.
  for (int i = 0; i < Histogram::kBucketCount - 1; ++i) {
    uint64_t ub = Histogram::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketIndex(ub), i) << "upper bound of bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(ub + 1), i + 1)
        << "value just past bucket " << i;
  }
}

TEST(HistogramBuckets, MonotoneOverWideRange) {
  int prev = -1;
  for (uint64_t v = 0; v < 1'000'000; v = v < 64 ? v + 1 : v + v / 7) {
    int idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev);
    EXPECT_LE(v, Histogram::BucketUpperBound(idx));
    prev = idx;
  }
}

TEST(HistogramBuckets, RelativeErrorBounded) {
  // Above the exact range, each octave splits into 8 linear sub-buckets,
  // so bucket width / lower edge <= 1/8 + rounding.
  for (uint64_t v = 16; v < (1ull << 40); v += v / 3) {
    int idx = Histogram::BucketIndex(v);
    uint64_t ub = Histogram::BucketUpperBound(idx);
    uint64_t lb = idx == 0 ? 0 : Histogram::BucketUpperBound(idx - 1) + 1;
    ASSERT_GE(v, lb);
    ASSERT_LE(v, ub);
    double width = static_cast<double>(ub - lb + 1);
    EXPECT_LE(width / static_cast<double>(lb), 0.13)
        << "v=" << v << " bucket [" << lb << "," << ub << "]";
  }
}

// ---- Record / Snapshot --------------------------------------------------

TEST(Histogram, CountsAndSumAreExact) {
  Histogram h;
  h.Record(1);
  h.Record(3);
  h.Record(17);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 21.0);
  ASSERT_FALSE(s.buckets.empty());
  // Cumulative buckets end with +Inf carrying the total count.
  EXPECT_TRUE(std::isinf(s.buckets.back().upper_bound));
  EXPECT_EQ(s.buckets.back().cumulative, 3u);
}

TEST(Histogram, EmptySnapshotIsValid) {
  Histogram h;
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  ASSERT_EQ(s.buckets.size(), 1u);  // just the +Inf terminal
  EXPECT_EQ(s.buckets.back().cumulative, 0u);
  EXPECT_EQ(s.Percentile(0.5), 0.0);
}

TEST(Histogram, PercentilesInterpolateWithinBucketError) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  // True p50 = 500, p99 = 990; the bucket scheme bounds relative error by
  // 12.5%, interpolation keeps it well inside that.
  EXPECT_NEAR(s.Percentile(0.50), 500.0, 500.0 * 0.13);
  EXPECT_NEAR(s.Percentile(0.99), 990.0, 990.0 * 0.13);
  EXPECT_NEAR(s.Mean(), 500.5, 0.01);
}

TEST(Histogram, SparseHistogramAnchorsAtTrueLowerEdge) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(4);  // bucket 4 is unit-width
  HistogramSnapshot s = h.Snapshot();
  // The snapshot anchors the bucket's true lower edge (le="3", cum 0), so
  // interpolation stays inside (3, 4] instead of smearing down to 0.
  double p50 = s.Percentile(0.5);
  EXPECT_GT(p50, 3.0);
  EXPECT_LE(p50, 4.0);
  ASSERT_GE(s.buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(s.buckets[0].upper_bound, 3.0);
  EXPECT_EQ(s.buckets[0].cumulative, 0u);
}

// The TSan target of this file: many writers recording while readers
// snapshot concurrently must be race-free, and no update may be lost once
// the writers are joined.
TEST(Histogram, ConcurrentRecordAndSnapshotStorm) {
  Histogram h(/*stripes=*/4);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 50'000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        HistogramSnapshot s = h.Snapshot();
        // Mid-storm snapshots must be internally consistent.
        ASSERT_TRUE(std::isinf(s.buckets.back().upper_bound));
        ASSERT_EQ(s.buckets.back().cumulative, s.count);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        h.Record(static_cast<uint64_t>((w * kPerWriter + i) % 100'000));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(h.Snapshot().count,
            static_cast<uint64_t>(kWriters) * kPerWriter);
}

// ---- Interval deltas (the brownout step diffs two snapshots) -----------

HistogramSnapshot Hist(std::vector<HistogramSnapshot::Bucket> buckets,
                       double sum) {
  HistogramSnapshot h;
  h.buckets = std::move(buckets);
  h.count = h.buckets.empty() ? 0 : h.buckets.back().cumulative;
  h.sum = sum;
  return h;
}

TEST(HistogramMath, DeltaSubtractsAndClampsRacingBuckets) {
  HistogramSnapshot prev = Hist({{2, 3}, {8, 5}}, 40);
  HistogramSnapshot cur = Hist({{2, 4}, {8, 9}}, 100);
  HistogramSnapshot delta = DeltaHistogram(cur, prev);
  ASSERT_EQ(delta.buckets.size(), 2u);
  EXPECT_EQ(delta.buckets[0].cumulative, 1u);
  EXPECT_EQ(delta.buckets[1].cumulative, 4u);
  EXPECT_EQ(delta.count, 4u);
  EXPECT_DOUBLE_EQ(delta.sum, 60);

  // A bucket that reads *behind* prev (writer raced the two snapshots)
  // clamps to zero, and monotonicity is re-imposed on what follows.
  HistogramSnapshot racing = Hist({{2, 2}, {8, 9}}, 30);
  HistogramSnapshot clamped = DeltaHistogram(racing, prev);
  EXPECT_EQ(clamped.buckets[0].cumulative, 0u);
  EXPECT_EQ(clamped.buckets[1].cumulative, 4u);
  EXPECT_DOUBLE_EQ(clamped.sum, 0);  // sum went backwards: clamp
}

// ---- MetricsRegistry ----------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsStableIdentity) {
  MetricsRegistry r;
  Counter* a = r.GetCounter("x_total", "help", {{"k", "1"}});
  Counter* b = r.GetCounter("x_total", "ignored on re-get", {{"k", "1"}});
  Counter* c = r.GetCounter("x_total", "help", {{"k", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Increment(2);
  b->Increment();
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(r.metric_count(), 2u);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitMetrics) {
  MetricsRegistry r;
  Counter* a = r.GetCounter("y_total", "h", {{"a", "1"}, {"b", "2"}});
  Counter* b = r.GetCounter("y_total", "h", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistry, SnapshotIsSortedAndFindable) {
  MetricsRegistry r;
  r.GetGauge("b_gauge", "g")->Set(2.5);
  r.GetCounter("a_total", "c", {{"op", "w"}})->Increment(4);
  r.GetCounter("a_total", "c", {{"op", "r"}})->Increment(7);
  RegistrySnapshot s = r.Snapshot();
  ASSERT_EQ(s.metrics.size(), 3u);
  EXPECT_EQ(s.metrics[0].name, "a_total");
  EXPECT_EQ(s.metrics[0].labels, (Labels{{"op", "r"}}));
  EXPECT_EQ(s.metrics[1].labels, (Labels{{"op", "w"}}));
  EXPECT_EQ(s.metrics[2].name, "b_gauge");

  const MetricSnapshot* found = s.Find("a_total", {{"op", "w"}});
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->value, 4.0);
  EXPECT_EQ(s.Find("missing"), nullptr);
}

TEST(MetricsRegistry, CallbackMetricsPullAtSnapshot) {
  MetricsRegistry r;
  uint64_t source = 5;
  r.RegisterCallbackCounter("pulled_total", "h", {},
                            [&source] { return static_cast<double>(source); },
                            &source);
  EXPECT_DOUBLE_EQ(r.Snapshot().Find("pulled_total")->value, 5.0);
  source = 9;
  EXPECT_DOUBLE_EQ(r.Snapshot().Find("pulled_total")->value, 9.0);

  // After the owner unregisters, the callback must never run again (the
  // metric stays, frozen at the stored value — zero for pure callbacks).
  r.UnregisterCallbacksOwnedBy(&source);
  source = 1234;
  EXPECT_DOUBLE_EQ(r.Snapshot().Find("pulled_total")->value, 0.0);
}

TEST(MetricsRegistry, ConcurrentGetAndIncrement) {
  MetricsRegistry r;
  constexpr int kThreads = 4;
  constexpr int kIters = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      for (int i = 0; i < kIters; ++i) {
        r.GetCounter("storm_total", "h", {{"lane", std::to_string(i % 3)}})
            ->Increment();
      }
    });
  }
  for (auto& t : threads) t.join();
  RegistrySnapshot s = r.Snapshot();
  double total = 0;
  for (const MetricSnapshot& m : s.metrics) total += m.value;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(r.metric_count(), 3u);
}

}  // namespace
}  // namespace chrono::obs
