// Tests for the time-series telemetry ring (DESIGN.md §15): cumulative
// histogram merge/delta arithmetic, interval-sample derivation from a
// metrics registry, ring wraparound, and the /timeseries JSON shape.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace chrono::obs {
namespace {

HistogramSnapshot Hist(std::vector<HistogramSnapshot::Bucket> buckets,
                       double sum) {
  HistogramSnapshot h;
  h.buckets = std::move(buckets);
  h.count = h.buckets.empty() ? 0 : h.buckets.back().cumulative;
  h.sum = sum;
  return h;
}

TEST(HistogramMath, MergeSumsCumulativeCountsAcrossSparseBuckets) {
  // a observed at bounds {2, 8}; b at {4, 8}. The union must carry each
  // side's cumulative forward across bounds it never advanced.
  HistogramSnapshot a = Hist({{2, 3}, {8, 5}}, 20);
  HistogramSnapshot b = Hist({{4, 1}, {8, 4}}, 30);
  HistogramSnapshot merged = MergeHistograms(a, b);
  ASSERT_EQ(merged.buckets.size(), 3u);
  EXPECT_EQ(merged.buckets[0].upper_bound, 2);
  EXPECT_EQ(merged.buckets[0].cumulative, 3u);   // a=3, b=0 (not yet seen)
  EXPECT_EQ(merged.buckets[1].upper_bound, 4);
  EXPECT_EQ(merged.buckets[1].cumulative, 4u);   // a carries 3, b=1
  EXPECT_EQ(merged.buckets[2].upper_bound, 8);
  EXPECT_EQ(merged.buckets[2].cumulative, 9u);
  EXPECT_EQ(merged.count, 9u);
  EXPECT_DOUBLE_EQ(merged.sum, 50);
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

/// A registry + manual clock harness: SampleNow() is driven directly so
/// tests never sleep out real intervals.
class TimeSeriesTest : public ::testing::Test {
 protected:
  TimeSeriesTest() {
    requests_ = registry_.GetCounter("chrono_requests_total", "Requests",
                                     {{"op", "read"}});
    hits_ = registry_.GetCounter("chrono_cache_hits_total", "Hits",
                                 {{"cache", "result"}});
    misses_ = registry_.GetCounter("chrono_cache_misses_total", "Misses",
                                   {{"cache", "result"}});
    latency_ = registry_.GetHistogram("chrono_request_latency_ns", "Latency",
                                      {{"op", "read"}});
  }

  TimeSeriesRing MakeRing(size_t capacity) {
    TimeSeriesRing::Options opts;
    opts.capacity = capacity;
    opts.interval_ms = 1000;
    return TimeSeriesRing(&registry_, opts, [this] { return now_us_; });
  }

  MetricsRegistry registry_;
  Counter* requests_ = nullptr;
  Counter* hits_ = nullptr;
  Counter* misses_ = nullptr;
  Histogram* latency_ = nullptr;
  uint64_t now_us_ = 0;
};

TEST_F(TimeSeriesTest, SamplesDeriveRatesFromCounterDeltas) {
  TimeSeriesRing ring = MakeRing(8);
  now_us_ = 1'000'000;
  ring.SampleNow();  // baseline: no prev, records nothing
  EXPECT_TRUE(ring.Snapshot().empty());

  requests_->Increment(200);
  hits_->Increment(30);
  misses_->Increment(10);
  for (int i = 0; i < 8; ++i) latency_->Record(1'000'000);  // 1 ms
  now_us_ = 3'000'000;  // 2 s later
  ring.SampleNow();

  std::vector<TimeSeriesRing::Sample> got = ring.Snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].t_us, 3'000'000u);
  EXPECT_DOUBLE_EQ(got[0].qps, 100);          // 200 requests / 2 s
  EXPECT_DOUBLE_EQ(got[0].hit_rate, 0.75);    // 30 / (30 + 10)
  EXPECT_EQ(got[0].requests_total, 200u);
  EXPECT_GT(got[0].p99_us, 0);

  // A second interval with no traffic: rates drop back to zero.
  now_us_ = 4'000'000;
  ring.SampleNow();
  got = ring.Snapshot();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[1].qps, 0);
  EXPECT_EQ(ring.samples_taken(), 2u);
}

TEST_F(TimeSeriesTest, RingRetainsNewestCapacitySamplesOldestFirst) {
  TimeSeriesRing ring = MakeRing(3);
  now_us_ = 1'000'000;
  ring.SampleNow();
  for (int i = 0; i < 5; ++i) {
    requests_->Increment(1);
    now_us_ += 1'000'000;
    ring.SampleNow();
  }
  std::vector<TimeSeriesRing::Sample> got = ring.Snapshot();
  ASSERT_EQ(got.size(), 3u);
  // Oldest-first, and only the newest three of the five survive.
  EXPECT_EQ(got[0].t_us, 4'000'000u);
  EXPECT_EQ(got[2].t_us, 6'000'000u);
  EXPECT_LT(got[0].t_us, got[1].t_us);
}

TEST_F(TimeSeriesTest, ToJsonIsWellFormedAndCarriesTheInterval) {
  TimeSeriesRing ring = MakeRing(4);
  now_us_ = 1'000'000;
  ring.SampleNow();
  requests_->Increment(10);
  now_us_ = 2'000'000;
  ring.SampleNow();

  std::string json = ring.ToJson();
  Status valid = ValidateJson(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << json;
  EXPECT_NE(json.find("\"interval_ms\":1000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\":[{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"qps\":10.0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"requests_total\":10"), std::string::npos) << json;
}

}  // namespace
}  // namespace chrono::obs
