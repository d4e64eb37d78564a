#ifndef CHRONOCACHE_OBS_TIMESERIES_H_
#define CHRONOCACHE_OBS_TIMESERIES_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace chrono::obs {

/// \brief Fixed-capacity ring of 1 s (configurable) samples derived from
/// the metrics registry: qps, cache hit rate, error/retry/stale rates and
/// delta-percentiles of request latency over each interval — the
/// "what changed in the last minute" view that cumulative counters and
/// all-time histograms cannot answer without an external scraper.
///
/// A sample is the *difference* between two registry snapshots: counter
/// deltas divided by the interval, and percentiles of the latency
/// histogram restricted to observations recorded inside the interval
/// (cumulative-bucket subtraction). The owner calls SampleNow() once per
/// interval (ChronoServer's housekeeping thread does); each call takes one
/// registry snapshot and the instrumented hot path is never touched. The
/// ring owns no thread.
class TimeSeriesRing {
 public:
  struct Options {
    size_t capacity = 300;       // samples retained (5 min at 1 s)
    uint64_t interval_ms = 1000; // the owner's sampling period
  };

  struct Sample {
    uint64_t t_us = 0;        // clock() at sample time
    double qps = 0;           // demand requests/s over the interval
    double hit_rate = 0;      // result-cache hit rate over the interval
    double errors_ps = 0;     // request errors/s
    double retries_ps = 0;    // backend retries/s
    double stale_ps = 0;      // stale serves/s
    double p50_us = 0;        // request latency percentiles, this interval
    double p99_us = 0;
    uint64_t requests_total = 0;  // cumulative, for scrape alignment
  };

  /// `clock` supplies sample timestamps in µs; pass the server's
  /// monotonic NowMicros so samples and request traces share a timeline.
  TimeSeriesRing(const MetricsRegistry* registry, const Options& options,
                 std::function<uint64_t()> clock);

  TimeSeriesRing(const TimeSeriesRing&) = delete;
  TimeSeriesRing& operator=(const TimeSeriesRing&) = delete;

  /// Takes one sample: the delta since the previous call (the first call
  /// only records the baseline). Thread-safe; calls must stop before
  /// anything the registry callbacks read is destroyed.
  void SampleNow();

  /// Oldest-first copy of the retained samples.
  std::vector<Sample> Snapshot() const;

  /// {"interval_ms":..,"samples":[{"t_us":..,"qps":..,...},...]}
  std::string ToJson() const;

  size_t capacity() const { return options_.capacity; }
  uint64_t interval_ms() const { return options_.interval_ms; }
  uint64_t samples_taken() const {
    return samples_taken_.load(std::memory_order_relaxed);
  }

 private:
  /// Cumulative values carried between samples for delta computation.
  struct Cumulative {
    bool valid = false;
    uint64_t t_us = 0;
    double requests = 0;
    double hits = 0;
    double misses = 0;
    double errors = 0;
    double retries = 0;
    double stale = 0;
    HistogramSnapshot latency;  // op=read + op=write merged
  };

  Cumulative Collect() const;

  const Options options_;
  const MetricsRegistry* const registry_;
  const std::function<uint64_t()> clock_;

  mutable std::mutex mutex_;
  std::vector<Sample> ring_;   // ring_[i % capacity], i < next_
  uint64_t next_ = 0;
  Cumulative prev_;

  std::atomic<uint64_t> samples_taken_{0};
};

}  // namespace chrono::obs

#endif  // CHRONOCACHE_OBS_TIMESERIES_H_
