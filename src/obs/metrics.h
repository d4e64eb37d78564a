#ifndef CHRONOCACHE_OBS_METRICS_H_
#define CHRONOCACHE_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace chrono::obs {

/// \brief Label set attached to one metric instance, e.g.
/// {{"cache","template"}}. Kept sorted by key so that (name, labels)
/// identifies a metric and exposition output is deterministic.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotonic counter. Increment is one relaxed fetch_add — safe and
/// cheap from any number of threads; never used for synchronisation.
class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief Point-in-time value set by the instrumented code. For values that
/// are cheaper to pull than to push (queue depth, shard occupancy), prefer
/// MetricsRegistry::RegisterCallbackGauge, which reads at snapshot time.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// \brief Merged, immutable view of one histogram (see Histogram below).
/// Buckets are cumulative with the terminal bound +infinity, matching
/// Prometheus exposition. Percentiles interpolate linearly inside the
/// bucket that crosses the requested rank.
struct HistogramSnapshot {
  struct Bucket {
    double upper_bound = 0;     // inclusive; +infinity for the last bucket
    uint64_t cumulative = 0;    // observations <= upper_bound
  };
  uint64_t count = 0;
  double sum = 0;
  std::vector<Bucket> buckets;  // only buckets whose count advanced, + Inf

  /// q in [0, 1]; e.g. 0.5 for the median. 0 when empty.
  double Percentile(double q) const;
  double Mean() const { return count == 0 ? 0 : sum / static_cast<double>(count); }
};

/// The observations recorded between `prev` and `cur` (cur − prev by
/// cumulative-bucket subtraction, clamped at zero so a racing writer can
/// never produce a negative bucket). Percentiles of the result describe
/// only that interval.
HistogramSnapshot DeltaHistogram(const HistogramSnapshot& cur,
                                 const HistogramSnapshot& prev);

/// \brief Lock-striped log-bucketed latency histogram for the serving hot
/// path. Record() is three relaxed fetch_adds on the calling thread's
/// stripe — no mutex, no sample vectors, no allocation. Snapshot() merges
/// the stripes into cumulative buckets.
///
/// Bucket scheme (HdrHistogram-style): values 0..15 get exact unit-width
/// buckets; above that, each power of two is split into 8 linear
/// sub-buckets, so the relative quantile error is bounded by 1/8 = 12.5%
/// (in practice ~6% at the bucket midpoint) across the full uint64 range.
/// The unit is whatever the caller records — this repo records wall-clock
/// nanoseconds for every `*_latency_ns` metric.
class Histogram {
 public:
  static constexpr int kSubBits = 4;                   // 2^4 exact buckets
  static constexpr int kSubBuckets = 1 << kSubBits;    // 16
  static constexpr int kHalf = kSubBuckets / 2;        // 8 per octave
  static constexpr int kBucketCount = kSubBuckets + (64 - kSubBits) * kHalf;

  /// `stripes` trades memory for write-side contention; each stripe is an
  /// independent cache-padded bucket array and threads are assigned to
  /// stripes round-robin on first use.
  explicit Histogram(size_t stripes = 4);

  void Record(uint64_t value);
  HistogramSnapshot Snapshot() const;

  /// Bucket index for `value` (exposed for tests).
  static int BucketIndex(uint64_t value);
  /// Inclusive upper bound of bucket `index` (exposed for tests and the
  /// exporters; the final bucket reports +infinity at snapshot time).
  static uint64_t BucketUpperBound(int index);

  size_t stripe_count() const { return stripes_.size(); }

 private:
  // No separate count atomic: Snapshot() derives count from the merged
  // buckets, so `cumulative == count` holds exactly even while writers
  // race the snapshot (and Record is one fetch_add cheaper).
  struct alignas(64) Stripe {
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[kBucketCount] = {};
  };

  Stripe& StripeForThisThread();

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<size_t> next_stripe_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// \brief One fully-resolved metric value inside a RegistrySnapshot.
struct MetricSnapshot {
  std::string name;
  std::string help;
  Labels labels;
  MetricType type = MetricType::kCounter;
  double value = 0;              // counters and gauges
  HistogramSnapshot histogram;   // type == kHistogram only
};

/// \brief Point-in-time copy of every registered metric, sorted by
/// (name, labels) so that exporters emit deterministic output.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// First metric matching name (+ labels when given); nullptr if absent.
  const MetricSnapshot* Find(const std::string& name,
                             const Labels& labels = {}) const;
};

/// \brief The process-wide metric namespace: named counters, gauges and
/// histograms, plus pull-mode callbacks for values that live in existing
/// structures (CacheCounters, pool queue depth, shard occupancy).
///
/// Thread safety and lock order: Get* / Register* take the registry mutex
/// (exclusive only when creating); returned pointers are stable for the
/// registry's lifetime, and all hot-path operations on them are lock-free
/// relaxed atomics. Snapshot() holds the registry mutex shared while it
/// runs the registered callbacks, so callbacks may take *leaf* locks
/// (cache-shard or pool mutexes) but must never create metrics or acquire
/// any lock that is held while calling into the registry. Instrumented
/// code never blocks on an exporter: obs locks sit strictly below every
/// server lock (DESIGN.md §9).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. `help` is recorded on first creation; all metrics
  /// sharing a name must share a type (enforced — mismatch returns the
  /// existing metric for Get* but trips an assert in debug builds).
  Counter* GetCounter(const std::string& name, const std::string& help,
                      Labels labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  Labels labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          Labels labels = {});

  /// Pull-mode metrics: `fn` is evaluated inside Snapshot(). The callback
  /// must be safe to call from any thread until the registry is destroyed
  /// or the owner of the captured state calls UnregisterCallbacksOwnedBy.
  void RegisterCallbackCounter(const std::string& name,
                               const std::string& help, Labels labels,
                               std::function<double()> fn,
                               const void* owner = nullptr);
  void RegisterCallbackGauge(const std::string& name, const std::string& help,
                             Labels labels, std::function<double()> fn,
                             const void* owner = nullptr);

  /// Drops every callback registered with `owner` (called from the owning
  /// object's destructor so Snapshot never runs a dangling callback).
  void UnregisterCallbacksOwnedBy(const void* owner);

  RegistrySnapshot Snapshot() const;

  size_t metric_count() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    Labels labels;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;  // callback metrics only
    const void* owner = nullptr;
  };

  Entry* FindOrCreate(const std::string& name, const std::string& help,
                      Labels labels, MetricType type);
  static std::string Key(const std::string& name, const Labels& labels);

  mutable std::shared_mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;      // stable addresses
  std::unordered_map<std::string, Entry*> index_;    // Key(name,labels) ->
};

}  // namespace chrono::obs

#endif  // CHRONOCACHE_OBS_METRICS_H_
