#ifndef CHRONOCACHE_COMMON_STATS_H_
#define CHRONOCACHE_COMMON_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace chrono {

/// \brief Hit/miss accounting shared by the query-path caches (statement
/// cache, template cache, result cache). Kept in common/ so every layer
/// reports through the same shape.
///
/// Thread safety: the counters are relaxed atomics, so concurrent
/// RecordHit/RecordMiss calls from the runtime's worker threads never
/// race. Relaxed ordering is sufficient — the counters are monotonic
/// telemetry, never used for synchronisation. Single-threaded call sites
/// (the simulator's caches) read the fields directly as before; reads
/// that race with writers may observe hits and misses from slightly
/// different instants, which is fine for statistics.
struct CacheCounters {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};

  CacheCounters() = default;
  CacheCounters(const CacheCounters& o)
      : hits(o.hits.load(std::memory_order_relaxed)),
        misses(o.misses.load(std::memory_order_relaxed)) {}
  CacheCounters& operator=(const CacheCounters& o) {
    hits.store(o.hits.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    misses.store(o.misses.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void RecordHit() { hits.fetch_add(1, std::memory_order_relaxed); }
  void RecordMiss() { misses.fetch_add(1, std::memory_order_relaxed); }

  uint64_t lookups() const {
    return hits.load(std::memory_order_relaxed) +
           misses.load(std::memory_order_relaxed);
  }
};

/// \brief Streaming accumulator for latency samples: mean, min/max,
/// percentiles and 95% confidence intervals across repeated runs.
///
/// Thread safety: NOT thread-safe — external locking contract. A
/// SampleStats instance may only be mutated from one thread at a time,
/// and readers must not overlap writers. The intended multi-threaded
/// pattern (used by tools/serve_bench.cc) is one private instance per
/// worker thread, merged with Merge() after the workers have been
/// joined; no locking is then needed at all. If concurrent access to a
/// shared instance is unavoidable, every call must be wrapped in a
/// caller-owned mutex.
class SampleStats {
 public:
  void Add(double x) {
    // Keep the lazily-sorted flag honest without paying a per-Add branch
    // miss in the common append-in-order case.
    if (sorted_ && !samples_.empty() && x < samples_.back()) sorted_ = false;
    samples_.push_back(x);
  }
  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Appends all of `other`'s samples (the post-join aggregation step of
  /// the external-locking contract above).
  void Merge(const SampleStats& other) {
    if (!other.samples_.empty()) sorted_ = samples_.empty() && other.sorted_;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  double Mean() const;
  double Stddev() const;  // sample standard deviation (n-1)
  double Min() const;
  double Max() const;

  /// q in [0, 1]; e.g. 0.5 for the median, 0.99 for p99. The first call
  /// after an Add/Merge sorts the samples in place and caches that order,
  /// so reporting several percentiles back-to-back (p50/p95/p99, as
  /// serve_bench does) costs one sort instead of one copy+sort per call.
  /// Sample order is observable through nothing else, so the in-place
  /// sort is safe under the external-locking contract above.
  double Percentile(double q) const;

  /// Half-width of the 95% confidence interval for the mean, using
  /// Student's t critical values for small n (the paper reports 95% CIs
  /// over five runs).
  double ConfidenceInterval95() const;

 private:
  // mutable: Percentile() is logically const but lazily sorts in place.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;  // vacuously true while empty
};

}  // namespace chrono

#endif  // CHRONOCACHE_COMMON_STATS_H_
