#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>

namespace chrono::obs {

// ---------------------------------------------------------------------------
// HistogramSnapshot

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target observation, 1-based.
  double rank = q * static_cast<double>(count);
  if (rank < 1) rank = 1;
  uint64_t prev_cumulative = 0;
  double prev_bound = 0;
  for (const Bucket& b : buckets) {
    if (static_cast<double>(b.cumulative) >= rank) {
      uint64_t in_bucket = b.cumulative - prev_cumulative;
      double upper = b.upper_bound;
      if (!std::isfinite(upper)) {
        // Everything beyond the largest finite bound: report that bound.
        return prev_bound;
      }
      if (in_bucket == 0) return upper;
      double frac = (rank - static_cast<double>(prev_cumulative)) /
                    static_cast<double>(in_bucket);
      return prev_bound + (upper - prev_bound) * frac;
    }
    prev_cumulative = b.cumulative;
    prev_bound = b.upper_bound;
  }
  return prev_bound;
}

HistogramSnapshot DeltaHistogram(const HistogramSnapshot& cur,
                                 const HistogramSnapshot& prev) {
  // Walk the union of the two sorted bucket lists, carrying each side's
  // cumulative count forward across bounds a sparse snapshot omitted (a
  // missing bound means "no observation advanced this bucket", so its
  // cumulative equals the nearest lower present bound's). The difference
  // is clamped at zero, and cumulative-delta monotonicity, which can
  // wobble when writers race the two snapshots, is re-imposed so
  // Percentile never walks backwards.
  HistogramSnapshot out;
  size_t ic = 0, ip = 0;
  uint64_t cum_cur = 0, cum_prev = 0, floor = 0;
  while (ic < cur.buckets.size() || ip < prev.buckets.size()) {
    double bound;
    if (ic >= cur.buckets.size()) {
      bound = prev.buckets[ip].upper_bound;
    } else if (ip >= prev.buckets.size()) {
      bound = cur.buckets[ic].upper_bound;
    } else {
      bound = std::min(cur.buckets[ic].upper_bound,
                       prev.buckets[ip].upper_bound);
    }
    if (ic < cur.buckets.size() && cur.buckets[ic].upper_bound == bound) {
      cum_cur = cur.buckets[ic].cumulative;
      ++ic;
    }
    if (ip < prev.buckets.size() && prev.buckets[ip].upper_bound == bound) {
      cum_prev = prev.buckets[ip].cumulative;
      ++ip;
    }
    floor = std::max(floor, cum_cur > cum_prev ? cum_cur - cum_prev : 0);
    out.buckets.push_back({bound, floor});
  }
  out.count = floor;
  out.sum = cur.sum > prev.sum ? cur.sum - prev.sum : 0;
  return out;
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(size_t stripes) {
  if (stripes == 0) stripes = 1;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

int Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<int>(value);
  int width = 64 - std::countl_zero(value);  // bit width, > kSubBits here
  int shift = width - kSubBits;
  // Top kSubBits bits of the value; in [kHalf, kSubBuckets).
  uint64_t top = value >> shift;
  return kSubBuckets + (shift - 1) * kHalf +
         static_cast<int>(top - static_cast<uint64_t>(kHalf));
}

uint64_t Histogram::BucketUpperBound(int index) {
  if (index < kSubBuckets) return static_cast<uint64_t>(index);
  int shift = (index - kSubBuckets) / kHalf + 1;
  int offset = (index - kSubBuckets) % kHalf;
  uint64_t lower = (static_cast<uint64_t>(kHalf + offset)) << shift;
  uint64_t width = 1ull << shift;
  return lower + width - 1;
}

Histogram::Stripe& Histogram::StripeForThisThread() {
  // Round-robin stripe assignment, fixed per thread on first use. The
  // thread-local holds a per-thread counter value, not a pointer, so one
  // thread touching many histograms still spreads across stripes.
  static thread_local size_t tls_slot =
      []() {
        static std::atomic<size_t> next{0};
        return next.fetch_add(1, std::memory_order_relaxed);
      }();
  return *stripes_[tls_slot % stripes_.size()];
}

void Histogram::Record(uint64_t value) {
  Stripe& s = StripeForThisThread();
  s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  uint64_t merged[kBucketCount] = {};
  HistogramSnapshot out;
  for (const auto& stripe : stripes_) {
    out.sum += static_cast<double>(stripe->sum.load(std::memory_order_relaxed));
    for (int i = 0; i < kBucketCount; ++i) {
      merged[i] += stripe->buckets[i].load(std::memory_order_relaxed);
    }
  }
  // Emit only buckets where the cumulative count advances, plus the +Inf
  // terminal bucket; ~500 mostly-empty buckets would bloat the exposition.
  // Before each non-empty bucket that follows a gap, emit its true lower
  // edge as an anchor (same cumulative as the gap) — Percentile() and
  // Prometheus's histogram_quantile both interpolate from the previous
  // emitted bound, so without the anchor a sparse histogram would smear
  // observations down across the skipped empty buckets.
  uint64_t cumulative = 0;
  int last_emitted = -1;
  for (int i = 0; i < kBucketCount; ++i) {
    if (merged[i] == 0) continue;
    if (i > 0 && last_emitted != i - 1) {
      out.buckets.push_back(
          {static_cast<double>(BucketUpperBound(i - 1)), cumulative});
    }
    cumulative += merged[i];
    out.buckets.push_back(
        {static_cast<double>(BucketUpperBound(i)), cumulative});
    last_emitted = i;
  }
  out.count = cumulative;  // by construction, equals the +Inf bucket
  out.buckets.push_back(
      {std::numeric_limits<double>::infinity(), cumulative});
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

std::string MetricsRegistry::Key(const std::string& name,
                                 const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(const std::string& name,
                                                      const std::string& help,
                                                      Labels labels,
                                                      MetricType type) {
  std::sort(labels.begin(), labels.end());
  const std::string key = Key(name, labels);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      assert(it->second->type == type &&
             "metric re-registered with another type");
      return it->second;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = index_.find(key);  // re-check under the exclusive lock
  if (it != index_.end()) {
    assert(it->second->type == type &&
           "metric re-registered with another type");
    return it->second;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->labels = std::move(labels);
  entry->type = type;
  switch (type) {
    case MetricType::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  index_.emplace(key, entries_.back().get());
  return entries_.back().get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help, Labels labels) {
  return FindOrCreate(name, help, std::move(labels), MetricType::kCounter)
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help, Labels labels) {
  return FindOrCreate(name, help, std::move(labels), MetricType::kGauge)
      ->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         Labels labels) {
  return FindOrCreate(name, help, std::move(labels), MetricType::kHistogram)
      ->histogram.get();
}

void MetricsRegistry::RegisterCallbackCounter(const std::string& name,
                                              const std::string& help,
                                              Labels labels,
                                              std::function<double()> fn,
                                              const void* owner) {
  Entry* e = FindOrCreate(name, help, std::move(labels), MetricType::kCounter);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  e->callback = std::move(fn);
  e->owner = owner;
}

void MetricsRegistry::RegisterCallbackGauge(const std::string& name,
                                            const std::string& help,
                                            Labels labels,
                                            std::function<double()> fn,
                                            const void* owner) {
  Entry* e = FindOrCreate(name, help, std::move(labels), MetricType::kGauge);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  e->callback = std::move(fn);
  e->owner = owner;
}

void MetricsRegistry::UnregisterCallbacksOwnedBy(const void* owner) {
  if (owner == nullptr) return;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (auto& e : entries_) {
    if (e->owner == owner) {
      e->callback = nullptr;
      e->owner = nullptr;
    }
  }
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot out;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    out.metrics.reserve(entries_.size());
    for (const auto& e : entries_) {
      MetricSnapshot m;
      m.name = e->name;
      m.help = e->help;
      m.labels = e->labels;
      m.type = e->type;
      if (e->callback) {
        m.value = e->callback();
      } else {
        switch (e->type) {
          case MetricType::kCounter:
            m.value = static_cast<double>(e->counter->value());
            break;
          case MetricType::kGauge:
            m.value = e->gauge->value();
            break;
          case MetricType::kHistogram:
            m.histogram = e->histogram->Snapshot();
            break;
        }
      }
      out.metrics.push_back(std::move(m));
    }
  }
  std::sort(out.metrics.begin(), out.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

size_t MetricsRegistry::metric_count() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return entries_.size();
}

const MetricSnapshot* RegistrySnapshot::Find(const std::string& name,
                                             const Labels& labels) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.name != name) continue;
    if (!labels.empty() && m.labels != labels) continue;
    return &m;
  }
  return nullptr;
}

}  // namespace chrono::obs
