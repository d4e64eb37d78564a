#include "obs/timeseries.h"

#include <algorithm>
#include <cstdio>

namespace chrono::obs {

TimeSeriesRing::TimeSeriesRing(const MetricsRegistry* registry,
                               const Options& options,
                               std::function<uint64_t()> clock)
    : options_([&] {
        Options o = options;
        if (o.capacity == 0) o.capacity = 1;
        if (o.interval_ms == 0) o.interval_ms = 1000;
        return o;
      }()),
      registry_(registry),
      clock_(std::move(clock)) {
  ring_.resize(options_.capacity);
}

TimeSeriesRing::Cumulative TimeSeriesRing::Collect() const {
  Cumulative c;
  c.valid = true;
  c.t_us = clock_();
  RegistrySnapshot snap = registry_->Snapshot();
  auto counter = [&](const char* name, const Labels& labels) -> double {
    const MetricSnapshot* m = snap.Find(name, labels);
    return m == nullptr ? 0 : m->value;
  };
  c.requests = counter("chrono_requests_total", {{"op", "read"}}) +
               counter("chrono_requests_total", {{"op", "write"}});
  c.hits = counter("chrono_cache_hits_total", {{"cache", "result"}});
  c.misses = counter("chrono_cache_misses_total", {{"cache", "result"}});
  c.errors = counter("chrono_errors_total", {});
  c.retries = counter("chrono_backend_retries_total", {});
  c.stale = counter("chrono_stale_serves_total", {});
  const MetricSnapshot* read =
      snap.Find("chrono_request_latency_ns", {{"op", "read"}});
  const MetricSnapshot* write =
      snap.Find("chrono_request_latency_ns", {{"op", "write"}});
  static const HistogramSnapshot kEmpty;
  c.latency = MergeHistograms(read != nullptr ? read->histogram : kEmpty,
                              write != nullptr ? write->histogram : kEmpty);
  return c;
}

void TimeSeriesRing::SampleNow() {
  Cumulative cur = Collect();
  std::lock_guard<std::mutex> lock(mutex_);
  if (prev_.valid && cur.t_us > prev_.t_us) {
    double interval_s =
        static_cast<double>(cur.t_us - prev_.t_us) / 1'000'000.0;
    Sample s;
    s.t_us = cur.t_us;
    auto rate = [&](double now, double before) {
      double d = now - before;
      return d > 0 ? d / interval_s : 0.0;
    };
    s.qps = rate(cur.requests, prev_.requests);
    s.errors_ps = rate(cur.errors, prev_.errors);
    s.retries_ps = rate(cur.retries, prev_.retries);
    s.stale_ps = rate(cur.stale, prev_.stale);
    double dh = cur.hits - prev_.hits;
    double dm = cur.misses - prev_.misses;
    s.hit_rate = (dh + dm) > 0 ? dh / (dh + dm) : 0;
    HistogramSnapshot delta = DeltaHistogram(cur.latency, prev_.latency);
    // The latency family records nanoseconds; the sample reports µs.
    s.p50_us = delta.Percentile(0.5) / 1000.0;
    s.p99_us = delta.Percentile(0.99) / 1000.0;
    s.requests_total = static_cast<uint64_t>(cur.requests);
    ring_[next_ % options_.capacity] = s;
    ++next_;
    samples_taken_.fetch_add(1, std::memory_order_relaxed);
  }
  prev_ = std::move(cur);
}

std::vector<TimeSeriesRing::Sample> TimeSeriesRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Sample> out;
  uint64_t count = next_ < options_.capacity ? next_ : options_.capacity;
  out.reserve(count);
  for (uint64_t i = next_ - count; i < next_; ++i) {
    out.push_back(ring_[i % options_.capacity]);
  }
  return out;
}

std::string TimeSeriesRing::ToJson() const {
  std::vector<Sample> samples = Snapshot();
  std::string out = "{\"interval_ms\":" + std::to_string(interval_ms()) +
                    ",\"capacity\":" + std::to_string(capacity()) +
                    ",\"samples\":[";
  char buf[256];
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"t_us\":%llu,\"qps\":%.1f,\"hit_rate\":%.4f,"
                  "\"errors_per_s\":%.1f,\"retries_per_s\":%.1f,"
                  "\"stale_per_s\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f,"
                  "\"requests_total\":%llu}",
                  i == 0 ? "" : ",",
                  static_cast<unsigned long long>(s.t_us), s.qps, s.hit_rate,
                  s.errors_ps, s.retries_ps, s.stale_ps, s.p50_us, s.p99_us,
                  static_cast<unsigned long long>(s.requests_total));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace chrono::obs
