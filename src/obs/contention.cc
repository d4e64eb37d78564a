#include "obs/contention.h"

#include <algorithm>

namespace chrono::obs {

LockSite::LockSite(std::string name, MetricsRegistry* registry)
    : name_(std::move(name)) {
  acquisitions_ = registry->GetCounter(
      "chrono_lock_acquisitions_total", "Instrumented lock acquisitions",
      {{"site", name_}});
  contended_ = registry->GetCounter(
      "chrono_lock_contended_total",
      "Lock acquisitions that had to block behind another holder",
      {{"site", name_}});
  wait_ns_ = registry->GetHistogram(
      "chrono_lock_wait_ns",
      "Nanoseconds spent blocked acquiring an instrumented lock",
      {{"site", name_}});
  hold_ns_ = registry->GetHistogram(
      "chrono_lock_hold_ns",
      "Nanoseconds an instrumented lock was held exclusively",
      {{"site", name_}});
}

ContentionRegistry::ContentionRegistry(MetricsRegistry* registry)
    : registry_(registry) {}

LockSite* ContentionRegistry::Site(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  sites_.push_back(
      std::unique_ptr<LockSite>(new LockSite(name, registry_)));
  LockSite* site = sites_.back().get();
  by_name_[name] = site;
  return site;
}

std::string ContentionRegistry::ContentionJson() const {
  struct Row {
    const LockSite* site;
    uint64_t acquisitions;
    uint64_t contended;
    HistogramSnapshot wait;
    HistogramSnapshot hold;
  };
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rows.reserve(sites_.size());
    for (const auto& site : sites_) {
      rows.push_back({site.get(), site->acquisitions(), site->contended(),
                      site->wait_snapshot(), site->hold_snapshot()});
    }
  }
  // Rank by total wait: the site burning the most blocked nanoseconds
  // leads the document (ties broken by name for a stable order).
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.wait.sum != b.wait.sum) return a.wait.sum > b.wait.sum;
    return a.site->name() < b.site->name();
  });
  double total_wait = 0;
  for (const Row& row : rows) total_wait += row.wait.sum;

  std::string out = "{\"total_wait_ns\":" + std::to_string(total_wait);
  out += ",\"sites\":[";
  bool first = true;
  for (const Row& row : rows) {
    if (!first) out += ",";
    first = false;
    out += "{\"site\":\"" + row.site->name() + "\"";
    out += ",\"acquisitions\":" + std::to_string(row.acquisitions);
    out += ",\"contended\":" + std::to_string(row.contended);
    out += ",\"wait_count\":" + std::to_string(row.wait.count);
    out += ",\"wait_total_ns\":" + std::to_string(row.wait.sum);
    out += ",\"wait_share\":" +
           std::to_string(total_wait == 0 ? 0.0 : row.wait.sum / total_wait);
    out += ",\"wait_p50_ns\":" + std::to_string(row.wait.Percentile(0.50));
    out += ",\"wait_p99_ns\":" + std::to_string(row.wait.Percentile(0.99));
    out += ",\"hold_count\":" + std::to_string(row.hold.count);
    out += ",\"hold_total_ns\":" + std::to_string(row.hold.sum);
    out += ",\"hold_p50_ns\":" + std::to_string(row.hold.Percentile(0.50));
    out += ",\"hold_p99_ns\":" + std::to_string(row.hold.Percentile(0.99));
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace chrono::obs
