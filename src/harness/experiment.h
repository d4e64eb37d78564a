#ifndef CHRONOCACHE_HARNESS_EXPERIMENT_H_
#define CHRONOCACHE_HARNESS_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.h"
#include "core/middleware.h"
#include "net/latency_model.h"
#include "workloads/workload.h"

namespace chrono::harness {

/// \brief One experiment deployment: N simulated clients driving a
/// workload through M middleware nodes against one remote database, all in
/// virtual time (§6 methodology: warm-up phase, empty cache at measurement
/// start is modelled by measuring from a cold cache; response times are
/// collected per query).
struct ExperimentConfig {
  int clients = 10;
  int nodes = 1;
  core::MiddlewareConfig middleware;  // per-node template
  net::LatencyModel latency;
  int db_workers = 16;
  SimTime warmup = 20 * kMicrosPerSecond;
  SimTime duration = 60 * kMicrosPerSecond;
  SimTime think_time = 5 * kMicrosPerMilli;  // client pause between txns
  SimTime timeline_bucket = 10 * kMicrosPerSecond;  // Fig. 9b resolution
  uint64_t seed = 1;
  int security_groups = 1;  // clients assigned round-robin (§5.2.1)
  /// When non-empty, every node's prefetch/request lifecycle is mirrored
  /// into an event journal (virtual timestamps) and persisted here after
  /// the run — the file feeds tools/chrono_audit. With RunRepeated the
  /// file holds the last run.
  std::string journal_out;
};

struct ExperimentResult {
  double avg_response_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double cache_hit_rate = 0;
  uint64_t queries_measured = 0;
  uint64_t transactions = 0;
  uint64_t errors = 0;
  std::string first_error;
  uint64_t db_requests = 0;
  core::MiddlewareMetrics metrics;  // summed across nodes
  /// (bucket start in seconds, average response ms) from time zero —
  /// includes the warm-up so learning curves are visible (Fig. 9b).
  std::vector<std::pair<double, double>> timeline;
  /// Per-transaction-type breakdown over the measurement window:
  /// (transaction name, mean query latency ms, queries measured).
  std::vector<std::tuple<std::string, double, uint64_t>> by_transaction;
  /// Journal records persisted to ExperimentConfig::journal_out (0 when
  /// journalling was off).
  uint64_t journal_events = 0;
};

/// Runs one seeded experiment end to end.
ExperimentResult RunExperiment(
    const std::function<std::unique_ptr<workloads::Workload>()>& make_workload,
    const ExperimentConfig& config);

/// Aggregate of repeated runs with different seeds (§6: five runs, 95% CI).
struct RepeatedResult {
  SampleStats response_ms;
  SampleStats hit_rate;
  SampleStats db_requests;
  SampleStats combined;  // remote_combined, one sample per run
  uint64_t errors = 0;   // summed over the runs
  ExperimentResult last;  // one full run for detail inspection
};

/// Runs `runs` seeded experiments, run `r` (from 0) at seed
/// `(config.seed + r) * 7919`; `each` (optional) sees every run's result
/// as it finishes.
RepeatedResult RunRepeated(
    const std::function<std::unique_ptr<workloads::Workload>()>& make_workload,
    ExperimentConfig config, int runs,
    const std::function<void(const ExperimentResult&)>& each = nullptr);

}  // namespace chrono::harness

#endif  // CHRONOCACHE_HARNESS_EXPERIMENT_H_
