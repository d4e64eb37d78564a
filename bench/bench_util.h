#ifndef CHRONOCACHE_BENCH_BENCH_UTIL_H_
#define CHRONOCACHE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "workloads/auctionmark.h"
#include "workloads/seats.h"
#include "workloads/tpce.h"
#include "workloads/wikipedia.h"

namespace chrono::bench {

inline const std::vector<core::SystemMode>& AllSystems() {
  static const std::vector<core::SystemMode> kSystems = {
      core::SystemMode::kChrono, core::SystemMode::kScalpelCC,
      core::SystemMode::kScalpelE, core::SystemMode::kApollo,
      core::SystemMode::kLru};
  return kSystems;
}

/// Standard benchmark-scale workload factories (bigger than unit-test
/// scale, smaller than the paper's multi-GB databases; see DESIGN.md §1).
inline std::unique_ptr<workloads::Workload> MakeTpce() {
  return std::make_unique<workloads::TpceWorkload>();
}
inline std::unique_ptr<workloads::Workload> MakeWikipedia() {
  return std::make_unique<workloads::WikipediaWorkload>();
}
inline std::unique_ptr<workloads::Workload> MakeSeats() {
  return std::make_unique<workloads::SeatsWorkload>();
}
inline std::unique_ptr<workloads::Workload> MakeAuctionMark() {
  return std::make_unique<workloads::AuctionMarkWorkload>();
}

/// Default experiment shape shared by the figure benches: 20 s virtual
/// warm-up + 60 s measurement (a compressed version of the paper's
/// 20-minute warm-up + five 5-minute runs), repeated over seeds with 95%
/// confidence intervals.
inline harness::ExperimentConfig FigureConfig(core::SystemMode mode,
                                              int clients) {
  harness::ExperimentConfig config;
  config.clients = clients;
  config.middleware.mode = mode;
  config.warmup = 20 * kMicrosPerSecond;
  config.duration = 60 * kMicrosPerSecond;
  return config;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

/// One row over all runs: means, except errors (summed).
inline void PrintRow(const char* system, int clients,
                     const harness::RepeatedResult& result) {
  std::printf(
      "%-12s clients=%-4d avg_resp=%7.2f ms (±%5.2f)  hit_rate=%5.1f%%  "
      "db_requests=%8.0f  combined=%.0f  errors=%llu\n",
      system, clients, result.response_ms.Mean(),
      result.response_ms.ConfidenceInterval95(),
      result.hit_rate.Mean() * 100.0, result.db_requests.Mean(),
      result.combined.Mean(),
      static_cast<unsigned long long>(result.errors));
}

}  // namespace chrono::bench

#endif  // CHRONOCACHE_BENCH_BENCH_UTIL_H_
