// Experiment harness: measurement windows, timelines, repetition, and the
// qualitative relationships the paper's figures rest on.

#include <gtest/gtest.h>

#include <vector>

#include "harness/experiment.h"
#include "workloads/tpce.h"

namespace chrono::harness {
namespace {

std::unique_ptr<workloads::Workload> TinyTpce() {
  workloads::TpceWorkload::Config c;
  c.customers = 30;
  c.securities = 60;
  c.watch_lists = 30;
  c.watch_items_per_list = 8;
  c.trades = 200;
  return std::make_unique<workloads::TpceWorkload>(c);
}

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.clients = 3;
  config.warmup = 5 * kMicrosPerSecond;
  config.duration = 10 * kMicrosPerSecond;
  config.middleware.mode = core::SystemMode::kChrono;
  return config;
}

TEST(Harness, ProducesMeasurements) {
  ExperimentResult result = RunExperiment(TinyTpce, TinyConfig());
  EXPECT_EQ(result.errors, 0u) << result.first_error;
  EXPECT_GT(result.queries_measured, 50u);
  EXPECT_GT(result.transactions, 5u);
  EXPECT_GT(result.avg_response_ms, 0.0);
  EXPECT_GE(result.p95_ms, result.p50_ms);
}

TEST(Harness, TimelineCoversWarmupAndMeasurement) {
  ExperimentConfig config = TinyConfig();
  config.timeline_bucket = 5 * kMicrosPerSecond;
  ExperimentResult result = RunExperiment(TinyTpce, config);
  ASSERT_GE(result.timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(result.timeline.front().first, 0.0);
  for (const auto& [sec, ms] : result.timeline) {
    EXPECT_GE(ms, 0.0);
    EXPECT_LE(sec, 15.0);
  }
}

TEST(Harness, WarmupExcludedFromSamples) {
  // With a warm-up longer than the run, nothing is measured.
  ExperimentConfig config = TinyConfig();
  config.warmup = 20 * kMicrosPerSecond;
  config.duration = 0;
  ExperimentResult result = RunExperiment(TinyTpce, config);
  EXPECT_EQ(result.queries_measured, 0u);
}

TEST(Harness, MoreClientsMoreThroughput) {
  ExperimentConfig config = TinyConfig();
  config.clients = 1;
  uint64_t q1 = RunExperiment(TinyTpce, config).queries_measured;
  config.clients = 6;
  uint64_t q6 = RunExperiment(TinyTpce, config).queries_measured;
  EXPECT_GT(q6, q1 * 3);
}

TEST(Harness, RepeatedRunsAggregate) {
  std::vector<uint64_t> db_requests;
  double combined = 0;
  uint64_t errors = 0;
  RepeatedResult repeated =
      RunRepeated(TinyTpce, TinyConfig(), 3, [&](const ExperimentResult& r) {
        db_requests.push_back(r.db_requests);
        combined += static_cast<double>(r.metrics.remote_combined);
        errors += r.errors;
      });
  EXPECT_EQ(repeated.response_ms.count(), 3u);
  EXPECT_EQ(repeated.hit_rate.count(), 3u);
  EXPECT_GT(repeated.response_ms.Mean(), 0.0);
  EXPECT_GE(repeated.response_ms.ConfidenceInterval95(), 0.0);
  // The callback saw every run, the last one last.
  ASSERT_EQ(db_requests.size(), 3u);
  EXPECT_EQ(db_requests.back(), repeated.last.db_requests);
  EXPECT_DOUBLE_EQ(repeated.db_requests.Mean(),
                   (db_requests[0] + db_requests[1] + db_requests[2]) / 3.0);
  // Every run's counters, not the last run's: combined queries as a mean,
  // errors as a sum.
  EXPECT_DOUBLE_EQ(repeated.combined.Mean(), combined / 3.0);
  EXPECT_EQ(repeated.errors, errors);
}

TEST(Harness, SeedsChangeOutcomes) {
  ExperimentConfig config = TinyConfig();
  config.seed = 1;
  ExperimentResult a = RunExperiment(TinyTpce, config);
  config.seed = 2;
  ExperimentResult b = RunExperiment(TinyTpce, config);
  // Different seeds -> different client behaviour -> different samples.
  EXPECT_NE(a.queries_measured, b.queries_measured);
}

// RunRepeated derives each run's seed from the configured one: another
// base seed is another set of runs.
TEST(Harness, RunRepeatedSeedsFromTheConfiguredSeed) {
  ExperimentConfig config = TinyConfig();
  config.seed = 1;
  RepeatedResult a = RunRepeated(TinyTpce, config, 1);
  config.seed = 5;
  RepeatedResult b = RunRepeated(TinyTpce, config, 1);
  EXPECT_NE(a.last.queries_measured, b.last.queries_measured);
}

TEST(Harness, SecurityGroupsReducesSharing) {
  ExperimentConfig shared = TinyConfig();
  shared.clients = 4;
  shared.security_groups = 1;
  ExperimentConfig isolated = shared;
  isolated.security_groups = 4;  // every client its own policy (§5.2.1)
  double shared_hits = RunExperiment(TinyTpce, shared).cache_hit_rate;
  double isolated_hits = RunExperiment(TinyTpce, isolated).cache_hit_rate;
  EXPECT_GE(shared_hits, isolated_hits);
  // Even fully isolated clients benefit from predictive caching (§5.2.1).
  EXPECT_GT(isolated_hits, 0.1);
}

TEST(Harness, MetricsSummedAcrossNodes) {
  ExperimentConfig config = TinyConfig();
  config.nodes = 2;
  config.clients = 4;
  ExperimentResult result = RunExperiment(TinyTpce, config);
  EXPECT_EQ(result.errors, 0u) << result.first_error;
  EXPECT_EQ(result.metrics.reads + result.metrics.writes,
            static_cast<uint64_t>(result.metrics.reads + result.metrics.writes));
  EXPECT_GT(result.metrics.reads, 0u);
}

TEST(Harness, AblationSwitchesSurviveTheModeProfile) {
  // Disabling combining on kChrono must actually disable it.
  ExperimentConfig config = TinyConfig();
  config.middleware.enable_combining = false;
  ExperimentResult result = RunExperiment(TinyTpce, config);
  EXPECT_EQ(result.metrics.remote_combined, 0u);
}

}  // namespace
}  // namespace chrono::harness
