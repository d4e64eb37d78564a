// Pins the exported metric surface: after a short run, the wall-clock
// ChronoServer (journal on) and the simulator Middleware must export every
// chrono_* family name with the label keys they exported before their
// counters moved into one core::Engine table (DESIGN.md §9). The expected
// lists are literals so a renamed family or label key fails here, not on a
// dashboard. A family may be added; none may disappear.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/middleware.h"
#include "db/database.h"
#include "obs/metrics.h"
#include "runtime/server.h"

namespace chrono {
namespace {

/// "family{key,key}" for every series in the registry: label keys only,
/// since values (edges, shards, sites) depend on the run.
std::set<std::string> Families(const obs::MetricsRegistry& registry) {
  std::set<std::string> out;
  for (const obs::MetricSnapshot& m : registry.Snapshot().metrics) {
    if (m.name.rfind("chrono_", 0) != 0) continue;
    std::set<std::string> keys;
    for (const auto& [key, value] : m.labels) keys.insert(key);
    std::string family = m.name + "{";
    for (const std::string& key : keys) {
      if (family.back() != '{') family += ",";
      family += key;
    }
    out.insert(family + "}");
  }
  return out;
}

void ExpectExportsAll(const std::set<std::string>& got,
                      const std::set<std::string>& expected) {
  for (const std::string& family : expected) {
    EXPECT_EQ(got.count(family), 1u) << "no longer exported: " << family;
  }
}

void Populate(db::Database* db) {
  ASSERT_TRUE(db->ExecuteText("CREATE TABLE t (id INT, v TEXT)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->ExecuteText("INSERT INTO t (id, v) VALUES (" +
                                std::to_string(i) + ", 'v" +
                                std::to_string(i) + "')")
                    .ok());
  }
}

/// The learnable chain the runtime tests use (an id read drives a
/// dependent lookup), then a write and a repeat read.
std::vector<std::string> Statements() {
  std::vector<std::string> out;
  for (int round = 0; round < 12; ++round) {
    const std::string id = std::to_string(round % 4);
    out.push_back("SELECT id FROM t WHERE id = " + id);
    out.push_back("SELECT v FROM t WHERE id = " + id);
  }
  out.push_back("UPDATE t SET v = 'w' WHERE id = 7");
  out.push_back("SELECT v FROM t WHERE id = 7");
  return out;
}

TEST(MetricFamilies, ChronoServerKeepsEveryFamilyAndLabelKey) {
  db::Database db;
  Populate(&db);
  obs::MetricsRegistry registry;
  runtime::ServerConfig config;
  config.workers = 2;
  config.extract_every = 2;
  config.registry = &registry;
  runtime::ChronoServer server(&db, config);
  for (const std::string& sql : Statements()) {
    ASSERT_TRUE(server.Submit(1, sql).get().ok()) << sql;
  }
  server.Shutdown();
  ASSERT_NE(server.journal(), nullptr);
  server.journal()->Stop();

  // Exported before the node counters moved into core::Engine's table.
  ExpectExportsAll(Families(registry), {
      "chrono_breaker_rejects_total{}",
      "chrono_breaker_state{}",
      "chrono_build_info{build,git_sha,sanitizer,version}",
      "chrono_cache_entries{cache}",
      "chrono_cache_evictions_total{cache}",
      "chrono_cache_hits_total{cache}",
      "chrono_cache_misses_total{cache}",
      "chrono_cache_rejects_total{reason}",
      "chrono_cache_version_gap_serves_total{}",
      "chrono_db_statement_latency_ns{kind}",
      "chrono_db_statements_total{}",
      "chrono_errors_total{}",
      "chrono_faults_injected_total{}",
      "chrono_lock_acquisitions_total{site}",
      "chrono_lock_contended_total{site}",
      "chrono_lock_hold_ns{site}",
      "chrono_lock_wait_ns{site}",
      "chrono_overload_brownout_level{}",
      "chrono_pool_lane_depth{lane}",
      "chrono_pool_queue_depth_peak{}",
      "chrono_pool_queue_depth{}",
      "chrono_pool_queue_wait_ns{lane}",
      "chrono_pool_run_ns{}",
      "chrono_pool_tasks_executed_total{}",
      "chrono_pool_tasks_failed_total{}",
      "chrono_prediction_fallbacks_total{}",
      "chrono_prediction_hits_total{edge}",
      "chrono_prediction_inline_hits_total{}",
      "chrono_predictions_cached_total{}",
      "chrono_prefetch_installed_total{edge}",
      "chrono_prefetch_installed_total{plan}",
      "chrono_prefetch_used_total{edge}",
      "chrono_prefetch_used_total{plan}",
      "chrono_prefetched_hits_total{}",
      "chrono_remote_combined_total{}",
      "chrono_remote_plain_total{}",
      "chrono_request_latency_ns{op}",
      "chrono_requests_total{op}",
      "chrono_result_cache_bytes{}",
      "chrono_result_cache_capacity_bytes{}",
      "chrono_result_cache_shard_bytes{shard}",
      "chrono_result_cache_shard_entries{shard}",
      "chrono_result_cache_shard_evictions{shard}",
      "chrono_sessions{}",
      "chrono_stage_latency_ns{stage}",
      "chrono_traces_total{}",
  });
}

TEST(MetricFamilies, MiddlewareKeepsEveryFamilyAndLabelKey) {
  db::Database db;
  Populate(&db);
  EventQueue events;
  net::LatencyModel latency;
  core::RemoteDbServer remote(&events, &db, latency, 8);
  core::MiddlewareConfig config;
  config.extract_every = 2;
  obs::MetricsRegistry registry;  // outlives the middleware
  core::Middleware middleware(&events, &remote, latency, config);
  middleware.RegisterMetrics(&registry);
  for (const std::string& sql : Statements()) {
    bool ok = false;
    middleware.SubmitQuery(
        1, 0, sql, [&ok](SimTime, const Result<sql::ResultSet>& result) {
          ok = result.ok();
        });
    events.RunAll();
    ASSERT_TRUE(ok) << sql;
  }

  // Exported before the node counters moved into core::Engine's table.
  ExpectExportsAll(Families(registry), {
      "chrono_backend_coalesced_total{}",
      "chrono_backend_retries_total{}",
      "chrono_cache_entries{cache}",
      "chrono_cache_evictions_total{cache}",
      "chrono_cache_hits_total{cache}",
      "chrono_cache_misses_total{cache}",
      "chrono_cache_rejects_total{reason}",
      "chrono_cache_version_gap_serves_total{}",
      "chrono_prediction_fallbacks_total{}",
      "chrono_predictions_cached_total{}",
      "chrono_redundant_skips_total{}",
      "chrono_remote_combined_total{}",
      "chrono_remote_plain_total{}",
      "chrono_requests_total{op}",
      "chrono_result_cache_bytes{}",
      "chrono_result_cache_capacity_bytes{}",
      "chrono_result_cache_shard_bytes{shard}",
      "chrono_result_cache_shard_entries{shard}",
      "chrono_result_cache_shard_evictions{shard}",
      "chrono_sequential_prefetches_total{}",
  });
}

}  // namespace
}  // namespace chrono
