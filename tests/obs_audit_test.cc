// Tests for the prefetch cost/benefit fold (PrefetchAudit): scoreboard
// arithmetic from synthetic event streams, the chrono_prefetch_*_total
// counter families it drives, and an end-to-end run through ChronoServer
// asserting the scraped counters reconcile exactly with the offline
// snapshot — the same guarantee tools/chrono_audit relies on.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "obs/audit.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/server.h"
#include "sql/template.h"

namespace chrono::obs {
namespace {

JournalEvent Ev(JournalEventType type, uint64_t plan = 0, uint64_t src = 0,
                uint64_t tmpl = 0, uint64_t a = 0, uint64_t b = 0,
                uint64_t c = 0, uint8_t flags = 0) {
  JournalEvent event;
  event.type = type;
  event.ts_us = 1;  // folds ignore timestamps
  event.plan = plan;
  event.src = src;
  event.tmpl = tmpl;
  event.a = a;
  event.b = b;
  event.c = c;
  event.flags = flags;
  return event;
}

void Feed(PrefetchAudit* audit, const std::vector<JournalEvent>& events) {
  audit->OnEvents(events.data(), events.size());
}

const PrefetchAudit::Score* FindScore(
    const std::vector<PrefetchAudit::Score>& scores, const std::string& key) {
  for (const PrefetchAudit::Score& s : scores) {
    if (s.key == key) return &s;
  }
  return nullptr;
}

/// Sums one counter family's instances carrying `label_key`, e.g. all
/// chrono_prefetch_installed_total{plan="..."} samples.
uint64_t SumCounters(const MetricsRegistry& registry, const std::string& name,
                     const std::string& label_key) {
  uint64_t total = 0;
  for (const MetricSnapshot& m : registry.Snapshot().metrics) {
    if (m.name != name) continue;
    for (const auto& [k, v] : m.labels) {
      if (k == label_key) {
        total += static_cast<uint64_t>(m.value);
        break;
      }
    }
  }
  return total;
}

TEST(PrefetchAudit, FoldsPlanLifecycleIntoScoreboards) {
  PrefetchAudit audit;
  Feed(&audit, {
      // Plan instance 100 rooted at template 5, two slots. Each event
      // carries the root: in tmpl, or in c for the entry events.
      Ev(JournalEventType::kPlanMined, 100, 0, 5, /*a=*/2),
      Ev(JournalEventType::kCombinedIssued, 100, 0, 5),
      Ev(JournalEventType::kCombinedFetched, 100, 0, 5, /*rows=*/10,
         /*bytes=*/5000, /*round_us=*/2000, kJournalFlagOk),
      Ev(JournalEventType::kEntryInstalled, 100, 0, 5, /*bytes=*/300, 0,
         /*root=*/5),
      Ev(JournalEventType::kEntryInstalled, 100, 5, 7, /*bytes=*/400, 0,
         /*root=*/5),
      Ev(JournalEventType::kEntryUsed, 100, 5, 7, /*bytes=*/400,
         /*ttfu_us=*/1500, /*root=*/5),
      // The root slice dies unused: that is the wasted half of the plan.
      Ev(JournalEventType::kEntryEvicted, 100, 0, 5, /*bytes=*/300,
         /*resident_us=*/900, /*root=*/5, /*flags=*/kJournalEvictCapacity),
  });

  PrefetchAudit::Snapshot snap = audit.snapshot();
  EXPECT_EQ(snap.events_folded, 7u);

  const PrefetchAudit::Score* plan = FindScore(snap.plans, "5");
  ASSERT_NE(plan, nullptr) << "plan keyed by root template";
  EXPECT_EQ(plan->mined, 1u);
  EXPECT_EQ(plan->issued, 1u);
  EXPECT_EQ(plan->fetch_ok, 1u);
  EXPECT_EQ(plan->fetch_failed, 0u);
  EXPECT_EQ(plan->rows_fetched, 10u);
  EXPECT_EQ(plan->wan_bytes, 5000u);
  EXPECT_EQ(plan->installed, 2u);
  EXPECT_EQ(plan->installed_bytes, 700u);
  EXPECT_EQ(plan->used, 1u);
  EXPECT_EQ(plan->evicted_unused, 1u);
  EXPECT_EQ(plan->evicted_used, 0u);
  EXPECT_EQ(plan->wasted_bytes, 300u);
  EXPECT_DOUBLE_EQ(plan->precision, 0.5);
  EXPECT_GT(plan->median_ttfu_us, 0.0);

  const PrefetchAudit::Score* root_edge = FindScore(snap.edges, "root");
  ASSERT_NE(root_edge, nullptr);
  EXPECT_EQ(root_edge->installed, 1u);
  EXPECT_EQ(root_edge->used, 0u);
  EXPECT_EQ(root_edge->evicted_unused, 1u);
  EXPECT_EQ(root_edge->wasted_bytes, 300u);

  const PrefetchAudit::Score* edge = FindScore(snap.edges, "5->7");
  ASSERT_NE(edge, nullptr) << "transition edge keyed src->dst";
  EXPECT_EQ(edge->installed, 1u);
  EXPECT_EQ(edge->used, 1u);
  EXPECT_DOUBLE_EQ(edge->precision, 1.0);
  EXPECT_EQ(edge->wasted_bytes, 0u);

  EXPECT_EQ(snap.TotalInstalled(), 2u);
  EXPECT_EQ(snap.TotalUsed(), 1u);
  EXPECT_EQ(snap.TotalWastedBytes(), 300u);
  EXPECT_DOUBLE_EQ(snap.OverallPrecision(), 0.5);
}

// An entry event files under the root it carries, whether or not the
// plan's kPlanMined was folded: the fold keeps no per-plan table.
TEST(PrefetchAudit, EntryEventsFileUnderTheirCarriedRoot) {
  PrefetchAudit audit;
  Feed(&audit, {
      // Plan 42, rooted at template 8: its kPlanMined was never folded.
      Ev(JournalEventType::kEntryInstalled, 42, 0, 8, /*bytes=*/100, 0,
         /*root=*/8),
      Ev(JournalEventType::kEntryUsed, 42, 0, 8, /*bytes=*/100,
         /*ttfu_us=*/10, /*root=*/8),
      // A hit on that entry carries the root in place of the plan id.
      Ev(JournalEventType::kRequest, /*root=*/8, 0, 8, 0, 0, 0,
         static_cast<uint8_t>(TraceOutcome::kCacheHit) |
             kJournalFlagNoLatency),
  });

  PrefetchAudit::Snapshot snap = audit.snapshot();
  const PrefetchAudit::Score* plan = FindScore(snap.plans, "8");
  ASSERT_NE(plan, nullptr) << "the entry landed on its root's board";
  EXPECT_EQ(plan->installed, 1u);
  EXPECT_EQ(plan->used, 1u);
  EXPECT_EQ(plan->hits, 1u);
  EXPECT_EQ(FindScore(snap.plans, "unknown"), nullptr);
}

TEST(PrefetchAudit, UnknownPlanAndInvalidationWasteAccounting) {
  PrefetchAudit audit;
  Feed(&audit, {
      // Plan 999's events carry no root (c = 0): everything folds under
      // "unknown" instead of being lost.
      Ev(JournalEventType::kEntryInstalled, 999, 0, 4, /*bytes=*/500),
      Ev(JournalEventType::kEntryInvalidated, 999, 0, 4, /*bytes=*/500,
         /*resident_us=*/100, 0, /*flags=*/0),  // unused: wasted
      Ev(JournalEventType::kEntryInstalled, 999, 0, 4, /*bytes=*/200),
      Ev(JournalEventType::kEntryUsed, 999, 0, 4, /*bytes=*/200, 10),
      Ev(JournalEventType::kEntryInvalidated, 999, 0, 4, /*bytes=*/200,
         /*resident_us=*/300, 0, /*flags=*/kJournalFlagUsed),  // earned
  });

  PrefetchAudit::Snapshot snap = audit.snapshot();
  const PrefetchAudit::Score* plan = FindScore(snap.plans, "unknown");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->installed, 2u);
  EXPECT_EQ(plan->invalidated, 2u);
  EXPECT_EQ(plan->invalidated_unused, 1u);
  // Only the entry that died before any hit counts as wasted WAN bytes.
  EXPECT_EQ(plan->wasted_bytes, 500u);
  EXPECT_EQ(snap.TotalInvalidated(), 2u);
  EXPECT_EQ(snap.TotalWastedBytes(), 500u);
}

TEST(PrefetchAudit, FoldsRequestOutcomesAndStageProfile) {
  PrefetchAudit audit;
  JournalEvent timed = Ev(JournalEventType::kRequest, 0, 0, /*tmpl=*/9,
                          PackDurations(10, 20), PackDurations(30, 40),
                          PackDurations(5, 105),
                          static_cast<uint8_t>(TraceOutcome::kRemotePlain));
  // A simulator-style event: outcome counts, but no wall-clock latency.
  JournalEvent no_latency =
      Ev(JournalEventType::kRequest, 0, 0, /*tmpl=*/9, 0, 0, 0,
         static_cast<uint8_t>(TraceOutcome::kCacheHit) |
             kJournalFlagNoLatency);
  Feed(&audit, {timed, no_latency});

  PrefetchAudit::Snapshot snap = audit.snapshot();
  EXPECT_EQ(snap.requests, 2u);
  EXPECT_EQ(snap.requests_with_latency, 1u);
  EXPECT_EQ(snap.outcome_counts[static_cast<int>(TraceOutcome::kRemotePlain)],
            1u);
  EXPECT_EQ(snap.outcome_counts[static_cast<int>(TraceOutcome::kCacheHit)],
            1u);
  const uint64_t expected[PrefetchAudit::kStageSlots] = {10, 20, 30,
                                                         40, 5,  105};
  for (int s = 0; s < PrefetchAudit::kStageSlots; ++s) {
    EXPECT_EQ(snap.stage_sum_us[s], expected[s]) << "stage " << s;
  }

  ASSERT_EQ(snap.templates.size(), 1u);
  EXPECT_EQ(snap.templates[0].tmpl, 9u);
  EXPECT_EQ(snap.templates[0].requests, 2u);
  const PrefetchAudit::OutcomeLatency& plain =
      snap.templates[0]
          .outcomes[static_cast<int>(TraceOutcome::kRemotePlain)];
  EXPECT_EQ(plain.count, 1u);
  EXPECT_DOUBLE_EQ(plain.mean_us, 105.0);
}

TEST(PrefetchAudit, DrivesCounterFamiliesThatReconcileWithSnapshot) {
  MetricsRegistry registry;
  PrefetchAudit audit(&registry);
  Feed(&audit, {
      Ev(JournalEventType::kPlanMined, 1, 0, 5, 2),
      Ev(JournalEventType::kEntryInstalled, 1, 0, 5, 300, 0, 5),
      Ev(JournalEventType::kEntryInstalled, 1, 5, 7, 400, 0, 5),
      Ev(JournalEventType::kEntryUsed, 1, 5, 7, 400, 10, 5),
      Ev(JournalEventType::kEntryEvicted, 1, 0, 5, 300, 100, 5, 0),
      Ev(JournalEventType::kEntryInstalled, 2, 0, 4, 100),  // unknown plan
      Ev(JournalEventType::kEntryInvalidated, 2, 0, 4, 100, 50, 0, 0),
  });

  PrefetchAudit::Snapshot snap = audit.snapshot();
  // The counters and the snapshot are two views of one fold: sums over
  // either label dimension must equal the snapshot totals exactly.
  for (const char* dim : {"plan", "edge"}) {
    EXPECT_EQ(SumCounters(registry, "chrono_prefetch_installed_total", dim),
              snap.TotalInstalled())
        << dim;
    EXPECT_EQ(SumCounters(registry, "chrono_prefetch_used_total", dim),
              snap.TotalUsed())
        << dim;
    EXPECT_EQ(SumCounters(registry, "chrono_prefetch_invalidated_total", dim),
              snap.TotalInvalidated())
        << dim;
    EXPECT_EQ(SumCounters(registry, "chrono_prefetch_wasted_bytes_total", dim),
              snap.TotalWastedBytes())
        << dim;
  }
  EXPECT_EQ(snap.TotalInstalled(), 3u);
  EXPECT_EQ(snap.TotalUsed(), 1u);
  EXPECT_EQ(snap.TotalInvalidated(), 1u);
  EXPECT_EQ(snap.TotalWastedBytes(), 400u);  // 300 evicted + 100 invalidated
}

// Facts a hot-path counter already counts (core::Engine owns their
// families) fold into the Availability and Overload boards only: the audit
// must not register a second family for them. Event-only facts (breaker
// and brownout transitions, late executions) keep their audit families.
TEST(PrefetchAudit, CountedFactsFoldIntoBoardsWithoutFamilies) {
  MetricsRegistry registry;
  PrefetchAudit audit(&registry);
  JournalEvent late = Ev(JournalEventType::kRequest);
  late.flags = kJournalFlagLate;
  Feed(&audit,
       {
           Ev(JournalEventType::kBackendRetry, 0, 0, 3, 1, 200),
           Ev(JournalEventType::kBackendRetry, 0, 0, 3, 2, 400),
           Ev(JournalEventType::kBackendTimeout, 0, 0, 3, 10,
              kTimeoutBackend),
           Ev(JournalEventType::kBackendTimeout, 0, 0, 3, 10,
              kTimeoutClientDeadline, 0, kJournalFlagWrite),
           Ev(JournalEventType::kStaleServe, 0, 0, 3, 700, 5000),
           Ev(JournalEventType::kShed, 9, 0, 0, kShedQueueFull),
           Ev(JournalEventType::kShed, 9, 0, 0, kShedBreakerUnhealthy),
           Ev(JournalEventType::kBackendCoalesced, 0, 0, 3, 0, 0, 0,
              kJournalFlagOk),
           // Session-rejected park: the follower refetched, nothing saved.
           Ev(JournalEventType::kBackendCoalesced, 0, 0, 3, 1, 1, 0,
              kJournalFlagOk),
           Ev(JournalEventType::kShedQueue, 0, 0, 0, kOverloadShedPrefetch),
           Ev(JournalEventType::kShedQueue, 0, 0, 0, kOverloadShedPipeline),
           Ev(JournalEventType::kShedQueue, 0, 0, 0, kOverloadShedAdmission),
           Ev(JournalEventType::kDeadlineExpired, 0, 0, 0, 30, 50, 0,
              kJournalFlagDrain),
           Ev(JournalEventType::kBreakerTransition, 0, 0, 0, 1, 0),
           Ev(JournalEventType::kBrownoutTransition, 0, 0, 0, 1, 0, 900),
           late,
       });

  PrefetchAudit::Snapshot snap = audit.snapshot();
  const PrefetchAudit::Availability& av = snap.availability;
  EXPECT_EQ(av.backend_retries, 2u);
  EXPECT_EQ(av.backoff_us, 600u);
  EXPECT_EQ(av.backend_timeouts, 2u);
  EXPECT_EQ(av.write_timeouts, 1u);
  EXPECT_EQ(av.stale_serves, 1u);
  EXPECT_EQ(av.stale_age_us, 700u);
  EXPECT_EQ(av.shed_queue, 1u);
  EXPECT_EQ(av.shed_breaker, 1u);
  EXPECT_EQ(av.backend_coalesced, 1u);
  EXPECT_EQ(av.breaker_open, 1u);
  const PrefetchAudit::Overload& ov = snap.overload;
  EXPECT_EQ(ov.shed_prefetch, 1u);
  EXPECT_EQ(ov.shed_pipeline, 1u);
  EXPECT_EQ(ov.shed_admission, 1u);
  EXPECT_EQ(ov.deadline_expired, 1u);
  EXPECT_EQ(ov.expired_in_drain, 1u);
  EXPECT_EQ(ov.brownout_transitions, 1u);
  EXPECT_EQ(ov.late_executions, 1u);

  std::vector<std::string> families;
  for (const MetricSnapshot& m : registry.Snapshot().metrics) {
    families.push_back(m.name);
  }
  for (const char* owned_by_engine :
       {"chrono_backend_retries_total", "chrono_backend_timeouts_total",
        "chrono_backend_coalesced_total", "chrono_stale_serves_total",
        "chrono_shed_total", "chrono_overload_shed_total",
        "chrono_overload_deadline_expired_total"}) {
    EXPECT_EQ(std::count(families.begin(), families.end(), owned_by_engine),
              0)
        << owned_by_engine;
  }
  for (const char* event_only :
       {"chrono_breaker_transitions_total",
        "chrono_overload_brownout_transitions_total",
        "chrono_overload_late_executions_total"}) {
    EXPECT_EQ(std::count(families.begin(), families.end(), event_only), 1)
        << event_only;
  }
}

// End-to-end: a real ChronoServer run whose scraped chrono_prefetch_*
// counters must reconcile with the audit snapshot from the same journal —
// the property that makes /metrics and chrono_audit interchangeable.
TEST(PrefetchAuditE2E, ServerCountersReconcileWithAuditSnapshot) {
  db::Database db;
  ASSERT_TRUE(db.ExecuteText("CREATE TABLE t (id INT, v TEXT)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.ExecuteText("INSERT INTO t (id, v) VALUES (" +
                               std::to_string(i) + ", 'v" +
                               std::to_string(i) + "')")
                    .ok());
  }

  MetricsRegistry registry;
  runtime::ServerConfig config;
  config.workers = 2;
  config.extract_every = 2;
  config.registry = &registry;
  runtime::ChronoServer server(&db, config);
  ASSERT_NE(server.journal(), nullptr);
  ASSERT_NE(server.audit(), nullptr);

  // The same learnable pattern as the runtime tests: an id read drives a
  // dependent lookup, so the graph mines a combined plan and prefetches.
  for (int round = 0; round < 12; ++round) {
    int id = round % 4;
    ASSERT_TRUE(server
                    .Submit(1, "SELECT id FROM t WHERE id = " +
                                   std::to_string(id))
                    .get()
                    .ok());
    ASSERT_TRUE(server
                    .Submit(1, "SELECT v FROM t WHERE id = " +
                                   std::to_string(id))
                    .get()
                    .ok());
  }
  server.Shutdown();  // drains queued background prefetches
  runtime::ServerMetrics m = server.metrics();
  server.journal()->Stop();  // final drain into the audit sink
  EXPECT_EQ(server.journal()->events_dropped(), 0u);

  PrefetchAudit::Snapshot snap = server.audit()->snapshot();
  EXPECT_EQ(snap.requests, 24u);  // one kRequest per served statement
  EXPECT_GT(m.remote_combined + m.predictions_cached, 0u)
      << "workload must actually trigger prefetching";
  // Every predictively cached entry produced exactly one kEntryInstalled.
  EXPECT_EQ(snap.TotalInstalled(), m.predictions_cached);
  if (m.predictions_cached > 0) {
    EXPECT_FALSE(snap.plans.empty());
    EXPECT_FALSE(snap.edges.empty());
  }

  for (const char* dim : {"plan", "edge"}) {
    EXPECT_EQ(SumCounters(registry, "chrono_prefetch_installed_total", dim),
              snap.TotalInstalled())
        << dim;
    EXPECT_EQ(SumCounters(registry, "chrono_prefetch_used_total", dim),
              snap.TotalUsed())
        << dim;
    EXPECT_EQ(SumCounters(registry, "chrono_prefetch_invalidated_total", dim),
              snap.TotalInvalidated())
        << dim;
    EXPECT_EQ(SumCounters(registry, "chrono_prefetch_wasted_bytes_total", dim),
              snap.TotalWastedBytes())
        << dim;
  }
}

// chrono_prediction_hits_total{edge} is folded from the kRequest records
// with the audit's edge key: every label is one of the audit's edges (a
// hit on a plan's root entry is "root", like its installs), and the
// family sums to the engine's prefetched_hits.
TEST(PrefetchAuditE2E, PredictionHitEdgesAreAuditEdges) {
  db::Database db;
  ASSERT_TRUE(db.ExecuteText("CREATE TABLE t (id INT, v TEXT)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.ExecuteText("INSERT INTO t (id, v) VALUES (" +
                               std::to_string(i) + ", 'v" +
                               std::to_string(i) + "')")
                    .ok());
  }
  MetricsRegistry registry;
  runtime::ServerConfig config;
  config.workers = 2;
  config.extract_every = 2;
  config.registry = &registry;
  runtime::ChronoServer server(&db, config);

  // Fresh ids after the pattern is learned: each id read misses and its
  // covering plan answers it from the root slot.
  for (int id = 0; id < 24; ++id) {
    for (const char* column : {"id", "v"}) {
      ASSERT_TRUE(server
                      .Submit(1, std::string("SELECT ") + column +
                                     " FROM t WHERE id = " +
                                     std::to_string(id))
                      .get()
                      .ok());
    }
  }
  server.Shutdown();
  const runtime::ServerMetrics m = server.metrics();
  server.journal()->Stop();
  ASSERT_GT(m.prediction_hits, 0u) << "no read was answered by its plan";

  std::set<std::string> edges;
  for (const PrefetchAudit::Score& edge : server.audit()->snapshot().edges) {
    edges.insert(edge.key);
  }
  uint64_t attributed = 0;
  for (const MetricSnapshot& ms : registry.Snapshot().metrics) {
    if (ms.name != "chrono_prediction_hits_total") continue;
    ASSERT_EQ(ms.labels.size(), 1u);
    EXPECT_EQ(ms.labels.begin()->first, "edge");
    EXPECT_EQ(edges.count(ms.labels.begin()->second), 1u)
        << "edge " << ms.labels.begin()->second << " is not an audit edge";
    attributed += static_cast<uint64_t>(ms.value);
  }
  EXPECT_EQ(attributed, m.prefetched_hits);
  EXPECT_GT(attributed, 0u);
}

// A covering plan is combined only on the miss path that issues it: with
// nothing shed (no faults, brownout off, an idle pool) every mined plan is
// issued, even when the covered query is then answered from the cache.
TEST(PrefetchAuditE2E, EveryMinedPlanIsIssuedWhenNothingIsShed) {
  db::Database db;
  ASSERT_TRUE(db.ExecuteText("CREATE TABLE t (id INT, v TEXT)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.ExecuteText("INSERT INTO t (id, v) VALUES (" +
                               std::to_string(i) + ", 'v" +
                               std::to_string(i) + "')")
                    .ok());
  }
  runtime::ServerConfig config;
  config.workers = 2;
  config.extract_every = 2;
  runtime::ChronoServer server(&db, config);

  for (int round = 0; round < 24; ++round) {
    int id = round % 4;
    ASSERT_TRUE(server
                    .Submit(1, "SELECT id FROM t WHERE id = " +
                                   std::to_string(id))
                    .get()
                    .ok());
    ASSERT_TRUE(server
                    .Submit(1, "SELECT v FROM t WHERE id = " +
                                   std::to_string(id))
                    .get()
                    .ok());
  }
  // Let queued background prefetches start; Shutdown then waits for them.
  while (server.pool().queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Shutdown();
  runtime::ServerMetrics m = server.metrics();
  server.journal()->Stop();
  EXPECT_EQ(server.journal()->events_dropped(), 0u);
  ASSERT_EQ(m.prefetches_dropped + m.prefetches_shed_breaker +
                m.brownout_sheds,
            0u);

  PrefetchAudit::Snapshot snap = server.audit()->snapshot();
  uint64_t mined = 0, issued = 0;
  for (const PrefetchAudit::Score& plan : snap.plans) {
    mined += plan.mined;
    issued += plan.issued;
  }
  EXPECT_GT(mined, 0u) << "workload must mine combined plans";
  EXPECT_GT(m.cache_hits, 0u);
  EXPECT_EQ(mined, issued);
  EXPECT_EQ(issued, m.remote_combined);
}

/// Keeps every drained journal event for post-run assertions.
class CollectSink : public JournalSink {
 public:
  void OnEvents(const JournalEvent* events, size_t count) override {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.insert(events_.end(), events, events + count);
  }
  std::vector<JournalEvent> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  std::mutex mutex_;
  std::vector<JournalEvent> events_;
};

// End-to-end: a plan whose trigger is not its root. The in-loop query
// carries a per-loop constant (§2.2), so the graph has two text
// dependencies — the root that supplies the loop's rows and the in-loop
// query whose first iteration supplies the constant — and it is that
// first iteration, not the root, that makes the graph ready. kPlanMined
// must carry the root template (DESIGN.md §10), and the audit's per-plan
// boards must be keyed by it.
TEST(PrefetchAuditE2E, PlanMinedCarriesRootNotTrigger) {
  db::Database db;
  ASSERT_TRUE(db.ExecuteText("CREATE TABLE t (grp INT, id INT)").ok());
  ASSERT_TRUE(db.ExecuteText("CREATE TABLE p (id INT, tag TEXT, x TEXT)").ok());
  for (int id = 0; id < 32; ++id) {
    const std::string i = std::to_string(id);
    ASSERT_TRUE(db.ExecuteText("INSERT INTO t (grp, id) VALUES (" +
                               std::to_string(id % 4) + ", " + i + ")")
                    .ok());
    ASSERT_TRUE(db.ExecuteText("INSERT INTO p (id, tag, x) VALUES (" + i +
                               ", 'c', 'x" + i + "')")
                    .ok());
  }
  const std::string root_sql = "SELECT id FROM t WHERE grp = 0";
  const std::string loop_sql = "SELECT x FROM p WHERE id = 0 AND tag = 'c'";
  auto tmpl_of = [](const std::string& sql) {
    auto parsed = sql::AnalyzeQuery(sql);
    EXPECT_TRUE(parsed.ok()) << sql;
    return parsed.ok() ? static_cast<uint64_t>(parsed->tmpl->id) : 0;
  };
  const uint64_t root = tmpl_of(root_sql);
  const uint64_t trigger = tmpl_of(loop_sql);
  ASSERT_NE(root, trigger);

  runtime::ServerConfig config;
  config.workers = 2;
  config.extract_every = 2;
  runtime::ChronoServer server(&db, config);
  ASSERT_NE(server.journal(), nullptr);
  CollectSink collect;
  server.journal()->AddSink(&collect);

  // Market-Watch shape: a group's ids, then one lookup per id, each with
  // the same unmapped tag constant.
  for (int round = 0; round < 12; ++round) {
    auto ids = server
                   .Submit(1, "SELECT id FROM t WHERE grp = " +
                                  std::to_string(round % 4))
                   .get();
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    for (size_t r = 0; r < (*ids)->row_count(); ++r) {
      const std::string sql = "SELECT x FROM p WHERE id = " +
                              std::to_string((*ids)->row(r)[0].AsInt()) +
                              " AND tag = 'c'";
      ASSERT_TRUE(server.Submit(1, sql).get().ok()) << sql;
    }
  }
  server.Shutdown();
  server.journal()->Stop();

  std::vector<JournalEvent> mined;
  for (const JournalEvent& event : collect.Take()) {
    if (event.type == JournalEventType::kPlanMined) mined.push_back(event);
  }
  ASSERT_FALSE(mined.empty()) << "the loop graph was never mined";
  for (const JournalEvent& event : mined) {
    EXPECT_EQ(event.tmpl, root) << "plan " << event.plan;
    EXPECT_NE(event.tmpl, trigger) << "plan " << event.plan;
  }
  PrefetchAudit::Snapshot snap = server.audit()->snapshot();
  ASSERT_FALSE(snap.plans.empty());
  for (const auto& board : snap.plans) {
    EXPECT_EQ(board.key, std::to_string(root));
  }
}

}  // namespace
}  // namespace chrono::obs
