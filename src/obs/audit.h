#ifndef CHRONOCACHE_OBS_AUDIT_H_
#define CHRONOCACHE_OBS_AUDIT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chrono::obs {

/// \brief Prefetch cost/benefit aggregator: a JournalSink that folds the
/// event stream into per-plan and per-transition-edge scoreboards —
/// precision (used ÷ installed), wasted WAN bytes, median time-to-first-use
/// and net latency saved vs. demand-fetch — plus per-template latency
/// digests and a pipeline stage-time profile. This is the data the paper's
/// *adaptive* half needs: which mined plans earn their WAN bytes.
///
/// Plans are keyed by their *root (trigger) template*, not the unique
/// per-instance plan id, so the scoreboard stays bounded by the workload's
/// template count. Every event of a plan carries that root (obs::JournalEvent
/// says where), so the fold keeps no per-plan state; an event without one
/// folds under "unknown".
/// Edges are keyed "src->dst" ("root" when the entry's template was a
/// text-dependency root of the plan), the one edge key of every per-edge
/// family, chrono_prediction_hits_total{edge} included.
///
/// Thread safety: OnEvents arrives single-threaded from Drain(); snapshot()
/// may be called concurrently (StatsServer /prefetch, the bench progress
/// line), so one internal mutex guards all state. When constructed with a
/// registry, folding also drives the counter families of the facts that
/// exist only as events — chrono_prefetch_{installed,used,wasted_bytes,
/// invalidated}_total, chrono_prediction_hits_total{edge} (the per-edge
/// split of core::Engine's prefetched_hits),
/// chrono_breaker_transitions_total{to},
/// chrono_overload_brownout_transitions_total{to} and
/// chrono_overload_late_executions_total — so scraped counters and offline
/// chrono_audit numbers are two views of the same fold. Facts a hot-path
/// counter already counts (retries, timeouts, stale serves, sheds,
/// coalesced fetches, expired deadlines) fold into the boards only; their
/// families belong to core::Engine (DESIGN.md §9).
class PrefetchAudit : public JournalSink {
 public:
  /// `registry` (nullable) receives the event-only counter families; it
  /// must outlive the audit.
  explicit PrefetchAudit(MetricsRegistry* registry = nullptr);

  void OnEvents(const JournalEvent* events, size_t count) override;

  /// One scoreboard row (a plan root template or a transition edge).
  struct Score {
    std::string key;                // "<root tmpl>" / "unknown" / "a->b"
    uint64_t mined = 0;             // plan boards only
    uint64_t issued = 0;            // combined queries sent
    uint64_t fetch_ok = 0;          // combined responses that parsed
    uint64_t fetch_failed = 0;
    uint64_t rows_fetched = 0;
    uint64_t wan_bytes = 0;         // combined result bytes over the WAN
    uint64_t db_round_us = 0;       // summed combined round-trip time
    uint64_t installed = 0;
    uint64_t installed_bytes = 0;
    uint64_t used = 0;              // entries that served >= 1 hit
    uint64_t used_bytes = 0;
    uint64_t evicted_unused = 0;
    uint64_t evicted_used = 0;
    uint64_t invalidated = 0;       // total invalidated-by-write
    uint64_t invalidated_unused = 0;
    uint64_t wasted_bytes = 0;      // bytes of entries that died unused
    uint64_t hits = 0;              // requests answered by these entries
    uint64_t hit_latency_us = 0;
    double precision = 0;           // used / installed (0 when none)
    double median_ttfu_us = 0;      // median install → first-use gap
    /// Σ_tmpl hits × mean demand-fetch latency(tmpl) − hit latency sum;
    /// 0 when no demand-fetch baseline exists for any hit template.
    double net_saved_us = 0;
  };

  /// Per-template request-latency breakdown, one row per TraceOutcome.
  struct OutcomeLatency {
    uint64_t count = 0;
    double mean_us = 0;
    double p50_us = 0;
    double p99_us = 0;
  };
  struct TemplateStats {
    uint64_t tmpl = 0;
    uint64_t requests = 0;
    OutcomeLatency outcomes[kTraceOutcomeCount];  // indexed by TraceOutcome
  };

  /// Availability/degradation board folded from the fault-tolerance
  /// events (retries, timeouts, breaker transitions, stale serves, shed
  /// work, coalesced fetches). Of these only the breaker transitions drive
  /// a family here (chrono_breaker_transitions_total{to}).
  struct Availability {
    uint64_t backend_retries = 0;
    uint64_t backoff_us = 0;        // summed backoff waits
    uint64_t backend_timeouts = 0;
    uint64_t write_timeouts = 0;    // subset of timeouts on writes
    uint64_t stale_serves = 0;
    uint64_t stale_age_us = 0;      // summed age of served stale entries
    uint64_t shed_queue = 0;        // prefetch shed: pool queue saturated
    uint64_t shed_breaker = 0;      // prefetch shed: breaker unhealthy
    uint64_t breaker_open = 0;      // transitions into each state
    uint64_t breaker_half_open = 0;
    uint64_t breaker_closed = 0;    // re-closes only (not the initial state)
    uint64_t backend_coalesced = 0; // misses served by an in-flight fetch

    bool Any() const {
      return backend_retries | backend_timeouts | stale_serves | shed_queue |
             shed_breaker | breaker_open | breaker_half_open | breaker_closed |
             backend_coalesced;
    }
  };

  /// Overload-control board folded from the §17 events (kShedQueue,
  /// kDeadlineExpired, kBrownoutTransition, and the kJournalFlagLate bit
  /// on kRequest). Of these only the brownout transitions and late
  /// executions drive families here
  /// (chrono_overload_brownout_transitions_total{to},
  /// chrono_overload_late_executions_total).
  struct Overload {
    uint64_t shed_prefetch = 0;    // brownout level >= 1 dropped prefetches
    uint64_t shed_pipeline = 0;    // level >= 2 refused pipelined Querys
    uint64_t shed_admission = 0;   // level >= 3 refused new Querys
    uint64_t deadline_expired = 0; // expired in queue; rejected unexecuted
    uint64_t expired_in_drain = 0; // subset rejected during shutdown drain
    uint64_t expired_lateness_us = 0;  // summed µs past deadline at dequeue
    uint64_t brownout_transitions = 0;
    uint64_t max_level = 0;        // highest brownout level ever entered
    /// §17 invariant violation: requests that started executing after
    /// their client deadline had already passed. Must stay zero — expired
    /// work is rejected at dequeue, never run.
    uint64_t late_executions = 0;

    bool Any() const {
      return shed_prefetch | shed_pipeline | shed_admission |
             deadline_expired | brownout_transitions | late_executions;
    }
  };

  /// Wire-frontend board folded from kWireRequest events: the network-hop
  /// view of the served requests, so an offline chrono_audit run over a
  /// journal recorded behind TCP (§13) still reconciles with the node's
  /// scraped chrono_wire_* counters.
  struct Wire {
    uint64_t requests = 0;
    uint64_t failed = 0;          // answered with an Error frame
    uint64_t response_bytes = 0;  // summed encoded response frames
    double mean_latency_us = 0;   // frame decoded -> response queued
    double p50_latency_us = 0;
    double p99_latency_us = 0;

    bool Any() const { return requests != 0; }
  };

  static constexpr int kStageSlots = 6;  // 5 pipeline stages + total

  struct Snapshot {
    uint64_t events_folded = 0;
    uint64_t requests = 0;
    uint64_t outcome_counts[kTraceOutcomeCount] = {};
    Availability availability;
    Overload overload;
    Wire wire;
    /// Summed µs per pipeline stage across all requests with latency:
    /// analyze, cache-lookup, learn/combine, db-execute, split/decode,
    /// total (the same order as obs::Stage, total last).
    uint64_t stage_sum_us[kStageSlots] = {};
    uint64_t requests_with_latency = 0;
    std::vector<Score> plans;      // sorted by key
    std::vector<Score> edges;      // sorted by key
    std::vector<TemplateStats> templates;  // sorted by template id

    uint64_t TotalInstalled() const;
    uint64_t TotalUsed() const;
    uint64_t TotalWastedBytes() const;
    uint64_t TotalInvalidated() const;
    /// Σ used ÷ Σ installed across plan boards (0 when none installed).
    double OverallPrecision() const;
  };

  Snapshot snapshot() const;

 private:
  /// Non-atomic latency digest reusing Histogram's log-bucket scheme;
  /// cheap enough to keep one per (template, outcome). Buckets allocate
  /// lazily on first Record.
  struct Digest {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::vector<uint32_t> buckets;

    void Record(uint64_t value);
    double Mean() const;
    double Percentile(double q) const;
  };

  struct Board {
    uint64_t mined = 0, issued = 0, fetch_ok = 0, fetch_failed = 0;
    uint64_t rows_fetched = 0, wan_bytes = 0, db_round_us = 0;
    uint64_t installed = 0, installed_bytes = 0;
    uint64_t used = 0, used_bytes = 0;
    uint64_t evicted_unused = 0, evicted_used = 0;
    uint64_t invalidated = 0, invalidated_unused = 0;
    uint64_t wasted_bytes = 0;
    uint64_t hits = 0, hit_latency_us = 0;
    Digest ttfu_us;
    // hits + hit latency per template, for the demand-fetch baseline.
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> hit_by_tmpl;
  };

  struct TemplateAgg {
    uint64_t requests = 0;
    Digest by_outcome[kTraceOutcomeCount];
  };

  void Fold(const JournalEvent& event);
  /// A plan board's key: the plan's root template, "unknown" for 0.
  static std::string PlanKey(uint64_t root);
  static std::string EdgeKey(uint64_t src, uint64_t tmpl);
  /// Cached get-or-create of one labelled counter instance.
  Counter* CounterFor(const char* family, const char* help,
                      const char* label_key, const std::string& label_value);
  void BumpFamilies(const char* family, const char* help,
                    const std::string& plan_key, const std::string& edge_key,
                    uint64_t delta);
  static Score RenderBoard(const std::string& key, const Board& board,
                           const std::map<uint64_t, TemplateAgg>& templates,
                           double global_plain_mean_us);

  MetricsRegistry* const registry_;

  mutable std::mutex mutex_;
  uint64_t events_folded_ = 0;
  uint64_t requests_ = 0;
  uint64_t outcome_counts_[kTraceOutcomeCount] = {};
  Availability availability_;
  Overload overload_;
  uint64_t wire_requests_ = 0;
  uint64_t wire_failed_ = 0;
  uint64_t wire_bytes_ = 0;
  Digest wire_latency_us_;
  uint64_t stage_sum_us_[kStageSlots] = {};
  uint64_t requests_with_latency_ = 0;
  std::map<std::string, Board> plans_;
  std::map<std::string, Board> edges_;
  std::map<uint64_t, TemplateAgg> templates_;
  std::map<std::string, Counter*> counters_;  // family\0label\0value ->
};

/// Renders a snapshot as the /prefetch endpoint's JSON document.
std::string PrefetchAuditJson(const PrefetchAudit::Snapshot& snapshot);

}  // namespace chrono::obs

#endif  // CHRONOCACHE_OBS_AUDIT_H_
