#include "obs/audit.h"

#include <algorithm>
#include <cstdio>

#include "obs/trace.h"

namespace chrono::obs {

namespace {

const char* kOutcomeNames[kTraceOutcomeCount] = {
    "cache_hit", "prediction_hit", "remote_plain", "write",
    "error",     "stale_hit",      "coalesced_hit"};
const char* kStageNames[PrefetchAudit::kStageSlots] = {
    "analyze", "cache_lookup", "learn_combine",
    "db_execute", "split_decode", "total"};

constexpr int kRemotePlainOutcome =
    static_cast<int>(TraceOutcome::kRemotePlain);

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Digest

void PrefetchAudit::Digest::Record(uint64_t value) {
  if (buckets.empty()) buckets.resize(Histogram::kBucketCount, 0);
  ++buckets[static_cast<size_t>(Histogram::BucketIndex(value))];
  sum += value;
  ++count;
}

double PrefetchAudit::Digest::Mean() const {
  return count == 0 ? 0 : static_cast<double>(sum) / static_cast<double>(count);
}

double PrefetchAudit::Digest::Percentile(double q) const {
  if (count == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    uint64_t before = cumulative;
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= rank) {
      double lower =
          i == 0 ? 0
                 : static_cast<double>(
                       Histogram::BucketUpperBound(static_cast<int>(i) - 1));
      double upper = static_cast<double>(
          Histogram::BucketUpperBound(static_cast<int>(i)));
      double fraction =
          (rank - static_cast<double>(before)) / static_cast<double>(buckets[i]);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, fraction));
    }
  }
  return static_cast<double>(
      Histogram::BucketUpperBound(Histogram::kBucketCount - 1));
}

// ---------------------------------------------------------------------------
// PrefetchAudit

PrefetchAudit::PrefetchAudit(MetricsRegistry* registry)
    : registry_(registry) {}

void PrefetchAudit::OnEvents(const JournalEvent* events, size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < count; ++i) Fold(events[i]);
}

std::string PrefetchAudit::PlanKey(uint64_t root) {
  return root == 0 ? "unknown" : std::to_string(root);
}

std::string PrefetchAudit::EdgeKey(uint64_t src, uint64_t tmpl) {
  if (src == 0) return "root";
  return std::to_string(src) + "->" + std::to_string(tmpl);
}

Counter* PrefetchAudit::CounterFor(const char* family, const char* help,
                                   const char* label_key,
                                   const std::string& label_value) {
  std::string key;
  key.reserve(48);
  key.append(family).push_back('\0');
  key.append(label_key).push_back('\0');
  key.append(label_value);
  auto it = counters_.find(key);
  if (it != counters_.end()) return it->second;
  Counter* counter =
      registry_->GetCounter(family, help, {{label_key, label_value}});
  counters_.emplace(std::move(key), counter);
  return counter;
}

void PrefetchAudit::BumpFamilies(const char* family, const char* help,
                                 const std::string& plan_key,
                                 const std::string& edge_key, uint64_t delta) {
  if (registry_ == nullptr || delta == 0) return;
  CounterFor(family, help, "plan", plan_key)->Increment(delta);
  CounterFor(family, help, "edge", edge_key)->Increment(delta);
}

void PrefetchAudit::Fold(const JournalEvent& event) {
  ++events_folded_;
  switch (event.type) {
    case JournalEventType::kPlanMined: {
      ++plans_[PlanKey(event.tmpl)].mined;
      break;
    }
    case JournalEventType::kCombinedIssued: {
      ++plans_[PlanKey(event.tmpl)].issued;
      break;
    }
    case JournalEventType::kCombinedFetched: {
      Board& board = plans_[PlanKey(event.tmpl)];
      if (event.flags & kJournalFlagOk) {
        ++board.fetch_ok;
      } else {
        ++board.fetch_failed;
      }
      board.rows_fetched += event.a;
      board.wan_bytes += event.b;
      board.db_round_us += event.c;
      break;
    }
    case JournalEventType::kEntryInstalled: {
      std::string plan_key = PlanKey(event.c);
      std::string edge_key = EdgeKey(event.src, event.tmpl);
      for (Board* board : {&plans_[plan_key], &edges_[edge_key]}) {
        ++board->installed;
        board->installed_bytes += event.a;
      }
      BumpFamilies("chrono_prefetch_installed_total",
                   "Prefetched result-cache entries installed.", plan_key,
                   edge_key, 1);
      break;
    }
    case JournalEventType::kEntryUsed: {
      std::string plan_key = PlanKey(event.c);
      std::string edge_key = EdgeKey(event.src, event.tmpl);
      for (Board* board : {&plans_[plan_key], &edges_[edge_key]}) {
        ++board->used;
        board->used_bytes += event.a;
        board->ttfu_us.Record(event.b);
      }
      BumpFamilies("chrono_prefetch_used_total",
                   "Prefetched entries that served at least one hit.",
                   plan_key, edge_key, 1);
      break;
    }
    case JournalEventType::kEntryEvicted: {
      std::string plan_key = PlanKey(event.c);
      std::string edge_key = EdgeKey(event.src, event.tmpl);
      bool used = (event.flags & kJournalFlagUsed) != 0;
      for (Board* board : {&plans_[plan_key], &edges_[edge_key]}) {
        if (used) {
          ++board->evicted_used;
        } else {
          ++board->evicted_unused;
          board->wasted_bytes += event.a;
        }
      }
      if (!used) {
        BumpFamilies("chrono_prefetch_wasted_bytes_total",
                     "Bytes of prefetched entries evicted or invalidated "
                     "before any hit.",
                     plan_key, edge_key, event.a);
      }
      break;
    }
    case JournalEventType::kEntryInvalidated: {
      std::string plan_key = PlanKey(event.c);
      std::string edge_key = EdgeKey(event.src, event.tmpl);
      bool used = (event.flags & kJournalFlagUsed) != 0;
      for (Board* board : {&plans_[plan_key], &edges_[edge_key]}) {
        ++board->invalidated;
        if (!used) {
          ++board->invalidated_unused;
          board->wasted_bytes += event.a;
        }
      }
      BumpFamilies("chrono_prefetch_invalidated_total",
                   "Prefetched entries invalidated by writes.", plan_key,
                   edge_key, 1);
      if (!used) {
        BumpFamilies("chrono_prefetch_wasted_bytes_total",
                     "Bytes of prefetched entries evicted or invalidated "
                     "before any hit.",
                     plan_key, edge_key, event.a);
      }
      break;
    }
    case JournalEventType::kBackendRetry: {
      ++availability_.backend_retries;
      availability_.backoff_us += event.b;
      break;
    }
    case JournalEventType::kBackendTimeout: {
      ++availability_.backend_timeouts;
      if (event.flags & kJournalFlagWrite) ++availability_.write_timeouts;
      break;
    }
    case JournalEventType::kBreakerTransition: {
      const char* to = "closed";
      switch (event.a) {
        case 0:
          ++availability_.breaker_closed;
          to = "closed";
          break;
        case 1:
          ++availability_.breaker_open;
          to = "open";
          break;
        case 2:
          ++availability_.breaker_half_open;
          to = "half_open";
          break;
      }
      if (registry_ != nullptr) {
        CounterFor("chrono_breaker_transitions_total",
                   "Circuit-breaker state transitions by target state.",
                   "to", to)
            ->Increment(1);
      }
      break;
    }
    case JournalEventType::kStaleServe: {
      ++availability_.stale_serves;
      availability_.stale_age_us += event.a;
      break;
    }
    case JournalEventType::kShed: {
      if (event.a == kShedQueueFull) {
        ++availability_.shed_queue;
      } else {
        ++availability_.shed_breaker;
      }
      break;
    }
    case JournalEventType::kBackendCoalesced: {
      // A park whose payload the follower's session rejected saved
      // nothing (it refetched), so it is not a coalesced fetch.
      if (!((event.flags & kJournalFlagOk) && event.b == 1)) {
        ++availability_.backend_coalesced;
      }
      break;
    }
    case JournalEventType::kShedQueue: {
      switch (event.a) {
        case kOverloadShedPipeline:
          ++overload_.shed_pipeline;
          break;
        case kOverloadShedAdmission:
          ++overload_.shed_admission;
          break;
        default:
          ++overload_.shed_prefetch;
          break;
      }
      break;
    }
    case JournalEventType::kDeadlineExpired: {
      ++overload_.deadline_expired;
      overload_.expired_lateness_us += event.a;
      if (event.flags & kJournalFlagDrain) ++overload_.expired_in_drain;
      break;
    }
    case JournalEventType::kBrownoutTransition: {
      ++overload_.brownout_transitions;
      overload_.max_level = std::max(overload_.max_level, event.a);
      static const char* kLevelNames[] = {"normal", "shed_prefetch",
                                          "shed_pipeline", "reject_query"};
      const char* to = event.a < 4 ? kLevelNames[event.a] : "unknown";
      if (registry_ != nullptr) {
        CounterFor("chrono_overload_brownout_transitions_total",
                   "Brownout ladder transitions by target level.", "to", to)
            ->Increment(1);
      }
      break;
    }
    case JournalEventType::kWireRequest: {
      // The WireServer drives its own chrono_wire_* registry metrics at
      // record time; folding here only feeds the offline report and the
      // snapshot JSON, so the counters are never double-bumped.
      ++wire_requests_;
      if ((event.flags & kJournalFlagOk) == 0) ++wire_failed_;
      wire_bytes_ += event.b;
      wire_latency_us_.Record(event.a);
      break;
    }
    case JournalEventType::kRequest: {
      ++requests_;
      const int outcome = static_cast<int>(RequestOutcome(event));
      ++outcome_counts_[outcome];
      if (event.flags & kJournalFlagLate) {
        ++overload_.late_executions;
        if (registry_ != nullptr) {
          registry_
              ->GetCounter("chrono_overload_late_executions_total",
                           "Requests executed after their client deadline "
                           "had already expired (SS17 violation; must stay "
                           "zero).")
              ->Increment();
        }
      }
      bool has_latency = (event.flags & kJournalFlagNoLatency) == 0;
      uint64_t total_us = UnpackHi(event.c);
      if (has_latency) {
        ++requests_with_latency_;
        stage_sum_us_[0] += UnpackLo(event.a);
        stage_sum_us_[1] += UnpackHi(event.a);
        stage_sum_us_[2] += UnpackLo(event.b);
        stage_sum_us_[3] += UnpackHi(event.b);
        stage_sum_us_[4] += UnpackLo(event.c);
        stage_sum_us_[5] += total_us;
      }
      if (event.tmpl != 0) {
        TemplateAgg& agg = templates_[event.tmpl];
        ++agg.requests;
        if (has_latency) agg.by_outcome[outcome].Record(total_us);
      }
      if (event.plan != 0) {
        std::string plan_key = PlanKey(event.plan);
        std::string edge_key = EdgeKey(event.src, event.tmpl);
        for (Board* board : {&plans_[plan_key], &edges_[edge_key]}) {
          ++board->hits;
          auto& per_tmpl = board->hit_by_tmpl[event.tmpl];
          ++per_tmpl.first;
          if (has_latency) {
            board->hit_latency_us += total_us;
            per_tmpl.second += total_us;
          }
        }
        if (registry_ != nullptr && IsPrefetchedHit(event)) {
          CounterFor("chrono_prediction_hits_total",
                     "Requests answered by a prefetched entry, by the "
                     "transition-graph edge that predicted it.",
                     "edge", edge_key)
              ->Increment();
        }
      }
      break;
    }
  }
}

PrefetchAudit::Score PrefetchAudit::RenderBoard(
    const std::string& key, const Board& board,
    const std::map<uint64_t, TemplateAgg>& templates,
    double global_plain_mean_us) {
  Score score;
  score.key = key;
  score.mined = board.mined;
  score.issued = board.issued;
  score.fetch_ok = board.fetch_ok;
  score.fetch_failed = board.fetch_failed;
  score.rows_fetched = board.rows_fetched;
  score.wan_bytes = board.wan_bytes;
  score.db_round_us = board.db_round_us;
  score.installed = board.installed;
  score.installed_bytes = board.installed_bytes;
  score.used = board.used;
  score.used_bytes = board.used_bytes;
  score.evicted_unused = board.evicted_unused;
  score.evicted_used = board.evicted_used;
  score.invalidated = board.invalidated;
  score.invalidated_unused = board.invalidated_unused;
  score.wasted_bytes = board.wasted_bytes;
  score.hits = board.hits;
  score.hit_latency_us = board.hit_latency_us;
  if (board.installed > 0) {
    score.precision = static_cast<double>(board.used) /
                      static_cast<double>(board.installed);
  }
  score.median_ttfu_us = board.ttfu_us.Percentile(0.5);
  // Net latency saved vs. demand-fetch: for every template these entries
  // answered, what would the same hits have cost as plain remote reads?
  double saved = 0;
  uint64_t attributed_latency = 0;
  for (const auto& [tmpl, hits_latency] : board.hit_by_tmpl) {
    double baseline = 0;
    auto it = templates.find(tmpl);
    if (it != templates.end() &&
        it->second.by_outcome[kRemotePlainOutcome].count > 0) {
      baseline = it->second.by_outcome[kRemotePlainOutcome].Mean();
    } else {
      baseline = global_plain_mean_us;
    }
    if (baseline <= 0) continue;  // no demand-fetch evidence: don't guess
    saved += static_cast<double>(hits_latency.first) * baseline;
    attributed_latency += hits_latency.second;
  }
  if (saved > 0) {
    score.net_saved_us = saved - static_cast<double>(attributed_latency);
  }
  return score;
}

PrefetchAudit::Snapshot PrefetchAudit::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot out;
  out.events_folded = events_folded_;
  out.requests = requests_;
  out.availability = availability_;
  out.overload = overload_;
  out.wire.requests = wire_requests_;
  out.wire.failed = wire_failed_;
  out.wire.response_bytes = wire_bytes_;
  out.wire.mean_latency_us = wire_latency_us_.Mean();
  out.wire.p50_latency_us = wire_latency_us_.Percentile(0.5);
  out.wire.p99_latency_us = wire_latency_us_.Percentile(0.99);
  for (int i = 0; i < kTraceOutcomeCount; ++i) {
    out.outcome_counts[i] = outcome_counts_[i];
  }
  for (int i = 0; i < kStageSlots; ++i) out.stage_sum_us[i] = stage_sum_us_[i];
  out.requests_with_latency = requests_with_latency_;

  uint64_t plain_count = 0, plain_sum = 0;
  for (const auto& [tmpl, agg] : templates_) {
    (void)tmpl;
    plain_count += agg.by_outcome[kRemotePlainOutcome].count;
    plain_sum += agg.by_outcome[kRemotePlainOutcome].sum;
  }
  double global_plain_mean =
      plain_count == 0
          ? 0
          : static_cast<double>(plain_sum) / static_cast<double>(plain_count);

  out.plans.reserve(plans_.size());
  for (const auto& [key, board] : plans_) {
    out.plans.push_back(
        RenderBoard(key, board, templates_, global_plain_mean));
  }
  out.edges.reserve(edges_.size());
  for (const auto& [key, board] : edges_) {
    out.edges.push_back(
        RenderBoard(key, board, templates_, global_plain_mean));
  }
  out.templates.reserve(templates_.size());
  for (const auto& [tmpl, agg] : templates_) {
    TemplateStats stats;
    stats.tmpl = tmpl;
    stats.requests = agg.requests;
    for (int o = 0; o < kTraceOutcomeCount; ++o) {
      const Digest& digest = agg.by_outcome[o];
      stats.outcomes[o].count = digest.count;
      stats.outcomes[o].mean_us = digest.Mean();
      stats.outcomes[o].p50_us = digest.Percentile(0.5);
      stats.outcomes[o].p99_us = digest.Percentile(0.99);
    }
    out.templates.push_back(std::move(stats));
  }
  return out;
}

uint64_t PrefetchAudit::Snapshot::TotalInstalled() const {
  uint64_t total = 0;
  for (const auto& plan : plans) total += plan.installed;
  return total;
}

uint64_t PrefetchAudit::Snapshot::TotalUsed() const {
  uint64_t total = 0;
  for (const auto& plan : plans) total += plan.used;
  return total;
}

uint64_t PrefetchAudit::Snapshot::TotalWastedBytes() const {
  uint64_t total = 0;
  for (const auto& plan : plans) total += plan.wasted_bytes;
  return total;
}

uint64_t PrefetchAudit::Snapshot::TotalInvalidated() const {
  uint64_t total = 0;
  for (const auto& plan : plans) total += plan.invalidated;
  return total;
}

double PrefetchAudit::Snapshot::OverallPrecision() const {
  uint64_t installed = TotalInstalled();
  if (installed == 0) return 0;
  return static_cast<double>(TotalUsed()) / static_cast<double>(installed);
}

// ---------------------------------------------------------------------------
// JSON rendering (the /prefetch endpoint)

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

void AppendScore(std::string* out, const PrefetchAudit::Score& s) {
  out->append("{\"key\":\"");
  AppendEscaped(out, s.key);
  out->append("\",\"mined\":").append(std::to_string(s.mined));
  out->append(",\"issued\":").append(std::to_string(s.issued));
  out->append(",\"fetch_ok\":").append(std::to_string(s.fetch_ok));
  out->append(",\"fetch_failed\":").append(std::to_string(s.fetch_failed));
  out->append(",\"rows_fetched\":").append(std::to_string(s.rows_fetched));
  out->append(",\"wan_bytes\":").append(std::to_string(s.wan_bytes));
  out->append(",\"installed\":").append(std::to_string(s.installed));
  out->append(",\"installed_bytes\":")
      .append(std::to_string(s.installed_bytes));
  out->append(",\"used\":").append(std::to_string(s.used));
  out->append(",\"evicted_unused\":")
      .append(std::to_string(s.evicted_unused));
  out->append(",\"evicted_used\":").append(std::to_string(s.evicted_used));
  out->append(",\"invalidated\":").append(std::to_string(s.invalidated));
  out->append(",\"invalidated_unused\":")
      .append(std::to_string(s.invalidated_unused));
  out->append(",\"wasted_bytes\":").append(std::to_string(s.wasted_bytes));
  out->append(",\"hits\":").append(std::to_string(s.hits));
  out->append(",\"precision\":").append(FormatDouble(s.precision));
  out->append(",\"median_ttfu_us\":")
      .append(FormatDouble(s.median_ttfu_us));
  out->append(",\"net_saved_us\":").append(FormatDouble(s.net_saved_us));
  out->push_back('}');
}

}  // namespace

std::string PrefetchAuditJson(const PrefetchAudit::Snapshot& snapshot) {
  std::string out;
  out.reserve(2048);
  out.append("{\"events\":").append(std::to_string(snapshot.events_folded));
  out.append(",\"requests\":").append(std::to_string(snapshot.requests));
  out.append(",\"outcomes\":{");
  for (int i = 0; i < kTraceOutcomeCount; ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('"');
    out.append(kOutcomeNames[i]);
    out.append("\":").append(std::to_string(snapshot.outcome_counts[i]));
  }
  out.append("},\"overall\":{\"installed\":")
      .append(std::to_string(snapshot.TotalInstalled()));
  out.append(",\"used\":").append(std::to_string(snapshot.TotalUsed()));
  out.append(",\"precision\":")
      .append(FormatDouble(snapshot.OverallPrecision()));
  out.append(",\"wasted_bytes\":")
      .append(std::to_string(snapshot.TotalWastedBytes()));
  out.append(",\"invalidated\":")
      .append(std::to_string(snapshot.TotalInvalidated()));
  const PrefetchAudit::Availability& av = snapshot.availability;
  out.append("},\"availability\":{\"backend_retries\":")
      .append(std::to_string(av.backend_retries));
  out.append(",\"backoff_us\":").append(std::to_string(av.backoff_us));
  out.append(",\"backend_timeouts\":")
      .append(std::to_string(av.backend_timeouts));
  out.append(",\"write_timeouts\":").append(std::to_string(av.write_timeouts));
  out.append(",\"stale_serves\":").append(std::to_string(av.stale_serves));
  out.append(",\"stale_age_us\":").append(std::to_string(av.stale_age_us));
  out.append(",\"shed_queue\":").append(std::to_string(av.shed_queue));
  out.append(",\"shed_breaker\":").append(std::to_string(av.shed_breaker));
  out.append(",\"breaker_open\":").append(std::to_string(av.breaker_open));
  out.append(",\"breaker_half_open\":")
      .append(std::to_string(av.breaker_half_open));
  out.append(",\"breaker_closed\":")
      .append(std::to_string(av.breaker_closed));
  out.append(",\"backend_coalesced\":")
      .append(std::to_string(av.backend_coalesced));
  const PrefetchAudit::Overload& ov = snapshot.overload;
  out.append("},\"overload\":{\"shed_prefetch\":")
      .append(std::to_string(ov.shed_prefetch));
  out.append(",\"shed_pipeline\":").append(std::to_string(ov.shed_pipeline));
  out.append(",\"shed_admission\":")
      .append(std::to_string(ov.shed_admission));
  out.append(",\"deadline_expired\":")
      .append(std::to_string(ov.deadline_expired));
  out.append(",\"expired_in_drain\":")
      .append(std::to_string(ov.expired_in_drain));
  out.append(",\"expired_lateness_us\":")
      .append(std::to_string(ov.expired_lateness_us));
  out.append(",\"brownout_transitions\":")
      .append(std::to_string(ov.brownout_transitions));
  out.append(",\"max_level\":").append(std::to_string(ov.max_level));
  out.append(",\"late_executions\":")
      .append(std::to_string(ov.late_executions));
  const PrefetchAudit::Wire& wire = snapshot.wire;
  out.append("},\"wire\":{\"requests\":")
      .append(std::to_string(wire.requests));
  out.append(",\"failed\":").append(std::to_string(wire.failed));
  out.append(",\"response_bytes\":")
      .append(std::to_string(wire.response_bytes));
  out.append(",\"mean_latency_us\":")
      .append(FormatDouble(wire.mean_latency_us));
  out.append(",\"p50_latency_us\":")
      .append(FormatDouble(wire.p50_latency_us));
  out.append(",\"p99_latency_us\":")
      .append(FormatDouble(wire.p99_latency_us));
  out.append("},\"stage_sum_us\":{");
  for (int i = 0; i < PrefetchAudit::kStageSlots; ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('"');
    out.append(kStageNames[i]);
    out.append("\":").append(std::to_string(snapshot.stage_sum_us[i]));
  }
  out.append("},\"plans\":[");
  for (size_t i = 0; i < snapshot.plans.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendScore(&out, snapshot.plans[i]);
  }
  out.append("],\"edges\":[");
  for (size_t i = 0; i < snapshot.edges.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendScore(&out, snapshot.edges[i]);
  }
  out.append("],\"templates\":[");
  for (size_t i = 0; i < snapshot.templates.size(); ++i) {
    const auto& t = snapshot.templates[i];
    if (i > 0) out.push_back(',');
    out.append("{\"tmpl\":").append(std::to_string(t.tmpl));
    out.append(",\"requests\":").append(std::to_string(t.requests));
    out.append(",\"outcomes\":{");
    bool first = true;
    for (int o = 0; o < kTraceOutcomeCount; ++o) {
      if (t.outcomes[o].count == 0) continue;
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      out.append(kOutcomeNames[o]);
      out.append("\":{\"count\":").append(std::to_string(t.outcomes[o].count));
      out.append(",\"mean_us\":").append(FormatDouble(t.outcomes[o].mean_us));
      out.append(",\"p50_us\":").append(FormatDouble(t.outcomes[o].p50_us));
      out.append(",\"p99_us\":").append(FormatDouble(t.outcomes[o].p99_us));
      out.push_back('}');
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

}  // namespace chrono::obs
