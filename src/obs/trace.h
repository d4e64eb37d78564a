#ifndef CHRONOCACHE_OBS_TRACE_H_
#define CHRONOCACHE_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace chrono::obs {

/// \brief The stages of the serving pipeline a request can pass through,
/// in pipeline order. Names must stay in sync with StageName().
///
/// APPEND-ONLY: values index per-stage histograms and the packed journal
/// kRequest payload. The first five are the in-process pipeline stages;
/// the wire stages (added for socket-mode timelines, DESIGN.md §15) tile
/// the full socket round trip: decode → queue wait → execute (which
/// contains the pipeline stages) → completion-queue wait → response flush.
enum class Stage {
  kAnalyze = 0,      // AnalyzeQuery via the template cache
  kCacheLookup,      // result-cache probe incl. session/security checks
  kLearnCombine,     // model update + dependency-graph combining
  kDbExecute,        // remote database round trip (incl. simulated WAN)
  kSplitDecode,      // combined-result splitting + cache installs
  kWireDecode,       // IO thread: frame bytes → decoded Query
  kQueueWait,        // dispatch → a worker picked the request up
  kExecute,          // worker: the whole request pipeline
  kCompletionWait,   // response encoded → IO thread drains the completion
  kResponseFlush,    // completion drained → last response byte sent
  kCount,
};

const char* StageName(Stage stage);

/// \brief One timed span inside a request: [start_us, start_us + dur_us],
/// microseconds relative to the request's own start.
struct TraceSpan {
  Stage stage = Stage::kAnalyze;
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
};

/// \brief How a request was ultimately answered.
enum class TraceOutcome {
  kCacheHit = 0,    // answered from the result cache (see prefetch_plan)
  kPredictionHit,   // miss rescued by an inline covering combined query
  kRemotePlain,     // plain uncombined remote read
  kWrite,           // DML/DDL
  kError,           // statement returned a status
  kStaleHit,        // demand fetch failed; answered from a stale entry
  kCoalescedHit,    // miss joined another thread's in-flight demand fetch
};

/// Number of TraceOutcome values; sizes audit scoreboards and loops.
inline constexpr int kTraceOutcomeCount = 7;

const char* TraceOutcomeName(TraceOutcome outcome);

/// Parses a TraceOutcomeName() string back to its enum value; returns
/// false when `name` matches no outcome. Used by /traces?outcome=.
bool ParseTraceOutcome(std::string_view name, TraceOutcome* out);

/// \brief Why a span was slow: backend events that happened *during* the
/// request, stamped onto its timeline (Chrome "instant" events on export).
/// These mirror the journal events of DESIGN.md §11/§12 so a tail trace
/// carries its own explanation.
enum class AnnotationKind {
  kRetry = 0,        // demand-fetch attempt failed and was retried
  kAttemptTimeout,   // one backend attempt hit the per-attempt cap
  kBreakerReject,    // admission denied by the circuit breaker
  kCoalesced,        // parked behind another thread's in-flight fetch
  kStaleServe,       // answered from a version-stale cache entry
  kFault,            // injected fault fired on a backend attempt
  kDeadlineClamp,    // client deadline tightened the retry budget (§17);
                     //   value = remaining client budget µs at clamp time
  kBrownout,         // request served while the brownout ladder was
                     //   elevated; value = the level
};

const char* AnnotationKindName(AnnotationKind kind);

/// One instant event on a request's timeline. `at_us` is relative to the
/// request's own start (same clock as TraceSpan). `value` is kind-specific
/// (attempt number, breaker state, stale age in µs, ...).
struct TraceAnnotation {
  AnnotationKind kind = AnnotationKind::kRetry;
  uint64_t at_us = 0;
  uint64_t value = 0;
};

/// \brief One served request with timed pipeline spans and prediction
/// attribution. Immutable once published to the ring (writers build the
/// whole object, then swap a shared_ptr in).
struct RequestTrace {
  uint64_t id = 0;            // monotonic per server
  uint64_t client = 0;
  uint64_t tmpl = 0;          // template id of the request (0 if none)
  std::string sql;            // bound text, truncated for the ring
  uint64_t start_us = 0;      // server-relative request arrival
  uint64_t total_us = 0;
  TraceOutcome outcome = TraceOutcome::kRemotePlain;
  std::vector<TraceSpan> spans;
  std::vector<TraceAnnotation> annotations;

  /// The client asked for this trace to be retained (wire kFlagTraced):
  /// it bypasses the tail reservoir's admission heuristics.
  bool forced = false;

  // Prediction attribution (zero when the answer was demand-filled): the
  // mined CombinedQuery plan that cached the answer ahead of time, and the
  // transition-graph edge (prefetch_src → tmpl) that predicted it.
  // prefetch_src == 0 with a non-zero plan means the request's template
  // was a root (text-dependency) node of that plan.
  uint64_t prefetch_plan = 0;
  uint64_t prefetch_src = 0;
};

/// \brief Fixed-size ring of recent traces with no global lock: the writer
/// claims a slot with one fetch_add, and each slot is guarded by its own
/// one-word spin latch held only for a shared_ptr swap (a few ns), so
/// concurrent workers on different slots never serialise and a slow
/// /traces reader can only ever delay the one writer that wraps onto the
/// slot it is copying. Capacity is fixed at construction; the ring keeps
/// the most recent `capacity` traces.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void Push(std::shared_ptr<const RequestTrace> trace);

  /// Most-recent-first copy of the retained traces. Under concurrent
  /// pushes the result is a per-slot-consistent snapshot (each element is
  /// a complete trace; the set may straddle a wrap).
  std::vector<std::shared_ptr<const RequestTrace>> Snapshot() const;

  size_t capacity() const { return capacity_; }
  /// Total traces ever pushed (>= capacity once the ring has wrapped).
  uint64_t total_pushed() const {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    // 0 = free, 1 = held. mutable so the const Snapshot() can latch.
    mutable std::atomic<uint32_t> latch{0};
    std::shared_ptr<const RequestTrace> trace;  // guarded by latch
  };

  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

/// \brief Keeps the traces the recency ring loses: the top-K slowest
/// requests per sliding window (two rotating generations, so a snapshot
/// always covers between one and two windows of history), plus a bounded
/// ring of *forced* traces — anything over `threshold_us` or explicitly
/// flagged by the client (wire kFlagTraced).
///
/// The hot path calls MightAdmit() first: a single relaxed atomic load of
/// the current generation's admission floor. Under steady load almost
/// every request is faster than the K-th slowest of the window, so the
/// mutex inside Offer() is touched only by actual tail candidates.
class TailReservoir {
 public:
  struct Options {
    size_t top_k = 16;            // slowest traces kept per window
    uint64_t threshold_us = 0;    // 0 = no absolute threshold
    uint64_t window_us = 60'000'000;  // sliding-window width (1 min)
    size_t forced_capacity = 32;  // flagged / over-threshold retention
  };

  explicit TailReservoir(const Options& options);

  /// Cheap pre-check: can a trace of `total_us` possibly be admitted?
  /// False negatives never happen; false positives just take the lock.
  bool MightAdmit(uint64_t total_us, bool forced) const {
    if (forced) return true;
    if (threshold_us_ != 0 && total_us >= threshold_us_) return true;
    return total_us > floor_us_.load(std::memory_order_relaxed);
  }

  /// Offers a published trace. `now_us` drives window rotation and must
  /// be the same clock as trace->start_us (server-relative µs).
  void Offer(std::shared_ptr<const RequestTrace> trace, uint64_t now_us);

  /// All retained traces — current + previous window top-K + forced —
  /// deduplicated by trace id, slowest first.
  std::vector<std::shared_ptr<const RequestTrace>> Snapshot() const;

  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t offered() const { return offered_.load(std::memory_order_relaxed); }
  const Options& options() const { return options_; }

 private:
  struct Generation {
    uint64_t window_start_us = 0;
    // Min-heap by total_us: front() is the admission floor.
    std::vector<std::shared_ptr<const RequestTrace>> heap;
  };

  void RotateLocked(uint64_t now_us);

  const Options options_;
  const uint64_t threshold_us_;

  mutable std::mutex mutex_;
  Generation current_;
  Generation previous_;
  std::vector<std::shared_ptr<const RequestTrace>> forced_;
  size_t forced_next_ = 0;  // ring cursor into forced_

  /// total_us of the current window's K-th slowest trace (0 while the
  /// window has fewer than K traces). Read lock-free by MightAdmit().
  std::atomic<uint64_t> floor_us_{0};
  std::atomic<uint64_t> offered_{0};
  std::atomic<uint64_t> admitted_{0};
};

}  // namespace chrono::obs

#endif  // CHRONOCACHE_OBS_TRACE_H_
