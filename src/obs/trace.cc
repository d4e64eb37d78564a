#include "obs/trace.h"

#include <algorithm>

namespace chrono::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kAnalyze:
      return "analyze";
    case Stage::kCacheLookup:
      return "cache_lookup";
    case Stage::kLearnCombine:
      return "learn_combine";
    case Stage::kDbExecute:
      return "db_execute";
    case Stage::kSplitDecode:
      return "split_decode";
    case Stage::kWireDecode:
      return "wire_decode";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kExecute:
      return "execute";
    case Stage::kCompletionWait:
      return "completion_wait";
    case Stage::kResponseFlush:
      return "response_flush";
    case Stage::kCount:
      break;
  }
  return "unknown";
}

const char* AnnotationKindName(AnnotationKind kind) {
  switch (kind) {
    case AnnotationKind::kRetry:
      return "retry";
    case AnnotationKind::kAttemptTimeout:
      return "attempt_timeout";
    case AnnotationKind::kBreakerReject:
      return "breaker_reject";
    case AnnotationKind::kCoalesced:
      return "coalesced";
    case AnnotationKind::kStaleServe:
      return "stale_serve";
    case AnnotationKind::kFault:
      return "fault";
    case AnnotationKind::kDeadlineClamp:
      return "deadline_clamp";
    case AnnotationKind::kBrownout:
      return "brownout";
  }
  return "unknown";
}

const char* TraceOutcomeName(TraceOutcome outcome) {
  switch (outcome) {
    case TraceOutcome::kCacheHit:
      return "cache_hit";
    case TraceOutcome::kPredictionHit:
      return "prediction_hit";
    case TraceOutcome::kRemotePlain:
      return "remote_plain";
    case TraceOutcome::kWrite:
      return "write";
    case TraceOutcome::kError:
      return "error";
    case TraceOutcome::kStaleHit:
      return "stale_hit";
    case TraceOutcome::kCoalescedHit:
      return "coalesced_hit";
  }
  return "unknown";
}

bool ParseTraceOutcome(std::string_view name, TraceOutcome* out) {
  for (int i = 0; i < kTraceOutcomeCount; ++i) {
    TraceOutcome candidate = static_cast<TraceOutcome>(i);
    if (name == TraceOutcomeName(candidate)) {
      *out = candidate;
      return true;
    }
  }
  return false;
}

TraceRing::TraceRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(new Slot[capacity == 0 ? 1 : capacity]) {}

namespace {

/// Holds a slot's spin latch for the enclosing scope. The critical
/// sections are single shared_ptr swaps/copies, so spinning is bounded by
/// nanoseconds of useful work on the other side.
class SlotLatch {
 public:
  explicit SlotLatch(std::atomic<uint32_t>& latch) : latch_(latch) {
    uint32_t expected = 0;
    while (!latch_.compare_exchange_weak(expected, 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      expected = 0;
    }
  }
  ~SlotLatch() { latch_.store(0, std::memory_order_release); }

 private:
  std::atomic<uint32_t>& latch_;
};

}  // namespace

void TraceRing::Push(std::shared_ptr<const RequestTrace> trace) {
  uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % capacity_];
  {
    SlotLatch held(slot.latch);
    slot.trace.swap(trace);
  }
  // `trace` now holds the displaced entry; it destructs outside the latch.
}

std::vector<std::shared_ptr<const RequestTrace>> TraceRing::Snapshot() const {
  std::vector<std::shared_ptr<const RequestTrace>> out;
  uint64_t end = next_.load(std::memory_order_acquire);
  uint64_t count = end < capacity_ ? end : capacity_;
  out.reserve(count);
  // Walk backwards from the most recently claimed slot. Slots being
  // concurrently overwritten may briefly read empty or newer than `end`;
  // both are fine — every pointer we do read is a complete trace.
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t seq = end - 1 - i;
    const Slot& slot = slots_[seq % capacity_];
    std::shared_ptr<const RequestTrace> t;
    {
      SlotLatch held(slot.latch);
      t = slot.trace;
    }
    if (t != nullptr) out.push_back(std::move(t));
  }
  return out;
}

// ---------------------------------------------------------------------------
// TailReservoir

namespace {

/// std::*_heap comparator for a min-heap by total latency: front() is the
/// cheapest retained trace, i.e. the admission floor.
bool SlowerThan(const std::shared_ptr<const RequestTrace>& a,
                const std::shared_ptr<const RequestTrace>& b) {
  return a->total_us > b->total_us;
}

}  // namespace

TailReservoir::TailReservoir(const Options& options)
    : options_([&] {
        Options o = options;
        if (o.top_k == 0) o.top_k = 1;
        if (o.window_us == 0) o.window_us = 1;
        return o;
      }()),
      threshold_us_(options.threshold_us) {
  forced_.resize(options_.forced_capacity);
}

void TailReservoir::RotateLocked(uint64_t now_us) {
  if (now_us < current_.window_start_us + options_.window_us) return;
  if (now_us >= current_.window_start_us + 2 * options_.window_us) {
    // More than a whole window of silence: the old top-K describes traffic
    // too stale to show; drop both generations.
    previous_ = Generation{};
    current_.heap.clear();
  } else {
    previous_ = std::move(current_);
    current_.heap.clear();
  }
  current_.window_start_us = now_us;
  floor_us_.store(0, std::memory_order_relaxed);
}

void TailReservoir::Offer(std::shared_ptr<const RequestTrace> trace,
                          uint64_t now_us) {
  offered_.fetch_add(1, std::memory_order_relaxed);
  const bool force =
      trace->forced ||
      (threshold_us_ != 0 && trace->total_us >= threshold_us_);

  std::lock_guard<std::mutex> lock(mutex_);
  if (current_.window_start_us == 0 && current_.heap.empty()) {
    current_.window_start_us = now_us;
  }
  RotateLocked(now_us);

  bool kept = false;
  if (force && !forced_.empty()) {
    forced_[forced_next_ % forced_.size()] = trace;
    ++forced_next_;
    kept = true;
  }
  if (current_.heap.size() < options_.top_k) {
    current_.heap.push_back(trace);
    std::push_heap(current_.heap.begin(), current_.heap.end(), SlowerThan);
    kept = true;
  } else if (trace->total_us > current_.heap.front()->total_us) {
    std::pop_heap(current_.heap.begin(), current_.heap.end(), SlowerThan);
    current_.heap.back() = trace;
    std::push_heap(current_.heap.begin(), current_.heap.end(), SlowerThan);
    kept = true;
  }
  // The floor only gates admission once the window holds a full K.
  floor_us_.store(current_.heap.size() < options_.top_k
                      ? 0
                      : current_.heap.front()->total_us,
                  std::memory_order_relaxed);
  if (kept) admitted_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::shared_ptr<const RequestTrace>> TailReservoir::Snapshot()
    const {
  std::vector<std::shared_ptr<const RequestTrace>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(current_.heap.size() + previous_.heap.size() +
                forced_.size());
    for (const auto& t : current_.heap) out.push_back(t);
    for (const auto& t : previous_.heap) out.push_back(t);
    for (const auto& t : forced_) {
      if (t != nullptr) out.push_back(t);
    }
  }
  // Dedup by id (a forced trace may also sit in a top-K heap), then order
  // slowest-first for the dossier view.
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const auto& a, const auto& b) {
                          return a->id == b->id;
                        }),
            out.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a->total_us != b->total_us) return a->total_us > b->total_us;
    return a->id < b->id;
  });
  return out;
}

}  // namespace chrono::obs
