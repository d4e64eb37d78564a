#ifndef CHRONOCACHE_OBS_JOURNAL_H_
#define CHRONOCACHE_OBS_JOURNAL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"

namespace chrono::obs {

/// \brief What one journal record describes. The journal captures the full
/// lifecycle of every prefetch — plan mined → combined query issued →
/// rows/bytes fetched → entries installed → each entry used /
/// evicted-unused / invalidated-by-write — alongside request outcomes, so
/// the PrefetchAudit can reconstruct per-plan cost/benefit offline.
enum class JournalEventType : uint8_t {
  kPlanMined = 1,     // a combined plan became ready (tmpl = root)
  kCombinedIssued,    // combined query sent to the database
  kCombinedFetched,   // combined response arrived (flags bit0 = ok)
  kEntryInstalled,    // one split slice installed in the result cache
  kEntryUsed,         // first demand hit on an installed entry
  kEntryEvicted,      // LRU/replace eviction (flags bit0 = was used)
  kEntryInvalidated,  // removed as stale after a write (flags bit0 = used)
  kRequest,           // one served client statement (flags = outcome)
  kBackendRetry,      // demand read backing off before another attempt
  kBackendTimeout,    // remote call abandoned at its deadline budget
  kBreakerTransition, // circuit breaker changed state (a = to, b = from)
  kStaleServe,        // demand fetch failed; served a stale cached entry
  kShed,              // best-effort work shed (a = shed kind)
  kBackendCoalesced,  // demand miss joined another thread's in-flight fetch
  kWireRequest,       // one request answered over the TCP wire frontend
  kShedQueue,         // overload control dropped work (a = shed reason)
  kDeadlineExpired,   // request expired in queue; rejected unexecuted
  kBrownoutTransition, // brownout ladder stepped (a = to, b = from)
};

/// Flag bits shared by the entry-lifecycle events.
inline constexpr uint8_t kJournalFlagUsed = 1u;  // entry served >= 1 hit
inline constexpr uint8_t kJournalFlagOk = 1u;    // kCombinedFetched success
/// kEntryEvicted reason, stored in flags bits 1-2.
inline constexpr uint8_t kJournalEvictCapacity = 0u << 1;
inline constexpr uint8_t kJournalEvictReplaced = 1u << 1;
/// kRequest: the low flag bits hold the TraceOutcome; this bit marks an
/// event whose stage durations are not wall-clock µs (the simulator
/// journals virtual time and zero latencies) so latency digests skip it.
inline constexpr uint8_t kJournalFlagNoLatency = 1u << 6;
/// kBackendTimeout: set when the abandoned call was a write.
inline constexpr uint8_t kJournalFlagWrite = 1u << 1;

/// kBackendTimeout payload `b`: whose budget ran out. kTimeoutBackend: the
/// node's own deadline or attempt timeout (the backend was slow or down);
/// kTimeoutClientDeadline: only the client's propagated wire deadline,
/// shorter than a healthy backend's latency (local budget exhaustion).
inline constexpr uint64_t kTimeoutBackend = 0;
inline constexpr uint64_t kTimeoutClientDeadline = 1;

/// kShed payload `a`: why best-effort work was dropped.
inline constexpr uint64_t kShedQueueFull = 0;       // pool queue saturated
inline constexpr uint64_t kShedBreakerUnhealthy = 1; // breaker not closed

/// kShedQueue payload `a`: what the overload ladder dropped (§17).
inline constexpr uint64_t kOverloadShedPrefetch = 0;  // brownout ≥ 1
inline constexpr uint64_t kOverloadShedPipeline = 1;  // brownout ≥ 2
inline constexpr uint64_t kOverloadShedAdmission = 2; // brownout ≥ 3
/// kDeadlineExpired flags bit1: the rejection happened during shutdown
/// drain rather than live serving.
inline constexpr uint8_t kJournalFlagDrain = 1u << 1;
/// kRequest flags bit5: the request carried a client deadline that had
/// already expired when execution started — the §17 invariant is that
/// this never happens (expired work is rejected at dequeue), so the audit
/// reports it as a violation counter that must stay zero.
inline constexpr uint8_t kJournalFlagLate = 1u << 5;

/// \brief One fixed-size binary journal record. Payload fields `a`/`b`/`c`
/// are typed per event (see DESIGN.md §10 for the full schema):
///
///   kPlanMined       a = plan slot count
///   kCombinedIssued  (no payload)
///   kCombinedFetched a = rows scanned, b = result bytes, c = db round µs
///   kEntryInstalled  a = entry bytes, c = plan root template
///   kEntryUsed       a = entry bytes, b = time-to-first-use µs,
///                    c = plan root template
///   kEntryEvicted    a = entry bytes, b = resident µs, c = plan root
///   kEntryInvalidated a = entry bytes, b = resident µs, c = plan root
///   kRequest         a = analyze µs | cache-lookup µs << 32
///                    b = learn/combine µs | db-execute µs << 32
///                    c = split/decode µs | total µs << 32
///   kBackendRetry    a = attempts made so far, b = backoff µs,
///                    c = deadline remaining µs (0 = unlimited)
///   kBackendTimeout  a = attempt budget µs, b = reason
///                    (kTimeoutBackend / kTimeoutClientDeadline;
///                    flags bit1 = write)
///   kBreakerTransition a = new state, b = old state
///                      (net::CircuitBreaker::State numeric values)
///   kStaleServe      a = entry age µs, b = allowed bound µs
///   kShed            a = shed kind (kShedQueueFull / kShedBreakerUnhealthy),
///                    tmpl = the shed plan's root template
///   kBackendCoalesced a = waiters already parked on the leader's fetch
///                     (flags bit0 = the leader's call succeeded)
///   kWireRequest     a = wire latency µs (frame decoded -> response
///                    queued), b = response frame bytes
///                    (flags bit0 = request succeeded)
///   kShedQueue       a = shed reason (kOverloadShed*), b = brownout
///                    level at the time, c = retry-after hint ms (0 none)
///   kDeadlineExpired a = µs past the deadline at dequeue, b = deadline
///                    budget ms the client sent
///                    (flags bit1 = rejected during shutdown drain)
///   kBrownoutTransition a = new level, b = old level, c = queue-wait
///                    p99 µs that drove the step
///
/// `plan`/`src`/`tmpl` carry prefetch attribution: the combined-plan id,
/// the transition-graph edge source template (0 = plan root), and the
/// entry/request template. All zero when not applicable. A kRequest's
/// `plan` is the plan's root template, the audit's board key, which every
/// other plan event carries as shown above (plan events: in `tmpl`).
struct JournalEvent {
  uint64_t ts_us = 0;  // journal-relative µs (sim passes virtual time)
  uint64_t plan = 0;
  uint64_t src = 0;
  uint64_t tmpl = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint32_t client = 0;
  JournalEventType type = JournalEventType::kRequest;
  uint8_t flags = 0;
  uint16_t pad = 0;
};
static_assert(sizeof(JournalEvent) == 64, "journal record is one cache line");

/// The TraceOutcome in a kRequest event's low flag bits.
inline TraceOutcome RequestOutcome(const JournalEvent& event) {
  const int outcome = event.flags & 0x0f;
  return static_cast<TraceOutcome>(
      outcome < kTraceOutcomeCount ? outcome : kTraceOutcomeCount - 1);
}

/// A kRequest answered by a predictively installed entry: a cache or
/// prediction hit carrying the entry's plan. core::Engine counts these as
/// prefetched_hits and PrefetchAudit as chrono_prediction_hits_total{edge},
/// so the two agree by construction.
inline bool IsPrefetchedHit(const JournalEvent& event) {
  if (event.type != JournalEventType::kRequest || event.plan == 0) {
    return false;
  }
  const TraceOutcome outcome = RequestOutcome(event);
  return outcome == TraceOutcome::kCacheHit ||
         outcome == TraceOutcome::kPredictionHit;
}

/// Packs/unpacks the two 32-bit stage durations of a kRequest payload word.
inline uint64_t PackDurations(uint64_t lo_us, uint64_t hi_us) {
  auto clamp = [](uint64_t v) {
    return v > 0xffffffffull ? 0xffffffffull : v;
  };
  return clamp(lo_us) | (clamp(hi_us) << 32);
}
inline uint32_t UnpackLo(uint64_t packed) {
  return static_cast<uint32_t>(packed & 0xffffffffull);
}
inline uint32_t UnpackHi(uint64_t packed) {
  return static_cast<uint32_t>(packed >> 32);
}

/// \brief Consumer of drained journal events. OnEvents is only ever called
/// from one thread at a time (whoever calls Drain(), under the journal's
/// drain mutex), so sinks need no internal synchronisation against each
/// other — only against their own readers.
class JournalSink {
 public:
  virtual ~JournalSink() = default;
  virtual void OnEvents(const JournalEvent* events, size_t count) = 0;
};

/// \brief Always-on, lock-free binary event journal. Each recording thread
/// owns a fixed-size SPSC ring buffer; the owner flushes the rings into the
/// attached sinks by calling Drain() every few milliseconds (ChronoServer's
/// housekeeping thread does, DESIGN.md §10). The journal owns no thread.
/// The hot path (Record) is a handful of relaxed/release atomics and one
/// 64-byte copy — it never blocks, never allocates after the thread's
/// first event, and when a ring is full the event is *dropped and
/// counted*, not waited on.
///
/// Accounting invariant (asserted by the contention tests): once the last
/// Record() is followed by a Drain() (Stop() and the destructor drain),
///   events_recorded() == events_drained()   and
///   Record() attempts == events_recorded() + events_dropped()
/// hold exactly — a drop never consumes a ring slot.
///
/// Lock order: the registration mutex (first event of a new thread) and
/// the drain mutex are leaf locks below everything in the server — Record
/// may be called while a cache-shard mutex is held (eviction callbacks),
/// and Drain() calls sinks with no journal-external lock held.
class EventJournal {
 public:
  struct Options {
    /// Per-thread ring capacity in events (rounded up to a power of two).
    size_t buffer_events = 8192;
  };

  EventJournal();
  explicit EventJournal(Options options);
  ~EventJournal();

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Attaches a sink; safe at any time (the next drain cycle sees it).
  /// The sink must outlive the journal or be detached via RemoveSink.
  void AddSink(JournalSink* sink);
  void RemoveSink(JournalSink* sink);

  /// Records one event. `event.ts_us == 0` is stamped with the journal's
  /// own monotonic clock (µs since construction); a non-zero value is kept
  /// verbatim so the simulator can journal virtual time.
  void Record(JournalEvent event);

  /// Drains every thread buffer into the sinks now; returns the number of
  /// events delivered. Callable from any thread (serialised internally);
  /// used by tests and for a final flush before reading results.
  size_t Drain();

  /// The final drain at the end of a run: the same as Drain(). The
  /// destructor calls it. Record() after Stop() still works (events wait
  /// for the next Drain()).
  void Stop() { Drain(); }

  uint64_t events_recorded() const;  // accepted into a ring
  uint64_t events_dropped() const;   // rejected: ring full
  uint64_t events_drained() const {
    return drained_.load(std::memory_order_relaxed);
  }
  size_t buffer_count() const;

 private:
  /// One thread's SPSC ring: the owning thread writes head, Drain()
  /// writes tail. Writer and drain fields sit on separate cache lines.
  struct alignas(64) Buffer {
    explicit Buffer(size_t capacity)
        : mask(capacity - 1), slots(capacity) {}
    const uint64_t mask;
    std::atomic<uint64_t> head{0};     // writer-owned
    std::atomic<uint64_t> dropped{0};  // writer-owned
    alignas(64) std::atomic<uint64_t> tail{0};  // Drain()-owned
    std::vector<JournalEvent> slots;
  };

  Buffer* BufferForThisThread();

  const size_t capacity_;  // power of two
  const uint64_t generation_;  // distinguishes journals for the TLS cache
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex register_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::map<std::thread::id, Buffer*> by_thread_;

  std::mutex sinks_mutex_;
  std::vector<JournalSink*> sinks_;

  std::mutex drain_mutex_;  // serialises Drain() bodies
  std::vector<JournalEvent> scratch_;  // guarded by drain_mutex_
  std::atomic<uint64_t> drained_{0};
};

// ---------------------------------------------------------------------------
// Binary journal persistence (serve_bench --journal-out, tools/chrono_audit)

/// 16-byte file header followed by raw JournalEvent records.
struct JournalFileHeader {
  char magic[4] = {'C', 'H', 'R', 'J'};
  uint32_t version = 1;
  uint32_t event_size = sizeof(JournalEvent);
  uint32_t reserved = 0;
};

/// \brief Sink appending drained events to a binary journal file. Writes
/// happen on the draining thread; Flush()/the destructor make the file
/// complete for offline analysis.
class JournalFileSink : public JournalSink {
 public:
  /// Opens (truncates) `path` and writes the header; null on I/O failure.
  static std::unique_ptr<JournalFileSink> Open(const std::string& path);
  ~JournalFileSink() override;

  void OnEvents(const JournalEvent* events, size_t count) override;
  void Flush();

  uint64_t events_written() const { return written_; }
  const std::string& path() const { return path_; }

 private:
  JournalFileSink(FILE* file, std::string path);
  FILE* file_;
  std::string path_;
  uint64_t written_ = 0;
};

/// Reads a journal file produced by JournalFileSink; validates the header
/// and record framing (a truncated trailing record is an error).
Result<std::vector<JournalEvent>> ReadJournalFile(const std::string& path);

}  // namespace chrono::obs

#endif  // CHRONOCACHE_OBS_JOURNAL_H_
