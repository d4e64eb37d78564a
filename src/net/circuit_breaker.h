#ifndef CHRONOCACHE_NET_CIRCUIT_BREAKER_H_
#define CHRONOCACHE_NET_CIRCUIT_BREAKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

namespace chrono::net {

/// \brief Per-backend circuit breaker (closed → open → half-open).
///
/// Closed: everything is admitted; `failure_threshold` *consecutive*
/// transport failures open the breaker. Open: demand calls are rejected
/// fast (no WAN wait) until `open_cooldown_us` elapses, then the next
/// demand call is admitted as a probe and the breaker moves to half-open.
/// Half-open: at most `half_open_probes` calls are in flight as probes;
/// `close_threshold` probe successes close the breaker, one probe failure
/// re-opens it and restarts the cooldown.
///
/// Prefetch is best-effort and is only admitted while the breaker is fully
/// closed — a degraded backend's capacity belongs to demand traffic, and
/// prefetch must never occupy half-open probe slots.
///
/// Thread safety: one mutex, held only for the state machine (no I/O, no
/// waiting). The mutex is a leaf in the server lock order — callers hold no
/// cache-shard or session lock at backend call sites — except that the
/// transition listener runs under it, so listeners must themselves be
/// leaf-only (journal Record and relaxed counters qualify).
class CircuitBreaker {
 public:
  enum class State : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  struct Options {
    int failure_threshold = 5;           // consecutive failures that open
    uint64_t open_cooldown_us = 500'000; // open → first half-open probe
    int half_open_probes = 1;            // concurrent probes in half-open
    int close_threshold = 2;             // probe successes that close
  };

  /// How AdmitDemand classified a call; pass it back to OnResult so probe
  /// slots are released and successes/failures are attributed correctly.
  enum class Admission { kRejected = 0, kAdmitted = 1, kProbe = 2 };

  using Clock = std::function<uint64_t()>;  // monotonic µs
  using TransitionListener = std::function<void(State from, State to)>;

  CircuitBreaker(Options options, Clock clock);

  /// Installs a transition callback (journal/metrics hook). Called under
  /// the breaker mutex; must be cheap and lock-leaf. Set before traffic.
  void SetTransitionListener(TransitionListener listener);

  /// Admission for a demand (client-blocking) call. kRejected means fail
  /// fast without touching the backend.
  Admission AdmitDemand();

  /// Admission for best-effort background work: true only when closed.
  bool AdmitPrefetch();

  /// Reports the outcome of an admitted call. `ok` covers transport health
  /// only — an application error from a healthy backend is a success here.
  /// Calls admitted as kRejected must not be reported.
  void OnResult(Admission admission, bool ok);
  /// Reports an admitted call the caller gave up on before the backend
  /// could answer (its own deadline ran out): no verdict on backend
  /// health. Only releases a half-open probe slot.
  void OnAbandoned(Admission admission);

  State state() const {
    return state_relaxed_.load(std::memory_order_relaxed);
  }

  uint64_t demand_rejected() const {
    return demand_rejected_.load(std::memory_order_relaxed);
  }
  uint64_t prefetch_rejected() const {
    return prefetch_rejected_.load(std::memory_order_relaxed);
  }
  uint64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

 private:
  void TransitionLocked(State to, uint64_t now_us);

  const Options options_;
  const Clock clock_;

  std::mutex mutex_;
  State state_ = State::kClosed;       // guarded by mutex_
  int consecutive_failures_ = 0;       // closed: failures in a row
  int probes_inflight_ = 0;            // half-open: outstanding probes
  int probe_successes_ = 0;            // half-open: successes so far
  uint64_t opened_at_us_ = 0;          // open: cooldown start
  TransitionListener listener_;

  /// Lock-free mirror of state_ for gauges and fast-path peeks.
  std::atomic<State> state_relaxed_{State::kClosed};
  std::atomic<uint64_t> demand_rejected_{0};
  std::atomic<uint64_t> prefetch_rejected_{0};
  std::atomic<uint64_t> transitions_{0};
};

}  // namespace chrono::net

#endif  // CHRONOCACHE_NET_CIRCUIT_BREAKER_H_
