#ifndef CHRONOCACHE_NET_FAULT_INJECTOR_H_
#define CHRONOCACHE_NET_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>

namespace chrono::net {

/// Scripted fault schedule for the remote-DB link. All probabilities are
/// percentages in [0, 100]; everything off by default.
struct FaultOptions {
  /// Chance a backend call fails with Unavailable (dropped/refused).
  double error_pct = 0.0;
  /// Latency-spike multiplier applied to spiked calls (1 = off). The
  /// effective multiplier is jittered in [mult/2, mult] per call.
  double spike_multiplier = 1.0;
  /// Share of calls that take the spiked latency.
  double spike_pct = 10.0;
  /// Blackout window: every call with `now` inside
  /// [blackout_start_us, blackout_start_us + blackout_us) hangs and fails
  /// (the caller's deadline cuts it off). 0 duration disables.
  uint64_t blackout_start_us = 3'000'000;
  uint64_t blackout_us = 0;
  /// If non-zero, the blackout repeats with this period.
  uint64_t blackout_period_us = 0;
  uint64_t seed = 42;
};

/// What the injector decided for one backend call.
struct FaultDecision {
  bool fail = false;      // call fails with Unavailable
  bool blackout = false;  // failing because of a blackout window (hangs)
  double latency_multiplier = 1.0;
};

/// \brief Deterministic, seedable fault injector for the wall-clock
/// server's backend calls. Each call draws its fate from
/// SplitMix64(seed ^ ordinal) where the ordinal is a process-wide atomic
/// counter — thread-safe with no locks, and the decision *sequence* is
/// reproducible for a fixed seed (the thread interleaving only permutes
/// which request gets which ordinal). `now_us` is the caller's timeline
/// (wall µs since server start; tests pass their own); blackout windows are
/// evaluated against it directly.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultOptions options);

  /// True if any fault (error, spike, or blackout) is configured.
  bool enabled() const { return enabled_; }

  FaultDecision Decide(uint64_t now_us);

  bool InBlackout(uint64_t now_us) const;

  uint64_t decisions() const {
    return ordinal_.load(std::memory_order_relaxed);
  }
  uint64_t faults_injected() const {
    return faults_.load(std::memory_order_relaxed);
  }
  uint64_t blackout_faults() const {
    return blackout_faults_.load(std::memory_order_relaxed);
  }
  uint64_t spikes() const { return spikes_.load(std::memory_order_relaxed); }

  const FaultOptions& options() const { return options_; }

 private:
  FaultOptions options_;
  bool enabled_ = false;
  std::atomic<uint64_t> ordinal_{0};
  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> blackout_faults_{0};
  std::atomic<uint64_t> spikes_{0};
};

}  // namespace chrono::net

#endif  // CHRONOCACHE_NET_FAULT_INJECTOR_H_
