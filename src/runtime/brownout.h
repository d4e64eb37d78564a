#ifndef CHRONOCACHE_RUNTIME_BROWNOUT_H_
#define CHRONOCACHE_RUNTIME_BROWNOUT_H_

#include <atomic>
#include <cstdint>
#include <functional>

namespace chrono::runtime {

/// \brief Adaptive overload controller (§17): watches the demand lane's
/// windowed queue-wait p99 against a target and walks a shed ladder —
/// each step gives up strictly less valuable work than the one before:
///
///   0 kNormal        serve everything
///   1 kShedPrefetch  drop speculation (plans are still learned)
///   2 kShedPipeline  also reject over-limit pipelined frames per conn
///   3 kRejectQuery   also reject new Querys with a Retry-After hint
///
/// The ladder steps up only after `up_samples` *consecutive* over-target
/// samples and down only after `down_samples` consecutive samples below
/// `clear_ratio * target` — the band in between holds the current level,
/// so the controller cannot flap on a noisy signal (hysteresis damping).
/// This is the offered-load twin of the §11 backend ladder: §11 protects
/// against a flaky backend, this protects against the node's own
/// saturation; they compose because both only ever *remove* work.
///
/// The controller is a pure sample-driven state machine: OnSample() is
/// called at a fixed cadence by the owner's housekeeping thread (or
/// directly by tests, which makes every transition deterministic without real
/// time). level() is an atomic read, safe from any thread on the serving
/// hot path.
class BrownoutController {
 public:
  enum class Level : int {
    kNormal = 0,
    kShedPrefetch = 1,
    kShedPipeline = 2,
    kRejectQuery = 3,
  };
  static constexpr int kLevelCount = 4;

  struct Options {
    /// Demand queue-wait p99 the node tries to hold (0 disables the
    /// controller entirely: level is pinned at kNormal).
    uint64_t queue_target_us = 0;
    /// Consecutive over-target samples required per upward step.
    int up_samples = 2;
    /// Consecutive clear samples required per downward step.
    int down_samples = 5;
    /// A sample is "clear" when p99 < clear_ratio * queue_target_us.
    double clear_ratio = 0.5;
  };

  explicit BrownoutController(Options options);

  BrownoutController(const BrownoutController&) = delete;
  BrownoutController& operator=(const BrownoutController&) = delete;

  /// Feeds one windowed queue-wait p99 observation and returns the level
  /// after applying the ladder rules. Single-threaded (one caller).
  Level OnSample(uint64_t p99_us);

  /// Current level; lock-free, callable from the serving hot path.
  Level level() const {
    return static_cast<Level>(level_.load(std::memory_order_relaxed));
  }

  bool enabled() const { return options_.queue_target_us > 0; }

  /// Retry-After-style hint (ms) to attach to rejections at the current
  /// level: the queue target scaled up with the ladder, so clients back
  /// off harder the deeper the brownout. Bounded to [10 ms, 5 s].
  uint32_t RetryAfterMs() const;

  const Options& options() const { return options_; }

  /// Invoked inline from OnSample on every level change, before the new
  /// level becomes visible to readers. The owner journals the transition
  /// (kBrownoutTransition) and bumps counters here.
  using Listener =
      std::function<void(Level to, Level from, uint64_t p99_us)>;
  void SetTransitionListener(Listener listener) {
    listener_ = std::move(listener);
  }

 private:
  Options options_;
  Listener listener_;
  std::atomic<int> level_{0};
  int over_streak_ = 0;   // OnSample caller only
  int clear_streak_ = 0;  // OnSample caller only
};

}  // namespace chrono::runtime

#endif  // CHRONOCACHE_RUNTIME_BROWNOUT_H_
