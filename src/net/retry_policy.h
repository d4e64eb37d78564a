#ifndef CHRONOCACHE_NET_RETRY_POLICY_H_
#define CHRONOCACHE_NET_RETRY_POLICY_H_

#include <cstdint>
#include <functional>

#include "common/status.h"

namespace chrono::net {

/// \brief Deadline budget for one remote operation, measured against an
/// injected microsecond clock so tests can drive it deterministically. A
/// zero budget means "no deadline".
class Deadline {
 public:
  using Clock = std::function<uint64_t()>;

  /// No deadline: remaining_us() == UINT64_MAX forever.
  Deadline() = default;

  /// Starts a budget of `budget_us` at clock() now. budget_us == 0 means
  /// unlimited.
  Deadline(uint64_t budget_us, Clock clock)
      : budget_us_(budget_us),
        clock_(std::move(clock)),
        start_us_(budget_us_ > 0 && clock_ ? clock_() : 0) {}

  bool unlimited() const { return budget_us_ == 0 || !clock_; }

  /// Microseconds left in the budget (UINT64_MAX when unlimited).
  uint64_t remaining_us() const {
    if (unlimited()) return UINT64_MAX;
    uint64_t elapsed = clock_() - start_us_;
    return elapsed >= budget_us_ ? 0 : budget_us_ - elapsed;
  }

  bool expired() const { return remaining_us() == 0; }

  uint64_t budget_us() const { return budget_us_; }

 private:
  uint64_t budget_us_ = 0;
  Clock clock_;
  uint64_t start_us_ = 0;
};

/// Combines two deadline budgets where 0 means "unlimited" on both sides:
/// the result is the tighter of the two, and unlimited only when both
/// are. Used to clamp the server's configured retry budget (§11) by the
/// client's propagated wire deadline (§17) — the ladder never spends time
/// a client no longer has.
inline uint64_t ClampBudgetUs(uint64_t budget_us, uint64_t cap_us) {
  if (budget_us == 0) return cap_us;
  if (cap_us == 0) return budget_us;
  return budget_us < cap_us ? budget_us : cap_us;
}

/// Knobs for the exponential-backoff retry schedule applied to idempotent
/// demand reads. Writes never consult this policy — they are not safely
/// retryable without dedup tokens the backend does not have.
struct RetryOptions {
  int max_attempts = 3;                 // total tries, including the first
  uint64_t initial_backoff_us = 5'000;  // cap for the first backoff
  uint64_t max_backoff_us = 100'000;    // overall backoff ceiling
  double multiplier = 2.0;              // cap growth per attempt
};

/// \brief Bounded exponential backoff with full jitter: the wait before
/// attempt N+1 is uniform in [0, min(max_backoff, initial * mult^(N-1))].
/// Full jitter de-correlates clients that failed together (the thundering
/// herd after a blackout), which truncated jitter does not.
class RetryPolicy {
 public:
  RetryPolicy() = default;
  explicit RetryPolicy(RetryOptions options) : options_(options) {}

  /// True if another attempt is allowed after `attempts_made` tries.
  bool ShouldRetry(int attempts_made) const {
    return attempts_made < options_.max_attempts;
  }

  /// The backoff cap (µs) applied before attempt `attempts_made + 1`;
  /// attempts_made >= 1.
  uint64_t BackoffCapUs(int attempts_made) const;

  /// Full-jitter backoff: u01 in [0, 1) picks uniformly within the cap.
  uint64_t BackoffUs(int attempts_made, double u01) const {
    return static_cast<uint64_t>(
        static_cast<double>(BackoffCapUs(attempts_made)) * u01);
  }

  /// Only transport-level failures are retryable; SQL/application errors
  /// (parse, execution, not-found) would fail identically on every try.
  static bool IsRetryable(const Status& status) {
    return status.code() == Status::Code::kUnavailable ||
           status.code() == Status::Code::kDeadlineExceeded;
  }

  const RetryOptions& options() const { return options_; }

 private:
  RetryOptions options_;
};

}  // namespace chrono::net

#endif  // CHRONOCACHE_NET_RETRY_POLICY_H_
