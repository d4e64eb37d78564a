#include "net/circuit_breaker.h"

#include <utility>

namespace chrono::net {

CircuitBreaker::CircuitBreaker(Options options, Clock clock)
    : options_(options), clock_(std::move(clock)) {}

void CircuitBreaker::SetTransitionListener(TransitionListener listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  listener_ = std::move(listener);
}

void CircuitBreaker::TransitionLocked(State to, uint64_t now_us) {
  State from = state_;
  if (from == to) return;
  state_ = to;
  state_relaxed_.store(to, std::memory_order_relaxed);
  transitions_.fetch_add(1, std::memory_order_relaxed);
  switch (to) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kOpen:
      opened_at_us_ = now_us;
      break;
    case State::kHalfOpen:
      probes_inflight_ = 0;
      probe_successes_ = 0;
      break;
  }
  if (listener_) listener_(from, to);
}

CircuitBreaker::Admission CircuitBreaker::AdmitDemand() {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case State::kClosed:
      return Admission::kAdmitted;
    case State::kOpen: {
      uint64_t now = clock_();
      if (now - opened_at_us_ < options_.open_cooldown_us) {
        demand_rejected_.fetch_add(1, std::memory_order_relaxed);
        return Admission::kRejected;
      }
      TransitionLocked(State::kHalfOpen, now);
      ++probes_inflight_;
      return Admission::kProbe;
    }
    case State::kHalfOpen:
      if (probes_inflight_ < options_.half_open_probes) {
        ++probes_inflight_;
        return Admission::kProbe;
      }
      demand_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Admission::kRejected;
  }
  return Admission::kAdmitted;  // unreachable
}

bool CircuitBreaker::AdmitPrefetch() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ == State::kClosed) return true;
  }
  prefetch_rejected_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void CircuitBreaker::OnResult(Admission admission, bool ok) {
  if (admission == Admission::kRejected) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (admission == Admission::kProbe) {
    if (probes_inflight_ > 0) --probes_inflight_;
    // A probe result only matters while still half-open; a concurrent
    // probe may already have re-opened or closed the breaker.
    if (state_ != State::kHalfOpen) return;
    if (ok) {
      if (++probe_successes_ >= options_.close_threshold) {
        TransitionLocked(State::kClosed, clock_());
      }
    } else {
      TransitionLocked(State::kOpen, clock_());
    }
    return;
  }
  // Regular admission: only meaningful while closed. A call that was
  // admitted closed but finished after the breaker opened carries no new
  // information — the breaker already reacted.
  if (state_ != State::kClosed) return;
  if (ok) {
    consecutive_failures_ = 0;
  } else if (++consecutive_failures_ >= options_.failure_threshold) {
    TransitionLocked(State::kOpen, clock_());
  }
}

void CircuitBreaker::OnAbandoned(Admission admission) {
  if (admission != Admission::kProbe) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (probes_inflight_ > 0) --probes_inflight_;
}

}  // namespace chrono::net
