#include "runtime/brownout.h"

#include <algorithm>

namespace chrono::runtime {

BrownoutController::BrownoutController(Options options)
    : options_(options) {
  if (options_.up_samples < 1) options_.up_samples = 1;
  if (options_.down_samples < 1) options_.down_samples = 1;
  if (options_.clear_ratio <= 0 || options_.clear_ratio > 1) {
    options_.clear_ratio = 0.5;
  }
}

uint32_t BrownoutController::RetryAfterMs() const {
  uint64_t target_ms = options_.queue_target_us / 1000;
  if (target_ms == 0) target_ms = 1;
  int lvl = level_.load(std::memory_order_relaxed);
  uint64_t hint = target_ms << (lvl < 0 ? 0 : lvl);
  return static_cast<uint32_t>(std::clamp<uint64_t>(hint, 10, 5000));
}

BrownoutController::Level BrownoutController::OnSample(uint64_t p99_us) {
  if (!enabled()) return Level::kNormal;
  int lvl = level_.load(std::memory_order_relaxed);
  int next = lvl;
  uint64_t clear_below = static_cast<uint64_t>(
      static_cast<double>(options_.queue_target_us) * options_.clear_ratio);
  if (p99_us > options_.queue_target_us) {
    clear_streak_ = 0;
    // Each further step needs its own full run of over-target samples, so
    // a single spike cannot ride the ladder to the top.
    if (++over_streak_ >= options_.up_samples && lvl < kLevelCount - 1) {
      next = lvl + 1;
      over_streak_ = 0;
    }
  } else if (p99_us < clear_below) {
    over_streak_ = 0;
    if (++clear_streak_ >= options_.down_samples && lvl > 0) {
      next = lvl - 1;
      clear_streak_ = 0;
    }
  } else {
    // Inside the hysteresis band: hold the level, reset both streaks.
    over_streak_ = 0;
    clear_streak_ = 0;
  }
  if (next != lvl) {
    if (listener_) {
      listener_(static_cast<Level>(next), static_cast<Level>(lvl), p99_us);
    }
    level_.store(next, std::memory_order_relaxed);
  }
  return static_cast<Level>(next);
}

}  // namespace chrono::runtime
