#ifndef CHRONOCACHE_OBS_CONTENTION_H_
#define CHRONOCACHE_OBS_CONTENTION_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace chrono::obs {

/// \brief Per-site lock telemetry (DESIGN.md §16): every instrumented
/// mutex is tagged with a LockSite whose wait/hold histograms and
/// contention counters live in the node's MetricsRegistry —
///   chrono_lock_acquisitions_total{site=...}
///   chrono_lock_contended_total{site=...}
///   chrono_lock_wait_ns{site=...}       (histogram)
///   chrono_lock_hold_ns{site=...}       (histogram)
/// so /metrics exports them for free and /contention ranks sites by wait
/// share. Sites are created once (get-or-create by name) and never freed.
///
/// Cost: the uncontended path is a try_lock, one counter increment, two
/// clock reads and one histogram Record for the hold; a contended
/// acquisition adds the wait sample. Every site always records: the A/B
/// against turning sites off (BENCH_serve.json, lock_telemetry_ab*) did
/// not resolve this cost from run-to-run noise.
class LockSite {
 public:
  const std::string& name() const { return name_; }

  void CountAcquisition() { acquisitions_->Increment(); }
  void RecordWait(uint64_t wait_ns) {
    contended_->Increment();
    wait_ns_->Record(wait_ns);
  }
  void RecordHold(uint64_t hold_ns) { hold_ns_->Record(hold_ns); }

  uint64_t acquisitions() const { return acquisitions_->value(); }
  uint64_t contended() const { return contended_->value(); }
  HistogramSnapshot wait_snapshot() const { return wait_ns_->Snapshot(); }
  HistogramSnapshot hold_snapshot() const { return hold_ns_->Snapshot(); }

 private:
  friend class ContentionRegistry;
  LockSite(std::string name, MetricsRegistry* registry);

  std::string name_;
  Counter* acquisitions_;
  Counter* contended_;
  Histogram* wait_ns_;
  Histogram* hold_ns_;
};

/// Owns the LockSites of one node.
/// `registry` must outlive this object (ChronoServer guarantees it by
/// declaration order).
class ContentionRegistry {
 public:
  explicit ContentionRegistry(MetricsRegistry* registry);

  ContentionRegistry(const ContentionRegistry&) = delete;
  ContentionRegistry& operator=(const ContentionRegistry&) = delete;

  /// Get-or-create; the returned site lives as long as this registry.
  LockSite* Site(const std::string& name);

  /// The /contention document: every site with acquisition/contention
  /// counts and wait/hold stats, ranked by total wait share (worst first).
  std::string ContentionJson() const;

 private:
  MetricsRegistry* registry_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<LockSite>> sites_;  // stable addresses
  std::unordered_map<std::string, LockSite*> by_name_;
};

inline uint64_t LockClockNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A mutex wrapper satisfying Lockable, with per-site wait/hold telemetry
/// on the exclusive side. A default-constructed or null-site instance
/// behaves exactly like `Mutex`. The hold timestamp lives in the object
/// and is only touched by the current holder — it is guarded by the mutex
/// itself.
template <typename Mutex>
class TimedExclusiveMutex {
 public:
  TimedExclusiveMutex() = default;
  explicit TimedExclusiveMutex(LockSite* site) : site_(site) {}

  TimedExclusiveMutex(const TimedExclusiveMutex&) = delete;
  TimedExclusiveMutex& operator=(const TimedExclusiveMutex&) = delete;

  void lock() {
    LockSite* site = site_;
    if (site == nullptr) {
      mutex_.lock();
      return;
    }
    site->CountAcquisition();
    if (mutex_.try_lock()) {  // uncontended: no wait sample
      hold_begin_ns_ = LockClockNs();
      return;
    }
    uint64_t wait_begin = LockClockNs();
    mutex_.lock();
    site->RecordWait(LockClockNs() - wait_begin);
    hold_begin_ns_ = LockClockNs();
  }

  bool try_lock() {
    LockSite* site = site_;
    if (site == nullptr) return mutex_.try_lock();
    if (!mutex_.try_lock()) return false;
    site->CountAcquisition();
    hold_begin_ns_ = LockClockNs();
    return true;
  }

  void unlock() {
    if (hold_begin_ns_ != 0) {
      site_->RecordHold(LockClockNs() - hold_begin_ns_);
      hold_begin_ns_ = 0;
    }
    mutex_.unlock();
  }

 protected:
  Mutex mutex_;

 private:
  LockSite* site_ = nullptr;
  uint64_t hold_begin_ns_ = 0;  // nonzero while a timed hold is open
};

using TimedMutex = TimedExclusiveMutex<std::mutex>;

/// std::shared_mutex wrapper (SharedLockable): the exclusive side records
/// wait + hold against `writer_site`; the shared side records wait only
/// against `reader_site` (readers overlap, so a shared hold time has no
/// single owner to attribute it to).
class TimedSharedMutex : public TimedExclusiveMutex<std::shared_mutex> {
 public:
  TimedSharedMutex() = default;
  TimedSharedMutex(LockSite* writer_site, LockSite* reader_site)
      : TimedExclusiveMutex(writer_site), reader_site_(reader_site) {}

  void lock_shared() {
    LockSite* site = reader_site_;
    if (site == nullptr) {
      mutex_.lock_shared();
      return;
    }
    site->CountAcquisition();
    if (mutex_.try_lock_shared()) return;
    uint64_t wait_begin = LockClockNs();
    mutex_.lock_shared();
    site->RecordWait(LockClockNs() - wait_begin);
  }

  bool try_lock_shared() {
    LockSite* site = reader_site_;
    if (site == nullptr) return mutex_.try_lock_shared();
    if (!mutex_.try_lock_shared()) return false;
    site->CountAcquisition();
    return true;
  }

  void unlock_shared() { mutex_.unlock_shared(); }

 private:
  LockSite* reader_site_ = nullptr;
};

}  // namespace chrono::obs

#endif  // CHRONOCACHE_OBS_CONTENTION_H_
