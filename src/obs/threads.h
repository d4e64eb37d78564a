#ifndef CHRONOCACHE_OBS_THREADS_H_
#define CHRONOCACHE_OBS_THREADS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace chrono::obs {

class SampleRing;  // profiler.h: per-thread CPU-sample ring

/// Role a thread plays in the node, so CPU samples and TSan/top -H output
/// attribute to pool roles instead of anonymous thread ids (DESIGN.md §16).
enum class ThreadRole : uint8_t {
  kMain = 0,
  kWorker,    // ThreadPool serving workers
  kIo,        // wire epoll loop
  kHousekeeping,  // ChronoServer's periodic jobs (DESIGN.md §9)
  kClient,    // bench client threads
  kStats,     // StatsServer accept loop
  kProfiler,  // CPU-profile drainer
  kOther,
};
const char* ThreadRoleName(ThreadRole role);

/// \brief Process-wide registry of named threads. Every spawned thread
/// registers itself (RAII ThreadLease), which also applies the kernel-side
/// `pthread_setname_np` name (truncated to the 15-char limit; the full
/// name survives here). Entries are never deallocated — a finished thread
/// is only marked dead — so the SIGPROF handler can dereference its own
/// entry (found via a TLS pointer) without ever racing a free. The
/// profiler hangs a per-thread SampleRing off each entry; rings are owned
/// by the registry and reused across profile windows.
class ThreadRegistry {
 public:
  struct Entry {
    uint32_t index = 0;
    std::string name;               // full logical name ("chrono-worker-3")
    ThreadRole role = ThreadRole::kOther;
    uint64_t tid = 0;               // kernel thread id (gettid)
    uintptr_t stack_lo = 0;         // pthread stack bounds: the frame
    uintptr_t stack_hi = 0;         //   walker's validity window
    std::atomic<bool> alive{true};
    /// CPU-sample ring, installed by CpuProfiler::Start (registry-owned
    /// once set, freed only at registry destruction). Acquire/release:
    /// the signal handler loads it on the sampled thread.
    std::atomic<SampleRing*> ring{nullptr};
  };

  /// Observes registrations so an active profiler can give threads that
  /// start mid-window a ring. Called under the registry mutex — keep it
  /// allocation-cheap and never call back into the registry.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void OnThreadRegistered(Entry* entry) = 0;
  };

  static ThreadRegistry& Instance();

  /// Registers the calling thread (role + name, pthread name applied).
  /// The returned entry stays valid for the process lifetime.
  Entry* RegisterCurrent(ThreadRole role, const std::string& name);
  void MarkDead(Entry* entry);

  /// The calling thread's entry (TLS), or null if never registered.
  /// Async-signal-safe: a plain TLS load.
  static Entry* Current();

  /// Installs/clears the registration observer (profiler attach/detach).
  void SetObserver(Observer* observer);

  /// Visits every entry (dead ones included — their rings may still hold
  /// undrained samples) under the registry mutex.
  void ForEach(const std::function<void(Entry*)>& fn);

  size_t live_count() const;
  size_t total_count() const;

  /// The /threads document: every registered thread with name, role, tid
  /// and liveness.
  std::string ThreadsJson() const;

  ~ThreadRegistry();

 private:
  ThreadRegistry() = default;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
  Observer* observer_ = nullptr;  // guarded by mutex_
};

/// RAII registration: construct at the top of a thread's entry function.
/// Restores any previously registered entry on destruction (nested leases
/// in tests) and marks this one dead.
class ThreadLease {
 public:
  ThreadLease(ThreadRole role, const std::string& name);
  ~ThreadLease();

  ThreadLease(const ThreadLease&) = delete;
  ThreadLease& operator=(const ThreadLease&) = delete;

  ThreadRegistry::Entry* entry() const { return entry_; }

 private:
  ThreadRegistry::Entry* entry_ = nullptr;
  ThreadRegistry::Entry* previous_ = nullptr;
};

}  // namespace chrono::obs

#endif  // CHRONOCACHE_OBS_THREADS_H_
