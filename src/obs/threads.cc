#include "obs/threads.h"

#include <pthread.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>

#include "obs/profiler.h"

namespace chrono::obs {

namespace {

thread_local ThreadRegistry::Entry* tls_entry = nullptr;

/// Best-effort stack bounds for the calling thread; {0,0} when glibc
/// cannot report them (the frame walker then rejects every frame pointer,
/// degrading to leaf-only samples rather than crashing).
void CurrentStackBounds(uintptr_t* lo, uintptr_t* hi) {
  *lo = 0;
  *hi = 0;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* addr = nullptr;
  size_t size = 0;
  if (pthread_attr_getstack(&attr, &addr, &size) == 0 && size > 0) {
    *lo = reinterpret_cast<uintptr_t>(addr);
    *hi = *lo + size;
  }
  pthread_attr_destroy(&attr);
}

}  // namespace

const char* ThreadRoleName(ThreadRole role) {
  switch (role) {
    case ThreadRole::kMain:
      return "main";
    case ThreadRole::kWorker:
      return "worker";
    case ThreadRole::kIo:
      return "io";
    case ThreadRole::kHousekeeping:
      return "housekeeping";
    case ThreadRole::kClient:
      return "client";
    case ThreadRole::kStats:
      return "stats";
    case ThreadRole::kProfiler:
      return "profiler";
    case ThreadRole::kOther:
      return "other";
  }
  return "other";
}

ThreadRegistry& ThreadRegistry::Instance() {
  static ThreadRegistry* registry = new ThreadRegistry();  // never destroyed
  return *registry;
}

ThreadRegistry::~ThreadRegistry() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : entries_) {
    delete entry->ring.exchange(nullptr, std::memory_order_acq_rel);
  }
}

ThreadRegistry::Entry* ThreadRegistry::RegisterCurrent(
    ThreadRole role, const std::string& name) {
  auto owned = std::make_unique<Entry>();
  Entry* entry = owned.get();
  entry->name = name;
  entry->role = role;
  entry->tid = static_cast<uint64_t>(::syscall(SYS_gettid));
  CurrentStackBounds(&entry->stack_lo, &entry->stack_hi);

  // Kernel-side name: pthread_setname_np caps names at 15 chars + NUL;
  // the full name stays in the registry ("chrono-housekeeping" shows as
  // "chrono-housekee" in top -H but intact in /threads and profiles).
  char short_name[16];
  std::strncpy(short_name, name.c_str(), sizeof(short_name) - 1);
  short_name[sizeof(short_name) - 1] = '\0';
  pthread_setname_np(pthread_self(), short_name);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    entry->index = static_cast<uint32_t>(entries_.size());
    entries_.push_back(std::move(owned));
    if (observer_ != nullptr) observer_->OnThreadRegistered(entry);
  }
  tls_entry = entry;
  return entry;
}

void ThreadRegistry::MarkDead(Entry* entry) {
  if (entry != nullptr) entry->alive.store(false, std::memory_order_release);
}

ThreadRegistry::Entry* ThreadRegistry::Current() { return tls_entry; }

void ThreadRegistry::SetObserver(Observer* observer) {
  std::lock_guard<std::mutex> lock(mutex_);
  observer_ = observer;
}

void ThreadRegistry::ForEach(const std::function<void(Entry*)>& fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : entries_) fn(entry.get());
}

size_t ThreadRegistry::live_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t live = 0;
  for (const auto& entry : entries_) {
    if (entry->alive.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

size_t ThreadRegistry::total_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::string ThreadRegistry::ThreadsJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"threads\":[";
  size_t live = 0;
  bool first = true;
  for (const auto& entry : entries_) {
    bool alive = entry->alive.load(std::memory_order_acquire);
    if (alive) ++live;
    if (!first) out += ",";
    first = false;
    out += "{\"index\":" + std::to_string(entry->index);
    out += ",\"name\":\"" + entry->name + "\"";  // fixed internal names
    out += ",\"role\":\"" + std::string(ThreadRoleName(entry->role)) + "\"";
    out += ",\"tid\":" + std::to_string(entry->tid);
    out += ",\"alive\":";
    out += alive ? "true" : "false";
    out += "}";
  }
  out += "],\"live\":" + std::to_string(live);
  out += ",\"total\":" + std::to_string(entries_.size()) + "}";
  return out;
}

ThreadLease::ThreadLease(ThreadRole role, const std::string& name) {
  previous_ = ThreadRegistry::Current();
  entry_ = ThreadRegistry::Instance().RegisterCurrent(role, name);
}

ThreadLease::~ThreadLease() {
  ThreadRegistry::Instance().MarkDead(entry_);
  // Restore the outer registration (nested leases in tests); the signal
  // handler sees either entry, both permanently valid.
  tls_entry = previous_;
}

}  // namespace chrono::obs
