#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/export.h"

namespace chrono::obs {

namespace {

/// The single armed profiler (at most one process-wide: ITIMER_PROF and
/// the SIGPROF disposition are process state). The handler reads it with
/// acquire; Stop clears it and then waits out in-flight handlers.
std::atomic<CpuProfiler*> g_active{nullptr};
std::atomic<int> g_handler_entries{0};

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Async-signal-safe frame-pointer walk of the *interrupted* context.
/// Every dereference is bounds-checked against the thread's registered
/// stack and the chain must strictly grow toward the stack base, so a
/// clobbered frame pointer ends the walk instead of faulting. Leaf-first:
/// pcs[0] is the interrupted instruction.
size_t CaptureStack(void* ucontext_ptr, uintptr_t stack_lo,
                    uintptr_t stack_hi, uint64_t* pcs, size_t max_frames) {
  uintptr_t pc = 0;
  uintptr_t fp = 0;
#if defined(__linux__) && defined(__x86_64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext_ptr);
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__linux__) && defined(__aarch64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext_ptr);
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  // No per-arch register access: walk from the handler's own frame. The
  // top frames are signal plumbing, but role/thread attribution (the
  // roots) stays correct.
  (void)ucontext_ptr;
  fp = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
#endif
  size_t depth = 0;
  if (pc != 0 && depth < max_frames) pcs[depth++] = pc;
  while (depth < max_frames) {
    if (fp == 0 || (fp & (sizeof(uintptr_t) - 1)) != 0) break;
    if (stack_lo == 0 ||
        fp < stack_lo || fp + 2 * sizeof(uintptr_t) > stack_hi) {
      break;
    }
    const uintptr_t* frame = reinterpret_cast<const uintptr_t*>(fp);
    uintptr_t next_fp = frame[0];
    uintptr_t ret = frame[1];
    if (ret < 0x1000) break;  // not a plausible code address
    pcs[depth++] = ret;
    if (next_fp <= fp) break;  // frames must move toward the stack base
    fp = next_fp;
  }
  if (depth == 0) {  // nothing walkable: keep the sample, attribute "0x0"
    pcs[depth++] = 0;
  }
  return depth;
}

/// Collapsed-stack frames must not contain the two characters the format
/// reserves: ';' joins frames and the last ' ' splits off the count.
std::string SanitizeFrame(const std::string& symbol) {
  std::string out = symbol;
  for (char& c : out) {
    if (c == ';') c = ':';
    if (c == ' ') c = '_';
  }
  return out;
}

constexpr uint64_t kLabelTokenFlag = 1ull << 63;

}  // namespace

// --- SampleRing -----------------------------------------------------------

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

SampleRing::SampleRing(size_t capacity)
    : mask_(RoundUpPow2(capacity < 2 ? 2 : capacity) - 1),
      slots_(mask_ + 1) {}

bool SampleRing::TryPush(const CpuSample& sample) {
  uint64_t head = head_.load(std::memory_order_relaxed);
  uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail > mask_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[head & mask_] = sample;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

size_t SampleRing::DrainInto(std::vector<CpuSample>* out) {
  uint64_t tail = tail_.load(std::memory_order_relaxed);
  uint64_t head = head_.load(std::memory_order_acquire);
  size_t drained = 0;
  while (tail != head) {
    out->push_back(slots_[tail & mask_]);
    ++tail;
    ++drained;
  }
  tail_.store(tail, std::memory_order_release);
  return drained;
}

// --- StackTrie ------------------------------------------------------------

StackTrie::StackTrie() { nodes_.push_back(Node{}); }

uint64_t StackTrie::InternLabel(const std::string& label) {
  auto it = label_tokens_.find(label);
  if (it != label_tokens_.end()) return it->second;
  uint64_t token = kLabelTokenFlag | labels_.size();
  labels_.push_back(label);
  label_tokens_[label] = token;
  return token;
}

void StackTrie::Add(const uint64_t* tokens, size_t n, uint64_t count) {
  int idx = 0;
  for (size_t i = 0; i < n; ++i) {
    auto it = nodes_[idx].children.find(tokens[i]);
    if (it != nodes_[idx].children.end()) {
      idx = it->second;
      continue;
    }
    int child = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{tokens[i], 0, {}});
    nodes_[idx].children.emplace(tokens[i], child);
    idx = child;
  }
  nodes_[idx].self += count;
  samples_ += count;
}

void StackTrie::Clear() {
  nodes_.clear();
  nodes_.push_back(Node{});
  labels_.clear();
  label_tokens_.clear();
  samples_ = 0;
}

std::string StackTrie::Collapsed(
    const std::function<std::string(uint64_t)>& resolve) const {
  std::vector<std::string> lines;
  std::vector<std::string> path;
  std::function<void(int)> dfs = [&](int idx) {
    const Node& node = nodes_[idx];
    if (node.self > 0 && !path.empty()) {
      std::string line = path[0];
      for (size_t i = 1; i < path.size(); ++i) line += ";" + path[i];
      line += " " + std::to_string(node.self);
      lines.push_back(std::move(line));
    }
    for (const auto& [token, child] : node.children) {
      path.push_back(resolve(token));
      dfs(child);
      path.pop_back();
    }
  };
  dfs(0);
  // Sorted lines: the export is a pure function of the folded multiset,
  // independent of sample arrival order (fold-determinism contract).
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

void StackTrie::ForEachPath(
    const std::function<void(const std::vector<uint64_t>&, uint64_t)>& fn)
    const {
  std::vector<uint64_t> path;
  std::function<void(int)> dfs = [&](int idx) {
    const Node& node = nodes_[idx];
    if (node.self > 0 && !path.empty()) fn(path, node.self);
    for (const auto& [token, child] : node.children) {
      path.push_back(token);
      dfs(child);
      path.pop_back();
    }
  };
  dfs(0);
}

const std::string& StackTrie::LabelFor(uint64_t token) const {
  return labels_[token & ~kLabelTokenFlag];
}

// --- Symbolization --------------------------------------------------------

std::string SymbolizePc(uint64_t pc) {
  if (pc == 0) return "0x0";
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  if (dladdr(reinterpret_cast<void*>(static_cast<uintptr_t>(pc)), &info) !=
      0) {
    if (info.dli_sname != nullptr) {
      int status = -1;
      char* demangled =
          abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      std::string out =
          (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
      std::free(demangled);
      return out;
    }
    if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
      const char* base = std::strrchr(info.dli_fname, '/');
      base = base != nullptr ? base + 1 : info.dli_fname;
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%s+0x%llx", base,
                    static_cast<unsigned long long>(
                        pc - reinterpret_cast<uintptr_t>(info.dli_fbase)));
      return buf;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(pc));
  return buf;
}

// --- Signal handler -------------------------------------------------------

/// Async-signal-safe: a TLS load, a bounds-checked frame walk, a plain
/// ring-slot write and a handful of lock-free atomics. errno is saved and
/// restored; nothing allocates, blocks or takes a lock.
void ProfilerSignalHandler(int /*signo*/, void* /*info*/, void* ucontext) {
  int saved_errno = errno;
  g_handler_entries.fetch_add(1, std::memory_order_acq_rel);
  CpuProfiler* profiler = g_active.load(std::memory_order_acquire);
  if (profiler != nullptr) {
    ThreadRegistry::Entry* entry = ThreadRegistry::Current();
    SampleRing* ring =
        entry != nullptr ? entry->ring.load(std::memory_order_acquire)
                         : nullptr;
    if (ring == nullptr) {
      profiler->unattributed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      CpuSample sample;
      sample.depth = static_cast<uint16_t>(
          CaptureStack(ucontext, entry->stack_lo, entry->stack_hi,
                       sample.pcs, kMaxProfileFrames));
      if (ring->TryPush(sample)) {
        profiler->captured_.fetch_add(1, std::memory_order_relaxed);
      } else {
        profiler->dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  g_handler_entries.fetch_sub(1, std::memory_order_release);
  errno = saved_errno;
}

namespace {

/// Installed once, kept installed forever (even after Stop): restoring
/// the default disposition would let a SIGPROF already in flight kill the
/// process. Disarmed, the handler is two atomic ops and a return.
void InstallSigprofHandler() {
  static bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = [](int signo, siginfo_t* info, void* uc) {
      ProfilerSignalHandler(signo, info, uc);
    };
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGPROF, &sa, nullptr);
    return true;
  }();
  (void)installed;
}

}  // namespace

// --- CpuProfiler ----------------------------------------------------------

CpuProfiler::CpuProfiler(Options options) : options_(options) {}

CpuProfiler::~CpuProfiler() { Stop(); }

void CpuProfiler::OnThreadRegistered(ThreadRegistry::Entry* entry) {
  if (entry->ring.load(std::memory_order_acquire) == nullptr) {
    entry->ring.store(new SampleRing(options_.ring_slots),
                      std::memory_order_release);
  }
}

Status CpuProfiler::Start(int hz) {
  if (hz == 0) hz = options_.hz;
  if (hz <= 0 || hz > 1000) {
    return Status::InvalidArgument("profiler hz must be in (0, 1000]");
  }
  CpuProfiler* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_acq_rel)) {
    return Status::Internal(expected == this
                                ? "profiler already running"
                                : "another profiler window is active");
  }
  // The slot is claimed but no timer is armed yet, so no handler runs
  // against half-prepared state.
  hz_.store(hz, std::memory_order_relaxed);
  captured_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  unattributed_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(trie_mutex_);
    trie_.Clear();
    folded_by_entry_.clear();
  }
  // Every registered thread gets a ring; stale samples from a previous
  // window are discarded before this one starts counting.
  std::vector<CpuSample> discard;
  ThreadRegistry::Instance().ForEach([this, &discard](
                                         ThreadRegistry::Entry* entry) {
    OnThreadRegistered(entry);
    discard.clear();
    entry->ring.load(std::memory_order_acquire)->DrainInto(&discard);
  });
  ThreadRegistry::Instance().SetObserver(this);

  window_start_us_.store(NowMicros(), std::memory_order_relaxed);
  window_end_us_.store(0, std::memory_order_relaxed);
  stop_drainer_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  drainer_ = std::thread([this] { DrainLoop(); });

  InstallSigprofHandler();
  struct itimerval timer;
  std::memset(&timer, 0, sizeof(timer));
  timer.it_interval.tv_usec = static_cast<suseconds_t>(1'000'000 / hz);
  timer.it_value = timer.it_interval;
  ::setitimer(ITIMER_PROF, &timer, nullptr);
  return Status::OK();
}

void CpuProfiler::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Disarm the timer first, then retire from the active slot; a handler
  // already past the g_active load finishes against this still-live
  // object before we return (g_handler_entries drains to zero).
  struct itimerval zero;
  std::memset(&zero, 0, sizeof(zero));
  ::setitimer(ITIMER_PROF, &zero, nullptr);
  CpuProfiler* expected = this;
  g_active.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
  while (g_handler_entries.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  ThreadRegistry::Instance().SetObserver(nullptr);
  stop_drainer_.store(true, std::memory_order_release);
  if (drainer_.joinable()) drainer_.join();  // final drain inside
  window_end_us_.store(NowMicros(), std::memory_order_relaxed);
}

uint64_t CpuProfiler::duration_ms() const {
  uint64_t start = window_start_us_.load(std::memory_order_relaxed);
  if (start == 0) return 0;
  uint64_t end = window_end_us_.load(std::memory_order_relaxed);
  if (end == 0) end = NowMicros();
  return (end - start) / 1000;
}

void CpuProfiler::DrainLoop() {
  ThreadLease lease(ThreadRole::kProfiler, "chrono-prof-drain");
  while (!stop_drainer_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.drain_interval_ms));
    DrainOnce();
  }
  DrainOnce();  // the timer is disarmed by now: this empties every ring
}

void CpuProfiler::DrainOnce() {
  // Collect under the registry mutex (DrainInto is lock-free), fold after
  // — the trie mutex is never held under the registry mutex.
  std::vector<std::pair<ThreadRegistry::Entry*, std::vector<CpuSample>>>
      drained;
  ThreadRegistry::Instance().ForEach(
      [&drained](ThreadRegistry::Entry* entry) {
        SampleRing* ring = entry->ring.load(std::memory_order_acquire);
        if (ring == nullptr) return;
        std::vector<CpuSample> samples;
        if (ring->DrainInto(&samples) > 0) {
          drained.emplace_back(entry, std::move(samples));
        }
      });
  for (auto& [entry, samples] : drained) FoldSamples(entry, samples);
}

void CpuProfiler::FoldSamples(ThreadRegistry::Entry* entry,
                              const std::vector<CpuSample>& samples) {
  std::lock_guard<std::mutex> lock(trie_mutex_);
  uint64_t role_token = trie_.InternLabel(ThreadRoleName(entry->role));
  uint64_t thread_token = trie_.InternLabel(entry->name);
  std::vector<uint64_t> path;
  for (const CpuSample& sample : samples) {
    path.clear();
    path.push_back(role_token);
    path.push_back(thread_token);
    // Captured leaf-first; folded root-first so the flame graph reads
    // outermost caller downward.
    for (size_t i = sample.depth; i > 0; --i) {
      path.push_back(sample.pcs[i - 1]);
    }
    trie_.Add(path.data(), path.size());
  }
  folded_by_entry_[entry] += samples.size();
}

uint64_t CpuProfiler::samples_folded() const {
  std::lock_guard<std::mutex> lock(trie_mutex_);
  return trie_.sample_count();
}

std::string CpuProfiler::CollapsedStacks() const {
  std::lock_guard<std::mutex> lock(trie_mutex_);
  std::unordered_map<uint64_t, std::string> cache;
  return trie_.Collapsed([this, &cache](uint64_t token) -> std::string {
    auto it = cache.find(token);
    if (it != cache.end()) return it->second;
    std::string frame = (token & kLabelTokenFlag)
                            ? trie_.LabelFor(token)
                            : SanitizeFrame(SymbolizePc(token));
    cache[token] = frame;
    return frame;
  });
}

std::string CpuProfiler::ProfileJson() const {
  std::lock_guard<std::mutex> lock(trie_mutex_);
  std::string out = "{\"profile\":\"cpu\"";
  out += ",\"hz\":" + std::to_string(hz());
  out += ",\"running\":";
  out += running() ? "true" : "false";
  out += ",\"duration_ms\":" + std::to_string(duration_ms());
  out += ",\"samples\":{\"captured\":" +
         std::to_string(captured_.load(std::memory_order_relaxed));
  out += ",\"folded\":" + std::to_string(trie_.sample_count());
  out += ",\"dropped\":" +
         std::to_string(dropped_.load(std::memory_order_relaxed));
  out += ",\"unattributed\":" +
         std::to_string(unattributed_.load(std::memory_order_relaxed));
  out += "}";
  out += ",\"threads\":[";
  bool first = true;
  for (const auto& [entry, count] : folded_by_entry_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + EscapeJson(entry->name) + "\"";
    out += ",\"role\":\"" + std::string(ThreadRoleName(entry->role)) + "\"";
    out += ",\"samples\":" + std::to_string(count) + "}";
  }
  out += "],\"stacks\":[";
  std::unordered_map<uint64_t, std::string> cache;
  first = true;
  trie_.ForEachPath([&](const std::vector<uint64_t>& path, uint64_t count) {
    if (!first) out += ",";
    first = false;
    out += "{\"frames\":[";
    for (size_t i = 0; i < path.size(); ++i) {
      uint64_t token = path[i];
      auto it = cache.find(token);
      if (it == cache.end()) {
        it = cache
                 .emplace(token, (token & kLabelTokenFlag)
                                     ? trie_.LabelFor(token)
                                     : SymbolizePc(token))
                 .first;
      }
      if (i > 0) out += ",";
      out += "\"" + EscapeJson(it->second) + "\"";
    }
    out += "],\"count\":" + std::to_string(count) + "}";
  });
  out += "]}";
  return out;
}

}  // namespace chrono::obs
