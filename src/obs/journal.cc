#include "obs/journal.h"

#include <algorithm>
#include <cstring>

namespace chrono::obs {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::atomic<uint64_t> g_journal_generation{0};

/// Single-entry per-thread cache mapping this thread to its ring in one
/// specific journal. The generation tag makes a recycled journal address
/// miss the cache instead of resurrecting a dead buffer pointer.
struct TlsSlot {
  const void* journal = nullptr;
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local TlsSlot t_slot;

}  // namespace

EventJournal::EventJournal() : EventJournal(Options{}) {}

EventJournal::EventJournal(Options options)
    : capacity_(RoundUpPow2(std::max<size_t>(options.buffer_events, 2))),
      generation_(g_journal_generation.fetch_add(1,
                                                 std::memory_order_relaxed) +
                  1),
      epoch_(std::chrono::steady_clock::now()) {}

EventJournal::~EventJournal() { Stop(); }

void EventJournal::AddSink(JournalSink* sink) {
  std::lock_guard<std::mutex> lock(sinks_mutex_);
  sinks_.push_back(sink);
}

void EventJournal::RemoveSink(JournalSink* sink) {
  std::lock_guard<std::mutex> lock(sinks_mutex_);
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink),
               sinks_.end());
}

EventJournal::Buffer* EventJournal::BufferForThisThread() {
  if (t_slot.journal == this && t_slot.generation == generation_) {
    return static_cast<Buffer*>(t_slot.buffer);
  }
  std::lock_guard<std::mutex> lock(register_mutex_);
  Buffer*& slot = by_thread_[std::this_thread::get_id()];
  if (slot == nullptr) {
    buffers_.push_back(std::make_unique<Buffer>(capacity_));
    slot = buffers_.back().get();
  }
  t_slot = {this, generation_, slot};
  return slot;
}

void EventJournal::Record(JournalEvent event) {
  if (event.ts_us == 0) {
    // At least 1: an event recorded within the journal's first µs must
    // still read as stamped.
    event.ts_us = std::max<uint64_t>(
        1, std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
               .count());
  }
  Buffer* buffer = BufferForThisThread();
  uint64_t head = buffer->head.load(std::memory_order_relaxed);
  uint64_t tail = buffer->tail.load(std::memory_order_acquire);
  if (head - tail > buffer->mask) {  // ring full: drop, never block
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->slots[head & buffer->mask] = event;
  buffer->head.store(head + 1, std::memory_order_release);
}

size_t EventJournal::Drain() {
  std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  scratch_.clear();

  // Snapshot the buffer list (stable unique_ptrs; new threads may append
  // concurrently — they will be seen next drain).
  std::vector<Buffer*> buffers;
  {
    std::lock_guard<std::mutex> lock(register_mutex_);
    buffers.reserve(buffers_.size());
    for (const auto& b : buffers_) buffers.push_back(b.get());
  }
  for (Buffer* buffer : buffers) {
    uint64_t tail = buffer->tail.load(std::memory_order_relaxed);
    uint64_t head = buffer->head.load(std::memory_order_acquire);
    for (uint64_t i = tail; i != head; ++i) {
      scratch_.push_back(buffer->slots[i & buffer->mask]);
    }
    buffer->tail.store(head, std::memory_order_release);
  }
  if (scratch_.empty()) return 0;

  // Per-buffer order is the recording order; across buffers, sort by
  // timestamp so sinks (and journal files) see a near-chronological feed.
  std::stable_sort(scratch_.begin(), scratch_.end(),
                   [](const JournalEvent& x, const JournalEvent& y) {
                     return x.ts_us < y.ts_us;
                   });

  std::vector<JournalSink*> sinks;
  {
    std::lock_guard<std::mutex> lock(sinks_mutex_);
    sinks = sinks_;
  }
  for (JournalSink* sink : sinks) {
    sink->OnEvents(scratch_.data(), scratch_.size());
  }
  drained_.fetch_add(scratch_.size(), std::memory_order_relaxed);
  return scratch_.size();
}

uint64_t EventJournal::events_recorded() const {
  std::lock_guard<std::mutex> lock(register_mutex_);
  uint64_t total = 0;
  for (const auto& b : buffers_) {
    total += b->head.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t EventJournal::events_dropped() const {
  std::lock_guard<std::mutex> lock(register_mutex_);
  uint64_t total = 0;
  for (const auto& b : buffers_) {
    total += b->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

size_t EventJournal::buffer_count() const {
  std::lock_guard<std::mutex> lock(register_mutex_);
  return buffers_.size();
}

// ---------------------------------------------------------------------------
// File persistence

JournalFileSink::JournalFileSink(FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

std::unique_ptr<JournalFileSink> JournalFileSink::Open(
    const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return nullptr;
  JournalFileHeader header;
  if (std::fwrite(&header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return nullptr;
  }
  return std::unique_ptr<JournalFileSink>(new JournalFileSink(f, path));
}

JournalFileSink::~JournalFileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JournalFileSink::OnEvents(const JournalEvent* events, size_t count) {
  if (file_ == nullptr || count == 0) return;
  written_ += std::fwrite(events, sizeof(JournalEvent), count, file_);
}

void JournalFileSink::Flush() {
  if (file_ != nullptr) std::fflush(file_);
}

Result<std::vector<JournalEvent>> ReadJournalFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open journal file: " + path);
  }
  JournalFileHeader header;
  if (std::fread(&header, sizeof(header), 1, f) != 1 ||
      std::memcmp(header.magic, "CHRJ", 4) != 0) {
    std::fclose(f);
    return Status::InvalidArgument(path + ": not a ChronoCache journal");
  }
  if (header.version != 1 || header.event_size != sizeof(JournalEvent)) {
    std::fclose(f);
    return Status::InvalidArgument(
        path + ": unsupported journal version/record size");
  }
  std::vector<JournalEvent> events;
  JournalEvent buf[256];
  size_t n;
  while ((n = std::fread(buf, sizeof(JournalEvent), 256, f)) > 0) {
    events.insert(events.end(), buf, buf + n);
  }
  bool trailing_garbage = std::ftell(f) % sizeof(JournalEvent) !=
                          sizeof(JournalFileHeader) % sizeof(JournalEvent);
  std::fclose(f);
  if (trailing_garbage) {
    return Status::InvalidArgument(path + ": truncated trailing record");
  }
  return events;
}

}  // namespace chrono::obs
