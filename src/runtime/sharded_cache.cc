#include "runtime/sharded_cache.h"

#include <algorithm>
#include <functional>

namespace chrono::runtime {

ShardedCache::ShardedCache(size_t capacity_bytes, size_t shards,
                           obs::LockSite* stripe_site) {
  size_t n = std::max<size_t>(shards, 1);
  // Split the budget evenly; distribute the remainder so the shard sum is
  // exactly the requested capacity (the byte-accounting tests check this).
  size_t base = capacity_bytes / n;
  size_t extra = capacity_bytes % n;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(base + (i < extra ? 1 : 0),
                                              stripe_site));
  }
}

void ShardedCache::SetEvictionCallback(cache::EvictionCallback callback) {
  for (auto& shard : shards_) {
    std::lock_guard<obs::TimedMutex> lock(shard->mutex);
    shard->cache.SetEvictionCallback(callback);
  }
}

size_t ShardedCache::ShardIndex(const std::string& key) const {
  return std::hash<std::string>{}(key) % shards_.size();
}

void ShardedCache::PublishDelta(const Delta& delta) {
  if (delta.entries != 0)
    entry_count_.fetch_add(delta.entries, std::memory_order_relaxed);
  if (delta.bytes != 0)
    used_bytes_.fetch_add(delta.bytes, std::memory_order_relaxed);
  if (delta.evictions != 0)
    evictions_.fetch_add(delta.evictions, std::memory_order_relaxed);
}

std::optional<cache::CachedResult> ShardedCache::Get(const std::string& key) {
  Shard& shard = *shards_[ShardIndex(key)];
  std::optional<cache::CachedResult> out;
  {
    std::lock_guard<obs::TimedMutex> lock(shard.mutex);
    const cache::CachedResult* hit = shard.cache.Get(key);
    if (hit != nullptr) out = *hit;  // shares the payload, copies metadata
  }
  if (out.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

std::optional<cache::CachedResult> ShardedCache::Peek(
    const std::string& key) const {
  const Shard& shard = *shards_[ShardIndex(key)];
  std::lock_guard<obs::TimedMutex> lock(shard.mutex);
  const cache::CachedResult* hit = shard.cache.Peek(key);
  if (hit == nullptr) return std::nullopt;
  return *hit;
}

bool ShardedCache::Restamp(const std::string& key,
                           const sql::ResultSet* payload,
                           const cache::VersionVector& version) {
  Shard& shard = *shards_[ShardIndex(key)];
  std::lock_guard<obs::TimedMutex> lock(shard.mutex);
  return shard.cache.Restamp(key, payload, version);
}

bool ShardedCache::Contains(const std::string& key) const {
  const Shard& shard = *shards_[ShardIndex(key)];
  std::lock_guard<obs::TimedMutex> lock(shard.mutex);
  return shard.cache.Contains(key);
}

void ShardedCache::Put(const std::string& key, cache::CachedResult value) {
  Shard& shard = *shards_[ShardIndex(key)];
  Delta delta;
  {
    std::lock_guard<obs::TimedMutex> lock(shard.mutex);
    size_t entries = shard.cache.entry_count();
    size_t bytes = shard.cache.used_bytes();
    uint64_t evictions = shard.cache.evictions();
    shard.cache.Put(key, std::move(value));
    delta.entries = static_cast<int64_t>(shard.cache.entry_count()) -
                    static_cast<int64_t>(entries);
    delta.bytes = static_cast<int64_t>(shard.cache.used_bytes()) -
                  static_cast<int64_t>(bytes);
    delta.evictions = shard.cache.evictions() - evictions;
  }
  PublishDelta(delta);
}

bool ShardedCache::Invalidate(const std::string& key) {
  Shard& shard = *shards_[ShardIndex(key)];
  Delta delta;
  bool erased;
  {
    std::lock_guard<obs::TimedMutex> lock(shard.mutex);
    size_t bytes = shard.cache.used_bytes();
    erased = shard.cache.Erase(key);
    delta.entries = erased ? -1 : 0;
    delta.bytes = static_cast<int64_t>(shard.cache.used_bytes()) -
                  static_cast<int64_t>(bytes);
  }
  PublishDelta(delta);
  return erased;
}

void ShardedCache::Clear() {
  for (auto& shard : shards_) {
    Delta delta;
    {
      std::lock_guard<obs::TimedMutex> lock(shard->mutex);
      delta.entries = -static_cast<int64_t>(shard->cache.entry_count());
      delta.bytes = -static_cast<int64_t>(shard->cache.used_bytes());
      shard->cache.Clear();
    }
    PublishDelta(delta);
  }
}

size_t ShardedCache::entry_count() const {
  int64_t v = entry_count_.load(std::memory_order_relaxed);
  return v > 0 ? static_cast<size_t>(v) : 0;
}

size_t ShardedCache::used_bytes() const {
  int64_t v = used_bytes_.load(std::memory_order_relaxed);
  return v > 0 ? static_cast<size_t>(v) : 0;
}

size_t ShardedCache::capacity_bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->cache.capacity_bytes();
  }
  return total;
}

uint64_t ShardedCache::hits() const {
  return hits_.load(std::memory_order_relaxed);
}

uint64_t ShardedCache::misses() const {
  return misses_.load(std::memory_order_relaxed);
}

uint64_t ShardedCache::evictions() const {
  return evictions_.load(std::memory_order_relaxed);
}

size_t ShardedCache::ShardEntryCount(size_t shard) const {
  std::lock_guard<obs::TimedMutex> lock(shards_[shard]->mutex);
  return shards_[shard]->cache.entry_count();
}

size_t ShardedCache::ShardUsedBytes(size_t shard) const {
  std::lock_guard<obs::TimedMutex> lock(shards_[shard]->mutex);
  return shards_[shard]->cache.used_bytes();
}

uint64_t ShardedCache::ShardEvictions(size_t shard) const {
  std::lock_guard<obs::TimedMutex> lock(shards_[shard]->mutex);
  return shards_[shard]->cache.evictions();
}

}  // namespace chrono::runtime
