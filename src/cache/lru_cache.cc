#include "cache/lru_cache.h"

#include <algorithm>
#include <iterator>

namespace chrono::cache {

LruCache::LruCache(size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

const CachedResult* LruCache::Get(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  ++it->second->value.use_count;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->value;
}

const CachedResult* LruCache::Peek(const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  return &it->second->value;
}

bool LruCache::Restamp(const std::string& key, const sql::ResultSet* payload,
                       const VersionVector& version) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  CachedResult& value = it->second->value;
  if (value.result.get() != payload || value.version.size() != version.size()) {
    return false;
  }
  for (size_t i = 0; i < version.size(); ++i) {
    if (value.version[i].first != version[i].first) return false;
  }
  for (size_t i = 0; i < version.size(); ++i) {
    value.version[i].second =
        std::max(value.version[i].second, version[i].second);
  }
  return true;
}

void LruCache::RemoveEntry(EntryList::iterator it, EvictReason reason) {
  if (on_evict_) on_evict_(it->key, it->value, it->bytes, reason);
  used_bytes_ -= it->bytes;
  map_.erase(it->key);
  lru_.erase(it);
}

void LruCache::Put(const std::string& key, CachedResult value) {
  size_t bytes = EntryBytes(key, value);
  if (bytes > capacity_bytes_) {
    // The new value can never fit; the old entry (if any) dies with it.
    auto it = map_.find(key);
    if (it != map_.end()) RemoveEntry(it->second, EvictReason::kReplaced);
    return;
  }
  auto it = map_.find(key);
  if (it != map_.end()) RemoveEntry(it->second, EvictReason::kReplaced);
  EvictToFit(bytes);
  lru_.push_front(Entry{key, std::move(value), bytes});
  map_[key] = lru_.begin();
  used_bytes_ += bytes;
}

bool LruCache::Erase(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  RemoveEntry(it->second, EvictReason::kErased);
  return true;
}

void LruCache::Clear() {
  if (on_evict_) {
    for (const Entry& entry : lru_) {
      on_evict_(entry.key, entry.value, entry.bytes, EvictReason::kCleared);
    }
  }
  lru_.clear();
  map_.clear();
  used_bytes_ = 0;
}

size_t LruCache::EntryBytes(const std::string& key,
                            const CachedResult& value) {
  // result_bytes was measured once when the payload was frozen; a shared
  // payload must never be re-walked here (EntryBytes runs on every Put).
  return key.size() + value.result_bytes +
         value.version.size() * sizeof(value.version[0]) + 64;
}

void LruCache::EvictToFit(size_t incoming_bytes) {
  while (!lru_.empty() && used_bytes_ + incoming_bytes > capacity_bytes_) {
    RemoveEntry(std::prev(lru_.end()), EvictReason::kCapacity);
    ++evictions_;
  }
}

}  // namespace chrono::cache
