#ifndef CHRONOCACHE_RUNTIME_SHARDED_CACHE_H_
#define CHRONOCACHE_RUNTIME_SHARDED_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "obs/contention.h"

namespace chrono::runtime {

/// \brief Lock-striped result cache for the concurrent serving runtime:
/// N independent `cache::LruCache` shards, each with its own mutex and an
/// equal slice of the byte budget. hash(key) picks the shard, so threads
/// touching different keys almost never contend, and LRU recency/eviction
/// stay shard-local (approximate global LRU — the standard Memcached-style
/// trade).
///
/// The surface mirrors LruCache's Get/Peek/Put/Erase, with one difference
/// forced by concurrency: lookups copy the entry *metadata* out
/// (`std::optional<CachedResult>`), because a pointer into a shard would
/// dangle the moment another thread evicts the entry after we drop the
/// shard lock. The payload itself is never copied: `CachedResult::result`
/// is an immutable `shared_ptr<const sql::ResultSet>`, so a hit costs a
/// ref-count bump plus ~100 bytes of version/attribution metadata — the
/// copied-out payload stays valid (and unchanged) even after the entry is
/// evicted or replaced under another thread.
///
/// Lock order: shard mutexes are leaf locks — no callback or other lock
/// is ever taken while one is held, and at most one shard is locked at a
/// time (locking accessors visit shards sequentially). The aggregate
/// counters (hits/misses/entry_count/used_bytes/evictions) are served
/// from relaxed atomics maintained as deltas by the mutating calls, so a
/// stats scrape or bench progress tick never takes a single shard mutex
/// and cannot contend with the hot path; under concurrent mutation they
/// trail the locked per-shard views by at most the in-flight calls.
class ShardedCache {
 public:
  /// `capacity_bytes` is the total budget, split evenly; `shards` is
  /// rounded up to at least 1. `stripe_site` (may be null) attributes
  /// shard-mutex wait/hold telemetry to one shared "cache.shard" lock
  /// site — per-stripe attribution would multiply metric families without
  /// adding signal, since stripes are interchangeable by construction.
  ShardedCache(size_t capacity_bytes, size_t shards,
               obs::LockSite* stripe_site = nullptr);

  /// Installs one removal observer on every shard (replacing any previous
  /// one). The callback fires *under the owning shard's mutex* — a leaf
  /// lock — so it must stay lock-free-cheap (journal Record, relaxed
  /// counter bumps) and must never call back into this cache. Set before
  /// serving starts; not synchronised against concurrent mutation.
  void SetEvictionCallback(cache::EvictionCallback callback);

  /// Zero-copy lookup: shares the immutable payload, copies only the
  /// entry metadata. Refreshes LRU recency and hit/miss counters in the
  /// owning shard. nullopt on miss.
  std::optional<cache::CachedResult> Get(const std::string& key);

  /// Side-effect-free lookup: no recency update, no accounting.
  std::optional<cache::CachedResult> Peek(const std::string& key) const;

  bool Contains(const std::string& key) const;

  /// Inserts or replaces; evicts within the owning shard to fit.
  void Put(const std::string& key, cache::CachedResult value);

  /// LruCache::Restamp in the owning shard.
  bool Restamp(const std::string& key, const sql::ResultSet* payload,
               const cache::VersionVector& version);

  /// Removes an entry if present; returns whether it existed.
  bool Invalidate(const std::string& key);
  bool Erase(const std::string& key) { return Invalidate(key); }

  void Clear();

  // Aggregates across shards, served from relaxed atomics — no locks, so
  // the stats path never contends with serving threads. Exact whenever no
  // mutation is in flight (each mutating call publishes its delta right
  // after releasing the shard lock).
  size_t entry_count() const;
  size_t used_bytes() const;
  size_t capacity_bytes() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

  size_t shard_count() const { return shards_.size(); }
  /// Which shard `key` maps to (tests pin keys to shards with this).
  size_t ShardIndex(const std::string& key) const;
  /// Entry count of one shard (byte-accounting tests).
  size_t ShardEntryCount(size_t shard) const;
  size_t ShardUsedBytes(size_t shard) const;
  /// Evictions performed by one shard (per-shard occupancy gauges).
  uint64_t ShardEvictions(size_t shard) const;

 private:
  struct Shard {
    mutable obs::TimedMutex mutex;
    cache::LruCache cache;
    Shard(size_t bytes, obs::LockSite* site) : mutex(site), cache(bytes) {}
  };

  /// Occupancy movement one mutating call produced, measured inside the
  /// shard lock and published to the lock-free aggregates after release.
  struct Delta {
    int64_t entries = 0;
    int64_t bytes = 0;
    uint64_t evictions = 0;
  };
  void PublishDelta(const Delta& delta);

  std::vector<std::unique_ptr<Shard>> shards_;

  // Lock-free aggregate mirrors (relaxed: monotonic counters plus
  // occupancy deltas; readers need totals, not ordering).
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<int64_t> entry_count_{0};
  std::atomic<int64_t> used_bytes_{0};
};

}  // namespace chrono::runtime

#endif  // CHRONOCACHE_RUNTIME_SHARDED_CACHE_H_
