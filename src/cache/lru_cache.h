#ifndef CHRONOCACHE_CACHE_LRU_CACHE_H_
#define CHRONOCACHE_CACHE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sql/result_set.h"

namespace chrono::cache {

/// \brief Sparse version vector (§5.2): (relation id, observed version)
/// pairs covering exactly the relations the cached query accessed.
using VersionVector = std::vector<std::pair<int, uint64_t>>;

/// \brief A cached query result plus the metadata the session-semantics and
/// access-control layers need: the database version vector at caching time,
/// the caching client's security group (§5.2.1), and the middleware node id
/// (multi-node deployments must not share results across nodes, §5.2).
///
/// The payload is an immutable, shared `ResultSet`: a cache hit hands the
/// same `shared_ptr` to every reader (a ref-count bump, not a deep copy),
/// so the rows must never be mutated after publication. `result_bytes` is
/// the payload's footprint measured exactly once at SetResult time — the
/// byte accounting must not re-walk a shared payload on every lookup.
struct CachedResult {
  std::shared_ptr<const sql::ResultSet> result;
  size_t result_bytes = 0;
  VersionVector version;
  int security_group = 0;
  int node_id = 0;

  /// Adopts an already-shared immutable payload, measuring it once.
  void SetResult(std::shared_ptr<const sql::ResultSet> shared) {
    result_bytes = shared ? shared->ByteSize() : 0;
    result = std::move(shared);
  }

  /// Freezes `rows` into a shared immutable payload (the only copy/move
  /// the result ever sees on its way into the cache).
  void SetResult(sql::ResultSet rows) {
    SetResult(std::make_shared<const sql::ResultSet>(std::move(rows)));
  }

  // Prefetch provenance for hit attribution (observability layer): the
  // combined-plan id that installed this entry ahead of demand and the
  // transition-graph edge source template that predicted it. Both zero
  // for demand-filled entries; prefetch_src stays zero when the entry's
  // template was a root (text-dependency) node of the plan.
  uint64_t prefetch_plan = 0;
  uint64_t prefetch_src = 0;
  // The root template of the plan that installed the entry (0 for
  // demand fills): the key the prefetch audit files its events under.
  uint64_t prefetch_root = 0;
  // Full lifecycle attribution (prefetch-efficacy audit): the entry's
  // statement template, the owner's clock at install time, and how many
  // hits the entry served (Get() increments; Peek() does not). Together
  // with the eviction callback these let the journal distinguish
  // evicted-unused from evicted-after-use and compute time-to-first-use.
  uint64_t tmpl = 0;
  uint64_t install_us = 0;
  uint32_t use_count = 0;
};

/// Why an entry left the cache (passed to the eviction callback).
enum class EvictReason {
  kCapacity = 0,  // LRU victim of a byte-budget eviction
  kReplaced,      // overwritten by a Put on the same key
  kErased,        // explicit Erase (the server's staleness invalidation)
  kCleared,       // bulk Clear
};

/// \brief Observer for every entry removal, with the entry's full
/// attribution still intact. Invoked synchronously inside the mutating
/// call — for ShardedCache that means *under the owning shard's mutex*
/// (a leaf lock), so callbacks must be lock-free-cheap (journal Record,
/// counter bumps) and must never reenter the cache.
using EvictionCallback = std::function<void(
    const std::string& key, const CachedResult& value, size_t bytes,
    EvictReason reason)>;

/// \brief Byte-accounted LRU key-value store standing in for Memcached:
/// the paper uses Memcached purely as a get/set result cache with a fixed
/// memory budget.
class LruCache {
 public:
  /// `capacity_bytes` caps the sum of entry footprints (key + result set).
  explicit LruCache(size_t capacity_bytes);

  /// Installs the removal observer (replacing any previous one). Fires
  /// for capacity evictions, same-key overwrites, Erase and Clear; see
  /// EvictionCallback for the locking contract.
  void SetEvictionCallback(EvictionCallback callback) {
    on_evict_ = std::move(callback);
  }

  /// Returns the entry or nullptr. A hit refreshes LRU recency and
  /// increments the entry's use_count.
  const CachedResult* Get(const std::string& key);

  /// Side-effect-free lookup: no recency update, no hit/miss accounting.
  /// Used by the §5.1 redundancy check, which must not perturb the cache.
  const CachedResult* Peek(const std::string& key) const;

  bool Contains(const std::string& key) const { return map_.count(key) > 0; }

  /// Inserts or replaces; evicts LRU entries to fit. An entry larger than
  /// the whole cache is dropped immediately.
  void Put(const std::string& key, CachedResult value);

  /// Removes an entry if present; returns whether it existed.
  bool Erase(const std::string& key);

  /// Raises the version tag of the entry under `key` to `version`
  /// (pairwise max, same relations) if it still holds `payload`: a
  /// row-level session check proved it current that far. No recency or
  /// accounting change; returns whether the entry was re-stamped.
  bool Restamp(const std::string& key, const sql::ResultSet* payload,
               const VersionVector& version);

  void Clear();

  size_t entry_count() const { return map_.size(); }
  size_t used_bytes() const { return used_bytes_; }
  size_t capacity_bytes() const { return capacity_bytes_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

  /// The byte footprint charged for an entry — public and static so the
  /// journal can record install sizes that match eviction-callback sizes.
  static size_t EntryBytes(const std::string& key, const CachedResult& value);

 private:
  struct Entry {
    std::string key;
    CachedResult value;
    size_t bytes;
  };
  using EntryList = std::list<Entry>;

  void EvictToFit(size_t incoming_bytes);
  /// Unlinks `it`'s entry, notifying the callback with `reason`.
  void RemoveEntry(EntryList::iterator it, EvictReason reason);

  size_t capacity_bytes_;
  size_t used_bytes_ = 0;
  EntryList lru_;  // front = most recent
  std::unordered_map<std::string, EntryList::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  EvictionCallback on_evict_;
};

}  // namespace chrono::cache

#endif  // CHRONOCACHE_CACHE_LRU_CACHE_H_
