#ifndef CHRONOCACHE_CORE_SESSION_H_
#define CHRONOCACHE_CORE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/lru_cache.h"
#include "sql/footprint.h"

namespace chrono::core {

using ClientId = int;

/// \brief Session-semantics bookkeeping (§5.2): a middleware node's local
/// view of the database's per-relation versions (Vd) plus each client's
/// session vector (Vc). Cached results carry sparse version vectors (Vr);
/// a client may consume a cached result only if Vr[i] >= Vc[i] for every
/// relation i the result's query accessed, after which Vc absorbs Vr.
///
/// In multi-node deployments (§5.2, last paragraph) every remote database
/// access increments *all* entries of Vd, because other nodes may have
/// advanced the database state invisibly; results are then additionally
/// keyed by node id so version vectors are never compared across nodes.
///
/// Row level (DESIGN.md §19): each relation keeps a ring of the last
/// kWriteLogSize write footprints, indexed by the Vd version each write
/// created. A result whose tag is behind Vc may still be served when every
/// logged write in the gap is provably disjoint from its query.
class SessionManager {
 public:
  /// Writes remembered per relation. A result more than this many writes
  /// behind a session is rejected without looking at the writes.
  static constexpr uint64_t kWriteLogSize = 1024;

  /// `multi_node` selects the conservative multi-node advancement rule.
  explicit SessionManager(bool multi_node) : multi_node_(multi_node) {}

  /// Dense id for a relation name (lazily assigned).
  int RelationId(const std::string& name);

  /// A client wrote the given relations: bump Vd and sync the writer's Vc
  /// so it observes its own writes. Each new version logs `footprint`
  /// when it names that relation, a wildcard otherwise (null included).
  void OnClientWrite(
      ClientId client, const std::vector<std::string>& writes,
      std::shared_ptr<const sql::WriteFootprint> footprint = nullptr);

  /// Any remote database access in multi-node mode advances every relation
  /// (each bump logged as a wildcard).
  void OnRemoteAccess();

  /// Raises a pre-read tag over the multi-node access bumps logged right
  /// after it, stopping at the first write: those bumps only say another
  /// node *may* have written, which is what the paper's tag-at-caching-time
  /// rule accepts, while this node's own writes during the read must not
  /// be claimed as seen. A no-op in single-node mode.
  void SkipRemoteAccesses(cache::VersionVector* tag) const;

  /// Vd snapshot restricted to the given relations (tag for a new result).
  cache::VersionVector SnapshotFor(const std::vector<std::string>& reads);
  /// The same restricted to `reads` as of an earlier dense Vd copy
  /// (`Versions()`); relations registered since then were at version 1.
  cache::VersionVector SnapshotFor(const std::vector<std::string>& reads,
                                   const std::vector<uint64_t>& at);
  /// Dense copy of Vd, indexed by relation id.
  const std::vector<uint64_t>& Versions() const { return vd_; }

  /// A client received a fresh result from the remote database: Vc = Vd
  /// (§5.2).
  void SyncClientToDb(ClientId client);

  /// May `client` consume a cached result with versions `vr`?
  bool CanUse(ClientId client, const cache::VersionVector& vr) const;

  /// Row-level CanUse for a single-table result: when every write logged
  /// between a behind tag and Vc is provably disjoint from `read` (whose
  /// result before those writes is `rows`), returns `vr` with those tags
  /// raised to Vc; nullopt otherwise (a wildcard, a conflicting write, or
  /// a gap longer than the ring).
  std::optional<cache::VersionVector> CoverGap(
      ClientId client, const cache::VersionVector& vr,
      const sql::ReadFootprint& read, const sql::ResultSet& rows) const;

  /// Vc[i] = max(Vc[i], Vr[i]) after a cache read.
  void AbsorbResult(ClientId client, const cache::VersionVector& vr);

  uint64_t VersionOf(const std::string& relation) const;
  size_t relation_count() const { return vd_.size(); }

 private:
  /// One logged write: the Vd version it created and its footprint (null
  /// for a wildcard). A slot whose version is not the one looked up has
  /// been overwritten by a newer write.
  struct LoggedWrite {
    uint64_t version = 0;
    std::shared_ptr<const sql::WriteFootprint> footprint;
    bool remote_access = false;  // a multi-node increment-all bump
  };

  std::vector<uint64_t>& ClientVector(ClientId client);
  /// Bumps Vd[id] and logs the write that created the new version.
  void Bump(int id, std::shared_ptr<const sql::WriteFootprint> footprint,
            bool remote_access = false);
  /// Are the writes creating versions (from, to] of relation `id` all
  /// logged and disjoint from `read`?
  bool GapDisjoint(int id, uint64_t from, uint64_t to,
                   const sql::ReadFootprint& read,
                   const sql::ResultSet& rows) const;

  bool multi_node_;
  std::unordered_map<std::string, int> relation_ids_;
  std::vector<uint64_t> vd_;  // database versions, indexed by relation id
  std::unordered_map<ClientId, std::vector<uint64_t>> vc_;
  // Write rings, indexed by relation id; a ring is allocated on the
  // relation's first write.
  std::vector<std::vector<LoggedWrite>> log_;
};

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_SESSION_H_
