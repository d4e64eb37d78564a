#include "core/session.h"

#include <algorithm>

namespace chrono::core {

int SessionManager::RelationId(const std::string& name) {
  auto it = relation_ids_.find(name);
  if (it != relation_ids_.end()) return it->second;
  int id = static_cast<int>(vd_.size());
  relation_ids_.emplace(name, id);
  vd_.push_back(1);  // §5.2: versions start at 1
  return id;
}

std::vector<uint64_t>& SessionManager::ClientVector(ClientId client) {
  auto& vc = vc_[client];
  if (vc.size() < vd_.size()) vc.resize(vd_.size(), 0);
  return vc;
}

void SessionManager::Bump(int id,
                          std::shared_ptr<const sql::WriteFootprint> footprint,
                          bool remote_access) {
  const size_t rel = static_cast<size_t>(id);
  const uint64_t version = ++vd_[rel];
  if (log_.size() <= rel) log_.resize(rel + 1);
  if (log_[rel].empty()) log_[rel].resize(kWriteLogSize);
  LoggedWrite& slot = log_[rel][version % kWriteLogSize];
  slot.version = version;
  slot.footprint = std::move(footprint);
  slot.remote_access = remote_access;
}

void SessionManager::OnClientWrite(
    ClientId client, const std::vector<std::string>& writes,
    std::shared_ptr<const sql::WriteFootprint> footprint) {
  for (const auto& rel : writes) {
    const int id = RelationId(rel);
    Bump(id, footprint != nullptr && footprint->table == rel ? footprint
                                                             : nullptr);
    ClientVector(client)[static_cast<size_t>(id)] =
        vd_[static_cast<size_t>(id)];
  }
}

void SessionManager::OnRemoteAccess() {
  if (!multi_node_) return;
  for (size_t id = 0; id < vd_.size(); ++id) {
    Bump(static_cast<int>(id), nullptr, /*remote_access=*/true);
  }
}

void SessionManager::SkipRemoteAccesses(cache::VersionVector* tag) const {
  if (!multi_node_) return;
  for (auto& [rel, version] : *tag) {
    const size_t id = static_cast<size_t>(rel);
    if (id >= log_.size() || log_[id].empty()) continue;
    while (version < vd_[id]) {
      const LoggedWrite& next = log_[id][(version + 1) % kWriteLogSize];
      if (next.version != version + 1 || !next.remote_access) break;
      ++version;
    }
  }
}

cache::VersionVector SessionManager::SnapshotFor(
    const std::vector<std::string>& reads) {
  // `at` aliases vd_: a relation registered on the way reads as 1 either
  // way.
  return SnapshotFor(reads, vd_);
}

cache::VersionVector SessionManager::SnapshotFor(
    const std::vector<std::string>& reads, const std::vector<uint64_t>& at) {
  cache::VersionVector out;
  out.reserve(reads.size());
  for (const auto& rel : reads) {
    const size_t id = static_cast<size_t>(RelationId(rel));
    out.emplace_back(static_cast<int>(id), id < at.size() ? at[id] : 1);
  }
  return out;
}

void SessionManager::SyncClientToDb(ClientId client) {
  auto& vc = ClientVector(client);
  vc = vd_;
}

bool SessionManager::CanUse(ClientId client,
                            const cache::VersionVector& vr) const {
  auto it = vc_.find(client);
  if (it == vc_.end()) return true;  // fresh client: any snapshot works
  const auto& vc = it->second;
  for (const auto& [rel, version] : vr) {
    uint64_t client_v =
        static_cast<size_t>(rel) < vc.size() ? vc[static_cast<size_t>(rel)] : 0;
    if (version < client_v) return false;
  }
  return true;
}

bool SessionManager::GapDisjoint(int id, uint64_t from, uint64_t to,
                                 const sql::ReadFootprint& read,
                                 const sql::ResultSet& rows) const {
  const size_t rel = static_cast<size_t>(id);
  if (to - from > kWriteLogSize || rel >= log_.size() || log_[rel].empty()) {
    return false;
  }
  const std::vector<LoggedWrite>& ring = log_[rel];
  for (uint64_t version = from + 1; version <= to; ++version) {
    const LoggedWrite& slot = ring[version % kWriteLogSize];
    if (slot.version != version || slot.footprint == nullptr ||
        !sql::ProvablyDisjoint(*slot.footprint, read, rows)) {
      return false;
    }
  }
  return true;
}

std::optional<cache::VersionVector> SessionManager::CoverGap(
    ClientId client, const cache::VersionVector& vr,
    const sql::ReadFootprint& read, const sql::ResultSet& rows) const {
  auto it = vc_.find(client);
  if (it == vc_.end()) return vr;  // fresh client: nothing to cover
  const auto& vc = it->second;
  cache::VersionVector covered = vr;
  for (auto& [rel, version] : covered) {
    const size_t id = static_cast<size_t>(rel);
    const uint64_t client_v = id < vc.size() ? vc[id] : 0;
    if (version >= client_v) continue;
    if (!GapDisjoint(rel, version, client_v, read, rows)) return std::nullopt;
    version = client_v;
  }
  return covered;
}

void SessionManager::AbsorbResult(ClientId client,
                                  const cache::VersionVector& vr) {
  auto& vc = ClientVector(client);
  for (const auto& [rel, version] : vr) {
    if (static_cast<size_t>(rel) >= vc.size()) vc.resize(vd_.size(), 0);
    vc[static_cast<size_t>(rel)] =
        std::max(vc[static_cast<size_t>(rel)], version);
  }
}

uint64_t SessionManager::VersionOf(const std::string& relation) const {
  auto it = relation_ids_.find(relation);
  if (it == relation_ids_.end()) return 0;
  return vd_[static_cast<size_t>(it->second)];
}

}  // namespace chrono::core
