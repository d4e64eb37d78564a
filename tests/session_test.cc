// Session semantics (§5.2) and access control groups (§5.2.1).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/session.h"
#include "sql/footprint.h"
#include "sql/template.h"

namespace chrono::core {
namespace {

std::shared_ptr<const sql::WriteFootprint> Write(const std::string& text) {
  auto parsed = sql::AnalyzeQuery(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return std::make_shared<const sql::WriteFootprint>(
      sql::ExtractWriteFootprint(*parsed->tmpl->ast, parsed->params));
}

sql::ReadFootprint Read(const std::string& text) {
  auto parsed = sql::AnalyzeQuery(text);
  EXPECT_TRUE(parsed.ok()) << text;
  auto read = sql::ExtractReadFootprint(*parsed->tmpl->ast, parsed->params);
  EXPECT_TRUE(read.has_value()) << text;
  return read.value_or(sql::ReadFootprint{});
}

/// The cached answer to `SELECT id, v FROM t WHERE id = 1`.
sql::ResultSet RowOne() {
  sql::ResultSet rows({"id", "v"});
  rows.AddRow({sql::Value::Int(1), sql::Value::String("a")});
  return rows;
}

TEST(Session, RelationsStartAtVersionOne) {
  SessionManager s(false);
  s.RelationId("users");
  EXPECT_EQ(s.VersionOf("users"), 1u);
}

TEST(Session, WriteBumpsRelation) {
  SessionManager s(false);
  s.RelationId("users");
  s.OnClientWrite(1, {"users"});
  EXPECT_EQ(s.VersionOf("users"), 2u);
}

TEST(Session, SnapshotCoversRequestedRelations) {
  SessionManager s(false);
  auto snap = s.SnapshotFor({"a", "b"});
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].second, 1u);
  s.OnClientWrite(1, {"a"});
  snap = s.SnapshotFor({"a", "b"});
  EXPECT_EQ(snap[0].second, 2u);
  EXPECT_EQ(snap[1].second, 1u);
}

TEST(Session, FreshClientCanUseAnything) {
  SessionManager s(false);
  auto snap = s.SnapshotFor({"a"});
  EXPECT_TRUE(s.CanUse(7, snap));
}

TEST(Session, StaleResultRejectedAfterClientAdvances) {
  SessionManager s(false);
  auto old_snap = s.SnapshotFor({"a"});
  // Another client writes; our client then reads fresh from the database.
  s.OnClientWrite(2, {"a"});
  s.SyncClientToDb(1);
  EXPECT_FALSE(s.CanUse(1, old_snap));
  EXPECT_TRUE(s.CanUse(1, s.SnapshotFor({"a"})));
}

TEST(Session, WriterSeesOwnWrites) {
  SessionManager s(false);
  auto old_snap = s.SnapshotFor({"a"});
  s.OnClientWrite(1, {"a"});
  // The writer's session advanced past the old cached result.
  EXPECT_FALSE(s.CanUse(1, old_snap));
  // A client that never read nor wrote still accepts the older snapshot
  // (it corresponds to a consistent earlier state).
  EXPECT_TRUE(s.CanUse(2, old_snap));
}

TEST(Session, AbsorbAdvancesOnlyTouchedRelations) {
  SessionManager s(false);
  s.RelationId("a");
  s.RelationId("b");
  s.OnClientWrite(9, {"a"});
  s.OnClientWrite(9, {"b"});
  auto snap_a = s.SnapshotFor({"a"});
  s.AbsorbResult(1, snap_a);
  // Client 1 absorbed a's version but not b's: older b results still fine.
  cache::VersionVector old_b = {{s.RelationId("b"), 1}};
  EXPECT_FALSE(s.CanUse(1, cache::VersionVector{{s.RelationId("a"), 1}}));
  EXPECT_TRUE(s.CanUse(1, cache::VersionVector{
                              {s.RelationId("b"), s.VersionOf("b")}}));
}

TEST(Session, NewerResultAlwaysUsable) {
  SessionManager s(false);
  s.SyncClientToDb(1);
  s.OnClientWrite(2, {"a"});
  // A result tagged after the write is >= client 1's session.
  EXPECT_TRUE(s.CanUse(1, s.SnapshotFor({"a"})));
}

TEST(Session, MultiNodeAdvancesEverythingOnRemoteAccess) {
  SessionManager s(/*multi_node=*/true);
  s.RelationId("a");
  s.RelationId("b");
  auto old_snap = s.SnapshotFor({"a", "b"});
  s.OnRemoteAccess();
  EXPECT_EQ(s.VersionOf("a"), 2u);
  EXPECT_EQ(s.VersionOf("b"), 2u);
  s.SyncClientToDb(1);
  EXPECT_FALSE(s.CanUse(1, old_snap));
}

TEST(Session, SingleNodeRemoteAccessIsNoop) {
  SessionManager s(false);
  s.RelationId("a");
  s.OnRemoteAccess();
  EXPECT_EQ(s.VersionOf("a"), 1u);
}

TEST(Session, LazyRelationRegistrationGrowsVectors) {
  SessionManager s(false);
  s.SyncClientToDb(1);
  // New relation appears after the client's vector was created.
  s.RelationId("late");
  EXPECT_TRUE(s.CanUse(1, s.SnapshotFor({"late"})));
  s.AbsorbResult(1, s.SnapshotFor({"late"}));
  EXPECT_EQ(s.VersionOf("late"), 1u);
}

// ---- Row-level check (DESIGN.md §19) --------------------------------------

TEST(Session, OwnWriteToAnotherRowKeepsCachedEntry) {
  SessionManager s(false);
  const cache::VersionVector tag = s.SnapshotFor({"t"});
  s.OnClientWrite(1, {"t"}, Write("UPDATE t SET v = 'b' WHERE id = 2"));
  // Table level the entry is behind the writer's session...
  EXPECT_FALSE(s.CanUse(1, tag));
  // ...row level the write provably missed it: served, re-stamped to Vc.
  auto covered =
      s.CoverGap(1, tag, Read("SELECT id, v FROM t WHERE id = 1"), RowOne());
  ASSERT_TRUE(covered.has_value());
  ASSERT_EQ(covered->size(), 1u);
  EXPECT_EQ((*covered)[0].second, s.VersionOf("t"));
  EXPECT_TRUE(s.CanUse(1, *covered));
}

TEST(Session, OwnWriteToTheSameRowRejectsCachedEntry) {
  SessionManager s(false);
  const cache::VersionVector tag = s.SnapshotFor({"t"});
  s.OnClientWrite(1, {"t"}, Write("UPDATE t SET v = 'b' WHERE id = 1"));
  EXPECT_FALSE(s.CoverGap(1, tag, Read("SELECT id, v FROM t WHERE id = 1"),
                          RowOne())
                   .has_value());
  // A disjoint write after the conflicting one does not rescue it.
  s.OnClientWrite(1, {"t"}, Write("UPDATE t SET v = 'c' WHERE id = 2"));
  EXPECT_FALSE(s.CoverGap(1, tag, Read("SELECT id, v FROM t WHERE id = 1"),
                          RowOne())
                   .has_value());
}

TEST(Session, WildcardWriteRejectsCachedEntry) {
  const sql::ReadFootprint read = Read("SELECT id, v FROM t WHERE id = 1");
  for (const char* wildcard :
       {"", "INSERT INTO t VALUES (2, 'b')", "UPDATE t SET v = 'b'",
        "DELETE FROM t WHERE id > 5"}) {
    SessionManager s(false);
    const cache::VersionVector tag = s.SnapshotFor({"t"});
    s.OnClientWrite(1, {"t"},
                    *wildcard == '\0' ? nullptr : Write(wildcard));
    EXPECT_FALSE(s.CoverGap(1, tag, read, RowOne()).has_value()) << wildcard;
  }
}

TEST(Session, GapPastTheWriteLogRejects) {
  const sql::ReadFootprint read = Read("SELECT id, v FROM t WHERE id = 1");
  SessionManager s(false);
  const cache::VersionVector tag = s.SnapshotFor({"t"});
  for (uint64_t i = 0; i < SessionManager::kWriteLogSize; ++i) {
    s.OnClientWrite(1, {"t"},
                    Write("INSERT INTO t (id, v) VALUES (" +
                          std::to_string(i + 2) + ", 'x')"));
  }
  // A gap of exactly the ring's size is still fully logged.
  EXPECT_TRUE(s.CoverGap(1, tag, read, RowOne()).has_value());
  s.OnClientWrite(1, {"t"}, Write("INSERT INTO t (id, v) VALUES (0, 'x')"));
  EXPECT_FALSE(s.CoverGap(1, tag, read, RowOne()).has_value());
}

TEST(Session, MultiNodeAccessBumpIsAWildcard) {
  SessionManager s(/*multi_node=*/true);
  const cache::VersionVector tag = s.SnapshotFor({"t"});
  s.OnRemoteAccess();
  s.SyncClientToDb(1);
  EXPECT_FALSE(s.CoverGap(1, tag, Read("SELECT id, v FROM t WHERE id = 1"),
                          RowOne())
                   .has_value());
  // A pre-read tag skips access bumps (the paper's tag-at-caching-time
  // rule) but stops at this node's own write.
  cache::VersionVector skipped = tag;
  s.SkipRemoteAccesses(&skipped);
  EXPECT_EQ(skipped[0].second, s.VersionOf("t"));
  s.OnClientWrite(2, {"t"}, Write("UPDATE t SET v = 'b' WHERE id = 1"));
  s.OnRemoteAccess();
  cache::VersionVector stopped = skipped;
  s.SkipRemoteAccesses(&stopped);
  EXPECT_EQ(stopped[0].second, skipped[0].second);
}

TEST(Session, UnknownRelationVersionZero) {
  SessionManager s(false);
  EXPECT_EQ(s.VersionOf("never"), 0u);
}

}  // namespace
}  // namespace chrono::core
