// Statement cache (parse memoization in db::Database): repeated query text
// must skip the parser, cached plans must stay correct across DML (parse
// trees are immutable and table-independent, so there is no invalidation),
// and the cache must honour its entry bound by evicting LRU entries.

#include <gtest/gtest.h>

#include <string>

#include "db/database.h"
#include "obs/metrics.h"
#include "sql/value.h"

namespace chrono::db {
namespace {

using sql::Value;

class StatementCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.catalog()
                    ->CreateTable("t", {ColumnDef{"id", Value::Type::kInt},
                                        ColumnDef{"v", Value::Type::kInt}})
                    .ok());
  }

  sql::ResultSet Exec(Database& db, const std::string& sql) {
    auto outcome = db.ExecuteText(sql);
    EXPECT_TRUE(outcome.ok()) << sql << " -> " << outcome.status().ToString();
    return outcome.ok() ? outcome->result : sql::ResultSet();
  }

  Database db_;
};

TEST_F(StatementCacheTest, RepeatedTextHitsCache) {
  const std::string q = "SELECT v FROM t WHERE id = 1";
  Exec(db_, q);
  EXPECT_EQ(db_.statement_cache_counters().misses, 1u);
  EXPECT_EQ(db_.statement_cache_counters().hits, 0u);

  for (int i = 0; i < 5; ++i) Exec(db_, q);
  EXPECT_EQ(db_.statement_cache_counters().misses, 1u);
  EXPECT_EQ(db_.statement_cache_counters().hits, 5u);

  // A different text is a fresh miss.
  Exec(db_, "SELECT v FROM t WHERE id = 2");
  EXPECT_EQ(db_.statement_cache_counters().misses, 2u);
}

TEST_F(StatementCacheTest, ParseCachedReturnsSameTree) {
  const std::string q = "SELECT v FROM t WHERE id = 1";
  auto first = db_.ParseCached(q);
  auto second = db_.ParseCached(q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
}

TEST_F(StatementCacheTest, CachedStatementSeesDmlEffects) {
  const std::string q = "SELECT v FROM t WHERE id = 1";
  EXPECT_EQ(Exec(db_, q).rows().size(), 0u);

  Exec(db_, "INSERT INTO t VALUES (1, 10)");
  sql::ResultSet after_insert = Exec(db_, q);
  ASSERT_EQ(after_insert.rows().size(), 1u);
  EXPECT_TRUE(after_insert.At(0, "v").EqualsSql(Value::Int(10)));

  Exec(db_, "UPDATE t SET v = 20 WHERE id = 1");
  sql::ResultSet after_update = Exec(db_, q);
  ASSERT_EQ(after_update.rows().size(), 1u);
  EXPECT_TRUE(after_update.At(0, "v").EqualsSql(Value::Int(20)));

  Exec(db_, "DELETE FROM t WHERE id = 1");
  EXPECT_EQ(Exec(db_, q).rows().size(), 0u);

  // Every SELECT after the first was a cache hit: DML does not invalidate.
  EXPECT_GE(db_.statement_cache_counters().hits, 3u);
}

TEST_F(StatementCacheTest, EvictionKeepsCacheBounded) {
  Database small(4);
  ASSERT_TRUE(small.catalog()
                  ->CreateTable("t", {ColumnDef{"id", Value::Type::kInt}})
                  .ok());
  for (int i = 0; i < 10; ++i) {
    Exec(small, "SELECT id FROM t WHERE id = " + std::to_string(i));
  }
  EXPECT_LE(small.statement_cache_size(), 4u);
  EXPECT_EQ(small.statement_cache_counters().misses, 10u);

  // The most recent text is still resident; the oldest was evicted.
  Exec(small, "SELECT id FROM t WHERE id = 9");
  EXPECT_EQ(small.statement_cache_counters().hits, 1u);
  Exec(small, "SELECT id FROM t WHERE id = 0");
  EXPECT_EQ(small.statement_cache_counters().misses, 11u);
}

TEST_F(StatementCacheTest, ParseErrorsAreNotCached) {
  auto bad = db_.ExecuteText("SELEC nonsense FROM");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(db_.statement_cache_size(), 0u);
  // Each failed attempt re-parses (and re-fails): only successes are stored.
  auto bad2 = db_.ExecuteText("SELEC nonsense FROM");
  EXPECT_FALSE(bad2.ok());
  EXPECT_EQ(db_.statement_cache_counters().hits, 0u);
}

// A text statement is timed like a parsed one: every write the runtime
// sends goes through ExecuteText, so its kind's histogram must count it.
TEST_F(StatementCacheTest, TextStatementsRecordTheirKindsLatency) {
  obs::MetricsRegistry registry;
  db_.AttachMetrics(&registry);
  Exec(db_, "INSERT INTO t (id, v) VALUES (1, 10)");
  Exec(db_, "UPDATE t SET v = 11 WHERE id = 1");
  Exec(db_, "UPDATE t SET v = 12 WHERE id = 1");
  Exec(db_, "SELECT v FROM t WHERE id = 1");
  Exec(db_, "DELETE FROM t WHERE id = 1");
  auto count = [&registry](const char* kind) {
    return registry
        .GetHistogram("chrono_db_statement_latency_ns", "", {{"kind", kind}})
        ->Snapshot()
        .count;
  };
  EXPECT_EQ(count("insert"), 1u);
  EXPECT_EQ(count("update"), 2u);
  EXPECT_EQ(count("select"), 1u);
  EXPECT_EQ(count("delete"), 1u);
}

}  // namespace
}  // namespace chrono::db
