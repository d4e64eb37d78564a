// Core executor behaviour: scans, filters, joins, projection, DML.

#include <gtest/gtest.h>

#include "db/database.h"

namespace chrono::db {
namespace {

using sql::ResultSet;
using sql::Value;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto users = db_.catalog()->CreateTable(
        "users", {ColumnDef{"id", Value::Type::kInt},
                  ColumnDef{"name", Value::Type::kString},
                  ColumnDef{"age", Value::Type::kInt}});
    ASSERT_TRUE(users.ok());
    Exec("INSERT INTO users VALUES (1, 'alice', 30), (2, 'bob', 25), "
         "(3, 'carol', 35)");
    auto orders = db_.catalog()->CreateTable(
        "orders", {ColumnDef{"oid", Value::Type::kInt},
                   ColumnDef{"uid", Value::Type::kInt},
                   ColumnDef{"amount", Value::Type::kDouble}});
    ASSERT_TRUE(orders.ok());
    Exec("INSERT INTO orders VALUES (100, 1, 9.5), (101, 1, 20.0), "
         "(102, 3, 7.25)");
  }

  ResultSet Exec(const std::string& sql) {
    auto outcome = db_.ExecuteText(sql);
    EXPECT_TRUE(outcome.ok()) << sql << " -> " << outcome.status().ToString();
    if (!outcome.ok()) return ResultSet();
    return outcome->result;
  }

  Status ExecStatus(const std::string& sql) {
    auto outcome = db_.ExecuteText(sql);
    return outcome.ok() ? Status::OK() : outcome.status();
  }

  Database db_;
};

TEST_F(ExecutorTest, SimpleProjection) {
  ResultSet rs = Exec("SELECT name FROM users WHERE id = 2");
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.columns(), (std::vector<std::string>{"name"}));
  EXPECT_EQ(rs.At(0, "name"), Value::String("bob"));
}

TEST_F(ExecutorTest, SelectStarHidesRowid) {
  ResultSet rs = Exec("SELECT * FROM users WHERE id = 1");
  EXPECT_EQ(rs.columns(),
            (std::vector<std::string>{"id", "name", "age"}));
}

TEST_F(ExecutorTest, RowidPseudoColumnSelectable) {
  ResultSet rs = Exec("SELECT __rowid, id FROM users");
  ASSERT_EQ(rs.row_count(), 3u);
  EXPECT_EQ(rs.At(0, "__rowid"), Value::Int(1));
  EXPECT_EQ(rs.At(2, "__rowid"), Value::Int(3));
}

TEST_F(ExecutorTest, WhereComparisons) {
  EXPECT_EQ(Exec("SELECT id FROM users WHERE age > 26").row_count(), 2u);
  EXPECT_EQ(Exec("SELECT id FROM users WHERE age >= 30").row_count(), 2u);
  EXPECT_EQ(Exec("SELECT id FROM users WHERE age < 30").row_count(), 1u);
  EXPECT_EQ(Exec("SELECT id FROM users WHERE age <> 25").row_count(), 2u);
  EXPECT_EQ(Exec("SELECT id FROM users WHERE name = 'alice'").row_count(), 1u);
}

TEST_F(ExecutorTest, AndOrNot) {
  EXPECT_EQ(
      Exec("SELECT id FROM users WHERE age > 20 AND age < 31").row_count(),
      2u);
  EXPECT_EQ(
      Exec("SELECT id FROM users WHERE id = 1 OR id = 3").row_count(), 2u);
  EXPECT_EQ(Exec("SELECT id FROM users WHERE NOT (id = 1)").row_count(), 2u);
}

TEST_F(ExecutorTest, InListAndBetween) {
  EXPECT_EQ(Exec("SELECT id FROM users WHERE id IN (1, 3)").row_count(), 2u);
  EXPECT_EQ(Exec("SELECT id FROM users WHERE id NOT IN (1, 3)").row_count(),
            1u);
  EXPECT_EQ(
      Exec("SELECT id FROM users WHERE age BETWEEN 25 AND 30").row_count(),
      2u);
}

TEST_F(ExecutorTest, Arithmetic) {
  ResultSet rs = Exec("SELECT age + 1, age * 2, age - 5, age / 5 FROM users "
                      "WHERE id = 2");
  EXPECT_EQ(rs.row(0)[0], Value::Int(26));
  EXPECT_EQ(rs.row(0)[1], Value::Int(50));
  EXPECT_EQ(rs.row(0)[2], Value::Int(20));
  EXPECT_EQ(rs.row(0)[3], Value::Int(5));
}

TEST_F(ExecutorTest, DivisionByZeroFails) {
  EXPECT_FALSE(ExecStatus("SELECT 1 / 0").ok());
}

TEST_F(ExecutorTest, SelectWithoutFrom) {
  ResultSet rs = Exec("SELECT 1 + 2 AS three");
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.At(0, "three"), Value::Int(3));
}

TEST_F(ExecutorTest, InnerJoin) {
  ResultSet rs = Exec(
      "SELECT name, amount FROM users JOIN orders ON users.id = orders.uid");
  EXPECT_EQ(rs.row_count(), 3u);  // bob has no orders
}

TEST_F(ExecutorTest, LeftJoinKeepsUnmatchedWithNulls) {
  ResultSet rs = Exec(
      "SELECT name, oid FROM users LEFT JOIN orders ON users.id = orders.uid");
  EXPECT_EQ(rs.row_count(), 4u);  // alice x2, bob(null), carol
  bool bob_null = false;
  for (size_t i = 0; i < rs.row_count(); ++i) {
    if (rs.At(i, "name") == Value::String("bob")) {
      bob_null = rs.At(i, "oid").is_null();
    }
  }
  EXPECT_TRUE(bob_null);
}

TEST_F(ExecutorTest, CrossJoin) {
  ResultSet rs = Exec("SELECT users.id FROM users, orders");
  EXPECT_EQ(rs.row_count(), 9u);
}

TEST_F(ExecutorTest, JoinWithResidualCondition) {
  ResultSet rs = Exec(
      "SELECT name, oid FROM users JOIN orders ON users.id = orders.uid AND "
      "orders.amount > 10");
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.At(0, "oid"), Value::Int(101));
}

TEST_F(ExecutorTest, TableAliases) {
  ResultSet rs = Exec(
      "SELECT u.name FROM users AS u JOIN orders AS o ON u.id = o.uid WHERE "
      "o.amount < 8");
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.At(0, "name"), Value::String("carol"));
}

TEST_F(ExecutorTest, OrderByAscDesc) {
  ResultSet rs = Exec("SELECT id FROM users ORDER BY age DESC");
  ASSERT_EQ(rs.row_count(), 3u);
  EXPECT_EQ(rs.row(0)[0], Value::Int(3));
  EXPECT_EQ(rs.row(2)[0], Value::Int(2));
}

TEST_F(ExecutorTest, OrderBySourceColumnNotInOutput) {
  ResultSet rs = Exec("SELECT name FROM users ORDER BY age");
  EXPECT_EQ(rs.At(0, "name"), Value::String("bob"));
}

TEST_F(ExecutorTest, Limit) {
  EXPECT_EQ(Exec("SELECT id FROM users ORDER BY id LIMIT 2").row_count(), 2u);
  EXPECT_EQ(Exec("SELECT id FROM users LIMIT 0").row_count(), 0u);
}

TEST_F(ExecutorTest, Distinct) {
  Exec("INSERT INTO users VALUES (4, 'alice', 30)");
  EXPECT_EQ(Exec("SELECT DISTINCT name FROM users").row_count(), 3u);
}

TEST_F(ExecutorTest, Aggregates) {
  ResultSet rs = Exec(
      "SELECT count(*), sum(amount), avg(amount), min(amount), max(amount) "
      "FROM orders");
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.row(0)[0], Value::Int(3));
  EXPECT_NEAR(rs.row(0)[1].AsDouble(), 36.75, 1e-9);
  EXPECT_NEAR(rs.row(0)[2].AsDouble(), 12.25, 1e-9);
  EXPECT_NEAR(rs.row(0)[3].AsDouble(), 7.25, 1e-9);
  EXPECT_NEAR(rs.row(0)[4].AsDouble(), 20.0, 1e-9);
}

TEST_F(ExecutorTest, AggregateOverEmptyInput) {
  ResultSet rs = Exec("SELECT count(*), max(amount) FROM orders WHERE oid = 0");
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.row(0)[0], Value::Int(0));
  EXPECT_TRUE(rs.row(0)[1].is_null());
}

TEST_F(ExecutorTest, GroupBy) {
  ResultSet rs =
      Exec("SELECT uid, count(*) AS n FROM orders GROUP BY uid");
  EXPECT_EQ(rs.row_count(), 2u);
  for (size_t i = 0; i < rs.row_count(); ++i) {
    if (rs.At(i, "uid") == Value::Int(1)) {
      EXPECT_EQ(rs.At(i, "n"), Value::Int(2));
    } else {
      EXPECT_EQ(rs.At(i, "n"), Value::Int(1));
    }
  }
}

TEST_F(ExecutorTest, GroupByWithHaving) {
  ResultSet rs = Exec(
      "SELECT uid FROM orders GROUP BY uid HAVING count(*) > 1");
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.At(0, "uid"), Value::Int(1));
}

TEST_F(ExecutorTest, GroupByEmptyInputYieldsNoGroups) {
  ResultSet rs =
      Exec("SELECT uid, count(*) FROM orders WHERE oid = 0 GROUP BY uid");
  EXPECT_EQ(rs.row_count(), 0u);
}

TEST_F(ExecutorTest, RowNumberProjection) {
  ResultSet rs = Exec("SELECT name, row_number() OVER () AS rn FROM users");
  ASSERT_EQ(rs.row_count(), 3u);
  EXPECT_EQ(rs.At(0, "rn"), Value::Int(1));
  EXPECT_EQ(rs.At(2, "rn"), Value::Int(3));
}

TEST_F(ExecutorTest, ScalarFunctions) {
  ResultSet rs = Exec(
      "SELECT abs(-5), coalesce(NULL, 7), length('abc'), concat('a', 'b') "
      "FROM users WHERE id = 1");
  EXPECT_EQ(rs.row(0)[0], Value::Int(5));
  EXPECT_EQ(rs.row(0)[1], Value::Int(7));
  EXPECT_EQ(rs.row(0)[2], Value::Int(3));
  EXPECT_EQ(rs.row(0)[3], Value::String("ab"));
}

TEST_F(ExecutorTest, IsNullPredicate) {
  Exec("INSERT INTO orders VALUES (103, 2, NULL)");
  EXPECT_EQ(Exec("SELECT oid FROM orders WHERE amount IS NULL").row_count(),
            1u);
  EXPECT_EQ(
      Exec("SELECT oid FROM orders WHERE amount IS NOT NULL").row_count(),
      3u);
}

TEST_F(ExecutorTest, NullNeverEquals) {
  Exec("INSERT INTO orders VALUES (104, 4, NULL)");
  // NULL = NULL is NULL (not true) under SQL semantics.
  EXPECT_EQ(Exec("SELECT oid FROM orders WHERE amount = NULL").row_count(),
            0u);
}

TEST_F(ExecutorTest, UpdateChangesMatchingRows) {
  auto outcome = db_.ExecuteText("UPDATE users SET age = 40 WHERE id = 1");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->affected_rows, 1);
  EXPECT_EQ(outcome->tables_written, (std::vector<std::string>{"users"}));
  EXPECT_EQ(Exec("SELECT age FROM users WHERE id = 1").row(0)[0],
            Value::Int(40));
}

TEST_F(ExecutorTest, UpdateSelfReferencingExpression) {
  Exec("UPDATE users SET age = age + 1 WHERE id = 2");
  EXPECT_EQ(Exec("SELECT age FROM users WHERE id = 2").row(0)[0],
            Value::Int(26));
}

TEST_F(ExecutorTest, DeleteRemovesRows) {
  auto outcome = db_.ExecuteText("DELETE FROM orders WHERE uid = 1");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->affected_rows, 2);
  EXPECT_EQ(Exec("SELECT oid FROM orders").row_count(), 1u);
}

TEST_F(ExecutorTest, InsertReportsAffectedRows) {
  auto outcome =
      db_.ExecuteText("INSERT INTO users VALUES (7, 'g', 1), (8, 'h', 2)");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->affected_rows, 2);
}

TEST_F(ExecutorTest, InsertWithColumnListFillsNulls) {
  Exec("INSERT INTO users (id, name) VALUES (9, 'i')");
  ResultSet rs = Exec("SELECT age FROM users WHERE id = 9");
  EXPECT_TRUE(rs.row(0)[0].is_null());
}

TEST_F(ExecutorTest, UnknownTableFails) {
  EXPECT_FALSE(ExecStatus("SELECT x FROM missing").ok());
  EXPECT_FALSE(ExecStatus("INSERT INTO missing VALUES (1)").ok());
  EXPECT_FALSE(ExecStatus("UPDATE missing SET a = 1").ok());
  EXPECT_FALSE(ExecStatus("DELETE FROM missing").ok());
}

TEST_F(ExecutorTest, UnknownColumnFails) {
  EXPECT_FALSE(ExecStatus("SELECT nope FROM users").ok());
  EXPECT_FALSE(ExecStatus("SELECT id FROM users WHERE nope = 1").ok());
}

// Column references resolve against the FROM relation's and enclosing
// scopes' schemas before any row is read: the answer to an unknown column
// does not depend on whether a row qualifies.
TEST_F(ExecutorTest, UnknownColumnFailsWhenNoRowQualifies) {
  const std::vector<std::string> queries = {
      "SELECT nope FROM users WHERE id = 999",
      "SELECT id FROM users WHERE id = 999 AND nope = 1",
      "SELECT id FROM users WHERE id = 999 ORDER BY nope",
      "SELECT age FROM users WHERE id = 999 GROUP BY nope",
      "SELECT age, count(*) FROM users WHERE id = 999 GROUP BY age "
      "HAVING max(nope) > 1",
      "SELECT nope, count(*) FROM users WHERE id = 999",
      "SELECT count(nope) FROM users WHERE id = 999",
      "SELECT users.amount FROM users WHERE id = 999",
      "SELECT u.id FROM users u JOIN orders o ON o.nope = u.id WHERE u.id = "
      "999",
      "SELECT u.id FROM users u LEFT JOIN LATERAL (SELECT amount FROM orders "
      "WHERE uid = u.id) o ON o.nope = 1 WHERE u.id = 999",
      "UPDATE users SET age = nope WHERE id = 999",
      "UPDATE users SET age = 1 WHERE id = 999 AND nope = 1",
      "DELETE FROM orders WHERE oid = 999 AND nope = 1",
  };
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    Status status = ExecStatus(sql);
    EXPECT_EQ(status.code(), Status::Code::kNotFound) << status.ToString();
    // The same query fails the same way when a row qualifies.
    std::string qualifying = sql;
    qualifying.replace(qualifying.find("999"), 3, "1");
    EXPECT_EQ(ExecStatus(qualifying).code(), Status::Code::kNotFound);
  }
  // Nothing was written.
  EXPECT_EQ(Exec("SELECT age FROM users WHERE id = 1").At(0, "age"),
            Value::Int(30));
}

TEST_F(ExecutorTest, KnownColumnsResolveWithoutRows) {
  // A non-aggregated column of an empty ungrouped aggregate reads NULL.
  ResultSet empty_group =
      Exec("SELECT name, count(*), max(age) FROM users WHERE id = 999");
  ASSERT_EQ(empty_group.row_count(), 1u);
  EXPECT_TRUE(empty_group.row(0)[0].is_null());
  EXPECT_EQ(empty_group.row(0)[1], Value::Int(0));
  EXPECT_TRUE(empty_group.row(0)[2].is_null());
  // ORDER BY an output alias, or a source column outside the select list.
  EXPECT_EQ(Exec("SELECT age AS a FROM users WHERE id = 999 ORDER BY a")
                .row_count(),
            0u);
  EXPECT_EQ(
      Exec("SELECT amount FROM orders WHERE oid = 999 ORDER BY uid").row_count(),
      0u);
  // Correlated references resolve in the enclosing scope.
  ResultSet lateral =
      Exec("SELECT u.id, o.amount FROM users u LEFT JOIN LATERAL (SELECT "
           "amount FROM orders WHERE uid = u.id) o ON 1 = 1 WHERE u.id = 2");
  ASSERT_EQ(lateral.row_count(), 1u);
  EXPECT_TRUE(lateral.row(0)[1].is_null());
}

TEST_F(ExecutorTest, UnboundParameterFails) {
  EXPECT_FALSE(ExecStatus("SELECT id FROM users WHERE id = ?").ok());
}

TEST_F(ExecutorTest, ReadsAreTracked) {
  auto outcome = db_.ExecuteText(
      "SELECT name FROM users JOIN orders ON users.id = orders.uid");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->tables_read,
            (std::vector<std::string>{"orders", "users"}));
}

TEST_F(ExecutorTest, StatsCountRows) {
  auto outcome = db_.ExecuteText("SELECT id FROM users");
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome->stats.rows_scanned, 3u);
}

TEST_F(ExecutorTest, IndexProbeScansFewerRows) {
  // Build a bigger table; equality lookup must not scan everything.
  for (int i = 0; i < 200; ++i) {
    Exec("INSERT INTO orders VALUES (" + std::to_string(200 + i) + ", 5, 1.0)");
  }
  auto full = db_.ExecuteText("SELECT oid FROM orders WHERE amount > 100");
  auto point = db_.ExecuteText("SELECT oid FROM orders WHERE oid = 250");
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(point.ok());
  EXPECT_LT(point->stats.rows_scanned, 10u);
  EXPECT_GT(full->stats.rows_scanned, 100u);
}


TEST_F(ExecutorTest, StringFunctions) {
  ResultSet rs = Exec(
      "SELECT upper('abC'), lower('AbC'), substr('hello', 2, 3), "
      "substr('hello', 4) FROM users WHERE id = 1");
  EXPECT_EQ(rs.row(0)[0], Value::String("ABC"));
  EXPECT_EQ(rs.row(0)[1], Value::String("abc"));
  EXPECT_EQ(rs.row(0)[2], Value::String("ell"));
  EXPECT_EQ(rs.row(0)[3], Value::String("lo"));
}

TEST_F(ExecutorTest, SubstrEdgeCases) {
  ResultSet rs = Exec(
      "SELECT substr('abc', 0, 2), substr('abc', 9), substr('abc', 2, 0) "
      "FROM users WHERE id = 1");
  EXPECT_EQ(rs.row(0)[0], Value::String("ab"));  // start clamps to 1
  EXPECT_EQ(rs.row(0)[1], Value::String(""));
  EXPECT_EQ(rs.row(0)[2], Value::String(""));
}

TEST_F(ExecutorTest, NumericFunctions) {
  ResultSet rs = Exec(
      "SELECT mod(7, 3), round(2.5), floor(2.9), ceil(2.1) FROM users "
      "WHERE id = 1");
  EXPECT_EQ(rs.row(0)[0], Value::Int(1));
  EXPECT_EQ(rs.row(0)[1], Value::Int(3));
  EXPECT_EQ(rs.row(0)[2], Value::Int(2));
  EXPECT_EQ(rs.row(0)[3], Value::Int(3));
}

TEST_F(ExecutorTest, FunctionsPropagateNull) {
  ResultSet rs = Exec(
      "SELECT upper(NULL), substr(NULL, 1), mod(NULL, 2), round(NULL) FROM "
      "users WHERE id = 1");
  for (const auto& v : rs.row(0)) EXPECT_TRUE(v.is_null());
}

TEST_F(ExecutorTest, ModByZeroFails) {
  EXPECT_FALSE(ExecStatus("SELECT mod(3, 0)").ok());
}


TEST_F(ExecutorTest, CaseWhenExpression) {
  ResultSet rs = Exec(
      "SELECT name, CASE WHEN age >= 30 THEN 'senior' ELSE 'junior' END AS "
      "band FROM users ORDER BY id");
  ASSERT_EQ(rs.row_count(), 3u);
  EXPECT_EQ(rs.At(0, "band"), Value::String("senior"));
  EXPECT_EQ(rs.At(1, "band"), Value::String("junior"));
  EXPECT_EQ(rs.At(2, "band"), Value::String("senior"));
}

TEST_F(ExecutorTest, CaseWithoutElseYieldsNull) {
  ResultSet rs = Exec(
      "SELECT CASE WHEN age > 100 THEN 1 END AS x FROM users WHERE id = 1");
  EXPECT_TRUE(rs.row(0)[0].is_null());
}

TEST_F(ExecutorTest, CaseMultipleBranchesFirstMatchWins) {
  ResultSet rs = Exec(
      "SELECT CASE WHEN age > 20 THEN 'a' WHEN age > 30 THEN 'b' ELSE 'c' "
      "END FROM users WHERE id = 3");
  EXPECT_EQ(rs.row(0)[0], Value::String("a"));
}

TEST_F(ExecutorTest, CaseInWhereClause) {
  ResultSet rs = Exec(
      "SELECT id FROM users WHERE CASE WHEN age > 28 THEN 1 ELSE 0 END = 1");
  EXPECT_EQ(rs.row_count(), 2u);
}

}  // namespace
}  // namespace chrono::db
