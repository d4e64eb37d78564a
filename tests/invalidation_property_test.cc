// Soundness property of the row-level session check (DESIGN.md §19):
// whenever sql::ProvablyDisjoint says a write cannot touch a single-table
// SELECT, running the SELECT before and after the write returns the same
// multiset of rows. Random SELECTs (projections, aggregates, GROUP BY,
// DISTINCT, ORDER BY, equality / range / OR / IS NULL predicates, mixed
// int and double constants; LIMIT and SUM, which are out of scope) meet
// random INSERT / UPDATE / DELETE statements on a small table whose state
// evolves across trials.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "sql/footprint.h"
#include "sql/template.h"

namespace chrono::sql {
namespace {

const char* const kColumns[] = {"id", "a", "b", "s"};

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  std::string Column() { return kColumns[rng_.NextBounded(4)]; }

  /// A constant for `column`: small ranges so predicates often collide;
  /// numeric columns sometimes get a double or a string constant.
  std::string Constant(const std::string& column) {
    if (column == "s") {
      static const char* const kStrings[] = {"'x'", "'y'", "'z'", "3"};
      return kStrings[rng_.NextBounded(4)];
    }
    const int64_t v = rng_.NextInt(0, column == "id" ? 12 : 4);
    if (rng_.NextBool(0.1)) return std::to_string(v) + ".0";
    if (rng_.NextBool(0.03)) return "'x'";
    return std::to_string(v);
  }

  std::string Predicate() {
    const std::string column = Column();
    switch (rng_.NextBounded(8)) {
      case 0:
        return column + " > " + Constant(column);
      case 1:
        return column + " <> " + Constant(column);
      case 2:
        return column + " IS NULL";
      case 3: {
        const std::string other = Column();
        return "(" + column + " = " + Constant(column) + " OR " + other +
               " = " + Constant(other) + ")";
      }
      default:
        return column + " = " + Constant(column);
    }
  }

  std::string Where(int max_conjuncts) {
    const int n = static_cast<int>(rng_.NextInt(0, max_conjuncts));
    std::string out;
    for (int i = 0; i < n; ++i) {
      out += (i == 0 ? " WHERE " : " AND ") + Predicate();
    }
    return out;
  }

  std::string Select() {
    std::string items;
    std::string group_by;
    switch (rng_.NextBounded(7)) {
      case 0:
        items = "*";
        break;
      case 6:
        items = "SUM(a)";  // order-sensitive: out of scope
        break;
      case 1:
        items = "COUNT(*)";
        break;
      case 2:
        items = "MIN(a), MAX(b)";
        break;
      case 3:
        items = "a, COUNT(*)";
        group_by = " GROUP BY a";
        break;
      default: {
        const int n = static_cast<int>(rng_.NextInt(1, 3));
        for (int i = 0; i < n; ++i) {
          if (i > 0) items += ", ";
          items += Column();
        }
        if (rng_.NextBool(0.2)) items = "DISTINCT " + items;
      }
    }
    std::string sql = "SELECT " + items + " FROM t" + Where(3) + group_by;
    if (group_by.empty() && items.find('(') == std::string::npos &&
        rng_.NextBool(0.3)) {
      sql += " ORDER BY " + Column();
      if (rng_.NextBool(0.3)) sql += " LIMIT 3";  // out of scope
    }
    return sql;
  }

  std::string Write() {
    switch (rng_.NextBounded(3)) {
      case 0: {
        // Some columns left out (stored as NULL), sometimes two rows.
        std::vector<std::string> columns;
        for (const char* c : kColumns) {
          if (std::string(c) == "id" || rng_.NextBool(0.8)) {
            columns.push_back(c);
          }
        }
        std::string names;
        for (const std::string& c : columns) {
          names += (names.empty() ? "" : ", ") + c;
        }
        std::string sql = "INSERT INTO t (" + names + ") VALUES ";
        const int rows = rng_.NextBool(0.2) ? 2 : 1;
        for (int r = 0; r < rows; ++r) {
          std::string values;
          for (const std::string& c : columns) {
            values += (values.empty() ? "" : ", ") + Value(c);
          }
          sql += (r == 0 ? "(" : ", (") + values + ")";
        }
        return sql;
      }
      case 1: {
        if (rng_.NextBool(0.25)) {
          // Moves rows between values of the column it targets.
          const std::string column = Column();
          return "UPDATE t SET " + column + " = " + Value(column) +
                 " WHERE " + column + " = " + Value(column);
        }
        std::string sets;
        const int n = static_cast<int>(rng_.NextInt(1, 2));
        for (int i = 0; i < n; ++i) {
          const std::string column = Column();
          sets += (i == 0 ? "" : ", ") + column + " = " +
                  (column != "s" && rng_.NextBool(0.2) ? column + " + 1"
                                                       : Value(column));
        }
        return "UPDATE t SET " + sets + Where(2);
      }
      default:
        return "DELETE FROM t" + Where(2);
    }
  }

 private:
  /// A value to store in `column` (the column's own type).
  std::string Value(const std::string& column) {
    if (column == "s") {
      static const char* const kStrings[] = {"'x'", "'y'", "'z'"};
      return kStrings[rng_.NextBounded(3)];
    }
    return std::to_string(rng_.NextInt(0, column == "id" ? 12 : 4));
  }

  Rng rng_;
};

std::vector<std::string> Multiset(const ResultSet& rs) {
  std::vector<std::string> rows;
  for (const Row& row : rs.rows()) {
    std::string line;
    for (const Value& v : row) line += v.ToSqlLiteral() + "|";
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Adds `n` rows spread over small value ranges.
void AddRows(db::Database* db, int n) {
  for (int i = 0; i < n; ++i) {
    const std::string sql = "INSERT INTO t (id, a, b, s) VALUES (" +
                            std::to_string(i % 13) + ", " +
                            std::to_string(i % 5) + ", " +
                            std::to_string(i % 4) + ", '" +
                            (i % 2 == 0 ? "x" : "y") + "')";
    ASSERT_TRUE(db->ExecuteText(sql).ok()) << sql;
  }
}

TEST(InvalidationProperty, DisjointWritesLeaveSelectResultsUnchanged) {
  constexpr int kTrials = 4000;
  int eligible = 0;
  int disjoint = 0;
  int disjoint_changed_rows = 0;  // writes proven disjoint that hit rows
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Generator gen(seed);
    db::Database db;
    ASSERT_TRUE(
        db.ExecuteText("CREATE TABLE t (id INT, a INT, b INT, s TEXT)").ok());
    AddRows(&db, 24);
    for (int trial = 0; trial < kTrials / 4; ++trial) {
      // Keep the table from draining or overflowing.
      Result<db::ExecOutcome> size = db.ExecuteText("SELECT COUNT(*) FROM t");
      ASSERT_TRUE(size.ok());
      const int64_t rows = size->result.rows()[0][0].AsInt();
      if (rows < 8) AddRows(&db, 16);
      if (rows > 60) ASSERT_TRUE(db.ExecuteText("DELETE FROM t WHERE b = 1").ok());

      const std::string select = gen.Select();
      const std::string write = gen.Write();
      Result<ParsedQuery> read_q = AnalyzeQuery(select);
      Result<ParsedQuery> write_q = AnalyzeQuery(write);
      ASSERT_TRUE(read_q.ok()) << select;
      ASSERT_TRUE(write_q.ok()) << write;
      std::optional<ReadFootprint> read =
          ExtractReadFootprint(*read_q->tmpl->ast, read_q->params);
      const WriteFootprint footprint =
          ExtractWriteFootprint(*write_q->tmpl->ast, write_q->params);

      Result<db::ExecOutcome> before = db.ExecuteText(select);
      ASSERT_TRUE(before.ok()) << select << ": " << before.status().ToString();
      const bool proven =
          read.has_value() && ProvablyDisjoint(footprint, *read, before->result);
      Result<db::ExecOutcome> applied = db.ExecuteText(write);
      ASSERT_TRUE(applied.ok()) << write << ": "
                                << applied.status().ToString();
      Result<db::ExecOutcome> after = db.ExecuteText(select);
      ASSERT_TRUE(after.ok()) << select;

      if (read.has_value()) ++eligible;
      if (!proven) continue;
      ++disjoint;
      if (applied->affected_rows > 0) ++disjoint_changed_rows;
      EXPECT_EQ(Multiset(before->result), Multiset(after->result))
          << "write: " << write << "\nselect: " << select;
    }
  }
  // The property is not vacuous: most SELECTs are in scope, a good share
  // of writes are proven disjoint, and many of those did change rows.
  EXPECT_GT(eligible, kTrials / 2);
  EXPECT_LT(eligible, kTrials);
  EXPECT_GT(disjoint, kTrials / 10);
  EXPECT_GT(disjoint_changed_rows, kTrials / 20);
}

}  // namespace
}  // namespace chrono::sql
