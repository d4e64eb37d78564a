// The SQL robustness corpus: malformed, truncated, randomly mutated and
// oversized statements. sql_robustness_test feeds it to the parser;
// engine_equivalence_test checks the engine's shape-keyed analysis against
// AnalyzeQuery on it.

#ifndef CHRONOCACHE_TESTS_SQL_CORPUS_H_
#define CHRONOCACHE_TESTS_SQL_CORPUS_H_

#include <string>
#include <vector>

#include "common/rng.h"

namespace chrono::sql::corpus {

/// Inputs every parser must reject with a Status.
inline std::vector<std::string> MalformedInputs() {
  return {
      "",
      ";",
      "SELECT",
      "SELECT FROM",
      "SELECT a FROM",
      "SELECT a FROM t WHERE",
      "SELECT a FROM t GROUP",
      "SELECT a FROM t ORDER",
      "SELECT a FROM t LIMIT",
      "SELECT a FROM t LIMIT abc",
      "WITH",
      "WITH q AS",
      "WITH q AS (SELECT a FROM t",
      "INSERT",
      "INSERT INTO",
      "INSERT INTO t",
      "INSERT INTO t VALUES",
      "INSERT INTO t VALUES (",
      "UPDATE",
      "UPDATE t SET",
      "UPDATE t SET a",
      "UPDATE t SET a =",
      "DELETE",
      "DELETE FROM",
      "CREATE",
      "CREATE TABLE",
      "CREATE TABLE t",
      "CREATE TABLE t (",
      "SELECT * FROM t JOIN",
      "SELECT * FROM t JOIN u",
      "SELECT * FROM t JOIN u ON",
      "SELECT ((((((((a FROM t",
      "SELECT a FROM t WHERE b = 'unterminated",
      "SELECT a FROM t WHERE b IN",
      "SELECT a FROM t WHERE b IN (",
      "SELECT a FROM t WHERE b BETWEEN 1",
      "SELECT a FROM t WHERE b BETWEEN 1 AND",
      "SELECT row_number() FROM t",       // missing OVER ()
      "SELECT row_number() OVER FROM t",  // missing parens
      "SELECT a b c FROM t",
      "@#$%^&",
      "SELECT \x01\x02 FROM t",
  };
}

/// A statement using most of the grammar, and every prefix of it.
inline const char kTruncationBase[] =
    "WITH q1 AS (SELECT a, b FROM t WHERE c = 'x' AND d IN (1, 2)) "
    "SELECT q1.a, count(*) FROM q1 LEFT JOIN u ON q1.a = u.z "
    "GROUP BY q1.a HAVING count(*) > 1 ORDER BY q1.a DESC LIMIT 5";

inline std::vector<std::string> Truncations() {
  const std::string query = kTruncationBase;
  std::vector<std::string> out;
  for (size_t len = 0; len <= query.size(); ++len) {
    out.push_back(query.substr(0, len));
  }
  return out;
}

/// `count` random edits (replace, delete, duplicate) of a point query.
inline std::vector<std::string> RandomMutations(int count) {
  const std::string base =
      "SELECT wi_s_symb FROM watch_item WHERE wi_wl_id = 1 AND x IN (1,2)";
  Rng rng(99);
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    std::string mutated = base;
    int edits = static_cast<int>(rng.NextInt(1, 5));
    for (int e = 0; e < edits; ++e) {
      size_t pos = static_cast<size_t>(rng.NextBounded(mutated.size()));
      switch (rng.NextBounded(3)) {
        case 0:  // replace with printable ASCII
          mutated[pos] = static_cast<char>(rng.NextInt(32, 126));
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        default:  // duplicate
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
      if (mutated.empty()) break;
    }
    out.push_back(std::move(mutated));
  }
  return out;
}

/// `depth` parentheses around a literal.
inline std::string DeeplyNested(int depth) {
  std::string query = "SELECT ";
  for (int i = 0; i < depth; ++i) query += "(";
  query += "1";
  for (int i = 0; i < depth; ++i) query += ")";
  return query;
}

/// An IN list of `n` integers.
inline std::string LongInList(int n) {
  std::string query = "SELECT a FROM t WHERE b IN (0";
  for (int i = 1; i < n; ++i) query += ", " + std::to_string(i);
  query += ")";
  return query;
}

}  // namespace chrono::sql::corpus

#endif  // CHRONOCACHE_TESTS_SQL_CORPUS_H_
