#ifndef CHRONOCACHE_SQL_FOOTPRINT_H_
#define CHRONOCACHE_SQL_FOOTPRINT_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sql/ast.h"
#include "sql/result_set.h"
#include "sql/value.h"

namespace chrono::sql {

/// `column = value` with a constant right-hand side.
struct ColumnValue {
  std::string column;
  Value value;
};

/// \brief What one write statement may have changed in its target table,
/// as far as the statement's text shows (DESIGN.md §19). Anything the text
/// does not pin down is a wildcard: it may have changed any row.
struct WriteFootprint {
  enum class Kind { kWildcard, kInsert, kUpdate, kDelete };

  Kind kind = Kind::kWildcard;
  std::string table;
  /// UPDATE / DELETE: the WHERE clause's `column = constant` conjuncts.
  std::vector<ColumnValue> where_eq;
  /// UPDATE: the assigned columns.
  std::vector<std::string> set_columns;
  /// INSERT: one entry per row, holding the columns given a constant.
  std::vector<std::vector<ColumnValue>> rows;
};

/// \brief The parts of a single-table SELECT the disjointness rules read.
struct ReadFootprint {
  std::string table;
  /// The WHERE clause's `column = constant` conjuncts.
  std::vector<ColumnValue> where_eq;
  /// Every column the WHERE and ORDER BY clauses mention (an ORDER BY on a
  /// select alias counts the alias expression's columns).
  std::vector<std::string> filter_columns;
  /// Plain column projections with their result position; a `*` select
  /// list resolves positions by name against the cached rows instead.
  std::vector<std::pair<std::string, size_t>> projected;
  bool star = false;
  /// COUNT / MIN / MAX, GROUP BY or HAVING: result rows are not table rows.
  bool aggregate = false;
};

/// Footprint of a write statement whose `?` parameters bind to `params`
/// (a statement without parameters passes none).
WriteFootprint ExtractWriteFootprint(const Statement& stmt,
                                     const std::vector<Value>& params);

/// Footprint of a SELECT whose `?` parameters bind to `params`, or nullopt
/// when no rule can reason about it: joins, CTEs, derived tables, LIMIT
/// (the rows kept would depend on scan order), ROW_NUMBER, SUM and AVG
/// (floating-point results depend on scan order).
std::optional<ReadFootprint> ExtractReadFootprint(
    const Statement& stmt, const std::vector<Value>& params);

/// True when applying `write` to the read's table cannot change the
/// multiset of rows the read returns, given `rows`, the read's result
/// before the write. One of three rules must prove it:
///  1. every inserted row fails one of the read's `column = value`
///     conjuncts;
///  2. an UPDATE or DELETE targets `column = w` where the read asks for
///     `column = v` and no value equals both (an UPDATE must not assign
///     that column);
///  3. an UPDATE or DELETE targets `column = w`, the read projects that
///     column in a non-aggregate result, no row of `rows` holds a value
///     equal to w, and an UPDATE assigns none of the read's WHERE or
///     ORDER BY columns.
bool ProvablyDisjoint(const WriteFootprint& write, const ReadFootprint& read,
                      const ResultSet& rows);

}  // namespace chrono::sql

#endif  // CHRONOCACHE_SQL_FOOTPRINT_H_
