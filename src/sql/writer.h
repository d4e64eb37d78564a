#ifndef CHRONOCACHE_SQL_WRITER_H_
#define CHRONOCACHE_SQL_WRITER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "sql/ast.h"

namespace chrono::sql {

/// Renders an AST back to canonical SQL text. The output is parseable by
/// Parse() and is deterministic for a given tree, which makes it usable as
/// both the combined-query text submitted to the database and the canonical
/// form for query-template fingerprints (`?` placeholders are written for
/// kParam nodes).
std::string WriteExpr(const Expr& expr);
std::string WriteSelect(const SelectStmt& stmt);
std::string WriteStatement(const Statement& stmt);

/// One `?` written for a kParam node: its byte offset in the text and the
/// node's param_index.
struct ParamSlot {
  size_t offset = 0;
  int param_index = -1;
};
/// WriteStatement that also appends every kParam placeholder it writes to
/// `slots`, in text order (null: none recorded).
std::string WriteStatement(const Statement& stmt,
                           std::vector<ParamSlot>* slots);

}  // namespace chrono::sql

#endif  // CHRONOCACHE_SQL_WRITER_H_
