#ifndef CHRONOCACHE_SQL_PARSER_H_
#define CHRONOCACHE_SQL_PARSER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace chrono::sql {

/// Parses one SQL statement (SELECT / INSERT / UPDATE / DELETE, with optional
/// WITH prefix on SELECT). Supports the subset ChronoCache's workloads issue
/// and its combiners generate: select-project-join with inner/left/lateral
/// joins, aggregates, GROUP BY/HAVING, ORDER BY, LIMIT, CTEs,
/// ROW_NUMBER() OVER (), IN lists, `?` parameter placeholders, and DML.
Result<std::unique_ptr<Statement>> Parse(std::string_view sql);
/// Parse over the tokens Tokenize produced.
Result<std::unique_ptr<Statement>> ParseTokens(std::vector<Token> tokens);

/// The value a kInt, kDouble or kString token parses to as an expression.
Value LiteralValue(const Token& token);

/// Convenience wrapper when the statement is known to be a SELECT.
Result<std::unique_ptr<SelectStmt>> ParseSelect(std::string_view sql);

}  // namespace chrono::sql

#endif  // CHRONOCACHE_SQL_PARSER_H_
