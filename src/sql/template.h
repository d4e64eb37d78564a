#ifndef CHRONOCACHE_SQL_TEMPLATE_H_
#define CHRONOCACHE_SQL_TEMPLATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/writer.h"

namespace chrono::sql {

/// Base relations a statement reads / writes (used by the session-semantics
/// version vectors, §5.2). Reads include tables inside CTEs and subqueries.
struct TableAccess {
  std::vector<std::string> reads;
  std::vector<std::string> writes;
};
TableAccess CollectTableAccess(const Statement& stmt);

/// \brief A constant-agnostic representation of a query (§2 of the paper):
/// the parse tree with every literal replaced by an ordered `?` parameter.
/// Two query submissions that differ only in constants share a template.
struct QueryTemplate {
  uint64_t id = 0;              // FNV-1a hash of canonical_text
  std::string canonical_text;   // deterministic text with ? placeholders
  std::shared_ptr<const Statement> ast;  // parameterised parse tree
  int param_count = 0;
  bool read_only = true;
  TableAccess access;  // relations read and written, collected once
  /// Every `?` of canonical_text, in text order: RenderBoundText splices
  /// the parameters in here instead of binding and rewriting the tree.
  std::vector<ParamSlot> param_slots;
};

/// \brief One concrete query submission: its template plus the literal
/// values, in template parameter order.
struct ParsedQuery {
  std::shared_ptr<const QueryTemplate> tmpl;
  std::vector<Value> params;
  /// Canonical bound text — the combiner-independent identity of this exact
  /// query instance. Cached result sets are keyed by this string (§4.1.1:
  /// "cached result sets are keyed by the string of the query that would
  /// have generated them").
  std::string bound_text;
};

/// Parses client-submitted SQL and extracts its template: literals become
/// ordered parameters, the canonical text is rendered and hashed.
Result<ParsedQuery> AnalyzeQuery(std::string_view text);

/// \brief A statement's literal-free token shape (DESIGN.md §7): its tokens
/// with every literal that can become a parameter replaced by a marker of
/// its kind. Texts that differ only in those literals share a shape, and a
/// shape determines the template. The count after LIMIT is grammar, not a
/// parameter, so it stays in the shape (`LIMIT 5` and `LIMIT 6` differ).
struct QueryShape {
  std::string key;               // the shape, as a hashable string
  std::vector<Value> literals;   // the abstracted literals, in text order
};
Result<QueryShape> ShapeQuery(std::string_view text);

/// \brief What every text of one shape analyzes to, up to its literals.
struct ShapeTemplate {
  /// Where one parameter's value comes from: the shape literal `literal`
  /// (an index into QueryShape::literals), or, at -1, a literal the shape
  /// keeps (NULL, TRUE, FALSE) whose value is `value`.
  struct Source {
    int literal = -1;
    Value value;
  };
  std::shared_ptr<const QueryTemplate> tmpl;
  std::vector<Source> sources;  // in AnalyzeQuery's parameter order
};

/// Analyzes the shape of `text` by parsing its tokens with every marker a
/// placeholder. Fails when the text does not analyze, when it holds a `?`
/// of its own, or when the grammar needs a marker's literal (the length in
/// `varchar(32)`): AnalyzeQuery the text itself then.
Result<ShapeTemplate> AnalyzeShape(std::string_view text);

/// AnalyzeQuery's answer for the text `shape` was taken from, read from
/// the shape's literals without a parse.
ParsedQuery InstantiateShape(const ShapeTemplate& analyzed,
                             const QueryShape& shape);

/// Replaces kParam nodes with the given literal values (by param_index).
/// Params beyond the vector's size are left in place.
std::unique_ptr<Statement> BindParams(const Statement& templ,
                                      const std::vector<Value>& params);

/// Deterministic text for a template bound with the given parameters.
std::string RenderBoundText(const QueryTemplate& tmpl,
                            const std::vector<Value>& params);

}  // namespace chrono::sql

#endif  // CHRONOCACHE_SQL_TEMPLATE_H_
