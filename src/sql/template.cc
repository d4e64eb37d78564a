#include "sql/template.h"

#include <set>

#include "common/string_util.h"
#include "sql/parser.h"
#include "sql/writer.h"

namespace chrono::sql {

namespace {

void CollectFrom(const SelectStmt& stmt, std::set<std::string>* reads,
                 std::set<std::string>* cte_names) {
  std::set<std::string> local_ctes = *cte_names;
  for (const auto& cte : stmt.ctes) {
    CollectFrom(*cte.query, reads, &local_ctes);
    local_ctes.insert(cte.name);
  }
  auto visit_ref = [&](const TableRef& ref) {
    if (ref.kind == TableRef::Kind::kTable) {
      if (local_ctes.count(ref.table_name) == 0) reads->insert(ref.table_name);
    } else if (ref.subquery) {
      CollectFrom(*ref.subquery, reads, &local_ctes);
    }
  };
  if (stmt.from.kind != TableRef::Kind::kNone) visit_ref(stmt.from);
  for (const auto& join : stmt.joins) visit_ref(join.ref);
}

// A template over `ast`, whose parameters are numbered 0..param_count-1.
std::shared_ptr<const QueryTemplate> MakeTemplate(
    std::unique_ptr<Statement> ast, int param_count) {
  auto tmpl = std::make_shared<QueryTemplate>();
  tmpl->canonical_text = WriteStatement(*ast, &tmpl->param_slots);
  tmpl->id = Fnv1aHash(tmpl->canonical_text);
  tmpl->param_count = param_count;
  tmpl->read_only = ast->IsReadOnly();
  tmpl->access = CollectTableAccess(*ast);
  tmpl->ast = std::shared_ptr<const Statement>(std::move(ast));
  return tmpl;
}

char KindTag(Token::Kind kind) {
  switch (kind) {
    case Token::Kind::kIdentifier: return 'n';
    case Token::Kind::kKeyword: return 'k';
    case Token::Kind::kInt: return 'i';
    case Token::Kind::kDouble: return 'd';
    case Token::Kind::kString: return 's';
    case Token::Kind::kSymbol: return 'y';
    case Token::Kind::kEnd: return 'e';
  }
  return '?';
}

// A literal the grammar turns into a parameter: a number or a string,
// except the count after LIMIT.
bool IsParamLiteral(const Token& token, bool after_limit) {
  switch (token.kind) {
    case Token::Kind::kInt:
      return !after_limit;
    case Token::Kind::kDouble:
    case Token::Kind::kString:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<ParsedQuery> AnalyzeQuery(std::string_view text) {
  CHRONO_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, Parse(text));

  // Extract literals into parameters, in deterministic traversal order.
  auto templ_ast = stmt->Clone();
  std::vector<Value> params;
  VisitExprs(templ_ast.get(), [&params](Expr* e) {
    if (e->kind == Expr::Kind::kLiteral) {
      Value v = std::move(e->literal);
      e->kind = Expr::Kind::kParam;
      e->param_index = static_cast<int>(params.size());
      e->literal = Value();
      params.push_back(std::move(v));
    }
  });

  ParsedQuery out;
  out.tmpl = MakeTemplate(std::move(templ_ast),
                          static_cast<int>(params.size()));
  out.bound_text = RenderBoundText(*out.tmpl, params);
  out.params = std::move(params);
  return out;
}

Result<QueryShape> ShapeQuery(std::string_view text) {
  QueryShape shape;
  shape.key.reserve(text.size() + 16);
  Token token;
  size_t pos = 0;
  bool after_limit = false;
  do {
    CHRONO_RETURN_NOT_OK(NextToken(text, &pos, &token));
    // Kind tag, then the text unless abstracted: no kept text holds a
    // space, so the encoding is unambiguous.
    shape.key += KindTag(token.kind);
    if (IsParamLiteral(token, after_limit)) {
      shape.literals.push_back(LiteralValue(token));
    } else {
      shape.key += token.text;
    }
    shape.key += ' ';
    after_limit = token.IsKeyword("LIMIT");
  } while (token.kind != Token::Kind::kEnd);
  return shape;
}

Result<ShapeTemplate> AnalyzeShape(std::string_view text) {
  CHRONO_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  bool after_limit = false;
  for (Token& token : tokens) {
    if (token.IsSymbol("?")) {
      return Status::InvalidArgument("text holds its own placeholders");
    }
    const bool literal = IsParamLiteral(token, after_limit);
    after_limit = token.IsKeyword("LIMIT");
    if (literal) {
      token.kind = Token::Kind::kSymbol;
      token.text.assign(1, '?');
    }
  }
  // The parser numbers placeholders in text order, which is the order of
  // QueryShape::literals.
  CHRONO_ASSIGN_OR_RETURN(std::unique_ptr<Statement> ast,
                          ParseTokens(std::move(tokens)));
  // Renumber in AnalyzeQuery's traversal order. The literals the parser
  // still made (NULL, TRUE, FALSE) are part of the shape: their values are
  // fixed here.
  ShapeTemplate out;
  VisitExprs(ast.get(), [&out](Expr* e) {
    ShapeTemplate::Source source;
    if (e->kind == Expr::Kind::kParam) {
      source.literal = e->param_index;
    } else if (e->kind == Expr::Kind::kLiteral) {
      source.value = std::move(e->literal);
      e->kind = Expr::Kind::kParam;
      e->literal = Value();
    } else {
      return;
    }
    e->param_index = static_cast<int>(out.sources.size());
    out.sources.push_back(std::move(source));
  });
  out.tmpl = MakeTemplate(std::move(ast), static_cast<int>(out.sources.size()));
  return out;
}

ParsedQuery InstantiateShape(const ShapeTemplate& analyzed,
                             const QueryShape& shape) {
  ParsedQuery out;
  out.tmpl = analyzed.tmpl;
  out.params.reserve(analyzed.sources.size());
  for (const ShapeTemplate::Source& source : analyzed.sources) {
    out.params.push_back(
        source.literal < 0
            ? source.value
            : shape.literals[static_cast<size_t>(source.literal)]);
  }
  out.bound_text = RenderBoundText(*out.tmpl, out.params);
  return out;
}

std::unique_ptr<Statement> BindParams(const Statement& templ,
                                      const std::vector<Value>& params) {
  auto bound = templ.Clone();
  VisitExprs(bound.get(), [&params](Expr* e) {
    if (e->kind == Expr::Kind::kParam && e->param_index >= 0 &&
        static_cast<size_t>(e->param_index) < params.size()) {
      e->literal = params[static_cast<size_t>(e->param_index)];
      e->kind = Expr::Kind::kLiteral;
      e->param_index = -1;
    }
  });
  return bound;
}

std::string RenderBoundText(const QueryTemplate& tmpl,
                            const std::vector<Value>& params) {
  // The text WriteStatement gives the tree bound with `params`: the writer
  // renders a literal the same wherever it stands, and a parameter past
  // the end of `params` stays `?`.
  const std::string& text = tmpl.canonical_text;
  std::string out;
  out.reserve(text.size() + 8 * tmpl.param_slots.size());
  size_t pos = 0;
  for (const ParamSlot& slot : tmpl.param_slots) {
    out.append(text, pos, slot.offset - pos);
    if (slot.param_index >= 0 &&
        static_cast<size_t>(slot.param_index) < params.size()) {
      out += params[static_cast<size_t>(slot.param_index)].ToSqlLiteral();
    } else {
      out += '?';
    }
    pos = slot.offset + 1;
  }
  out.append(text, pos, std::string::npos);
  return out;
}

TableAccess CollectTableAccess(const Statement& stmt) {
  TableAccess out;
  std::set<std::string> reads;
  std::set<std::string> empty_ctes;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      CollectFrom(*stmt.select, &reads, &empty_ctes);
      break;
    case Statement::Kind::kInsert:
      out.writes.push_back(stmt.insert->table);
      break;
    case Statement::Kind::kUpdate:
      out.writes.push_back(stmt.update->table);
      reads.insert(stmt.update->table);
      break;
    case Statement::Kind::kDelete:
      out.writes.push_back(stmt.del->table);
      reads.insert(stmt.del->table);
      break;
    case Statement::Kind::kCreateTable:
      out.writes.push_back(stmt.create->table);
      break;
  }
  out.reads.assign(reads.begin(), reads.end());
  return out;
}

}  // namespace chrono::sql
