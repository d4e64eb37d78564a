#include "sql/parser.h"

#include <utility>

#include "sql/lexer.h"

namespace chrono::sql {

namespace {

/// Recursive-descent parser over the token stream. Methods return
/// Result<...>; the cursor only advances on successful matches.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<Statement>> ParseStatement() {
    auto stmt = std::make_unique<Statement>();
    if (Check("SELECT") || Check("WITH")) {
      stmt->kind = Statement::Kind::kSelect;
      CHRONO_ASSIGN_OR_RETURN(stmt->select, ParseSelectStmt());
    } else if (Check("INSERT")) {
      stmt->kind = Statement::Kind::kInsert;
      CHRONO_ASSIGN_OR_RETURN(stmt->insert, ParseInsert());
    } else if (Check("UPDATE")) {
      stmt->kind = Statement::Kind::kUpdate;
      CHRONO_ASSIGN_OR_RETURN(stmt->update, ParseUpdate());
    } else if (Check("DELETE")) {
      stmt->kind = Statement::Kind::kDelete;
      CHRONO_ASSIGN_OR_RETURN(stmt->del, ParseDelete());
    } else if (Check("CREATE")) {
      stmt->kind = Statement::Kind::kCreateTable;
      CHRONO_ASSIGN_OR_RETURN(stmt->create, ParseCreateTable());
    } else {
      return Err("expected SELECT, WITH, INSERT, UPDATE or DELETE");
    }
    if (Peek().kind != Token::Kind::kEnd) {
      return Err("unexpected trailing tokens");
    }
    return stmt;
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt() {
    auto stmt = std::make_unique<SelectStmt>();
    if (Match("WITH")) {
      while (true) {
        CteDef cte;
        CHRONO_ASSIGN_OR_RETURN(cte.name, ExpectIdentifier());
        CHRONO_RETURN_NOT_OK(Expect("AS"));
        CHRONO_RETURN_NOT_OK(ExpectSymbol("("));
        CHRONO_ASSIGN_OR_RETURN(cte.query, ParseSelectStmt());
        CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
        stmt->ctes.push_back(std::move(cte));
        if (!MatchSymbol(",")) break;
      }
    }
    CHRONO_RETURN_NOT_OK(Expect("SELECT"));
    stmt->distinct = Match("DISTINCT");
    while (true) {
      SelectItem item;
      CHRONO_ASSIGN_OR_RETURN(item, ParseSelectItem());
      stmt->items.push_back(std::move(item));
      if (!MatchSymbol(",")) break;
    }
    if (Match("FROM")) {
      CHRONO_ASSIGN_OR_RETURN(stmt->from, ParseTableRef(/*allow_lateral=*/false));
      while (true) {
        if (MatchSymbol(",")) {
          JoinClause join;
          join.type = JoinClause::Type::kCross;
          CHRONO_ASSIGN_OR_RETURN(join.ref, ParseTableRef(true));
          stmt->joins.push_back(std::move(join));
          continue;
        }
        bool left = false;
        if (Check("LEFT")) {
          left = true;
          Advance();
          CHRONO_RETURN_NOT_OK(Expect("JOIN"));
        } else if (Check("INNER")) {
          Advance();
          CHRONO_RETURN_NOT_OK(Expect("JOIN"));
        } else if (Check("JOIN")) {
          Advance();
        } else if (Check("CROSS")) {
          Advance();
          CHRONO_RETURN_NOT_OK(Expect("JOIN"));
          JoinClause join;
          join.type = JoinClause::Type::kCross;
          CHRONO_ASSIGN_OR_RETURN(join.ref, ParseTableRef(true));
          stmt->joins.push_back(std::move(join));
          continue;
        } else {
          break;
        }
        JoinClause join;
        join.type = left ? JoinClause::Type::kLeft : JoinClause::Type::kInner;
        CHRONO_ASSIGN_OR_RETURN(join.ref, ParseTableRef(true));
        CHRONO_RETURN_NOT_OK(Expect("ON"));
        CHRONO_ASSIGN_OR_RETURN(join.on, ParseExpr());
        stmt->joins.push_back(std::move(join));
      }
    }
    if (Match("WHERE")) {
      CHRONO_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (Check("GROUP")) {
      Advance();
      CHRONO_RETURN_NOT_OK(Expect("BY"));
      while (true) {
        ExprPtr e;
        CHRONO_ASSIGN_OR_RETURN(e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
        if (!MatchSymbol(",")) break;
      }
    }
    if (Match("HAVING")) {
      CHRONO_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (Check("ORDER")) {
      Advance();
      CHRONO_RETURN_NOT_OK(Expect("BY"));
      while (true) {
        OrderItem item;
        CHRONO_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Match("DESC")) {
          item.desc = true;
        } else {
          Match("ASC");
        }
        stmt->order_by.push_back(std::move(item));
        if (!MatchSymbol(",")) break;
      }
    }
    if (Match("LIMIT")) {
      const Token& t = Peek();
      if (t.kind != Token::Kind::kInt) return Err("expected integer after LIMIT");
      stmt->limit = t.int_value;
      Advance();
    }
    return stmt;
  }

 private:
  // ---- token plumbing -------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t idx = pos_ + ahead;
    if (idx >= tokens_.size()) idx = tokens_.size() - 1;
    return tokens_[idx];
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool Check(std::string_view kw) const { return Peek().IsKeyword(kw); }
  bool Match(std::string_view kw) {
    if (Check(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool CheckSymbol(std::string_view sym) const { return Peek().IsSymbol(sym); }
  bool MatchSymbol(std::string_view sym) {
    if (CheckSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(std::string_view kw) {
    if (!Match(kw)) {
      return Status::ParseError("expected " + std::string(kw) + " near '" +
                                Peek().text + "' at offset " +
                                std::to_string(Peek().offset));
    }
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view sym) {
    if (!MatchSymbol(sym)) {
      return Status::ParseError("expected '" + std::string(sym) + "' near '" +
                                Peek().text + "' at offset " +
                                std::to_string(Peek().offset));
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    const Token& t = Peek();
    if (t.kind != Token::Kind::kIdentifier) {
      return Err("expected identifier, found '" + t.text + "'");
    }
    std::string name = t.text;
    Advance();
    return name;
  }
  Status Err(std::string msg) const {
    return Status::ParseError(msg + " at offset " +
                              std::to_string(Peek().offset));
  }

  // ---- grammar ---------------------------------------------------------

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (CheckSymbol("*")) {
      Advance();
      item.is_star = true;
      return item;
    }
    // alias.* form
    if (Peek().kind == Token::Kind::kIdentifier && Peek(1).IsSymbol(".") &&
        Peek(2).IsSymbol("*")) {
      item.is_star = true;
      item.star_qualifier = Peek().text;
      Advance();
      Advance();
      Advance();
      return item;
    }
    CHRONO_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (Match("AS")) {
      CHRONO_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
    } else if (Peek().kind == Token::Kind::kIdentifier) {
      // Bare alias (SELECT a b FROM t).
      item.alias = Peek().text;
      Advance();
    }
    return item;
  }

  Result<TableRef> ParseTableRef(bool allow_lateral) {
    TableRef ref;
    if (allow_lateral && Match("LATERAL")) {
      CHRONO_RETURN_NOT_OK(ExpectSymbol("("));
      ref.kind = TableRef::Kind::kLateralSubquery;
      CHRONO_ASSIGN_OR_RETURN(ref.subquery, ParseSelectStmt());
      CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
    } else if (CheckSymbol("(")) {
      Advance();
      ref.kind = TableRef::Kind::kSubquery;
      CHRONO_ASSIGN_OR_RETURN(ref.subquery, ParseSelectStmt());
      CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
    } else {
      ref.kind = TableRef::Kind::kTable;
      CHRONO_ASSIGN_OR_RETURN(ref.table_name, ExpectIdentifier());
    }
    if (Match("AS")) {
      CHRONO_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
    } else if (Peek().kind == Token::Kind::kIdentifier) {
      ref.alias = Peek().text;
      Advance();
    }
    if (ref.kind != TableRef::Kind::kTable && ref.alias.empty()) {
      return Err("derived table requires an alias");
    }
    return ref;
  }

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    ExprPtr lhs;
    CHRONO_ASSIGN_OR_RETURN(lhs, ParseAnd());
    while (Match("OR")) {
      ExprPtr rhs;
      CHRONO_ASSIGN_OR_RETURN(rhs, ParseAnd());
      lhs = Expr::MakeBinary(BinOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    ExprPtr lhs;
    CHRONO_ASSIGN_OR_RETURN(lhs, ParseNot());
    while (Match("AND")) {
      ExprPtr rhs;
      CHRONO_ASSIGN_OR_RETURN(rhs, ParseNot());
      lhs = Expr::MakeBinary(BinOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (Match("NOT")) {
      ExprPtr operand;
      CHRONO_ASSIGN_OR_RETURN(operand, ParseNot());
      return Expr::MakeUnary(UnOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    ExprPtr lhs;
    CHRONO_ASSIGN_OR_RETURN(lhs, ParseAdditive());
    // IS [NOT] NULL
    if (Match("IS")) {
      bool neg = Match("NOT");
      CHRONO_RETURN_NOT_OK(Expect("NULL"));
      return Expr::MakeIsNull(std::move(lhs), neg);
    }
    // [NOT] IN (...) / BETWEEN a AND b
    bool neg = false;
    if (Check("NOT") && (Peek(1).IsKeyword("IN") || Peek(1).IsKeyword("BETWEEN"))) {
      neg = true;
      Advance();
    }
    if (Match("IN")) {
      CHRONO_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprPtr> list;
      while (true) {
        ExprPtr e;
        CHRONO_ASSIGN_OR_RETURN(e, ParseExpr());
        list.push_back(std::move(e));
        if (!MatchSymbol(",")) break;
      }
      CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
      return Expr::MakeInList(std::move(lhs), std::move(list), neg);
    }
    if (Match("BETWEEN")) {
      ExprPtr lo;
      CHRONO_ASSIGN_OR_RETURN(lo, ParseAdditive());
      CHRONO_RETURN_NOT_OK(Expect("AND"));
      ExprPtr hi;
      CHRONO_ASSIGN_OR_RETURN(hi, ParseAdditive());
      // Desugar: lhs >= lo AND lhs <= hi (negated with NOT wrapper).
      ExprPtr ge = Expr::MakeBinary(BinOp::kGe, lhs->Clone(), std::move(lo));
      ExprPtr le = Expr::MakeBinary(BinOp::kLe, std::move(lhs), std::move(hi));
      ExprPtr both =
          Expr::MakeBinary(BinOp::kAnd, std::move(ge), std::move(le));
      if (neg) return Expr::MakeUnary(UnOp::kNot, std::move(both));
      return both;
    }
    static const std::pair<const char*, BinOp> kOps[] = {
        {"=", BinOp::kEq},  {"<>", BinOp::kNe}, {"<=", BinOp::kLe},
        {">=", BinOp::kGe}, {"<", BinOp::kLt},  {">", BinOp::kGt},
    };
    for (const auto& [sym, op] : kOps) {
      if (MatchSymbol(sym)) {
        ExprPtr rhs;
        CHRONO_ASSIGN_OR_RETURN(rhs, ParseAdditive());
        return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    ExprPtr lhs;
    CHRONO_ASSIGN_OR_RETURN(lhs, ParseMultiplicative());
    while (true) {
      BinOp op;
      if (MatchSymbol("+")) {
        op = BinOp::kAdd;
      } else if (MatchSymbol("-")) {
        op = BinOp::kSub;
      } else if (MatchSymbol("||")) {
        // String concatenation desugars to concat(lhs, rhs).
        ExprPtr rhs;
        CHRONO_ASSIGN_OR_RETURN(rhs, ParseMultiplicative());
        std::vector<ExprPtr> args;
        args.push_back(std::move(lhs));
        args.push_back(std::move(rhs));
        lhs = Expr::MakeFuncCall("concat", std::move(args));
        continue;
      } else {
        break;
      }
      ExprPtr rhs;
      CHRONO_ASSIGN_OR_RETURN(rhs, ParseMultiplicative());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    ExprPtr lhs;
    CHRONO_ASSIGN_OR_RETURN(lhs, ParseUnary());
    while (true) {
      BinOp op;
      if (MatchSymbol("*")) {
        op = BinOp::kMul;
      } else if (MatchSymbol("/")) {
        op = BinOp::kDiv;
      } else {
        break;
      }
      ExprPtr rhs;
      CHRONO_ASSIGN_OR_RETURN(rhs, ParseUnary());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (MatchSymbol("-")) {
      ExprPtr operand;
      CHRONO_ASSIGN_OR_RETURN(operand, ParseUnary());
      return Expr::MakeUnary(UnOp::kNeg, std::move(operand));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case Token::Kind::kInt:
      case Token::Kind::kDouble:
      case Token::Kind::kString: {
        auto e = Expr::MakeLiteral(LiteralValue(t));
        Advance();
        return e;
      }
      case Token::Kind::kKeyword: {
        if (t.text == "CASE") {
          Advance();
          std::vector<ExprPtr> branches;
          while (Match("WHEN")) {
            ExprPtr cond;
            CHRONO_ASSIGN_OR_RETURN(cond, ParseExpr());
            CHRONO_RETURN_NOT_OK(Expect("THEN"));
            ExprPtr value;
            CHRONO_ASSIGN_OR_RETURN(value, ParseExpr());
            branches.push_back(std::move(cond));
            branches.push_back(std::move(value));
          }
          if (branches.empty()) return Err("CASE requires at least one WHEN");
          ExprPtr otherwise;
          if (Match("ELSE")) {
            CHRONO_ASSIGN_OR_RETURN(otherwise, ParseExpr());
          }
          CHRONO_RETURN_NOT_OK(Expect("END"));
          return Expr::MakeCase(std::move(branches), std::move(otherwise));
        }
        if (t.text == "NULL") {
          Advance();
          return Expr::MakeLiteral(Value::Null());
        }
        if (t.text == "TRUE") {
          Advance();
          return Expr::MakeLiteral(Value::Int(1));
        }
        if (t.text == "FALSE") {
          Advance();
          return Expr::MakeLiteral(Value::Int(0));
        }
        return Err("unexpected keyword '" + t.text + "' in expression");
      }
      case Token::Kind::kSymbol: {
        if (t.text == "(") {
          Advance();
          ExprPtr inner;
          CHRONO_ASSIGN_OR_RETURN(inner, ParseExpr());
          CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
          return inner;
        }
        if (t.text == "?") {
          Advance();
          return Expr::MakeParam(next_param_index_++);
        }
        return Err("unexpected symbol '" + t.text + "' in expression");
      }
      case Token::Kind::kIdentifier: {
        std::string first = t.text;
        // Function call?
        if (Peek(1).IsSymbol("(")) {
          Advance();  // name
          Advance();  // (
          if (first == "row_number") {
            CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
            CHRONO_RETURN_NOT_OK(Expect("OVER"));
            CHRONO_RETURN_NOT_OK(ExpectSymbol("("));
            CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
            return Expr::MakeRowNumber();
          }
          std::vector<ExprPtr> args;
          if (!CheckSymbol(")")) {
            // COUNT(*) special case.
            if (CheckSymbol("*")) {
              Advance();
              args.push_back(Expr::MakeStar());
            } else {
              while (true) {
                ExprPtr e;
                CHRONO_ASSIGN_OR_RETURN(e, ParseExpr());
                args.push_back(std::move(e));
                if (!MatchSymbol(",")) break;
              }
            }
          }
          CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
          return Expr::MakeFuncCall(first, std::move(args));
        }
        Advance();
        if (MatchSymbol(".")) {
          std::string col;
          CHRONO_ASSIGN_OR_RETURN(col, ExpectIdentifier());
          return Expr::MakeColumnRef(first, col);
        }
        return Expr::MakeColumnRef("", first);
      }
      case Token::Kind::kEnd:
        return Err("unexpected end of input in expression");
    }
    return Err("unexpected token in expression");
  }

  Result<std::unique_ptr<InsertStmt>> ParseInsert() {
    CHRONO_RETURN_NOT_OK(Expect("INSERT"));
    CHRONO_RETURN_NOT_OK(Expect("INTO"));
    auto stmt = std::make_unique<InsertStmt>();
    CHRONO_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    if (MatchSymbol("(")) {
      while (true) {
        std::string col;
        CHRONO_ASSIGN_OR_RETURN(col, ExpectIdentifier());
        stmt->columns.push_back(std::move(col));
        if (!MatchSymbol(",")) break;
      }
      CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    CHRONO_RETURN_NOT_OK(Expect("VALUES"));
    while (true) {
      CHRONO_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprPtr> row;
      while (true) {
        ExprPtr e;
        CHRONO_ASSIGN_OR_RETURN(e, ParseExpr());
        row.push_back(std::move(e));
        if (!MatchSymbol(",")) break;
      }
      CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
      stmt->rows.push_back(std::move(row));
      if (!MatchSymbol(",")) break;
    }
    return stmt;
  }

  Result<std::unique_ptr<UpdateStmt>> ParseUpdate() {
    CHRONO_RETURN_NOT_OK(Expect("UPDATE"));
    auto stmt = std::make_unique<UpdateStmt>();
    CHRONO_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    CHRONO_RETURN_NOT_OK(Expect("SET"));
    while (true) {
      std::string col;
      CHRONO_ASSIGN_OR_RETURN(col, ExpectIdentifier());
      CHRONO_RETURN_NOT_OK(ExpectSymbol("="));
      ExprPtr e;
      CHRONO_ASSIGN_OR_RETURN(e, ParseExpr());
      stmt->assignments.emplace_back(std::move(col), std::move(e));
      if (!MatchSymbol(",")) break;
    }
    if (Match("WHERE")) {
      CHRONO_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return stmt;
  }

  Result<std::unique_ptr<CreateTableStmt>> ParseCreateTable() {
    CHRONO_RETURN_NOT_OK(Expect("CREATE"));
    CHRONO_RETURN_NOT_OK(Expect("TABLE"));
    auto stmt = std::make_unique<CreateTableStmt>();
    CHRONO_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    CHRONO_RETURN_NOT_OK(ExpectSymbol("("));
    while (true) {
      CreateTableStmt::Column col;
      CHRONO_ASSIGN_OR_RETURN(col.name, ExpectIdentifier());
      std::string type_name;
      CHRONO_ASSIGN_OR_RETURN(type_name, ExpectIdentifier());
      if (type_name == "int" || type_name == "bigint" ||
          type_name == "integer") {
        col.type = Value::Type::kInt;
      } else if (type_name == "double" || type_name == "float" ||
                 type_name == "decimal" || type_name == "real") {
        col.type = Value::Type::kDouble;
      } else if (type_name == "text" || type_name == "varchar" ||
                 type_name == "string" || type_name == "char") {
        col.type = Value::Type::kString;
      } else {
        return Err("unknown column type '" + type_name + "'");
      }
      // Optional length suffix, e.g. varchar(32).
      if (MatchSymbol("(")) {
        if (Peek().kind != Token::Kind::kInt) {
          return Err("expected integer length");
        }
        Advance();
        CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
      }
      stmt->columns.push_back(std::move(col));
      if (!MatchSymbol(",")) break;
    }
    CHRONO_RETURN_NOT_OK(ExpectSymbol(")"));
    return stmt;
  }

  Result<std::unique_ptr<DeleteStmt>> ParseDelete() {
    CHRONO_RETURN_NOT_OK(Expect("DELETE"));
    CHRONO_RETURN_NOT_OK(Expect("FROM"));
    auto stmt = std::make_unique<DeleteStmt>();
    CHRONO_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    if (Match("WHERE")) {
      CHRONO_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return stmt;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int next_param_index_ = 0;
};

}  // namespace

Result<std::unique_ptr<Statement>> Parse(std::string_view sql) {
  CHRONO_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  return ParseTokens(std::move(tokens));
}

Result<std::unique_ptr<Statement>> ParseTokens(std::vector<Token> tokens) {
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Value LiteralValue(const Token& token) {
  switch (token.kind) {
    case Token::Kind::kInt:
      return Value::Int(token.int_value);
    case Token::Kind::kDouble:
      return Value::Double(token.double_value);
    default:
      return Value::String(token.text);
  }
}

Result<std::unique_ptr<SelectStmt>> ParseSelect(std::string_view sql) {
  CHRONO_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, Parse(sql));
  if (stmt->kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("statement is not a SELECT");
  }
  return std::move(stmt->select);
}

}  // namespace chrono::sql
