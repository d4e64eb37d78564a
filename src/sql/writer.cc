#include "sql/writer.h"

#include "common/string_util.h"

namespace chrono::sql {

namespace {

const char* BinOpText(BinOp op) {
  switch (op) {
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
  }
  return "?";
}

void WriteExprTo(const Expr& expr, std::string* out,
                 std::vector<ParamSlot>* slots) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      *out += expr.literal.ToSqlLiteral();
      return;
    case Expr::Kind::kColumnRef:
      if (!expr.table.empty()) {
        *out += expr.table;
        *out += ".";
      }
      *out += expr.column;
      return;
    case Expr::Kind::kParam:
      if (slots != nullptr) slots->push_back({out->size(), expr.param_index});
      *out += "?";
      return;
    case Expr::Kind::kUnary:
      if (expr.un_op == UnOp::kNot) {
        *out += "NOT (";
        WriteExprTo(*expr.children[0], out, slots);
        *out += ")";
      } else {
        *out += "-(";
        WriteExprTo(*expr.children[0], out, slots);
        *out += ")";
      }
      return;
    case Expr::Kind::kBinary: {
      bool logical =
          expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr;
      *out += "(";
      WriteExprTo(*expr.children[0], out, slots);
      *out += logical ? " " : " ";
      *out += BinOpText(expr.bin_op);
      *out += " ";
      WriteExprTo(*expr.children[1], out, slots);
      *out += ")";
      return;
    }
    case Expr::Kind::kFuncCall: {
      *out += expr.func_name;
      *out += "(";
      for (size_t i = 0; i < expr.children.size(); ++i) {
        if (i > 0) *out += ", ";
        WriteExprTo(*expr.children[i], out, slots);
      }
      *out += ")";
      return;
    }
    case Expr::Kind::kStar:
      *out += "*";
      return;
    case Expr::Kind::kIsNull:
      *out += "(";
      WriteExprTo(*expr.children[0], out, slots);
      *out += expr.is_not ? " IS NOT NULL)" : " IS NULL)";
      return;
    case Expr::Kind::kInList: {
      *out += "(";
      WriteExprTo(*expr.children[0], out, slots);
      *out += expr.is_not ? " NOT IN (" : " IN (";
      for (size_t i = 1; i < expr.children.size(); ++i) {
        if (i > 1) *out += ", ";
        WriteExprTo(*expr.children[i], out, slots);
      }
      *out += "))";
      return;
    }
    case Expr::Kind::kRowNumber:
      *out += "row_number() OVER ()";
      return;
    case Expr::Kind::kCase: {
      *out += "CASE";
      size_t branch_elems =
          expr.is_not ? expr.children.size() - 1 : expr.children.size();
      for (size_t i = 0; i + 1 < branch_elems; i += 2) {
        *out += " WHEN ";
        WriteExprTo(*expr.children[i], out, slots);
        *out += " THEN ";
        WriteExprTo(*expr.children[i + 1], out, slots);
      }
      if (expr.is_not) {
        *out += " ELSE ";
        WriteExprTo(*expr.children.back(), out, slots);
      }
      *out += " END";
      return;
    }
  }
}

void WriteSelectTo(const SelectStmt& stmt, std::string* out,
                   std::vector<ParamSlot>* slots);

void WriteTableRefTo(const TableRef& ref, std::string* out,
                     std::vector<ParamSlot>* slots) {
  switch (ref.kind) {
    case TableRef::Kind::kNone:
      return;
    case TableRef::Kind::kTable:
      *out += ref.table_name;
      break;
    case TableRef::Kind::kSubquery:
      *out += "(";
      WriteSelectTo(*ref.subquery, out, slots);
      *out += ")";
      break;
    case TableRef::Kind::kLateralSubquery:
      *out += "LATERAL (";
      WriteSelectTo(*ref.subquery, out, slots);
      *out += ")";
      break;
  }
  if (!ref.alias.empty() && ref.alias != ref.table_name) {
    *out += " AS ";
    *out += ref.alias;
  }
}

void WriteSelectTo(const SelectStmt& stmt, std::string* out,
                   std::vector<ParamSlot>* slots) {
  if (!stmt.ctes.empty()) {
    *out += "WITH ";
    for (size_t i = 0; i < stmt.ctes.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += stmt.ctes[i].name;
      *out += " AS (";
      WriteSelectTo(*stmt.ctes[i].query, out, slots);
      *out += ")";
    }
    *out += " ";
  }
  *out += "SELECT ";
  if (stmt.distinct) *out += "DISTINCT ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) *out += ", ";
    const SelectItem& item = stmt.items[i];
    if (item.is_star) {
      if (!item.star_qualifier.empty()) {
        *out += item.star_qualifier;
        *out += ".*";
      } else {
        *out += "*";
      }
    } else {
      WriteExprTo(*item.expr, out, slots);
      if (!item.alias.empty()) {
        *out += " AS ";
        *out += item.alias;
      }
    }
  }
  if (stmt.from.kind != TableRef::Kind::kNone) {
    *out += " FROM ";
    WriteTableRefTo(stmt.from, out, slots);
    for (const auto& join : stmt.joins) {
      switch (join.type) {
        case JoinClause::Type::kCross:
          *out += ", ";
          WriteTableRefTo(join.ref, out, slots);
          break;
        case JoinClause::Type::kInner:
          *out += " JOIN ";
          WriteTableRefTo(join.ref, out, slots);
          *out += " ON ";
          WriteExprTo(*join.on, out, slots);
          break;
        case JoinClause::Type::kLeft:
          *out += " LEFT JOIN ";
          WriteTableRefTo(join.ref, out, slots);
          *out += " ON ";
          WriteExprTo(*join.on, out, slots);
          break;
      }
    }
  }
  if (stmt.where) {
    *out += " WHERE ";
    WriteExprTo(*stmt.where, out, slots);
  }
  if (!stmt.group_by.empty()) {
    *out += " GROUP BY ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      if (i > 0) *out += ", ";
      WriteExprTo(*stmt.group_by[i], out, slots);
    }
  }
  if (stmt.having) {
    *out += " HAVING ";
    WriteExprTo(*stmt.having, out, slots);
  }
  if (!stmt.order_by.empty()) {
    *out += " ORDER BY ";
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      if (i > 0) *out += ", ";
      WriteExprTo(*stmt.order_by[i].expr, out, slots);
      if (stmt.order_by[i].desc) *out += " DESC";
    }
  }
  if (stmt.limit.has_value()) {
    *out += " LIMIT ";
    *out += std::to_string(*stmt.limit);
  }
}

}  // namespace

std::string WriteExpr(const Expr& expr) {
  std::string out;
  WriteExprTo(expr, &out, nullptr);
  return out;
}

std::string WriteSelect(const SelectStmt& stmt) {
  std::string out;
  WriteSelectTo(stmt, &out, nullptr);
  return out;
}

std::string WriteStatement(const Statement& stmt) {
  return WriteStatement(stmt, nullptr);
}

std::string WriteStatement(const Statement& stmt,
                           std::vector<ParamSlot>* slots) {
  std::string out;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      WriteSelectTo(*stmt.select, &out, slots);
      break;
    case Statement::Kind::kInsert: {
      out = "INSERT INTO ";
      out += stmt.insert->table;
      if (!stmt.insert->columns.empty()) {
        out += " (";
        out += Join(stmt.insert->columns, ", ");
        out += ")";
      }
      out += " VALUES ";
      for (size_t r = 0; r < stmt.insert->rows.size(); ++r) {
        if (r > 0) out += ", ";
        out += "(";
        const auto& row = stmt.insert->rows[r];
        for (size_t i = 0; i < row.size(); ++i) {
          if (i > 0) out += ", ";
          WriteExprTo(*row[i], &out, slots);
        }
        out += ")";
      }
      break;
    }
    case Statement::Kind::kUpdate: {
      out = "UPDATE ";
      out += stmt.update->table;
      out += " SET ";
      for (size_t i = 0; i < stmt.update->assignments.size(); ++i) {
        if (i > 0) out += ", ";
        out += stmt.update->assignments[i].first;
        out += " = ";
        WriteExprTo(*stmt.update->assignments[i].second, &out, slots);
      }
      if (stmt.update->where) {
        out += " WHERE ";
        WriteExprTo(*stmt.update->where, &out, slots);
      }
      break;
    }
    case Statement::Kind::kDelete: {
      out = "DELETE FROM ";
      out += stmt.del->table;
      if (stmt.del->where) {
        out += " WHERE ";
        WriteExprTo(*stmt.del->where, &out, slots);
      }
      break;
    }
    case Statement::Kind::kCreateTable: {
      out = "CREATE TABLE ";
      out += stmt.create->table;
      out += " (";
      for (size_t i = 0; i < stmt.create->columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += stmt.create->columns[i].name;
        switch (stmt.create->columns[i].type) {
          case Value::Type::kInt:
            out += " bigint";
            break;
          case Value::Type::kDouble:
            out += " double";
            break;
          case Value::Type::kString:
            out += " text";
            break;
          case Value::Type::kNull:
            out += " text";
            break;
        }
      }
      out += ")";
      break;
    }
  }
  return out;
}

}  // namespace chrono::sql
