#include "sql/footprint.h"

#include <algorithm>

namespace chrono::sql {

namespace {

/// The constant `expr` stands for, or null when it depends on a row.
const Value* ConstantOf(const Expr& expr, const std::vector<Value>& params) {
  if (expr.kind == Expr::Kind::kLiteral) return &expr.literal;
  if (expr.kind == Expr::Kind::kParam && expr.param_index >= 0 &&
      static_cast<size_t>(expr.param_index) < params.size()) {
    return &params[static_cast<size_t>(expr.param_index)];
  }
  return nullptr;
}

/// The `column = constant` conjuncts of a WHERE clause (CollectConjuncts).
std::vector<ColumnValue> EqualityConjuncts(const Expr* where,
                                           const std::vector<Value>& params) {
  std::vector<ColumnValue> out;
  for (const Expr* conj : CollectConjuncts(where)) {
    if (conj->kind != Expr::Kind::kBinary || conj->bin_op != BinOp::kEq) {
      continue;
    }
    const Expr* lhs = conj->children[0].get();
    const Expr* rhs = conj->children[1].get();
    if (lhs->kind != Expr::Kind::kColumnRef) std::swap(lhs, rhs);
    if (lhs->kind != Expr::Kind::kColumnRef) continue;
    if (const Value* value = ConstantOf(*rhs, params)) {
      out.push_back({lhs->column, *value});
    }
  }
  return out;
}

void CollectColumns(const Expr* expr, std::vector<std::string>* out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kColumnRef) out->push_back(expr->column);
  for (const ExprPtr& child : expr->children) CollectColumns(child.get(), out);
}

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// True when some node satisfies `pred`.
template <typename Pred>
bool AnyNode(const Expr* expr, const Pred& pred) {
  if (expr == nullptr) return false;
  if (pred(*expr)) return true;
  for (const ExprPtr& child : expr->children) {
    if (AnyNode(child.get(), pred)) return true;
  }
  return false;
}

bool IsAggregateCall(const Expr& e) {
  return e.kind == Expr::Kind::kFuncCall &&
         (e.func_name == "count" || e.func_name == "sum" ||
          e.func_name == "avg" || e.func_name == "min" ||
          e.func_name == "max");
}

/// No stored value equals both `a` and `b` under SQL `=`. Value::EqualsSql
/// is an equivalence on non-null values (numbers by numeric value, strings
/// exactly) and never holds for NULL, so this is just its negation.
bool NoCommonMatch(const Value& a, const Value& b) { return !a.EqualsSql(b); }

/// Rule 2: the write's rows all fail one of the read's conjuncts, and an
/// UPDATE leaves that column alone so they keep failing it.
bool TargetsOtherRows(const WriteFootprint& write, const ReadFootprint& read) {
  for (const ColumnValue& target : write.where_eq) {
    if (Contains(write.set_columns, target.column)) continue;
    for (const ColumnValue& wanted : read.where_eq) {
      if (wanted.column == target.column &&
          NoCommonMatch(wanted.value, target.value)) {
        return true;
      }
    }
  }
  return false;
}

/// Rule 3: no returned row is a write target, and the write cannot move a
/// row into (or out of) the result.
bool MissesReturnedRows(const WriteFootprint& write, const ReadFootprint& read,
                        const ResultSet& rows) {
  if (read.aggregate) return false;
  for (const std::string& column : write.set_columns) {
    if (Contains(read.filter_columns, column)) return false;
  }
  for (const ColumnValue& target : write.where_eq) {
    int position = -1;
    if (read.star) {
      position = rows.ColumnIndex(target.column);
    } else {
      for (const auto& [column, index] : read.projected) {
        if (column == target.column) {
          position = static_cast<int>(index);
          break;
        }
      }
    }
    if (position < 0) continue;
    const size_t pos = static_cast<size_t>(position);
    bool hit = false;
    for (const Row& row : rows.rows()) {
      if (pos >= row.size() || !NoCommonMatch(row[pos], target.value)) {
        hit = true;
        break;
      }
    }
    if (!hit) return true;
  }
  return false;
}

/// Rule 1: every inserted row fails one of the read's conjuncts.
bool InsertsOtherRows(const WriteFootprint& write, const ReadFootprint& read) {
  for (const std::vector<ColumnValue>& row : write.rows) {
    bool fails = false;
    for (const ColumnValue& wanted : read.where_eq) {
      for (const ColumnValue& cell : row) {
        if (cell.column == wanted.column &&
            NoCommonMatch(cell.value, wanted.value)) {
          fails = true;
          break;
        }
      }
      if (fails) break;
    }
    if (!fails) return false;
  }
  return true;
}

}  // namespace

WriteFootprint ExtractWriteFootprint(const Statement& stmt,
                                     const std::vector<Value>& params) {
  WriteFootprint out;
  switch (stmt.kind) {
    case Statement::Kind::kInsert: {
      const InsertStmt& ins = *stmt.insert;
      // Without a column list the values follow the schema, which the
      // statement alone does not name.
      if (ins.columns.empty()) break;
      out.kind = WriteFootprint::Kind::kInsert;
      out.table = ins.table;
      for (const std::vector<ExprPtr>& exprs : ins.rows) {
        std::vector<ColumnValue> row;
        for (size_t i = 0; i < exprs.size() && i < ins.columns.size(); ++i) {
          if (const Value* value = ConstantOf(*exprs[i], params)) {
            row.push_back({ins.columns[i], *value});
          }
        }
        out.rows.push_back(std::move(row));
      }
      break;
    }
    case Statement::Kind::kUpdate: {
      const UpdateStmt& upd = *stmt.update;
      out.kind = WriteFootprint::Kind::kUpdate;
      out.table = upd.table;
      out.where_eq = EqualityConjuncts(upd.where.get(), params);
      for (const auto& [column, expr] : upd.assignments) {
        (void)expr;
        out.set_columns.push_back(column);
      }
      break;
    }
    case Statement::Kind::kDelete:
      out.kind = WriteFootprint::Kind::kDelete;
      out.table = stmt.del->table;
      out.where_eq = EqualityConjuncts(stmt.del->where.get(), params);
      break;
    case Statement::Kind::kSelect:
    case Statement::Kind::kCreateTable:
      break;
  }
  return out;
}

std::optional<ReadFootprint> ExtractReadFootprint(
    const Statement& stmt, const std::vector<Value>& params) {
  if (stmt.kind != Statement::Kind::kSelect) return std::nullopt;
  const SelectStmt& select = *stmt.select;
  if (!select.ctes.empty() || !select.joins.empty() ||
      select.from.kind != TableRef::Kind::kTable || select.limit.has_value()) {
    return std::nullopt;
  }
  auto order_sensitive = [](const Expr& e) {
    return e.kind == Expr::Kind::kRowNumber ||
           (e.kind == Expr::Kind::kFuncCall &&
            (e.func_name == "sum" || e.func_name == "avg"));
  };
  ReadFootprint out;
  out.table = select.from.table_name;
  out.where_eq = EqualityConjuncts(select.where.get(), params);
  CollectColumns(select.where.get(), &out.filter_columns);
  out.aggregate = !select.group_by.empty() || select.having != nullptr;
  for (size_t i = 0; i < select.items.size(); ++i) {
    const SelectItem& item = select.items[i];
    if (item.is_star) {
      out.star = true;
      continue;
    }
    if (AnyNode(item.expr.get(), order_sensitive)) return std::nullopt;
    if (AnyNode(item.expr.get(), IsAggregateCall)) out.aggregate = true;
    if (item.expr->kind == Expr::Kind::kColumnRef) {
      out.projected.emplace_back(item.expr->column, i);
    }
  }
  if (AnyNode(select.having.get(), order_sensitive)) return std::nullopt;
  // Mixed `*` and expressions: positions are neither the item index nor
  // resolvable by name alone.
  if (out.star && select.items.size() != 1) return std::nullopt;
  for (const OrderItem& order : select.order_by) {
    CollectColumns(order.expr.get(), &out.filter_columns);
    if (order.expr->kind != Expr::Kind::kColumnRef) continue;
    for (const SelectItem& item : select.items) {
      if (!item.is_star && item.alias == order.expr->column) {
        CollectColumns(item.expr.get(), &out.filter_columns);
      }
    }
  }
  return out;
}

bool ProvablyDisjoint(const WriteFootprint& write, const ReadFootprint& read,
                      const ResultSet& rows) {
  if (write.kind == WriteFootprint::Kind::kWildcard) return false;
  if (write.table != read.table) return false;
  if (write.kind == WriteFootprint::Kind::kInsert) {
    return InsertsOtherRows(write, read);
  }
  return TargetsOtherRows(write, read) ||
         MissesReturnedRows(write, read, rows);
}

}  // namespace chrono::sql
