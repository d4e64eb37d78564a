#include "db/executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <unordered_set>

#include "sql/writer.h"

namespace chrono::db {

using sql::BinOp;
using sql::Expr;
using sql::ExprPtr;
using sql::VisitExpr;
using sql::JoinClause;
using sql::Row;
using sql::SelectStmt;
using sql::TableRef;
using sql::UnOp;
using sql::Value;

/// Intermediate materialised relation: qualified columns + rows.
struct Executor::Relation {
  struct Col {
    std::string qualifier;  // FROM alias this column came from ("" = output)
    std::string name;
  };
  std::vector<Col> cols;
  std::vector<Row> rows;

  int Find(const std::string& qualifier, const std::string& name) const {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (!qualifier.empty() && cols[i].qualifier != qualifier) continue;
      if (cols[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Chained name-resolution scope: the current relation/row plus an optional
/// outer scope for LATERAL subqueries and correlated expressions.
struct Executor::Scope {
  const Relation* rel = nullptr;
  const Row* row = nullptr;
  const Scope* outer = nullptr;
};

struct Executor::Context {
  // CTE name -> materialised relation, visible to the statement.
  std::unordered_map<std::string, Relation> ctes;
  // CTE name -> definition; materialised lazily on first generic
  // reference. Join sites may instead push join keys down into eligible
  // definitions (index nested loop), which is what a production optimiser
  // does with the combiner's stripped-filter CTEs.
  std::unordered_map<std::string, const SelectStmt*> cte_defs;
  ExecStats stats;
  std::set<std::string> tables_read;
};

namespace {

/// Output column name for a select item (PostgreSQL-like rules).
std::string OutputName(const sql::SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr) {
    switch (item.expr->kind) {
      case Expr::Kind::kColumnRef:
        return item.expr->column;
      case Expr::Kind::kFuncCall:
        return item.expr->func_name;
      case Expr::Kind::kRowNumber:
        return "row_number";
      default:
        break;
    }
  }
  return "col" + std::to_string(index + 1);
}

bool IsAggregateName(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

bool ContainsAggregate(const Expr* expr) {
  if (expr == nullptr) return false;
  if (expr->kind == Expr::Kind::kFuncCall && IsAggregateName(expr->func_name)) {
    return true;
  }
  for (const auto& c : expr->children) {
    if (ContainsAggregate(c.get())) return true;
  }
  return false;
}

bool IsTruthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.type() == Value::Type::kString) return !v.AsString().empty();
  return v.AsDouble() != 0;
}

/// True if the expression references no columns (safe to evaluate without a
/// row; used for filter pushdown into index probes).
bool IsRowFree(const Expr* expr) {
  if (expr == nullptr) return true;
  if (expr->kind == Expr::Kind::kColumnRef || expr->kind == Expr::Kind::kStar ||
      expr->kind == Expr::Kind::kRowNumber) {
    return false;
  }
  for (const auto& c : expr->children) {
    if (!IsRowFree(c.get())) return false;
  }
  return true;
}

}  // namespace

Result<ExecOutcome> Executor::ExecuteSelect(const SelectStmt& stmt) {
  Context ctx;
  CHRONO_ASSIGN_OR_RETURN(Relation rel, EvalSelect(stmt, &ctx, nullptr));
  ExecOutcome out;
  for (const auto& col : rel.cols) out.result.mutable_columns()->push_back(col.name);
  for (auto& row : rel.rows) out.result.AddRow(std::move(row));
  out.stats = ctx.stats;
  out.tables_read.assign(ctx.tables_read.begin(), ctx.tables_read.end());
  return out;
}

Result<ExecOutcome> Executor::Execute(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
      return ExecuteSelect(*stmt.select);
    case sql::Statement::Kind::kInsert: {
      const auto& ins = *stmt.insert;
      Table* table = catalog_->FindTable(ins.table);
      if (table == nullptr) return Status::NotFound("no table " + ins.table);
      Context ctx;
      Scope empty;
      ExecOutcome out;
      for (const auto& row_exprs : ins.rows) {
        Row row(table->columns().size(), Value::Null());
        if (ins.columns.empty()) {
          if (row_exprs.size() != table->columns().size()) {
            return Status::InvalidArgument("INSERT arity mismatch for " +
                                           ins.table);
          }
          for (size_t i = 0; i < row_exprs.size(); ++i) {
            CHRONO_ASSIGN_OR_RETURN(row[i], Eval(*row_exprs[i], empty, &ctx));
          }
        } else {
          if (row_exprs.size() != ins.columns.size()) {
            return Status::InvalidArgument("INSERT arity mismatch for " +
                                           ins.table);
          }
          for (size_t i = 0; i < ins.columns.size(); ++i) {
            int col = table->ColumnIndex(ins.columns[i]);
            if (col < 0) {
              return Status::NotFound("no column " + ins.columns[i] + " in " +
                                      ins.table);
            }
            CHRONO_ASSIGN_OR_RETURN(row[static_cast<size_t>(col)],
                                    Eval(*row_exprs[i], empty, &ctx));
          }
        }
        auto inserted = table->Insert(std::move(row));
        if (!inserted.ok()) return inserted.status();
        ++out.affected_rows;
      }
      out.stats = ctx.stats;
      out.stats.rows_scanned += ins.rows.size();
      out.tables_written.push_back(ins.table);
      return out;
    }
    case sql::Statement::Kind::kUpdate: {
      const auto& upd = *stmt.update;
      Table* table = catalog_->FindTable(upd.table);
      if (table == nullptr) return Status::NotFound("no table " + upd.table);
      Context ctx;
      ExecOutcome out;

      // A one-row relation view for WHERE and assignment evaluation.
      Relation view;
      view.cols.push_back({upd.table, "__rowid"});
      for (const auto& c : table->columns()) view.cols.push_back({upd.table, c.name});
      CHRONO_RETURN_NOT_OK(CheckColumns(upd.where.get(), view, nullptr));

      // Resolve assignment targets once.
      std::vector<std::pair<int, const Expr*>> sets;
      for (const auto& [col_name, expr] : upd.assignments) {
        int col = table->ColumnIndex(col_name);
        if (col < 0) {
          return Status::NotFound("no column " + col_name + " in " + upd.table);
        }
        CHRONO_RETURN_NOT_OK(CheckColumns(expr.get(), view, nullptr));
        sets.emplace_back(col, expr.get());
      }

      // Candidate slots: index probe if the WHERE has a col = const conjunct.
      std::vector<size_t> candidates;
      bool probed = false;
      Scope empty;
      if (upd.where) {
        for (const Expr* conj : sql::CollectConjuncts(upd.where.get())) {
          if (conj->kind != Expr::Kind::kBinary || conj->bin_op != BinOp::kEq) {
            continue;
          }
          const Expr* lhs = conj->children[0].get();
          const Expr* rhs = conj->children[1].get();
          if (lhs->kind != Expr::Kind::kColumnRef) std::swap(lhs, rhs);
          if (lhs->kind != Expr::Kind::kColumnRef || !IsRowFree(rhs)) continue;
          int col = table->ColumnIndex(lhs->column);
          if (col < 0) continue;
          CHRONO_ASSIGN_OR_RETURN(Value key, Eval(*rhs, empty, &ctx));
          candidates = table->Probe(col, key);
          probed = true;
          break;
        }
      }
      if (!probed) {
        candidates.resize(table->slots().size());
        for (size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
      }

      std::vector<size_t> to_update;
      for (size_t slot_index : candidates) {
        const auto& slot = table->slots()[slot_index];
        if (!slot.live) continue;
        ctx.stats.rows_scanned++;
        bool match = true;
        if (upd.where) {
          Row row;
          row.push_back(Value::Int(slot.rowid));
          row.insert(row.end(), slot.values.begin(), slot.values.end());
          Scope scope{&view, &row, nullptr};
          CHRONO_ASSIGN_OR_RETURN(Value cond, Eval(*upd.where, scope, &ctx));
          match = IsTruthy(cond);
        }
        if (match) to_update.push_back(slot_index);
      }
      for (size_t slot_index : to_update) {
        const auto& slot = table->slots()[slot_index];
        Row row;
        row.push_back(Value::Int(slot.rowid));
        row.insert(row.end(), slot.values.begin(), slot.values.end());
        Scope scope{&view, &row, nullptr};
        std::vector<std::pair<int, Value>> changes;
        for (const auto& [col, expr] : sets) {
          CHRONO_ASSIGN_OR_RETURN(Value v, Eval(*expr, scope, &ctx));
          changes.emplace_back(col, std::move(v));
        }
        table->UpdateSlot(slot_index, changes);
        ++out.affected_rows;
      }
      out.stats = ctx.stats;
      if (out.affected_rows > 0) out.tables_written.push_back(upd.table);
      out.tables_read.push_back(upd.table);
      return out;
    }
    case sql::Statement::Kind::kCreateTable: {
      const auto& create = *stmt.create;
      std::vector<ColumnDef> columns;
      columns.reserve(create.columns.size());
      for (const auto& col : create.columns) {
        columns.push_back(ColumnDef{col.name, col.type});
      }
      auto created = catalog_->CreateTable(create.table, std::move(columns));
      if (!created.ok()) return created.status();
      ExecOutcome out;
      out.tables_written.push_back(create.table);
      return out;
    }
    case sql::Statement::Kind::kDelete: {
      const auto& del = *stmt.del;
      Table* table = catalog_->FindTable(del.table);
      if (table == nullptr) return Status::NotFound("no table " + del.table);
      Context ctx;
      ExecOutcome out;
      Relation view;
      view.cols.push_back({del.table, "__rowid"});
      for (const auto& c : table->columns()) view.cols.push_back({del.table, c.name});
      CHRONO_RETURN_NOT_OK(CheckColumns(del.where.get(), view, nullptr));
      std::vector<size_t> to_delete;
      for (size_t i = 0; i < table->slots().size(); ++i) {
        const auto& slot = table->slots()[i];
        if (!slot.live) continue;
        ctx.stats.rows_scanned++;
        bool match = true;
        if (del.where) {
          Row row;
          row.push_back(Value::Int(slot.rowid));
          row.insert(row.end(), slot.values.begin(), slot.values.end());
          Scope scope{&view, &row, nullptr};
          CHRONO_ASSIGN_OR_RETURN(Value cond, Eval(*del.where, scope, &ctx));
          match = IsTruthy(cond);
        }
        if (match) to_delete.push_back(i);
      }
      for (size_t slot_index : to_delete) {
        table->DeleteSlot(slot_index);
        ++out.affected_rows;
      }
      out.stats = ctx.stats;
      if (out.affected_rows > 0) out.tables_written.push_back(del.table);
      out.tables_read.push_back(del.table);
      return out;
    }
  }
  return Status::Internal("unknown statement kind");
}

Result<Executor::Relation> Executor::EvalTableRef(
    const TableRef& ref, Context* ctx, const Scope* outer,
    const std::vector<const Expr*>& filters) {
  Relation rel;
  switch (ref.kind) {
    case TableRef::Kind::kNone:
      return Status::Internal("EvalTableRef on empty ref");
    case TableRef::Kind::kTable: {
      const std::string& qualifier = ref.EffectiveName();
      // CTEs shadow catalog tables. Materialise lazily on first use.
      auto cte_it = ctx->ctes.find(ref.table_name);
      if (cte_it == ctx->ctes.end()) {
        auto def_it = ctx->cte_defs.find(ref.table_name);
        if (def_it != ctx->cte_defs.end()) {
          CHRONO_ASSIGN_OR_RETURN(Relation cte_rel,
                                  EvalSelect(*def_it->second, ctx, nullptr));
          for (auto& col : cte_rel.cols) col.qualifier = ref.table_name;
          cte_it =
              ctx->ctes.emplace(ref.table_name, std::move(cte_rel)).first;
        }
      }
      if (cte_it != ctx->ctes.end()) {
        rel.cols.reserve(cte_it->second.cols.size());
        for (const auto& col : cte_it->second.cols) {
          rel.cols.push_back({qualifier, col.name});
        }
        rel.rows = cte_it->second.rows;
        ctx->stats.rows_scanned += rel.rows.size();
        return rel;
      }
      Table* table = catalog_->FindTable(ref.table_name);
      if (table == nullptr) {
        return Status::NotFound("no table or CTE named " + ref.table_name);
      }
      ctx->tables_read.insert(ref.table_name);
      rel.cols.push_back({qualifier, "__rowid"});
      for (const auto& c : table->columns()) rel.cols.push_back({qualifier, c.name});

      // Filter pushdown: use a hash index if some conjunct pins a column of
      // this table to an expression evaluable without this table's row —
      // either literal-only, or (inside a correlated LATERAL body)
      // resolvable in the outer scope. When several conjuncts are pushable
      // (e.g. a per-loop constant AND a correlated join key, Fig. 4), pick
      // the most selective index bucket — hash probes are O(1), so probing
      // every candidate first is cheap.
      Scope probe_scope{nullptr, nullptr, outer};
      const std::vector<size_t>* best = nullptr;
      for (const Expr* conj : filters) {
        if (conj->kind != Expr::Kind::kBinary || conj->bin_op != BinOp::kEq) {
          continue;
        }
        const Expr* lhs = conj->children[0].get();
        const Expr* rhs = conj->children[1].get();
        if (lhs->kind != Expr::Kind::kColumnRef) std::swap(lhs, rhs);
        if (lhs->kind != Expr::Kind::kColumnRef) continue;
        if (!lhs->table.empty() && lhs->table != qualifier) continue;
        int col = table->ColumnIndex(lhs->column);
        if (col < 0) continue;
        Value key;
        if (IsRowFree(rhs)) {
          Scope empty;
          CHRONO_ASSIGN_OR_RETURN(key, Eval(*rhs, empty, ctx));
        } else {
          // Reject expressions that might resolve against this table:
          // every column reference must carry a foreign qualifier.
          bool foreign_only = true;
          VisitExpr(const_cast<Expr*>(rhs), [&](Expr* e) {
            if (e->kind == Expr::Kind::kColumnRef &&
                (e->table.empty() || e->table == qualifier)) {
              foreign_only = false;
            }
          });
          if (!foreign_only || outer == nullptr) continue;
          auto outer_key = Eval(*rhs, probe_scope, ctx);
          if (!outer_key.ok()) continue;  // not outer-resolvable: no push
          key = std::move(*outer_key);
        }
        const std::vector<size_t>& probe = table->Probe(col, key);
        if (best == nullptr || probe.size() < best->size()) best = &probe;
        if (best->empty()) break;
      }
      if (best != nullptr) {
        for (size_t slot_index : *best) {
          const auto& slot = table->slots()[slot_index];
          if (!slot.live) continue;
          Row row;
          row.reserve(slot.values.size() + 1);
          row.push_back(Value::Int(slot.rowid));
          row.insert(row.end(), slot.values.begin(), slot.values.end());
          rel.rows.push_back(std::move(row));
        }
        ctx->stats.rows_scanned += rel.rows.size() + 1;
        return rel;
      }

      // Full scan.
      for (const auto& slot : table->slots()) {
        if (!slot.live) continue;
        Row row;
        row.reserve(slot.values.size() + 1);
        row.push_back(Value::Int(slot.rowid));
        row.insert(row.end(), slot.values.begin(), slot.values.end());
        rel.rows.push_back(std::move(row));
      }
      ctx->stats.rows_scanned += rel.rows.size();
      return rel;
    }
    case TableRef::Kind::kSubquery:
    case TableRef::Kind::kLateralSubquery: {
      const Scope* visible =
          ref.kind == TableRef::Kind::kLateralSubquery ? outer : nullptr;
      CHRONO_ASSIGN_OR_RETURN(Relation sub,
                              EvalSelect(*ref.subquery, ctx, visible));
      for (auto& col : sub.cols) col.qualifier = ref.EffectiveName();
      return sub;
    }
  }
  return Status::Internal("unreachable");
}

Result<Executor::Relation> Executor::EvalFromChain(const SelectStmt& stmt,
                                                   Context* ctx,
                                                   const Scope* outer) {
  std::vector<const Expr*> where_conjuncts =
      sql::CollectConjuncts(stmt.where.get());

  CHRONO_ASSIGN_OR_RETURN(
      Relation current, EvalTableRef(stmt.from, ctx, outer, where_conjuncts));

  // Rewrites `LEFT JOIN <unmaterialised CTE> ON cte.out = prior.col` into a
  // correlated LATERAL with the key pushed into the CTE body's WHERE — the
  // index-nested-loop plan a production optimiser picks for the query
  // combiner's stripped-filter CTEs (§4.1). Returns true on success.
  auto try_pushdown = [&](const JoinClause& join,
                          JoinClause* rewritten) -> bool {
    if (join.ref.kind != TableRef::Kind::kTable || !join.on) return false;
    if (join.type == JoinClause::Type::kCross) return false;
    const std::string& name = join.ref.table_name;
    if (ctx->ctes.count(name) > 0) return false;  // already materialised
    auto def_it = ctx->cte_defs.find(name);
    if (def_it == ctx->cte_defs.end()) return false;
    const SelectStmt& body = *def_it->second;
    // Eligibility: single-base-table SPJ body with plain projection.
    if (!body.ctes.empty() || body.distinct || !body.group_by.empty() ||
        body.having || !body.order_by.empty() || body.limit.has_value() ||
        !body.joins.empty() || body.from.kind != TableRef::Kind::kTable) {
      return false;
    }
    if (ctx->cte_defs.count(body.from.table_name) > 0 ||
        ctx->ctes.count(body.from.table_name) > 0) {
      return false;  // body reads another CTE: materialise instead
    }
    for (const auto& item : body.items) {
      if (item.is_star) return false;
      if (ContainsAggregate(item.expr.get()) ||
          item.expr->kind == Expr::Kind::kRowNumber) {
        return false;
      }
    }
    const std::string& alias = join.ref.EffectiveName();
    // Find a pushable equality: cte_output = foreign expression.
    std::vector<ExprPtr> pushed;
    for (const Expr* conj : sql::CollectConjuncts(join.on.get())) {
      if (conj->kind != Expr::Kind::kBinary || conj->bin_op != BinOp::kEq) {
        continue;
      }
      const Expr* lhs = conj->children[0].get();
      const Expr* rhs = conj->children[1].get();
      if (lhs->kind != Expr::Kind::kColumnRef || lhs->table != alias) {
        std::swap(lhs, rhs);
      }
      if (lhs->kind != Expr::Kind::kColumnRef || lhs->table != alias) continue;
      bool foreign_only = true;
      VisitExpr(const_cast<Expr*>(rhs), [&](Expr* e) {
        if (e->kind == Expr::Kind::kColumnRef &&
            (e->table.empty() || e->table == alias)) {
          foreign_only = false;
        }
      });
      if (!foreign_only) continue;
      // Map the CTE output column back to its defining expression.
      const Expr* def_expr = nullptr;
      for (size_t i = 0; i < body.items.size(); ++i) {
        std::string out_name = OutputName(body.items[i], i);
        if (out_name == lhs->column) {
          def_expr = body.items[i].expr.get();
          break;
        }
      }
      if (def_expr == nullptr || def_expr->kind != Expr::Kind::kColumnRef) {
        continue;
      }
      pushed.push_back(Expr::MakeBinary(BinOp::kEq, def_expr->Clone(),
                                        rhs->Clone()));
    }
    if (pushed.empty()) return false;

    rewritten->type = join.type;
    rewritten->on = join.on->Clone();
    rewritten->ref.kind = TableRef::Kind::kLateralSubquery;
    rewritten->ref.alias = alias;
    rewritten->ref.subquery = body.Clone();
    std::vector<ExprPtr> conjuncts;
    if (rewritten->ref.subquery->where) {
      conjuncts.push_back(std::move(rewritten->ref.subquery->where));
    }
    for (auto& p : pushed) conjuncts.push_back(std::move(p));
    rewritten->ref.subquery->where =
        sql::CombineConjuncts(std::move(conjuncts));
    return true;
  };

  for (const auto& join_orig : stmt.joins) {
    JoinClause rewritten;
    const JoinClause& join =
        try_pushdown(join_orig, &rewritten) ? rewritten : join_orig;
    const bool lateral = join.ref.kind == TableRef::Kind::kLateralSubquery;
    Relation next;

    if (lateral) {
      // Per-row correlated execution: the subquery sees the current row.
      Relation combined;
      bool combined_init = false;
      for (const auto& row : current.rows) {
        Scope row_scope{&current, &row, outer};
        CHRONO_ASSIGN_OR_RETURN(Relation sub,
                                EvalTableRef(join.ref, ctx, &row_scope, {}));
        if (!combined_init) {
          combined.cols = current.cols;
          for (const auto& col : sub.cols) combined.cols.push_back(col);
          combined_init = true;
        }
        bool matched = false;
        for (const auto& srow : sub.rows) {
          Row out = row;
          out.insert(out.end(), srow.begin(), srow.end());
          // Evaluate residual ON condition if present.
          if (join.on) {
            Scope pair_scope{&combined, &out, outer};
            CHRONO_ASSIGN_OR_RETURN(Value cond, Eval(*join.on, pair_scope, ctx));
            if (!IsTruthy(cond)) continue;
          }
          combined.rows.push_back(std::move(out));
          matched = true;
          ctx->stats.rows_scanned++;
        }
        if (!matched && join.type == JoinClause::Type::kLeft) {
          Row out = row;
          size_t sub_width = combined.cols.size() - current.cols.size();
          for (size_t i = 0; i < sub_width; ++i) out.push_back(Value::Null());
          combined.rows.push_back(std::move(out));
        }
      }
      if (!combined_init) {
        // No input rows: derive the output shape from the subquery's
        // select list (correlated bodies cannot execute without a row).
        combined.cols = current.cols;
        const SelectStmt& body = *join.ref.subquery;
        bool star = false;
        for (const auto& item : body.items) {
          if (item.is_star) star = true;
        }
        if (star) {
          Scope empty_scope{&current, nullptr, outer};
          CHRONO_ASSIGN_OR_RETURN(
              Relation sub, EvalTableRef(join.ref, ctx, &empty_scope, {}));
          for (const auto& col : sub.cols) combined.cols.push_back(col);
        } else {
          for (size_t i = 0; i < body.items.size(); ++i) {
            combined.cols.push_back(
                {join.ref.EffectiveName(), OutputName(body.items[i], i)});
          }
        }
      }
      CHRONO_RETURN_NOT_OK(CheckColumns(join.on.get(), combined, outer));
      current = std::move(combined);
      continue;
    }

    CHRONO_ASSIGN_OR_RETURN(next, EvalTableRef(join.ref, ctx, outer, {}));

    Relation combined;
    combined.cols = current.cols;
    for (const auto& col : next.cols) combined.cols.push_back(col);
    CHRONO_RETURN_NOT_OK(CheckColumns(join.on.get(), combined, outer));

    if (join.type == JoinClause::Type::kCross) {
      combined.rows.reserve(current.rows.size() * next.rows.size());
      for (const auto& lrow : current.rows) {
        for (const auto& rrow : next.rows) {
          Row out;
          out.reserve(lrow.size() + rrow.size());
          out.insert(out.end(), lrow.begin(), lrow.end());
          out.insert(out.end(), rrow.begin(), rrow.end());
          combined.rows.push_back(std::move(out));
          ctx->stats.rows_scanned++;
        }
      }
      current = std::move(combined);
      continue;
    }

    // Find a hash-joinable equality conjunct in the ON clause: one side
    // resolving in `current`, the other in `next`.
    std::vector<const Expr*> on_conjuncts = sql::CollectConjuncts(join.on.get());
    const Expr* left_key = nullptr;
    const Expr* right_key = nullptr;
    const Expr* hash_conjunct = nullptr;
    for (const Expr* conj : on_conjuncts) {
      if (conj->kind != Expr::Kind::kBinary || conj->bin_op != BinOp::kEq) {
        continue;
      }
      const Expr* a = conj->children[0].get();
      const Expr* b = conj->children[1].get();
      if (a->kind != Expr::Kind::kColumnRef || b->kind != Expr::Kind::kColumnRef) {
        continue;
      }
      bool a_left = current.Find(a->table, a->column) >= 0;
      bool a_right = next.Find(a->table, a->column) >= 0;
      bool b_left = current.Find(b->table, b->column) >= 0;
      bool b_right = next.Find(b->table, b->column) >= 0;
      if (a_left && !a_right && b_right && !b_left) {
        left_key = a;
        right_key = b;
        hash_conjunct = conj;
        break;
      }
      if (b_left && !b_right && a_right && !a_left) {
        left_key = b;
        right_key = a;
        hash_conjunct = conj;
        break;
      }
    }

    auto eval_residual = [&](const Row& out) -> Result<bool> {
      Scope pair_scope{&combined, &out, outer};
      for (const Expr* conj : on_conjuncts) {
        if (conj == hash_conjunct) continue;
        CHRONO_ASSIGN_OR_RETURN(Value cond, Eval(*conj, pair_scope, ctx));
        if (!IsTruthy(cond)) return false;
      }
      return true;
    };

    if (left_key != nullptr) {
      // Hash join: build on the right side, probe with the left. Keys are
      // Values hashed directly (no literal rendering); ValueKeyEq matches
      // EqualsSql, so int and double join keys unify just as `=` would.
      int rk = next.Find(right_key->table, right_key->column);
      std::unordered_map<Value, std::vector<size_t>, sql::ValueHash,
                         sql::ValueKeyEq>
          build;
      build.reserve(next.rows.size());
      for (size_t i = 0; i < next.rows.size(); ++i) {
        const Value& v = next.rows[i][static_cast<size_t>(rk)];
        if (v.is_null()) continue;  // NULL never equi-joins
        build[v].push_back(i);
        ctx->stats.rows_scanned++;
      }
      int lk = current.Find(left_key->table, left_key->column);
      for (const auto& lrow : current.rows) {
        const Value& key = lrow[static_cast<size_t>(lk)];
        bool matched = false;
        if (!key.is_null()) {
          auto it = build.find(key);
          if (it != build.end()) {
            for (size_t ri : it->second) {
              Row out;
              out.reserve(lrow.size() + next.rows[ri].size());
              out.insert(out.end(), lrow.begin(), lrow.end());
              out.insert(out.end(), next.rows[ri].begin(), next.rows[ri].end());
              ctx->stats.rows_scanned++;
              CHRONO_ASSIGN_OR_RETURN(bool pass, eval_residual(out));
              if (!pass) continue;
              combined.rows.push_back(std::move(out));
              matched = true;
            }
          }
        }
        if (!matched && join.type == JoinClause::Type::kLeft) {
          Row out = lrow;
          for (size_t i = 0; i < next.cols.size(); ++i) out.push_back(Value::Null());
          combined.rows.push_back(std::move(out));
        }
      }
      current = std::move(combined);
      continue;
    }

    // Fallback: nested loop.
    for (const auto& lrow : current.rows) {
      bool matched = false;
      for (const auto& rrow : next.rows) {
        Row out = lrow;
        out.insert(out.end(), rrow.begin(), rrow.end());
        ctx->stats.rows_scanned++;
        Scope pair_scope{&combined, &out, outer};
        bool pass = true;
        if (join.on) {
          CHRONO_ASSIGN_OR_RETURN(Value cond, Eval(*join.on, pair_scope, ctx));
          pass = IsTruthy(cond);
        }
        if (!pass) continue;
        combined.rows.push_back(std::move(out));
        matched = true;
      }
      if (!matched && join.type == JoinClause::Type::kLeft) {
        Row out = lrow;
        for (size_t i = 0; i < next.cols.size(); ++i) out.push_back(Value::Null());
        combined.rows.push_back(std::move(out));
      }
    }
    current = std::move(combined);
  }
  return current;
}

Result<Executor::Relation> Executor::EvalSelect(const SelectStmt& stmt,
                                                Context* ctx,
                                                const Scope* outer) {
  // Register CTE definitions; they materialise lazily on first reference
  // (join sites may avoid materialisation entirely via key pushdown).
  // Visibility is statement-scoped, so save/restore shadowed names.
  std::vector<std::pair<std::string, Relation>> shadowed;
  std::vector<std::pair<std::string, const SelectStmt*>> shadowed_defs;
  std::vector<std::string> added;
  std::vector<std::string> added_defs;
  for (const auto& cte : stmt.ctes) {
    auto it = ctx->ctes.find(cte.name);
    if (it != ctx->ctes.end()) {
      shadowed.emplace_back(cte.name, std::move(it->second));
      ctx->ctes.erase(it);
      added.push_back(cte.name);  // ensure cleanup of any lazy result
    }
    auto def_it = ctx->cte_defs.find(cte.name);
    if (def_it != ctx->cte_defs.end()) {
      shadowed_defs.emplace_back(cte.name, def_it->second);
      def_it->second = cte.query.get();
    } else {
      ctx->cte_defs.emplace(cte.name, cte.query.get());
      added_defs.push_back(cte.name);
    }
  }
  auto restore = [&]() {
    for (const auto& name : added) ctx->ctes.erase(name);
    for (const auto& cte : stmt.ctes) ctx->ctes.erase(cte.name);
    for (auto& [name, rel] : shadowed) ctx->ctes[name] = std::move(rel);
    for (const auto& name : added_defs) ctx->cte_defs.erase(name);
    for (auto& [name, def] : shadowed_defs) ctx->cte_defs[name] = def;
  };

  Relation source;
  if (stmt.from.kind == TableRef::Kind::kNone) {
    // SELECT without FROM: a single empty source row.
    source.rows.push_back({});
  } else {
    auto from_result = EvalFromChain(stmt, ctx, outer);
    if (!from_result.ok()) {
      restore();
      return from_result.status();
    }
    source = std::move(from_result).value();
  }

  // Every column reference resolves before any row is evaluated; ORDER BY
  // is checked once the output columns are known.
  {
    Status resolved = CheckColumns(stmt.where.get(), source, outer);
    for (const auto& item : stmt.items) {
      if (resolved.ok() && !item.is_star) {
        resolved = CheckColumns(item.expr.get(), source, outer);
      }
    }
    for (const auto& g : stmt.group_by) {
      if (resolved.ok()) resolved = CheckColumns(g.get(), source, outer);
    }
    if (resolved.ok()) {
      resolved = CheckColumns(stmt.having.get(), source, outer);
    }
    if (!resolved.ok()) {
      restore();
      return resolved;
    }
  }

  // WHERE.
  std::vector<size_t> selected;
  for (size_t i = 0; i < source.rows.size(); ++i) {
    if (stmt.where) {
      Scope scope{&source, &source.rows[i], outer};
      auto cond = Eval(*stmt.where, scope, ctx);
      if (!cond.ok()) {
        restore();
        return cond.status();
      }
      if (!IsTruthy(*cond)) continue;
    }
    selected.push_back(i);
  }

  bool has_aggregates = false;
  for (const auto& item : stmt.items) {
    if (item.expr && ContainsAggregate(item.expr.get())) has_aggregates = true;
  }
  if (ContainsAggregate(stmt.having.get())) has_aggregates = true;
  const bool grouped = has_aggregates || !stmt.group_by.empty();

  Relation output;
  // Maps output row -> representative source row (for ORDER BY fallback).
  std::vector<size_t> output_source;

  auto project_name = [&](size_t idx) {
    return OutputName(stmt.items[idx], idx);
  };

  if (grouped) {
    // Partition `selected` into groups.
    std::vector<std::vector<size_t>> groups;
    if (stmt.group_by.empty()) {
      groups.push_back(selected);  // single (possibly empty) group
    } else {
      // Rows hash by their evaluated key tuple directly — no per-row
      // literal rendering or string concatenation.
      std::unordered_map<Row, size_t, sql::RowHash, sql::RowEq> group_index;
      Row key_row;
      for (size_t idx : selected) {
        Scope scope{&source, &source.rows[idx], outer};
        key_row.clear();
        key_row.reserve(stmt.group_by.size());
        for (const auto& g : stmt.group_by) {
          auto v = Eval(*g, scope, ctx);
          if (!v.ok()) {
            restore();
            return v.status();
          }
          key_row.push_back(std::move(*v));
        }
        auto [it, inserted] = group_index.emplace(key_row, groups.size());
        if (inserted) groups.emplace_back();
        groups[it->second].push_back(idx);
      }
    }

    // Output columns.
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      if (stmt.items[i].is_star) {
        restore();
        return Status::Unsupported("SELECT * with aggregates/GROUP BY");
      }
      output.cols.push_back({"", project_name(i)});
    }

    for (const auto& group : groups) {
      if (group.empty() && !stmt.group_by.empty()) continue;
      if (stmt.having) {
        auto hv = EvalAggregate(*stmt.having, source, group, outer, ctx);
        if (!hv.ok()) {
          restore();
          return hv.status();
        }
        if (!IsTruthy(*hv)) continue;
      }
      Row out_row;
      for (const auto& item : stmt.items) {
        // ROW_NUMBER() over an aggregated result numbers output groups
        // (the lateral-union combiner's induced candidate key, §4.2).
        if (item.expr->kind == Expr::Kind::kRowNumber) {
          out_row.push_back(
              Value::Int(static_cast<int64_t>(output.rows.size()) + 1));
          continue;
        }
        auto v = EvalAggregate(*item.expr, source, group, outer, ctx);
        if (!v.ok()) {
          restore();
          return v.status();
        }
        out_row.push_back(std::move(*v));
      }
      output.rows.push_back(std::move(out_row));
      output_source.push_back(group.empty() ? SIZE_MAX : group.front());
    }
  } else {
    // Plain projection. Expand stars against the source relation.
    struct OutCol {
      bool from_source;
      size_t source_index;        // when from_source
      const sql::SelectItem* item;  // when !from_source
      std::string name;
    };
    std::vector<OutCol> plan;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const auto& item = stmt.items[i];
      if (item.is_star) {
        for (size_t c = 0; c < source.cols.size(); ++c) {
          if (!item.star_qualifier.empty() &&
              source.cols[c].qualifier != item.star_qualifier) {
            continue;
          }
          if (source.cols[c].name == "__rowid") continue;  // hidden
          plan.push_back({true, c, nullptr, source.cols[c].name});
        }
      } else {
        plan.push_back({false, 0, &item, project_name(i)});
      }
    }
    for (const auto& p : plan) output.cols.push_back({"", p.name});

    output.rows.reserve(selected.size());
    output_source.reserve(selected.size());
    int64_t row_number = 0;
    for (size_t idx : selected) {
      Scope scope{&source, &source.rows[idx], outer};
      ++row_number;
      Row out_row;
      out_row.reserve(plan.size());
      bool failed = false;
      for (const auto& p : plan) {
        if (p.from_source) {
          out_row.push_back(source.rows[idx][p.source_index]);
          continue;
        }
        if (p.item->expr->kind == Expr::Kind::kRowNumber) {
          out_row.push_back(Value::Int(row_number));
          continue;
        }
        auto v = Eval(*p.item->expr, scope, ctx);
        if (!v.ok()) {
          restore();
          return v.status();
        }
        out_row.push_back(std::move(*v));
        (void)failed;
      }
      output.rows.push_back(std::move(out_row));
      output_source.push_back(idx);
    }
  }

  // DISTINCT: dedup on the row values themselves (first occurrence wins,
  // preserving output order).
  if (stmt.distinct) {
    std::unordered_set<Row, sql::RowHash, sql::RowEq> seen;
    seen.reserve(output.rows.size());
    Relation dedup;
    dedup.cols = output.cols;
    dedup.rows.reserve(output.rows.size());
    std::vector<size_t> dedup_source;
    for (size_t i = 0; i < output.rows.size(); ++i) {
      if (seen.insert(output.rows[i]).second) {
        dedup.rows.push_back(std::move(output.rows[i]));
        dedup_source.push_back(output_source[i]);
      }
    }
    output = std::move(dedup);
    output_source = std::move(dedup_source);
  }

  // ORDER BY: resolve against output columns first, then (for non-grouped
  // queries) fall back to the source row.
  for (const auto& ob : stmt.order_by) {
    Status resolved = CheckColumns(ob.expr.get(), output, nullptr);
    if (!resolved.ok() && !grouped) {
      resolved = CheckColumns(ob.expr.get(), source, outer);
    }
    if (!resolved.ok()) {
      restore();
      return resolved;
    }
  }
  if (!stmt.order_by.empty() && !output.rows.empty()) {
    std::vector<size_t> order(output.rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;

    // Precompute sort keys.
    std::vector<Row> keys(output.rows.size());
    for (size_t i = 0; i < output.rows.size(); ++i) {
      keys[i].reserve(stmt.order_by.size());
      for (const auto& ob : stmt.order_by) {
        Scope out_scope{&output, &output.rows[i], nullptr};
        auto v = Eval(*ob.expr, out_scope, ctx);
        if (!v.ok() && !grouped && output_source[i] != SIZE_MAX) {
          Scope src_scope{&source, &source.rows[output_source[i]], outer};
          v = Eval(*ob.expr, src_scope, ctx);
        }
        if (!v.ok()) {
          restore();
          return v.status();
        }
        keys[i].push_back(std::move(*v));
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < stmt.order_by.size(); ++k) {
        int c = keys[a][k].Compare(keys[b][k]);
        if (c != 0) return stmt.order_by[k].desc ? c > 0 : c < 0;
      }
      return false;
    });
    Relation sorted;
    sorted.cols = output.cols;
    sorted.rows.reserve(order.size());
    for (size_t i : order) sorted.rows.push_back(std::move(output.rows[i]));
    output = std::move(sorted);
  }

  // LIMIT.
  if (stmt.limit.has_value() &&
      output.rows.size() > static_cast<size_t>(*stmt.limit)) {
    output.rows.resize(static_cast<size_t>(*stmt.limit));
  }

  restore();
  return output;
}

Result<Value> Executor::EvalAggregate(const Expr& expr, const Relation& rel,
                                      const std::vector<size_t>& group_rows,
                                      const Scope* outer, Context* ctx) {
  switch (expr.kind) {
    case Expr::Kind::kFuncCall: {
      if (IsAggregateName(expr.func_name)) {
        const std::string& fn = expr.func_name;
        if (fn == "count") {
          if (!expr.children.empty() &&
              expr.children[0]->kind != Expr::Kind::kStar) {
            int64_t n = 0;
            for (size_t idx : group_rows) {
              Scope scope{&rel, &rel.rows[idx], outer};
              CHRONO_ASSIGN_OR_RETURN(Value v,
                                      Eval(*expr.children[0], scope, ctx));
              if (!v.is_null()) ++n;
            }
            return Value::Int(n);
          }
          return Value::Int(static_cast<int64_t>(group_rows.size()));
        }
        // sum/avg/min/max over child expression.
        if (expr.children.empty()) {
          return Status::InvalidArgument(fn + " requires an argument");
        }
        bool any = false;
        double sum = 0;
        Value min_v;
        Value max_v;
        int64_t n = 0;
        bool all_int = true;
        for (size_t idx : group_rows) {
          Scope scope{&rel, &rel.rows[idx], outer};
          CHRONO_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[0], scope, ctx));
          if (v.is_null()) continue;
          if (!any) {
            min_v = v;
            max_v = v;
          } else {
            if (v.Compare(min_v) < 0) min_v = v;
            if (v.Compare(max_v) > 0) max_v = v;
          }
          if (v.type() != Value::Type::kString) {
            sum += v.AsDouble();
            if (v.type() != Value::Type::kInt) all_int = false;
          }
          ++n;
          any = true;
        }
        if (fn == "min") return any ? min_v : Value::Null();
        if (fn == "max") return any ? max_v : Value::Null();
        if (!any) return Value::Null();
        if (fn == "sum") {
          if (all_int) return Value::Int(static_cast<int64_t>(sum));
          return Value::Double(sum);
        }
        // avg
        return Value::Double(sum / static_cast<double>(n));
      }
      // Scalar function over aggregated children.
      std::vector<Value> args;
      for (const auto& c : expr.children) {
        CHRONO_ASSIGN_OR_RETURN(Value v,
                                EvalAggregate(*c, rel, group_rows, outer, ctx));
        args.push_back(std::move(v));
      }
      // Re-dispatch through Eval's scalar function logic via a literal tree.
      Expr call;
      call.kind = Expr::Kind::kFuncCall;
      call.func_name = expr.func_name;
      for (auto& a : args) call.children.push_back(Expr::MakeLiteral(std::move(a)));
      Scope empty;
      return Eval(call, empty, ctx);
    }
    case Expr::Kind::kBinary: {
      if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
        CHRONO_ASSIGN_OR_RETURN(
            Value lhs, EvalAggregate(*expr.children[0], rel, group_rows, outer, ctx));
        CHRONO_ASSIGN_OR_RETURN(
            Value rhs, EvalAggregate(*expr.children[1], rel, group_rows, outer, ctx));
        bool l = IsTruthy(lhs);
        bool r = IsTruthy(rhs);
        return Value::Int((expr.bin_op == BinOp::kAnd) ? (l && r) : (l || r));
      }
      CHRONO_ASSIGN_OR_RETURN(
          Value lhs, EvalAggregate(*expr.children[0], rel, group_rows, outer, ctx));
      CHRONO_ASSIGN_OR_RETURN(
          Value rhs, EvalAggregate(*expr.children[1], rel, group_rows, outer, ctx));
      Expr op;
      op.kind = Expr::Kind::kBinary;
      op.bin_op = expr.bin_op;
      op.children.push_back(Expr::MakeLiteral(std::move(lhs)));
      op.children.push_back(Expr::MakeLiteral(std::move(rhs)));
      Scope empty;
      return Eval(op, empty, ctx);
    }
    case Expr::Kind::kUnary: {
      CHRONO_ASSIGN_OR_RETURN(
          Value v, EvalAggregate(*expr.children[0], rel, group_rows, outer, ctx));
      Expr op;
      op.kind = Expr::Kind::kUnary;
      op.un_op = expr.un_op;
      op.children.push_back(Expr::MakeLiteral(std::move(v)));
      Scope empty;
      return Eval(op, empty, ctx);
    }
    default: {
      // Non-aggregate leaf: evaluate against the group's first row (it must
      // be functionally dependent on the group key, as in standard SQL).
      if (group_rows.empty()) {
        // No row: every (already resolved) column reads NULL.
        const Row nulls(rel.cols.size(), Value::Null());
        Scope scope{&rel, &nulls, outer};
        return Eval(expr, scope, ctx);
      }
      Scope scope{&rel, &rel.rows[group_rows.front()], outer};
      return Eval(expr, scope, ctx);
    }
  }
}

Status Executor::CheckColumns(const Expr* expr, const Relation& rel,
                              const Scope* outer) {
  if (expr == nullptr) return Status::OK();
  if (expr->kind == Expr::Kind::kColumnRef) {
    bool found = rel.Find(expr->table, expr->column) >= 0;
    for (const Scope* s = outer; !found && s != nullptr; s = s->outer) {
      found = s->rel != nullptr && s->rel->Find(expr->table, expr->column) >= 0;
    }
    if (!found) {
      return Status::NotFound(
          "column not found: " +
          (expr->table.empty() ? expr->column
                               : expr->table + "." + expr->column));
    }
  }
  for (const auto& c : expr->children) {
    CHRONO_RETURN_NOT_OK(CheckColumns(c.get(), rel, outer));
  }
  return Status::OK();
}

Result<Value> Executor::Eval(const Expr& expr, const Scope& scope,
                             Context* ctx) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kParam:
      return Status::InvalidArgument(
          "unbound parameter ? in executable statement");
    case Expr::Kind::kColumnRef: {
      for (const Scope* s = &scope; s != nullptr; s = s->outer) {
        if (s->rel == nullptr || s->row == nullptr) continue;
        int idx = s->rel->Find(expr.table, expr.column);
        if (idx >= 0) return (*s->row)[static_cast<size_t>(idx)];
      }
      return Status::NotFound("column not found: " +
                              (expr.table.empty() ? expr.column
                                                  : expr.table + "." + expr.column));
    }
    case Expr::Kind::kUnary: {
      CHRONO_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[0], scope, ctx));
      if (expr.un_op == UnOp::kNot) return Value::Int(IsTruthy(v) ? 0 : 1);
      if (v.is_null()) return Value::Null();
      if (v.type() == Value::Type::kInt) return Value::Int(-v.AsInt());
      return Value::Double(-v.AsDouble());
    }
    case Expr::Kind::kBinary: {
      if (expr.bin_op == BinOp::kAnd) {
        CHRONO_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.children[0], scope, ctx));
        if (!IsTruthy(lhs)) return Value::Int(0);
        CHRONO_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.children[1], scope, ctx));
        return Value::Int(IsTruthy(rhs) ? 1 : 0);
      }
      if (expr.bin_op == BinOp::kOr) {
        CHRONO_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.children[0], scope, ctx));
        if (IsTruthy(lhs)) return Value::Int(1);
        CHRONO_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.children[1], scope, ctx));
        return Value::Int(IsTruthy(rhs) ? 1 : 0);
      }
      CHRONO_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.children[0], scope, ctx));
      CHRONO_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.children[1], scope, ctx));
      switch (expr.bin_op) {
        case BinOp::kEq:
          if (lhs.is_null() || rhs.is_null()) return Value::Null();
          return Value::Int(lhs.EqualsSql(rhs) ? 1 : 0);
        case BinOp::kNe:
          if (lhs.is_null() || rhs.is_null()) return Value::Null();
          return Value::Int(lhs.EqualsSql(rhs) ? 0 : 1);
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe: {
          if (lhs.is_null() || rhs.is_null()) return Value::Null();
          int c = lhs.Compare(rhs);
          bool r = false;
          if (expr.bin_op == BinOp::kLt) r = c < 0;
          if (expr.bin_op == BinOp::kLe) r = c <= 0;
          if (expr.bin_op == BinOp::kGt) r = c > 0;
          if (expr.bin_op == BinOp::kGe) r = c >= 0;
          return Value::Int(r ? 1 : 0);
        }
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv: {
          if (lhs.is_null() || rhs.is_null()) return Value::Null();
          if (lhs.type() == Value::Type::kString ||
              rhs.type() == Value::Type::kString) {
            return Status::ExecutionError("arithmetic on string value");
          }
          bool ints = lhs.type() == Value::Type::kInt &&
                      rhs.type() == Value::Type::kInt;
          double a = lhs.AsDouble();
          double b = rhs.AsDouble();
          switch (expr.bin_op) {
            case BinOp::kAdd:
              return ints ? Value::Int(lhs.AsInt() + rhs.AsInt())
                          : Value::Double(a + b);
            case BinOp::kSub:
              return ints ? Value::Int(lhs.AsInt() - rhs.AsInt())
                          : Value::Double(a - b);
            case BinOp::kMul:
              return ints ? Value::Int(lhs.AsInt() * rhs.AsInt())
                          : Value::Double(a * b);
            case BinOp::kDiv:
              if (b == 0) return Status::ExecutionError("division by zero");
              if (ints) return Value::Int(lhs.AsInt() / rhs.AsInt());
              return Value::Double(a / b);
            default:
              break;
          }
          return Status::Internal("unreachable arithmetic");
        }
        default:
          return Status::Internal("unreachable binop");
      }
    }
    case Expr::Kind::kFuncCall: {
      if (IsAggregateName(expr.func_name)) {
        return Status::ExecutionError("aggregate " + expr.func_name +
                                      " in row-wise context");
      }
      std::vector<Value> args;
      for (const auto& c : expr.children) {
        CHRONO_ASSIGN_OR_RETURN(Value v, Eval(*c, scope, ctx));
        args.push_back(std::move(v));
      }
      const std::string& fn = expr.func_name;
      if (fn == "concat") {
        std::string out;
        for (const auto& a : args) {
          if (!a.is_null()) out += a.ToDisplayString();
        }
        return Value::String(std::move(out));
      }
      if (fn == "abs" && args.size() == 1) {
        if (args[0].is_null()) return Value::Null();
        if (args[0].type() == Value::Type::kInt) {
          return Value::Int(std::abs(args[0].AsInt()));
        }
        return Value::Double(std::fabs(args[0].AsDouble()));
      }
      if (fn == "coalesce") {
        for (auto& a : args) {
          if (!a.is_null()) return std::move(a);
        }
        return Value::Null();
      }
      if (fn == "length" && args.size() == 1) {
        if (args[0].is_null()) return Value::Null();
        return Value::Int(static_cast<int64_t>(args[0].ToDisplayString().size()));
      }
      if ((fn == "upper" || fn == "lower") && args.size() == 1) {
        if (args[0].is_null()) return Value::Null();
        std::string s = args[0].ToDisplayString();
        for (char& c : s) {
          c = fn == "upper"
                  ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                  : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        return Value::String(std::move(s));
      }
      if (fn == "substr" && (args.size() == 2 || args.size() == 3)) {
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        const std::string s = args[0].ToDisplayString();
        // SQL substr is 1-based; clamp to the string bounds.
        int64_t start = args[1].AsInt();
        if (start < 1) start = 1;
        if (start > static_cast<int64_t>(s.size())) return Value::String("");
        size_t from = static_cast<size_t>(start - 1);
        size_t count = std::string::npos;
        if (args.size() == 3) {
          if (args[2].is_null()) return Value::Null();
          int64_t n = args[2].AsInt();
          count = n <= 0 ? 0 : static_cast<size_t>(n);
        }
        return Value::String(s.substr(from, count));
      }
      if (fn == "mod" && args.size() == 2) {
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        int64_t d = args[1].AsInt();
        if (d == 0) return Status::ExecutionError("mod by zero");
        return Value::Int(args[0].AsInt() % d);
      }
      if ((fn == "round" || fn == "floor" || fn == "ceil") &&
          args.size() == 1) {
        if (args[0].is_null()) return Value::Null();
        if (args[0].type() == Value::Type::kString) {
          return Status::ExecutionError(fn + " on string value");
        }
        double d = args[0].AsDouble();
        if (fn == "round") return Value::Int(static_cast<int64_t>(std::llround(d)));
        if (fn == "floor") return Value::Int(static_cast<int64_t>(std::floor(d)));
        return Value::Int(static_cast<int64_t>(std::ceil(d)));
      }
      return Status::Unsupported("unknown function " + fn);
    }
    case Expr::Kind::kStar:
      return Status::ExecutionError("* outside COUNT()");
    case Expr::Kind::kIsNull: {
      CHRONO_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[0], scope, ctx));
      bool null = v.is_null();
      return Value::Int((expr.is_not ? !null : null) ? 1 : 0);
    }
    case Expr::Kind::kInList: {
      CHRONO_ASSIGN_OR_RETURN(Value needle, Eval(*expr.children[0], scope, ctx));
      if (needle.is_null()) return Value::Null();
      bool found = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        CHRONO_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[i], scope, ctx));
        if (needle.EqualsSql(v)) {
          found = true;
          break;
        }
      }
      return Value::Int((expr.is_not ? !found : found) ? 1 : 0);
    }
    case Expr::Kind::kRowNumber:
      return Status::ExecutionError(
          "ROW_NUMBER() outside a projection context");
    case Expr::Kind::kCase: {
      size_t pairs =
          (expr.is_not ? expr.children.size() - 1 : expr.children.size()) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        CHRONO_ASSIGN_OR_RETURN(Value cond,
                                Eval(*expr.children[2 * i], scope, ctx));
        if (IsTruthy(cond)) return Eval(*expr.children[2 * i + 1], scope, ctx);
      }
      if (expr.is_not) return Eval(*expr.children.back(), scope, ctx);
      return Value::Null();
    }
  }
  return Status::Internal("unreachable expr kind");
}

}  // namespace chrono::db
