#include "core/combiner_cte.h"

#include <algorithm>
#include <set>

#include "sql/writer.h"

namespace chrono::core {

using sql::BinOp;
using sql::Expr;
using sql::ExprPtr;
using sql::JoinClause;
using sql::SelectStmt;
using sql::TableRef;
using sql::Value;

Result<std::vector<std::string>> TemplateOutputNames(const SelectStmt& stmt) {
  std::vector<std::string> names;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const auto& item = stmt.items[i];
    if (item.is_star) {
      return Status::Unsupported("star select list cannot be combined");
    }
    if (!item.alias.empty()) {
      names.push_back(item.alias);
    } else if (item.expr->kind == Expr::Kind::kColumnRef) {
      names.push_back(item.expr->column);
    } else if (item.expr->kind == Expr::Kind::kFuncCall) {
      names.push_back(item.expr->func_name);
    } else if (item.expr->kind == Expr::Kind::kRowNumber) {
      names.push_back("row_number");
    } else {
      names.push_back("col" + std::to_string(i + 1));
    }
  }
  return names;
}

std::vector<ExprPtr> DecomposeConjuncts(ExprPtr where) {
  std::vector<ExprPtr> out;
  if (!where) return out;
  if (where->kind == Expr::Kind::kBinary && where->bin_op == BinOp::kAnd) {
    auto lhs = DecomposeConjuncts(std::move(where->children[0]));
    auto rhs = DecomposeConjuncts(std::move(where->children[1]));
    for (auto& e : lhs) out.push_back(std::move(e));
    for (auto& e : rhs) out.push_back(std::move(e));
    return out;
  }
  out.push_back(std::move(where));
  return out;
}

void RewriteParams(SelectStmt* stmt,
                   const std::function<void(Expr*)>& replace) {
  sql::VisitExprs(stmt, [&replace](Expr* e) {
    if (e->kind == Expr::Kind::kParam) replace(e);
  });
}

std::map<TemplateId, std::vector<Value>> FiringParams(
    const DependencyGraph& graph,
    const std::map<TemplateId, std::vector<Value>>& latest) {
  std::map<TemplateId, std::vector<Value>> out;
  for (TemplateId node : graph.nodes) {
    auto it = latest.find(node);
    if (it != latest.end()) out.emplace(node, it->second);
  }
  for (TemplateId node : graph.TopologicalOrder()) {
    for (const auto& e : graph.edges) {
      if (e.dst != node) continue;
      for (const auto& b : e.bindings) {
        if (!b.from_param()) continue;
        auto src_it = out.find(e.src);
        if (src_it == out.end() ||
            static_cast<size_t>(b.src_param) >= src_it->second.size()) {
          continue;
        }
        Value value = src_it->second[static_cast<size_t>(b.src_param)];
        std::vector<Value>& params = out[node];
        if (params.size() <= static_cast<size_t>(b.dst_param)) {
          params.resize(static_cast<size_t>(b.dst_param) + 1, Value::Null());
        }
        params[static_cast<size_t>(b.dst_param)] = std::move(value);
      }
    }
  }
  return out;
}

std::vector<Value> FiringParamsOf(
    const std::map<TemplateId, std::vector<Value>>& firing, TemplateId tmpl,
    int count) {
  std::vector<Value> params(static_cast<size_t>(count), Value::Null());
  auto it = firing.find(tmpl);
  if (it != firing.end()) {
    for (size_t p = 0; p < params.size() && p < it->second.size(); ++p) {
      params[p] = it->second[p];
    }
  }
  return params;
}

Result<std::vector<TemplateId>> SlotOrder(const DependencyGraph& graph) {
  std::vector<TemplateId> topo = graph.TopologicalOrder();
  if (topo.empty()) return Status::InvalidArgument("cyclic dependency graph");
  std::vector<TemplateId> order;
  std::vector<TemplateId> bound;
  for (TemplateId node : topo) {
    (graph.ParamBound(node) ? bound : order).push_back(node);
  }
  for (const auto& e : graph.edges) {
    if (e.HasResultBinding() && graph.ParamBound(e.src)) {
      return Status::Unsupported(
          "a parameter-bound query feeds a result binding");
    }
  }
  order.insert(order.end(), bound.begin(), bound.end());
  return order;
}

std::vector<int> ResultBindings(
    const DependencyGraph& graph, TemplateId node,
    const std::map<TemplateId, size_t>& slot_of,
    std::map<int, std::pair<TemplateId, std::string>>* mapped) {
  std::vector<int> parent_slots;
  for (const auto& e : graph.edges) {
    if (e.dst != node || !e.HasResultBinding()) continue;
    for (const auto& b : e.bindings) {
      if (b.from_param()) continue;
      mapped->emplace(b.dst_param, std::make_pair(e.src, b.src_column));
    }
    parent_slots.push_back(static_cast<int>(slot_of.at(e.src)));
  }
  std::sort(parent_slots.begin(), parent_slots.end());
  parent_slots.erase(std::unique(parent_slots.begin(), parent_slots.end()),
                     parent_slots.end());
  return parent_slots;
}

namespace {

bool ContainsParam(const Expr* expr, const std::set<int>& positions) {
  if (expr == nullptr) return false;
  if (expr->kind == Expr::Kind::kParam &&
      positions.count(expr->param_index) > 0) {
    return true;
  }
  for (const auto& c : expr->children) {
    if (ContainsParam(c.get(), positions)) return true;
  }
  return false;
}

bool HasAggregate(const Expr* expr) {
  if (expr == nullptr) return false;
  if (expr->kind == Expr::Kind::kFuncCall &&
      (expr->func_name == "count" || expr->func_name == "sum" ||
       expr->func_name == "avg" || expr->func_name == "min" ||
       expr->func_name == "max")) {
    return true;
  }
  for (const auto& c : expr->children) {
    if (HasAggregate(c.get())) return true;
  }
  return false;
}

/// Is this template's query plain SPJ over base tables?
bool IsPlainSpj(const SelectStmt& stmt) {
  if (!stmt.ctes.empty() || stmt.distinct || !stmt.group_by.empty() ||
      stmt.having || !stmt.order_by.empty() || stmt.limit.has_value()) {
    return false;
  }
  if (stmt.from.kind != TableRef::Kind::kTable) return false;
  for (const auto& join : stmt.joins) {
    if (join.ref.kind != TableRef::Kind::kTable) return false;
  }
  for (const auto& item : stmt.items) {
    if (item.is_star) return false;
    if (HasAggregate(item.expr.get())) return false;
    if (item.expr->kind == Expr::Kind::kRowNumber) return false;
  }
  return true;
}

/// Is `a` an ancestor of `b` (or equal) in the graph's edge relation?
bool IsAncestor(const DependencyGraph& g, TemplateId a, TemplateId b) {
  if (a == b) return true;
  std::vector<TemplateId> work{a};
  std::set<TemplateId> seen;
  while (!work.empty()) {
    TemplateId cur = work.back();
    work.pop_back();
    if (!seen.insert(cur).second) continue;
    for (const auto& e : g.edges) {
      if (e.src != cur) continue;
      if (e.dst == b) return true;
      work.push_back(e.dst);
    }
  }
  return false;
}

}  // namespace

bool CteJoinCombiner::CanHandle(const CombineInput& in) {
  const DependencyGraph& g = *in.graph;
  if (g.DependencyQueries().size() != 1) return false;
  for (TemplateId node : g.nodes) {
    const sql::QueryTemplate* tmpl = in.registry->Find(node);
    if (tmpl == nullptr || tmpl->ast->kind != sql::Statement::Kind::kSelect) {
      return false;
    }
    if (!IsPlainSpj(*tmpl->ast->select)) return false;
    // Parents must form a chain (comparable under the ancestor order);
    // parallel parents need the lateral strategy's row-number join (§4.2).
    std::vector<TemplateId> parents;
    for (const auto& e : g.edges) {
      if (e.dst == node && e.HasResultBinding()) parents.push_back(e.src);
    }
    for (size_t i = 0; i < parents.size(); ++i) {
      for (size_t j = i + 1; j < parents.size(); ++j) {
        if (!IsAncestor(g, parents[i], parents[j]) &&
            !IsAncestor(g, parents[j], parents[i])) {
          return false;
        }
      }
    }
  }
  return true;
}

Result<CombinedQuery> CteJoinCombiner::Combine(const CombineInput& in) {
  const DependencyGraph& g = *in.graph;
  const TemplateRegistry& registry = *in.registry;

  CHRONO_ASSIGN_OR_RETURN(std::vector<TemplateId> topo, SlotOrder(g));

  std::map<TemplateId, size_t> slot_of;
  for (size_t k = 0; k < topo.size(); ++k) slot_of[topo[k]] = k;

  CombinedQuery out;
  // The combined query is assembled directly as an AST; the text form is
  // rendered from it once at the end. The middleware executes the AST, so
  // the combined query is never re-parsed.
  auto outer = std::make_unique<SelectStmt>();
  int next_out_col = 0;

  // Per-slot output aliases (original select items), for join references.
  std::vector<std::vector<std::string>> out_aliases(topo.size());
  std::vector<std::vector<std::string>> out_names(topo.size());

  for (size_t k = 0; k < topo.size(); ++k) {
    TemplateId node = topo[k];
    const sql::QueryTemplate* qt = registry.Find(node);
    if (qt == nullptr) return Status::Internal("template missing from registry");
    auto sel = qt->ast->select->Clone();
    const std::string cte_name = "q" + std::to_string(k + 1);

    CHRONO_ASSIGN_OR_RETURN(std::vector<std::string> names,
                            TemplateOutputNames(*sel));
    out_names[k] = names;

    // Incoming mappings: param position -> (src template, src column).
    std::map<int, std::pair<TemplateId, std::string>> mapped;
    std::vector<int> parent_slots =
        ResultBindings(g, node, slot_of, &mapped);

    std::set<int> mapped_positions;
    for (const auto& [pos, src] : mapped) {
      (void)src;
      mapped_positions.insert(pos);
    }

    // Strip mapped-parameter conjuncts from WHERE; they become join
    // conditions (Algorithm 2 lines 12-14).
    struct JoinCond {
      std::string own_table;
      std::string own_column;
      TemplateId src;
      std::string src_column;
      int param_pos;
    };
    std::vector<JoinCond> join_conds;
    std::vector<ExprPtr> kept;
    for (auto& conj : DecomposeConjuncts(std::move(sel->where))) {
      bool stripped = false;
      if (conj->kind == Expr::Kind::kBinary && conj->bin_op == BinOp::kEq) {
        Expr* lhs = conj->children[0].get();
        Expr* rhs = conj->children[1].get();
        if (lhs->kind != Expr::Kind::kColumnRef) std::swap(lhs, rhs);
        if (lhs->kind == Expr::Kind::kColumnRef &&
            rhs->kind == Expr::Kind::kParam &&
            mapped_positions.count(rhs->param_index) > 0) {
          const auto& [src, src_col] = mapped.at(rhs->param_index);
          join_conds.push_back(JoinCond{lhs->table, lhs->column, src, src_col,
                                        rhs->param_index});
          stripped = true;
        }
      }
      if (!stripped) {
        if (ContainsParam(conj.get(), mapped_positions)) {
          return Status::Unsupported(
              "mapped parameter not strippable as a top-level equality "
              "conjunct");
        }
        kept.push_back(std::move(conj));
      }
    }
    sel->where = sql::CombineConjuncts(std::move(kept));

    // Bind remaining parameters with the latest observed constants.
    const std::vector<Value>* latest = nullptr;
    auto lp_it = in.latest_params->find(node);
    if (lp_it != in.latest_params->end()) latest = &lp_it->second;
    Status bind_status = Status::OK();
    RewriteParams(sel.get(), [&](Expr* e) {
      if (mapped_positions.count(e->param_index) > 0) {
        // Every mapped parameter should have been stripped with its
        // conjunct; one surviving elsewhere means the query shape is not
        // CTE-combinable.
        bind_status = Status::Unsupported(
            "mapped parameter outside a strippable conjunct");
        return;
      }
      if (latest == nullptr ||
          static_cast<size_t>(e->param_index) >= latest->size()) {
        bind_status = Status::InvalidArgument(
            "no observed constant for parameter " +
            std::to_string(e->param_index));
        return;
      }
      e->literal = (*latest)[static_cast<size_t>(e->param_index)];
      e->kind = Expr::Kind::kLiteral;
      e->param_index = -1;
    });
    CHRONO_RETURN_NOT_OK(bind_status);

    // Rewrite the select list with unique aliases (outer references).
    for (size_t i = 0; i < sel->items.size(); ++i) {
      std::string alias = cte_name + "c" + std::to_string(i);
      sel->items[i].alias = alias;
      out_aliases[k].push_back(alias);
    }

    // Candidate key: one rowid per base table the query accesses (§4.1).
    std::vector<std::string> ck_aliases;
    {
      std::vector<std::string> table_aliases;
      table_aliases.push_back(sel->from.EffectiveName());
      for (const auto& join : sel->joins) {
        table_aliases.push_back(join.ref.EffectiveName());
      }
      for (size_t j = 0; j < table_aliases.size(); ++j) {
        std::string alias = cte_name + "ck" + std::to_string(j);
        sql::SelectItem item;
        item.expr = Expr::MakeColumnRef(table_aliases[j], "__rowid");
        item.alias = alias;
        sel->items.push_back(std::move(item));
        ck_aliases.push_back(std::move(alias));
      }
    }

    // Join-condition columns must be exposed by this CTE (line 16).
    std::vector<std::string> jc_aliases;
    for (size_t m = 0; m < join_conds.size(); ++m) {
      const JoinCond& jc = join_conds[m];
      // Reuse an original select item if it is exactly this column ref.
      std::string found;
      for (size_t i = 0; i < out_names[k].size(); ++i) {
        const Expr* e = qt->ast->select->items[i].expr.get();
        if (e->kind == Expr::Kind::kColumnRef && e->column == jc.own_column &&
            (e->table.empty() || jc.own_table.empty() ||
             e->table == jc.own_table)) {
          found = out_aliases[k][i];
          break;
        }
      }
      if (found.empty()) {
        found = cte_name + "jc" + std::to_string(m);
        sql::SelectItem item;
        item.expr = Expr::MakeColumnRef(jc.own_table, jc.own_column);
        item.alias = found;
        sel->items.push_back(std::move(item));
      }
      jc_aliases.push_back(std::move(found));
    }

    // Emit the CTE.
    outer->ctes.push_back(sql::CteDef{cte_name, std::move(sel)});

    // Outer FROM / join clause.
    if (k == 0) {
      outer->from.kind = TableRef::Kind::kTable;
      outer->from.table_name = cte_name;
    } else {
      JoinClause join;
      join.type = JoinClause::Type::kLeft;
      join.ref.kind = TableRef::Kind::kTable;
      join.ref.table_name = cte_name;
      if (join_conds.empty()) {
        // A parameter-bound query: its rows join every row before it.
        join.on = Expr::MakeBinary(BinOp::kEq,
                                   Expr::MakeLiteral(Value::Int(1)),
                                   Expr::MakeLiteral(Value::Int(1)));
      } else {
        std::vector<ExprPtr> on_conjuncts;
        for (size_t m = 0; m < join_conds.size(); ++m) {
          const JoinCond& jc = join_conds[m];
          size_t src_slot = slot_of.at(jc.src);
          // Locate the source's output column by original name.
          int src_idx = -1;
          for (size_t i = 0; i < out_names[src_slot].size(); ++i) {
            if (out_names[src_slot][i] == jc.src_column) {
              src_idx = static_cast<int>(i);
              break;
            }
          }
          if (src_idx < 0) {
            return Status::Unsupported("mapping column " + jc.src_column +
                                       " not in source select list");
          }
          on_conjuncts.push_back(Expr::MakeBinary(
              BinOp::kEq, Expr::MakeColumnRef(cte_name, jc_aliases[m]),
              Expr::MakeColumnRef(
                  "q" + std::to_string(src_slot + 1),
                  out_aliases[src_slot][static_cast<size_t>(src_idx)])));
        }
        join.on = sql::CombineConjuncts(std::move(on_conjuncts));
      }
      outer->joins.push_back(std::move(join));
    }

    // Outer select list + decode slot.
    DecodeSlot slot;
    slot.tmpl = node;
    slot.result_names = out_names[k];
    slot.parents = parent_slots;
    slot.param_bound = g.ParamBound(node);
    for (const auto& alias : out_aliases[k]) {
      sql::SelectItem item;
      item.expr = Expr::MakeColumnRef(cte_name, alias);
      item.alias = alias;
      outer->items.push_back(std::move(item));
      slot.result_cols.push_back(next_out_col++);
    }
    for (const auto& alias : ck_aliases) {
      sql::SelectItem item;
      item.expr = Expr::MakeColumnRef(cte_name, alias);
      item.alias = alias;
      outer->items.push_back(std::move(item));
      slot.ck_cols.push_back(next_out_col++);
    }
    // Parameter plan for per-iteration cache keys.
    slot.bound_params.assign(static_cast<size_t>(qt->param_count),
                             Value::Null());
    if (latest != nullptr) {
      for (size_t p = 0; p < slot.bound_params.size() && p < latest->size();
           ++p) {
        slot.bound_params[p] = (*latest)[p];
      }
    }
    for (const auto& [pos, src] : mapped) {
      const auto& [src_tmpl, src_col] = src;
      size_t src_slot = slot_of.at(src_tmpl);
      int src_idx = -1;
      for (size_t i = 0; i < out_names[src_slot].size(); ++i) {
        if (out_names[src_slot][i] == src_col) {
          src_idx = static_cast<int>(i);
          break;
        }
      }
      if (src_idx < 0) {
        return Status::Unsupported("mapping column " + src_col +
                                   " not in source select list");
      }
      slot.mapped_params.emplace_back(
          pos, out.slots[src_slot].result_cols[static_cast<size_t>(src_idx)]);
    }
    out.slots.push_back(std::move(slot));
  }

  auto stmt = std::make_unique<sql::Statement>();
  stmt->kind = sql::Statement::Kind::kSelect;
  stmt->select = std::move(outer);
  out.sql = sql::WriteStatement(*stmt);
  out.ast = std::move(stmt);
  return out;
}

}  // namespace chrono::core
