#include "core/combiner_lateral.h"

#include <algorithm>
#include <map>
#include <set>

#include "sql/writer.h"

namespace chrono::core {

using sql::Expr;
using sql::SelectStmt;
using sql::Value;

namespace {

bool HasAggregateItem(const SelectStmt& sel) {
  for (const auto& item : sel.items) {
    std::vector<const sql::Expr*> work{item.expr.get()};
    while (!work.empty()) {
      const sql::Expr* e = work.back();
      work.pop_back();
      if (e == nullptr) continue;
      if (e->kind == sql::Expr::Kind::kFuncCall &&
          (e->func_name == "count" || e->func_name == "sum" ||
           e->func_name == "avg" || e->func_name == "min" ||
           e->func_name == "max")) {
        return true;
      }
      for (const auto& c : e->children) work.push_back(c.get());
    }
  }
  return false;
}

/// True when the query returns at most one row per invocation: an
/// ungrouped aggregate (always exactly one row) or LIMIT 1. Such queries
/// can sit at a shared topological height behind a ROW_NUMBER() join
/// without losing rows (§4.2).
bool SingleRowPerIteration(const SelectStmt& sel) {
  if (sel.group_by.empty() && HasAggregateItem(sel)) return true;
  return sel.limit.has_value() && *sel.limit <= 1;
}

/// Longest-path-from-root heights over the graph's result bindings.
std::map<TemplateId, int> TopoHeights(const DependencyGraph& g,
                                      const std::vector<TemplateId>& topo) {
  std::map<TemplateId, int> height;
  for (TemplateId node : topo) {
    int h = 0;
    for (const auto& e : g.edges) {
      if (e.dst != node || !e.HasResultBinding()) continue;
      h = std::max(h, height[e.src] + 1);
    }
    height[node] = h;
  }
  return height;
}

/// Emission order: topological, but within each height the (at most one)
/// multi-row query first so the row-number alignment is lossless. The
/// parameter-bound queries come last (SlotOrder) and take no part in the
/// alignment: each is joined ON TRUE.
Result<std::vector<TemplateId>> EmissionOrder(const CombineInput& in,
                                              const DependencyGraph& g) {
  CHRONO_ASSIGN_OR_RETURN(std::vector<TemplateId> topo, SlotOrder(g));
  std::map<TemplateId, int> height = TopoHeights(g, topo);
  std::map<int, int> multi_row_at_height;
  std::vector<std::pair<int, TemplateId>> keyed;  // (sort key, node)
  std::vector<TemplateId> bound;
  for (size_t k = 0; k < topo.size(); ++k) {
    TemplateId node = topo[k];
    const sql::QueryTemplate* tmpl = in.registry->Find(node);
    if (tmpl == nullptr || tmpl->ast->kind != sql::Statement::Kind::kSelect) {
      return Status::Unsupported("non-select node in lateral combination");
    }
    if (g.ParamBound(node)) {
      bound.push_back(node);
      continue;
    }
    bool single = SingleRowPerIteration(*tmpl->ast->select);
    if (!single) ++multi_row_at_height[height[node]];
    keyed.emplace_back(height[node] * 2 + (single ? 1 : 0), node);
  }
  for (const auto& [h, n] : multi_row_at_height) {
    (void)h;
    if (n > 1) {
      return Status::Unsupported(
          "multiple multi-row queries at one topological height: the "
          "row-number alignment would drop rows");
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<TemplateId> order;
  order.reserve(topo.size());
  for (const auto& [key, node] : keyed) {
    (void)key;
    order.push_back(node);
  }
  order.insert(order.end(), bound.begin(), bound.end());
  return order;
}

}  // namespace

bool LateralUnionCombiner::CanHandle(const CombineInput& in) {
  const DependencyGraph& g = *in.graph;
  if (g.DependencyQueries().size() != 1) return false;
  for (TemplateId node : g.nodes) {
    const sql::QueryTemplate* tmpl = in.registry->Find(node);
    if (tmpl == nullptr || tmpl->ast->kind != sql::Statement::Kind::kSelect) {
      return false;
    }
    const SelectStmt& sel = *tmpl->ast->select;
    if (!sel.ctes.empty()) return false;
    for (const auto& item : sel.items) {
      if (item.is_star) return false;
    }
  }
  return EmissionOrder(in, g).ok();
}

Result<CombinedQuery> LateralUnionCombiner::Combine(const CombineInput& in) {
  const DependencyGraph& g = *in.graph;
  const TemplateRegistry& registry = *in.registry;

  CHRONO_ASSIGN_OR_RETURN(std::vector<TemplateId> topo, EmissionOrder(in, g));

  std::map<TemplateId, size_t> slot_of;
  for (size_t k = 0; k < topo.size(); ++k) slot_of[topo[k]] = k;

  // Topological height: longest path from a root. Same-height queries are
  // aligned by a join on their induced row numbers (§4.2); EmissionOrder
  // guarantees at most one multi-row query per height, emitted first.
  std::map<TemplateId, int> height = TopoHeights(g, topo);

  CombinedQuery out;
  // Assembled as an AST and rendered to text once at the end; the
  // middleware executes the AST so the combined query is never re-parsed.
  auto outer = std::make_unique<SelectStmt>();
  int next_out_col = 0;

  std::vector<std::vector<std::string>> out_aliases(topo.size());
  std::vector<std::vector<std::string>> out_names(topo.size());
  std::vector<std::string> rn_aliases(topo.size());
  // First emitted slot per height: same-height row-number joins attach to
  /// it (it is the only possibly-multi-row query at that height).
  std::map<int, size_t> first_at_height;

  for (size_t k = 0; k < topo.size(); ++k) {
    TemplateId node = topo[k];
    const sql::QueryTemplate* qt = registry.Find(node);
    if (qt == nullptr) return Status::Internal("template missing from registry");
    auto sel = qt->ast->select->Clone();
    const std::string dt_name = "d" + std::to_string(k + 1);

    CHRONO_ASSIGN_OR_RETURN(std::vector<std::string> names,
                            TemplateOutputNames(*sel));
    out_names[k] = names;

    // Incoming mappings.
    std::map<int, std::pair<TemplateId, std::string>> mapped;
    std::vector<int> parent_slots =
        ResultBindings(g, node, slot_of, &mapped);

    // Locate each mapped source column's alias for substitution.
    auto source_ref = [&](TemplateId src_tmpl, const std::string& src_col)
        -> Result<std::pair<std::string, int>> {
      size_t src_slot = slot_of.at(src_tmpl);
      for (size_t i = 0; i < out_names[src_slot].size(); ++i) {
        if (out_names[src_slot][i] == src_col) {
          return std::make_pair(
              "d" + std::to_string(src_slot + 1),
              static_cast<int>(i));
        }
      }
      return Status::Unsupported("mapping column " + src_col +
                                 " not in source select list");
    };

    // Substitute parameters: mapped -> outer column reference (lateral
    // correlation); unmapped -> latest observed constant.
    const std::vector<Value>* latest = nullptr;
    auto lp_it = in.latest_params->find(node);
    if (lp_it != in.latest_params->end()) latest = &lp_it->second;
    Status bind_status = Status::OK();
    RewriteParams(sel.get(), [&](Expr* e) {
      auto m_it = mapped.find(e->param_index);
      if (m_it != mapped.end()) {
        auto ref = source_ref(m_it->second.first, m_it->second.second);
        if (!ref.ok()) {
          bind_status = ref.status();
          return;
        }
        size_t src_slot = slot_of.at(m_it->second.first);
        e->kind = Expr::Kind::kColumnRef;
        e->table = ref->first;
        e->column = out_aliases[src_slot][static_cast<size_t>(ref->second)];
        e->param_index = -1;
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

    // Alias the select list and induce the row-number candidate key.
    for (size_t i = 0; i < sel->items.size(); ++i) {
      std::string alias = dt_name + "c" + std::to_string(i);
      sel->items[i].alias = alias;
      out_aliases[k].push_back(alias);
    }
    {
      sql::SelectItem rn;
      rn.expr = Expr::MakeRowNumber();
      rn.alias = dt_name + "rn";
      rn_aliases[k] = rn.alias;
      sel->items.push_back(std::move(rn));
    }

    const bool param_bound = g.ParamBound(node);
    if (k == 0) {
      outer->from.kind = sql::TableRef::Kind::kSubquery;
      outer->from.alias = dt_name;
      outer->from.subquery = std::move(sel);
    } else {
      sql::JoinClause join;
      join.type = sql::JoinClause::Type::kLeft;
      // A parameter-bound query reads no outer column: a plain derived
      // table, run once and joined to every row before it.
      join.ref.kind = param_bound ? sql::TableRef::Kind::kSubquery
                                  : sql::TableRef::Kind::kLateralSubquery;
      join.ref.alias = dt_name;
      join.ref.subquery = std::move(sel);
      auto same_h = first_at_height.find(height[node]);
      if (param_bound) {
        join.on = Expr::MakeLiteral(Value::Int(1));
      } else if (same_h != first_at_height.end()) {
        // Align on the sibling's row number; when the sibling produced no
        // rows for this iteration (its rn is NULL from the left join) this
        // query's single row must still survive.
        size_t sib = same_h->second;
        const std::string sib_dt = "d" + std::to_string(sib + 1);
        join.on = Expr::MakeBinary(
            sql::BinOp::kOr,
            Expr::MakeBinary(sql::BinOp::kEq,
                             Expr::MakeColumnRef(dt_name, rn_aliases[k]),
                             Expr::MakeColumnRef(sib_dt, rn_aliases[sib])),
            Expr::MakeIsNull(Expr::MakeColumnRef(sib_dt, rn_aliases[sib]),
                             /*is_not=*/false));
      } else {
        // ON TRUE (parsed as the literal 1, which is what TRUE lexes to).
        join.on = Expr::MakeLiteral(Value::Int(1));
      }
      outer->joins.push_back(std::move(join));
    }
    if (!param_bound) first_at_height.emplace(height[node], k);

    // Outer select list + decode slot.
    DecodeSlot slot;
    slot.tmpl = node;
    slot.result_names = out_names[k];
    slot.parents = parent_slots;
    slot.param_bound = param_bound;
    for (const auto& alias : out_aliases[k]) {
      sql::SelectItem item;
      item.expr = Expr::MakeColumnRef(dt_name, alias);
      item.alias = alias;
      outer->items.push_back(std::move(item));
      slot.result_cols.push_back(next_out_col++);
    }
    {
      sql::SelectItem item;
      item.expr = Expr::MakeColumnRef(dt_name, rn_aliases[k]);
      item.alias = rn_aliases[k];
      outer->items.push_back(std::move(item));
    }
    slot.ck_cols.push_back(next_out_col++);

    slot.bound_params.assign(static_cast<size_t>(qt->param_count),
                             Value::Null());
    if (latest != nullptr) {
      for (size_t p = 0; p < slot.bound_params.size() && p < latest->size();
           ++p) {
        slot.bound_params[p] = (*latest)[p];
      }
    }
    for (const auto& [pos, src] : mapped) {
      CHRONO_ASSIGN_OR_RETURN(auto ref, source_ref(src.first, src.second));
      size_t src_slot = slot_of.at(src.first);
      slot.mapped_params.emplace_back(
          pos, out.slots[src_slot].result_cols[static_cast<size_t>(ref.second)]);
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

Result<CombinedQuery> CombineGraph(const CombineInput& in) {
  if (CteJoinCombiner::CanHandle(in)) {
    auto combined = CteJoinCombiner::Combine(in);
    if (combined.ok()) return combined;
    // Non-strippable shapes fall through to the lateral strategy.
  }
  if (LateralUnionCombiner::CanHandle(in)) {
    return LateralUnionCombiner::Combine(in);
  }
  return Status::Unsupported("dependency graph is not combinable");
}

}  // namespace chrono::core
