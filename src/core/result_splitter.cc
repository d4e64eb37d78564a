#include "core/result_splitter.h"

#include <optional>
#include <unordered_set>

namespace chrono::core {

namespace {

using sql::Row;
using sql::Value;

/// Candidate-key tuple extracted from one combined-result row.
std::vector<Value> ExtractCk(const Row& row, const std::vector<int>& cols) {
  std::vector<Value> out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(row[static_cast<size_t>(c)]);
  return out;
}

bool CkEquals(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

bool CkAllNull(const std::vector<Value>& ck) {
  for (const auto& v : ck) {
    if (!v.is_null()) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<SplitEntry>> SplitResult(const CombinedQuery& combined,
                                            const sql::ResultSet& result,
                                            const TemplateRegistry& registry) {
  const size_t n_slots = combined.slots.size();

  struct SlotState {
    sql::ResultSet current;
    std::optional<std::string> current_key;  // unset = iteration not started
    std::vector<Value> current_params;
    std::optional<std::vector<Value>> last_own_ck;
    // Param-bound slots: every candidate key appended so far.
    std::unordered_set<Row, sql::RowHash, sql::RowEq> seen_cks;
    std::vector<Value> prev_row_ck;  // this slot's ck in the previous row
    bool has_prev_row = false;
  };
  std::vector<SlotState> states(n_slots);
  std::vector<SplitEntry> out;

  // Renders the cache key for a slot's iteration given the combined row the
  // iteration started on. Returns nullopt when a mapped parameter value is
  // NULL (the original query would never have been issued).
  auto render_key = [&](const DecodeSlot& slot, const Row& row,
                        std::vector<Value>* params_out)
      -> std::optional<std::string> {
    const sql::QueryTemplate* tmpl = registry.Find(slot.tmpl);
    if (tmpl == nullptr) return std::nullopt;
    std::vector<Value> params = slot.bound_params;
    for (const auto& [pos, col] : slot.mapped_params) {
      const Value& v = row[static_cast<size_t>(col)];
      if (v.is_null()) return std::nullopt;
      if (static_cast<size_t>(pos) >= params.size()) return std::nullopt;
      params[static_cast<size_t>(pos)] = v;
    }
    std::string key = sql::RenderBoundText(*tmpl, params);
    *params_out = std::move(params);
    return key;
  };

  auto close_iteration = [&](size_t k) {
    SlotState& st = states[k];
    if (!st.current_key.has_value()) return;
    SplitEntry entry;
    entry.tmpl = combined.slots[k].tmpl;
    entry.key = *st.current_key;
    entry.params = std::move(st.current_params);
    entry.result =
        std::make_shared<const sql::ResultSet>(std::move(st.current));
    out.push_back(std::move(entry));
    st.current = sql::ResultSet(combined.slots[k].result_names);
    st.current_key.reset();
    st.last_own_ck.reset();
    st.seen_cks.clear();
  };

  // Initialise running result sets.
  for (size_t k = 0; k < n_slots; ++k) {
    states[k].current = sql::ResultSet(combined.slots[k].result_names);
  }

  for (size_t r = 0; r < result.row_count(); ++r) {
    const Row& row = result.row(r);

    // Pass 1: detect candidate-key changes per slot for this row.
    std::vector<std::vector<Value>> row_cks(n_slots);
    std::vector<bool> ck_changed(n_slots, false);
    for (size_t k = 0; k < n_slots; ++k) {
      row_cks[k] = ExtractCk(row, combined.slots[k].ck_cols);
      ck_changed[k] = !states[k].has_prev_row ||
                      !CkEquals(row_cks[k], states[k].prev_row_ck);
    }

    // Pass 2: process slots in topological order.
    for (size_t k = 0; k < n_slots; ++k) {
      const DecodeSlot& slot = combined.slots[k];
      SlotState& st = states[k];

      bool parent_changed = false;
      for (int p : slot.parents) {
        if (ck_changed[static_cast<size_t>(p)]) parent_changed = true;
      }

      if (parent_changed) {
        // A dependency moved to its next row: the running result set
        // belongs to the previous iteration — close it (§4.1.1).
        close_iteration(k);
      }

      const std::vector<Value>& own_ck = row_cks[k];
      bool own_null = CkAllNull(own_ck) && !own_ck.empty();

      // Start a new iteration lazily (needs the row's parent values for
      // the key) — even when this row carries no data for the slot (left
      // join produced NULLs), the iteration exists and is empty.
      if (!st.current_key.has_value()) {
        bool parents_present = true;
        for (int p : slot.parents) {
          if (CkAllNull(row_cks[static_cast<size_t>(p)]) &&
              !row_cks[static_cast<size_t>(p)].empty()) {
            parents_present = false;
          }
        }
        if (parents_present) {
          st.current_key = render_key(slot, row, &st.current_params);
        }
      }
      if (!st.current_key.has_value()) {
        st.prev_row_ck = own_ck;
        st.has_prev_row = true;
        continue;
      }

      if (own_null) {
        st.prev_row_ck = own_ck;
        st.has_prev_row = true;
        continue;  // empty iteration: key recorded, no rows
      }

      // Deduplicate fan-out: add the row only when this slot's candidate
      // key differs from the last appended one in this iteration. A
      // param-bound slot's rows recur in the cross product with the slots
      // joined before it, so it checks every key it appended.
      bool duplicate =
          st.last_own_ck.has_value() && CkEquals(*st.last_own_ck, own_ck);
      if (!duplicate && slot.param_bound) {
        duplicate = !st.seen_cks.insert(own_ck).second;
      }
      if (!duplicate) {
        Row values;
        values.reserve(slot.result_cols.size());
        for (int c : slot.result_cols) {
          values.push_back(row[static_cast<size_t>(c)]);
        }
        st.current.AddRow(std::move(values));
        st.last_own_ck = own_ck;
      }
      st.prev_row_ck = own_ck;
      st.has_prev_row = true;
    }
  }

  // Flush all open iterations.
  for (size_t k = 0; k < n_slots; ++k) close_iteration(k);

  // An empty combined result still defines an empty result for the root
  // query (its key is computable without row values).
  if (result.row_count() == 0 && !combined.slots.empty() &&
      combined.slots[0].parents.empty()) {
    const DecodeSlot& root = combined.slots[0];
    if (root.mapped_params.empty()) {
      const sql::QueryTemplate* tmpl = registry.Find(root.tmpl);
      if (tmpl != nullptr) {
        SplitEntry entry;
        entry.tmpl = root.tmpl;
        entry.key = sql::RenderBoundText(*tmpl, root.bound_params);
        entry.params = root.bound_params;
        entry.result =
            std::make_shared<const sql::ResultSet>(root.result_names);
        out.push_back(std::move(entry));
      }
    }
  }

  return out;
}

}  // namespace chrono::core
