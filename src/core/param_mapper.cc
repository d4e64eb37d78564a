#include "core/param_mapper.h"

#include <algorithm>
#include <set>

namespace chrono::core {

void ParamMapper::ObserveResult(TemplateId tmpl, const sql::ResultSet& result) {
  last_results_[tmpl] = result;
  // A fresh source result restarts every loop that iterates over it.
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    if (it->first.src == tmpl) {
      it = cursors_.erase(it);
    } else {
      ++it;
    }
  }
}

void ParamMapper::ObserveQuery(TemplateId dst,
                               const std::vector<sql::Value>& params) {
  auto& cands = candidates_[dst];

  // Pass 1: validate existing candidates against the cursor row of their
  // source's last result. A single mismatch blacklists the candidate
  // forever (§2.1: "deemed spurious ... never used in the future").
  for (auto& cand : cands) {
    if (cand.blacklisted) continue;
    const bool was_confirmed = Confirmed(cand);
    auto rs_it = last_results_.find(cand.src);
    if (rs_it == last_results_.end()) continue;
    const sql::ResultSet& rs = rs_it->second;
    size_t row = 0;
    auto cur_it = cursors_.find(PairKey{cand.src, dst});
    if (cur_it != cursors_.end()) row = cur_it->second;
    if (row >= rs.row_count()) continue;  // loop ran past the result: no info
    if (cand.src_column >= static_cast<int>(rs.column_count())) continue;
    if (cand.dst_param >= static_cast<int>(params.size())) {
      cand.blacklisted = true;
    } else {
      const sql::Value& have =
          rs.row(row)[static_cast<size_t>(cand.src_column)];
      const sql::Value& want = params[static_cast<size_t>(cand.dst_param)];
      if (have.EqualsSql(want)) {
        ++cand.validations;
      } else {
        cand.blacklisted = true;
      }
    }
    if (Confirmed(cand) != was_confirmed) ++generation_;
  }

  // Pass 2: discover new candidates from every recorded result set.
  for (const auto& [src, rs] : last_results_) {
    if (src == dst) continue;
    size_t row = 0;
    auto cur_it = cursors_.find(PairKey{src, dst});
    if (cur_it != cursors_.end()) row = cur_it->second;
    if (row < rs.row_count()) {
      for (int p = 0; p < static_cast<int>(params.size()); ++p) {
        const sql::Value& want = params[static_cast<size_t>(p)];
        if (want.is_null()) continue;
        for (int c = 0; c < static_cast<int>(rs.column_count()); ++c) {
          if (!rs.row(row)[static_cast<size_t>(c)].EqualsSql(want)) continue;
          bool exists = false;
          for (const auto& cand : cands) {
            if (cand.src == src && cand.src_column == c && cand.dst_param == p) {
              exists = true;
              break;
            }
          }
          if (exists) continue;
          Candidate cand;
          cand.src = src;
          cand.src_column = c;
          cand.src_column_name = rs.columns()[static_cast<size_t>(c)];
          cand.dst_param = p;
          cand.validations = 1;
          if (Confirmed(cand)) ++generation_;
          cands.push_back(std::move(cand));
        }
      }
    }
    // Advance the loop cursor: the next issue of dst corresponds to the
    // next row of src's result (§2.1).
    cursors_[PairKey{src, dst}] = row + 1;
  }
}

std::vector<ParamMapper::Mapping> ParamMapper::ConfirmedMappings(
    TemplateId dst) const {
  std::vector<Mapping> out;
  auto it = candidates_.find(dst);
  if (it == candidates_.end()) return out;
  for (const auto& cand : it->second) {
    if (cand.blacklisted || cand.validations < min_validations_) continue;
    out.push_back(Mapping{cand.src, cand.src_column_name, cand.dst_param});
  }
  return out;
}

std::vector<int> ParamMapper::CoveredParams(TemplateId dst) const {
  std::set<int> covered;
  for (const auto& m : ConfirmedMappings(dst)) covered.insert(m.dst_param);
  return std::vector<int>(covered.begin(), covered.end());
}

const sql::ResultSet* ParamMapper::LastResult(TemplateId src) const {
  auto it = last_results_.find(src);
  return it == last_results_.end() ? nullptr : &it->second;
}

int ParamMapper::BlacklistedCount(TemplateId dst) const {
  auto it = candidates_.find(dst);
  if (it == candidates_.end()) return 0;
  int n = 0;
  for (const auto& cand : it->second) {
    if (cand.blacklisted) ++n;
  }
  return n;
}

}  // namespace chrono::core
