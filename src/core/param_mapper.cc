#include "core/param_mapper.h"

#include <algorithm>
#include <set>

namespace chrono::core {

void ParamMapper::ObserveResult(TemplateId tmpl, const sql::ResultSet& result) {
  last_results_[tmpl] = result;
  // A fresh source result restarts every loop that iterates over it; the
  // cursors are ordered by source, so its loops are one range.
  for (auto it = cursors_.lower_bound(PairKey{tmpl, 0});
       it != cursors_.end() && it->first.src == tmpl;) {
    it = cursors_.erase(it);
  }
}

const sql::Value* ParamMapper::Expected(const Candidate& cand,
                                        TemplateId dst) const {
  if (cand.kind != Kind::kResult) {
    auto it = issued_.find(cand.src);
    if (it == issued_.end() ||
        cand.src_index >= static_cast<int>(it->second.last_params.size())) {
      return nullptr;
    }
    return &it->second.last_params[static_cast<size_t>(cand.src_index)];
  }
  auto rs_it = last_results_.find(cand.src);
  if (rs_it == last_results_.end()) return nullptr;
  const sql::ResultSet& rs = rs_it->second;
  size_t row = 0;
  auto cur_it = cursors_.find(PairKey{cand.src, dst});
  if (cur_it != cursors_.end()) row = cur_it->second;
  if (row >= rs.row_count()) return nullptr;  // loop ran past the result
  if (cand.src_index >= static_cast<int>(rs.column_count())) return nullptr;
  return &rs.row(row)[static_cast<size_t>(cand.src_index)];
}

void ParamMapper::Discover(std::vector<Candidate>* cands, Candidate cand) {
  for (const auto& have : *cands) {
    if (have.kind == cand.kind && have.src == cand.src &&
        have.src_index == cand.src_index && have.dst_param == cand.dst_param) {
      return;
    }
  }
  cand.validations = 1;
  if (Confirmed(cand)) ++generation_;
  cands->push_back(std::move(cand));
}

void ParamMapper::ObserveQuery(TemplateId dst,
                               const std::vector<sql::Value>& params) {
  Issued& issued = issued_[dst];
  std::vector<Candidate>& cands = issued.candidates;

  // Pass 1: validate existing candidates against what their source holds
  // now: the cursor row of a result, or a last parameter vector. A single
  // mismatch blacklists the candidate forever (§2.1: "deemed spurious ...
  // never used in the future").
  for (auto& cand : cands) {
    if (cand.blacklisted) continue;
    const bool was_confirmed = Confirmed(cand);
    const sql::Value* have = Expected(cand, dst);
    if (have == nullptr) continue;  // no information this time
    if (cand.dst_param >= static_cast<int>(params.size())) {
      cand.blacklisted = true;
    } else if (have->EqualsSql(params[static_cast<size_t>(cand.dst_param)])) {
      ++cand.validations;
    } else {
      cand.blacklisted = true;
    }
    if (Confirmed(cand) != was_confirmed) ++generation_;
  }

  // Pass 2: discover new result mappings from every recorded result set.
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
          Candidate cand;
          cand.src = src;
          cand.src_index = c;
          cand.src_column_name = rs.columns()[static_cast<size_t>(c)];
          cand.dst_param = p;
          Discover(&cands, std::move(cand));
        }
      }
    }
    // Advance the loop cursor: the next issue of dst corresponds to the
    // next row of src's result (§2.1).
    cursors_[PairKey{src, dst}] = row + 1;
  }

  // Pass 3: input sources (another template's last parameters) and
  // constants (dst's own previous parameters).
  for (const auto& [src, other] : issued_) {
    const std::vector<sql::Value>& last = other.last_params;
    for (int p = 0; p < static_cast<int>(params.size()); ++p) {
      const sql::Value& want = params[static_cast<size_t>(p)];
      if (want.is_null()) continue;
      if (src == dst) {
        if (p < static_cast<int>(last.size()) &&
            last[static_cast<size_t>(p)].EqualsSql(want)) {
          Candidate cand;
          cand.kind = Kind::kConstant;
          cand.src = dst;
          cand.src_index = p;
          cand.dst_param = p;
          Discover(&cands, std::move(cand));
        }
        continue;
      }
      for (int q = 0; q < static_cast<int>(last.size()); ++q) {
        if (!last[static_cast<size_t>(q)].EqualsSql(want)) continue;
        Candidate cand;
        cand.kind = Kind::kInput;
        cand.src = src;
        cand.src_index = q;
        cand.dst_param = p;
        Discover(&cands, std::move(cand));
      }
    }
  }
  // Reuses the vector's storage: the template's parameter count is fixed.
  issued.last_params.assign(params.begin(), params.end());
}

std::vector<ParamMapper::Mapping> ParamMapper::ConfirmedMappings(
    TemplateId dst) const {
  std::vector<Mapping> out;
  auto it = issued_.find(dst);
  if (it == issued_.end()) return out;
  for (const auto& cand : it->second.candidates) {
    if (cand.kind != Kind::kResult || !Confirmed(cand)) continue;
    out.push_back(Mapping{cand.src, cand.src_column_name, cand.dst_param});
  }
  return out;
}

std::vector<ParamMapper::InputSource> ParamMapper::ConfirmedInputSources(
    TemplateId dst) const {
  std::vector<InputSource> out;
  auto it = issued_.find(dst);
  if (it == issued_.end()) return out;
  for (const auto& cand : it->second.candidates) {
    if (cand.kind != Kind::kInput || !Confirmed(cand)) continue;
    out.push_back(InputSource{cand.src, cand.src_index, cand.dst_param});
  }
  return out;
}

std::vector<int> ParamMapper::ConfirmedConstants(TemplateId dst) const {
  std::vector<int> out;
  auto it = issued_.find(dst);
  if (it == issued_.end()) return out;
  for (const auto& cand : it->second.candidates) {
    if (cand.kind == Kind::kConstant && Confirmed(cand)) {
      out.push_back(cand.dst_param);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool ParamMapper::Derived(TemplateId tmpl, int param) const {
  auto it = issued_.find(tmpl);
  if (it == issued_.end()) return false;
  for (const auto& cand : it->second.candidates) {
    if (cand.kind != Kind::kConstant && cand.dst_param == param &&
        Confirmed(cand)) {
      return true;
    }
  }
  return false;
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
  auto it = issued_.find(dst);
  if (it == issued_.end()) return 0;
  int n = 0;
  for (const auto& cand : it->second.candidates) {
    if (cand.blacklisted) ++n;
  }
  return n;
}

}  // namespace chrono::core
