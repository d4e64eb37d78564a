#ifndef CHRONOCACHE_CORE_PARAM_MAPPER_H_
#define CHRONOCACHE_CORE_PARAM_MAPPER_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/transition_graph.h"
#include "sql/result_set.h"

namespace chrono::core {

/// \brief Per-client discovery and validation of parameter mappings (§2.1):
/// does the result set of a prior query Qi contain the values used as input
/// parameters of a later query Qj?
///
/// The mapper records the last result set returned for each template and,
/// on each query arrival, matches the query's parameters against columns of
/// recorded results. Loop structures advance a per-(src,dst) row cursor so
/// the i-th issue of Qj after Qi is matched against the i-th row of Qi's
/// result (§2.1). Mappings that ever fail re-validation are blacklisted
/// permanently as coincidental matches; mappings validated at least
/// `min_validations` times are reported as confirmed.
class ParamMapper {
 public:
  struct Mapping {
    TemplateId src = 0;
    std::string src_column;
    int dst_param = 0;
  };

  explicit ParamMapper(int min_validations = 2)
      : min_validations_(min_validations) {}

  /// Records the result set returned for `tmpl` and resets loop cursors
  /// that iterate over it.
  void ObserveResult(TemplateId tmpl, const sql::ResultSet& result);

  /// Processes a query arrival: validates existing candidate mappings into
  /// `dst` and discovers new ones against all recorded result sets.
  void ObserveQuery(TemplateId dst, const std::vector<sql::Value>& params);

  /// Confirmed (validated, non-blacklisted) mappings into `dst`.
  std::vector<Mapping> ConfirmedMappings(TemplateId dst) const;

  /// Parameter positions of `dst` with at least one confirmed mapping.
  std::vector<int> CoveredParams(TemplateId dst) const;

  bool HasResult(TemplateId src) const {
    return last_results_.count(src) > 0;
  }
  const sql::ResultSet* LastResult(TemplateId src) const;

  /// Introspection for tests: number of blacklisted candidates for dst.
  int BlacklistedCount(TemplateId dst) const;

  /// Moves on every ObserveQuery that changes ConfirmedMappings: a
  /// candidate confirmed, or a confirmed one blacklisted.
  uint64_t generation() const { return generation_; }

 private:
  struct Candidate {
    TemplateId src = 0;
    int src_column = 0;  // column index in src's result set
    std::string src_column_name;
    int dst_param = 0;
    int validations = 0;
    bool blacklisted = false;
  };

  struct PairKey {
    TemplateId src;
    TemplateId dst;
    bool operator<(const PairKey& o) const {
      if (src != o.src) return src < o.src;
      return dst < o.dst;
    }
  };

  bool Confirmed(const Candidate& cand) const {
    return !cand.blacklisted && cand.validations >= min_validations_;
  }

  int min_validations_;
  uint64_t generation_ = 0;
  std::unordered_map<TemplateId, sql::ResultSet> last_results_;
  std::map<PairKey, size_t> cursors_;  // next row of src for dst's next issue
  std::unordered_map<TemplateId, std::vector<Candidate>> candidates_;  // by dst
};

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_PARAM_MAPPER_H_
