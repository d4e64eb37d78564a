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
///
/// Beyond the paper, the mapper also records each template's last
/// parameter vector and learns, under the same rules, two more sources for
/// a parameter: an *input source* (another template's last parameter
/// equals it, e.g. a follow-up read that reuses the symbol its trigger was
/// asked for) and a *constant* (it always equals the template's own
/// previous value of it, e.g. `dm_date >= 0`).
class ParamMapper {
 public:
  /// A result mapping: `src_column` of src's last result feeds `dst_param`.
  struct Mapping {
    TemplateId src = 0;
    std::string src_column;
    int dst_param = 0;
  };

  /// An input source: src's last parameter `src_param` feeds `dst_param`.
  struct InputSource {
    TemplateId src = 0;
    int src_param = 0;
    int dst_param = 0;
  };

  explicit ParamMapper(int min_validations = 2)
      : min_validations_(min_validations) {}

  /// Records the result set returned for `tmpl` and resets loop cursors
  /// that iterate over it.
  void ObserveResult(TemplateId tmpl, const sql::ResultSet& result);

  /// Processes a query arrival: validates existing candidates into `dst`,
  /// discovers new ones against all recorded result sets and parameter
  /// vectors, then records `params` as dst's last parameters.
  void ObserveQuery(TemplateId dst, const std::vector<sql::Value>& params);

  /// Confirmed (validated, non-blacklisted) result mappings into `dst`.
  std::vector<Mapping> ConfirmedMappings(TemplateId dst) const;
  /// Confirmed input sources of `dst`'s parameters, in discovery order.
  std::vector<InputSource> ConfirmedInputSources(TemplateId dst) const;
  /// Parameter positions of `dst` confirmed constant, ascending.
  std::vector<int> ConfirmedConstants(TemplateId dst) const;

  /// True when a confirmed result mapping or input source feeds `tmpl`'s
  /// parameter `param`: the value comes from an earlier query.
  bool Derived(TemplateId tmpl, int param) const;

  /// Parameter positions of `dst` with at least one confirmed result
  /// mapping.
  std::vector<int> CoveredParams(TemplateId dst) const;

  bool HasResult(TemplateId src) const {
    return last_results_.count(src) > 0;
  }
  const sql::ResultSet* LastResult(TemplateId src) const;

  /// Introspection for tests: number of blacklisted candidates for dst,
  /// of every kind.
  int BlacklistedCount(TemplateId dst) const;

  /// Moves on every ObserveQuery that changes a confirmed set of any
  /// kind: a candidate confirmed, or a confirmed one blacklisted.
  uint64_t generation() const { return generation_; }

 private:
  enum class Kind { kResult, kInput, kConstant };

  struct Candidate {
    Kind kind = Kind::kResult;
    TemplateId src = 0;  // kConstant: dst itself
    // kResult: column of src's result set; kInput: position in src's last
    // parameters; kConstant: dst_param.
    int src_index = 0;
    std::string src_column_name;  // kResult only
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
  /// The value `cand` predicts for dst's next issue, or null when the
  /// candidate's source holds no information this time.
  const sql::Value* Expected(const Candidate& cand, TemplateId dst) const;
  /// Adds a candidate unless one with the same source already exists
  /// (blacklisted ones included: a blacklist is permanent).
  void Discover(std::vector<Candidate>* cands, Candidate cand);

  /// What the mapper knows of one issued template.
  struct Issued {
    std::vector<Candidate> candidates;  // into its parameters
    std::vector<sql::Value> last_params;
  };

  int min_validations_;
  uint64_t generation_ = 0;
  std::unordered_map<TemplateId, sql::ResultSet> last_results_;
  std::map<PairKey, size_t> cursors_;  // next row of src for dst's next issue
  std::unordered_map<TemplateId, Issued> issued_;  // by dst
};

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_PARAM_MAPPER_H_
