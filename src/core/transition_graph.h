#ifndef CHRONOCACHE_CORE_TRANSITION_GRAPH_H_
#define CHRONOCACHE_CORE_TRANSITION_GRAPH_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.h"

namespace chrono::core {

using TemplateId = uint64_t;

/// The thresholds graph extraction applies to a transition graph (see
/// TransitionGraph::generation()).
struct ExtractThresholds {
  double tau = 0.8;              // an edge counts at P >= tau
  uint64_t min_occurrences = 3;  // a node counts from this many arrivals
};

/// \brief A client's query transition graph (§2, after Apollo): nodes are
/// query templates; a directed edge (A, B) is labelled with the probability
/// that B is submitted within Δt of an occurrence of A. Probabilities are
/// estimated online as (#occurrences of A followed by ≥1 B within Δt) /
/// (#occurrences of A), matching the worked example in Fig. 3 (the Q2→Q2
/// self-edge has probability 99/100 after a 100-iteration loop).
class TransitionGraph {
 public:
  /// `delta_t` is the temporal-correlation window; `window_cap` bounds the
  /// retained occurrence history (memory guard for bursty clients).
  explicit TransitionGraph(SimTime delta_t, size_t window_cap = 64,
                           ExtractThresholds thresholds = {});

  /// Moves on every Observe that changes what graph extraction reads under
  /// `thresholds`: a new node, a node reaching min_occurrences, or an edge
  /// it re-weights crossing tau in either direction. Equal generations
  /// mean equal extraction inputs.
  uint64_t generation() const { return generation_; }

  /// Records a query submission at virtual time `now`.
  void Observe(TemplateId tmpl, SimTime now);

  /// P(to within Δt | from), or 0 if `from` was never seen.
  double Probability(TemplateId from, TemplateId to) const;

  uint64_t Occurrences(TemplateId tmpl) const;

  /// Successor templates with edge probability >= tau.
  std::vector<TemplateId> CorrelatedSuccessors(TemplateId from,
                                               double tau) const;

  /// Predecessor templates `p` such that P(tmpl | p) >= tau.
  std::vector<TemplateId> CorrelatedPredecessors(TemplateId tmpl,
                                                 double tau) const;

  /// All nodes ever observed.
  std::vector<TemplateId> Nodes() const;

  /// Directed edges with probability >= tau (the τ-pruned graph that loop
  /// detection runs Tarjan's algorithm over, §2.2).
  std::vector<std::pair<TemplateId, TemplateId>> TauEdges(double tau) const;

 private:
  struct Occurrence {
    TemplateId tmpl;
    SimTime time;
    uint64_t seq;  // arrival number
  };

  // An edge counted `count` times out of `from` occurrences of its source
  // is in the τ-pruned graph: it exists and P >= tau, computed exactly as
  // Probability() computes P.
  bool AboveTau(uint64_t count, uint64_t from) const {
    return count > 0 && from > 0 &&
           static_cast<double>(count) / static_cast<double>(from) >=
               thresholds_.tau;
  }

  SimTime delta_t_;
  size_t window_cap_;
  ExtractThresholds thresholds_;
  uint64_t generation_ = 0;
  std::deque<Occurrence> recent_;  // live occurrences, in arrival order
  uint64_t next_seq_ = 0;
  // Arrival number of each template's latest occurrence.
  std::unordered_map<TemplateId, uint64_t> last_seq_;
  std::unordered_map<TemplateId, uint64_t> occurrences_;
  // edge counts: from -> (to -> count)
  std::unordered_map<TemplateId, std::unordered_map<TemplateId, uint64_t>>
      edges_;
  // reverse adjacency for predecessor queries
  std::unordered_map<TemplateId, std::vector<TemplateId>> preds_;
};

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_TRANSITION_GRAPH_H_
