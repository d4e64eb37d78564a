#include "core/transition_graph.h"

#include <algorithm>
#include <iterator>

namespace chrono::core {

TransitionGraph::TransitionGraph(SimTime delta_t, size_t window_cap,
                                 ExtractThresholds thresholds)
    : delta_t_(delta_t), window_cap_(window_cap), thresholds_(thresholds) {}

void TransitionGraph::Observe(TemplateId tmpl, SimTime now) {
  // Expire occurrences that fell out of the Δt window.
  while (!recent_.empty() && (recent_.front().time < now - delta_t_ ||
                              recent_.size() >= window_cap_)) {
    recent_.pop_front();
  }
  // Whether this arrival moves what extraction reads (generation()). An
  // in-edge it credits only gains, so it crosses tau at most once, upward.
  bool moved = false;
  uint64_t self_credits = 0;
  // Credit this submission as a successor of each live prior occurrence,
  // at most once per (occurrence, template) pair. An occurrence stays live
  // from its arrival until it expires, so the ones tmpl has not credited
  // yet are exactly those from tmpl's latest occurrence on.
  auto first = recent_.end();
  if (auto last = last_seq_.find(tmpl); last == last_seq_.end()) {
    first = recent_.begin();
  } else {
    while (first != recent_.begin() && std::prev(first)->seq >= last->second) {
      --first;
    }
  }
  for (auto it = first; it != recent_.end(); ++it) {
    const Occurrence& occ = *it;
    auto& count = edges_[occ.tmpl][tmpl];
    if (count == 0) {
      auto& preds = preds_[tmpl];
      if (std::find(preds.begin(), preds.end(), occ.tmpl) == preds.end()) {
        preds.push_back(occ.tmpl);
      }
    }
    if (occ.tmpl == tmpl) {
      ++self_credits;  // its denominator moves too: judged below
    } else if (!moved) {
      const uint64_t from = occurrences_[occ.tmpl];
      moved = !AboveTau(count, from) && AboveTau(count + 1, from);
    }
    ++count;
  }
  uint64_t& occurrences = occurrences_[tmpl];
  const uint64_t before = occurrences++;
  moved = moved || before == 0 ||
          occurrences == thresholds_.min_occurrences;
  // Every out-edge's denominator grew.
  if (!moved) {
    if (auto out = edges_.find(tmpl); out != edges_.end()) {
      for (const auto& [to, count] : out->second) {
        const uint64_t old_count = to == tmpl ? count - self_credits : count;
        if (AboveTau(old_count, before) != AboveTau(count, occurrences)) {
          moved = true;
          break;
        }
      }
    }
  }
  if (moved) ++generation_;
  last_seq_[tmpl] = next_seq_;
  recent_.push_back(Occurrence{tmpl, now, next_seq_++});
}

double TransitionGraph::Probability(TemplateId from, TemplateId to) const {
  auto occ_it = occurrences_.find(from);
  if (occ_it == occurrences_.end() || occ_it->second == 0) return 0;
  auto from_it = edges_.find(from);
  if (from_it == edges_.end()) return 0;
  auto to_it = from_it->second.find(to);
  if (to_it == from_it->second.end()) return 0;
  return static_cast<double>(to_it->second) /
         static_cast<double>(occ_it->second);
}

uint64_t TransitionGraph::Occurrences(TemplateId tmpl) const {
  auto it = occurrences_.find(tmpl);
  return it == occurrences_.end() ? 0 : it->second;
}

std::vector<TemplateId> TransitionGraph::CorrelatedSuccessors(
    TemplateId from, double tau) const {
  std::vector<TemplateId> out;
  auto it = edges_.find(from);
  if (it == edges_.end()) return out;
  for (const auto& [to, count] : it->second) {
    (void)count;
    if (Probability(from, to) >= tau) out.push_back(to);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TemplateId> TransitionGraph::CorrelatedPredecessors(
    TemplateId tmpl, double tau) const {
  std::vector<TemplateId> out;
  auto it = preds_.find(tmpl);
  if (it == preds_.end()) return out;
  for (TemplateId p : it->second) {
    if (Probability(p, tmpl) >= tau) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TemplateId> TransitionGraph::Nodes() const {
  std::vector<TemplateId> out;
  out.reserve(occurrences_.size());
  for (const auto& [tmpl, count] : occurrences_) {
    (void)count;
    out.push_back(tmpl);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<TemplateId, TemplateId>> TransitionGraph::TauEdges(
    double tau) const {
  std::vector<std::pair<TemplateId, TemplateId>> out;
  for (const auto& [from, targets] : edges_) {
    for (const auto& [to, count] : targets) {
      (void)count;
      if (Probability(from, to) >= tau) out.emplace_back(from, to);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace chrono::core
