#include <gtest/gtest.h>

#include "core/transition_graph.h"

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace chrono::core {
namespace {

constexpr SimTime kMs = kMicrosPerMilli;

TEST(TransitionGraph, SimpleSequenceProbability) {
  TransitionGraph g(200 * kMs);
  // Q1 always followed by Q2.
  SimTime t = 0;
  for (int i = 0; i < 10; ++i) {
    g.Observe(1, t);
    t += 10 * kMs;
    g.Observe(2, t);
    t += 300 * kMs;  // gap exceeding delta_t between iterations
  }
  EXPECT_DOUBLE_EQ(g.Probability(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(g.Probability(2, 1), 0.0);
  EXPECT_EQ(g.Occurrences(1), 10u);
}

// The worked example of Fig. 3: a 100-iteration loop gives the Q2 self-edge
// probability 99/100 and Q2->Q3 probability 1/100.
TEST(TransitionGraph, Figure3LoopExample) {
  // The paper's 99/100 and 1/100 arise when delta_t spans one inter-query
  // gap; a wider window also credits earlier loop iterations.
  TransitionGraph g(static_cast<SimTime>(1.5 * kMs));
  SimTime t = 0;
  g.Observe(1, t);
  for (int i = 0; i < 100; ++i) {
    t += 1 * kMs;
    g.Observe(2, t);
  }
  t += 1 * kMs;
  g.Observe(3, t);
  EXPECT_DOUBLE_EQ(g.Probability(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(g.Probability(2, 2), 99.0 / 100.0);
  EXPECT_DOUBLE_EQ(g.Probability(2, 3), 1.0 / 100.0);
}

TEST(TransitionGraph, WindowExpiry) {
  TransitionGraph g(50 * kMs);
  g.Observe(1, 0);
  g.Observe(2, 100 * kMs);  // outside delta_t of Q1
  EXPECT_DOUBLE_EQ(g.Probability(1, 2), 0.0);
}

TEST(TransitionGraph, MultipleSuccessorsWithinWindowAllCredited) {
  TransitionGraph g(200 * kMs);
  g.Observe(1, 0);
  g.Observe(2, 10 * kMs);
  g.Observe(3, 20 * kMs);
  EXPECT_DOUBLE_EQ(g.Probability(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(g.Probability(1, 3), 1.0);
  EXPECT_DOUBLE_EQ(g.Probability(2, 3), 1.0);
}

TEST(TransitionGraph, SameSuccessorCountedOncePerOccurrence) {
  TransitionGraph g(1000 * kMs);
  g.Observe(1, 0);
  g.Observe(2, 10 * kMs);
  g.Observe(2, 20 * kMs);
  g.Observe(2, 30 * kMs);
  // Three Q2s within delta_t of the single Q1: probability stays <= 1.
  EXPECT_DOUBLE_EQ(g.Probability(1, 2), 1.0);
}

TEST(TransitionGraph, CorrelatedSuccessorsRespectTau) {
  TransitionGraph g(200 * kMs);
  SimTime t = 0;
  for (int i = 0; i < 10; ++i) {
    g.Observe(1, t);
    t += 10 * kMs;
    // 80% of the time Q2 follows; 20% Q3.
    g.Observe(i < 8 ? 2 : 3, t);
    t += 300 * kMs;
  }
  EXPECT_EQ(g.CorrelatedSuccessors(1, 0.8), (std::vector<TemplateId>{2}));
  EXPECT_EQ(g.CorrelatedSuccessors(1, 0.1),
            (std::vector<TemplateId>{2, 3}));
  EXPECT_TRUE(g.CorrelatedSuccessors(1, 0.9).empty());
}

TEST(TransitionGraph, CorrelatedPredecessors) {
  TransitionGraph g(200 * kMs);
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) {
    g.Observe(1, t);
    t += 10 * kMs;
    g.Observe(2, t);
    t += 300 * kMs;
  }
  EXPECT_EQ(g.CorrelatedPredecessors(2, 0.8), (std::vector<TemplateId>{1}));
  EXPECT_TRUE(g.CorrelatedPredecessors(1, 0.8).empty());
}

TEST(TransitionGraph, TauEdgesFormPrunedGraph) {
  TransitionGraph g(20 * kMs);
  SimTime t = 0;
  // A 10-iteration alternating loop (1,2,1,2,...): both directions of the
  // loop edge exceed tau = 0.8 (Sec. 2.2's SCC precondition).
  for (int i = 0; i < 10; ++i) {
    g.Observe(1, t);
    t += 5 * kMs;
    g.Observe(2, t);
    t += 5 * kMs;
  }
  auto edges = g.TauEdges(0.8);
  EXPECT_NE(std::find(edges.begin(), edges.end(),
                      std::make_pair(TemplateId{1}, TemplateId{2})),
            edges.end());
  EXPECT_NE(std::find(edges.begin(), edges.end(),
                      std::make_pair(TemplateId{2}, TemplateId{1})),
            edges.end());
}

TEST(TransitionGraph, NodesListsAllObserved) {
  TransitionGraph g(200 * kMs);
  g.Observe(5, 0);
  g.Observe(3, 0);
  g.Observe(5, 0);
  EXPECT_EQ(g.Nodes(), (std::vector<TemplateId>{3, 5}));
}

TEST(TransitionGraph, UnknownTemplatesSafe) {
  TransitionGraph g(200 * kMs);
  EXPECT_DOUBLE_EQ(g.Probability(1, 2), 0.0);
  EXPECT_EQ(g.Occurrences(42), 0u);
  EXPECT_TRUE(g.CorrelatedSuccessors(42, 0.5).empty());
}

TEST(TransitionGraph, WindowCapBoundsMemory) {
  TransitionGraph g(1000 * 1000 * kMs, /*window_cap=*/4);
  // A burst of distinct templates at the same instant: only the last 4
  // occurrences may be credited as predecessors.
  for (TemplateId i = 0; i < 100; ++i) g.Observe(i, 0);
  // Template 0 fell out of the cap; its edge to 99 cannot exist.
  EXPECT_DOUBLE_EQ(g.Probability(0, 99), 0.0);
  EXPECT_DOUBLE_EQ(g.Probability(98, 99), 1.0);
}

// The generation moves exactly when graph extraction's inputs may move: a
// new node, a node reaching min_occurrences, an edge crossing tau.
TEST(TransitionGraph, GenerationTracksExtractionInputs) {
  TransitionGraph g(200 * kMs, /*window_cap=*/64, {0.8, 3});
  SimTime t = 0;
  auto round = [&] {
    g.Observe(1, t);
    g.Observe(2, t + 10 * kMs);
    t += 300 * kMs;
  };
  uint64_t last = g.generation();
  round();  // two new nodes, and 1 -> 2 at P = 1
  EXPECT_GT(g.generation(), last);
  // Each arrival of 1 dips P(1 -> 2) to n / (n + 1) until 2 follows: from
  // n = 4 on the dip stays at or above tau.
  for (int i = 0; i < 4; ++i) round();
  last = g.generation();
  for (int i = 0; i < 20; ++i) round();  // steady: nothing crosses
  EXPECT_EQ(g.generation(), last);

  // Template 1 now runs alone: P(1 -> 2) decays through tau.
  bool crossed = false;
  for (int i = 0; i < 10 && !crossed; ++i) {
    g.Observe(1, t);
    t += 300 * kMs;
    crossed = g.Probability(1, 2) < 0.8;
    if (!crossed) {
      EXPECT_EQ(g.generation(), last);
    }
  }
  ASSERT_TRUE(crossed);
  EXPECT_GT(g.generation(), last);
}

// Against the direct reading of the counting rule: each live occurrence
// remembers the successors it already credited. Random sequences with
// jittered gaps and a small window cap give the same counts.
TEST(TransitionGraph, CreditsMatchPerOccurrenceBookkeeping) {
  struct Reference {
    struct Occ {
      TemplateId tmpl;
      SimTime time;
      std::vector<TemplateId> counted;
    };
    std::deque<Occ> recent;
    std::map<std::pair<TemplateId, TemplateId>, uint64_t> edges;
    std::map<TemplateId, uint64_t> occurrences;
    void Observe(TemplateId tmpl, SimTime now, SimTime delta_t, size_t cap) {
      while (!recent.empty() &&
             (recent.front().time < now - delta_t || recent.size() >= cap)) {
        recent.pop_front();
      }
      for (auto& occ : recent) {
        if (std::find(occ.counted.begin(), occ.counted.end(), tmpl) !=
            occ.counted.end()) {
          continue;
        }
        occ.counted.push_back(tmpl);
        ++edges[{occ.tmpl, tmpl}];
      }
      ++occurrences[tmpl];
      recent.push_back({tmpl, now, {}});
    }
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TransitionGraph g(50 * kMs, /*window_cap=*/6);
    Reference ref;
    Rng rng(seed);
    SimTime t = 0;
    for (int i = 0; i < 2000; ++i) {
      const TemplateId tmpl = rng.NextBounded(6);
      g.Observe(tmpl, t);
      ref.Observe(tmpl, t, 50 * kMs, 6);
      t += rng.NextInt(0, 30) * kMs;
    }
    for (TemplateId from = 0; from < 6; ++from) {
      ASSERT_EQ(g.Occurrences(from), ref.occurrences[from]);
      for (TemplateId to = 0; to < 6; ++to) {
        const uint64_t count = ref.edges[{from, to}];
        EXPECT_DOUBLE_EQ(g.Probability(from, to),
                         count == 0 ? 0.0
                                    : static_cast<double>(count) /
                                          static_cast<double>(
                                              ref.occurrences[from]))
            << from << " -> " << to;
      }
    }
  }
}

// Against brute force: after every Observe of a random sequence, the
// generation moved exactly when the extractor's view changed — the node
// set, the nodes at min_occurrences, or TauEdges(tau).
TEST(TransitionGraph, GenerationMovesExactlyWhenExtractionInputsChange) {
  for (double tau : {0.8, 0.5, 0.25}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE("tau " + std::to_string(tau) + " seed " +
                   std::to_string(seed));
      TransitionGraph g(200 * kMs, /*window_cap=*/64, {tau, 3});
      Rng rng(seed);
      auto view = [&] {
        std::vector<TemplateId> counted;
        for (TemplateId n : g.Nodes()) {
          if (g.Occurrences(n) >= 3) counted.push_back(n);
        }
        return std::make_tuple(g.Nodes(), counted, g.TauEdges(tau));
      };
      auto last = view();
      SimTime t = 0;
      for (int i = 0; i < 3000; ++i) {
        const uint64_t generation = g.generation();
        g.Observe(rng.NextBounded(8), t);
        t += rng.NextBool(0.2) ? rng.NextInt(100, 400) * kMs
                               : rng.NextInt(1, 60) * kMs;
        auto now = view();
        ASSERT_EQ(g.generation() != generation, now != last)
            << "observation " << i;
        last = std::move(now);
      }
    }
  }
}

}  // namespace
}  // namespace chrono::core
