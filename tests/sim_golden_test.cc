// Pins the simulator's output: every workload under every system mode, a
// two-node deployment, the five TPC-E ablations and a journaled run,
// compared exactly (no tolerance) against tests/data/sim_golden.txt. Any
// change to the simulated pipeline — analysis, learning, combining,
// caching, scheduling, journaling — shows up here as a diff. When a change is meant to alter simulator output, the
// failing test writes the new output next to the test temp dir; review it
// and copy it over the golden file.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment.h"
#include "obs/journal.h"
#include "workloads/auctionmark.h"
#include "workloads/seats.h"
#include "workloads/tpce.h"
#include "workloads/wikipedia.h"

namespace chrono::harness {
namespace {

using MakeWorkload = std::function<std::unique_ptr<workloads::Workload>()>;

struct NamedWorkload {
  const char* name;
  MakeWorkload make;
};

std::vector<NamedWorkload> Workloads() {
  return {
      {"tpce", [] { return std::make_unique<workloads::TpceWorkload>(); }},
      {"wikipedia",
       [] { return std::make_unique<workloads::WikipediaWorkload>(); }},
      {"seats", [] { return std::make_unique<workloads::SeatsWorkload>(); }},
      {"auctionmark",
       [] { return std::make_unique<workloads::AuctionMarkWorkload>(); }},
  };
}

ExperimentConfig ShortWindow(core::SystemMode mode) {
  ExperimentConfig config;
  config.clients = 10;
  config.warmup = 1 * kMicrosPerSecond;
  config.duration = 4 * kMicrosPerSecond;
  config.seed = 1;
  config.middleware.mode = mode;
  return config;
}

std::string Line(const std::string& label, const ExperimentResult& r) {
  const core::MiddlewareMetrics& m = r.metrics;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "%s reads=%" PRIu64 " writes=%" PRIu64 " cache_hits=%" PRIu64
      " cache_rejects=%" PRIu64 " remote_plain=%" PRIu64
      " remote_combined=%" PRIu64 " predictions_cached=%" PRIu64
      " prediction_fallbacks=%" PRIu64 " redundant_skips=%" PRIu64
      " backend_coalesced=%" PRIu64 " sequential_prefetches=%" PRIu64
      " backend_retries=%" PRIu64
      " avg_ms=%.17g p50_ms=%.17g p95_ms=%.17g db_requests=%" PRIu64,
      label.c_str(), m.reads, m.writes, m.cache_hits, m.cache_rejects,
      m.remote_plain, m.remote_combined, m.predictions_cached,
      m.prediction_fallbacks, m.redundant_skips, m.backend_coalesced,
      m.sequential_prefetches, m.backend_retries,
      r.avg_response_ms, r.p50_ms, r.p95_ms, r.db_requests);
  return buf;
}

/// FNV-1a over every field of every record, in file order.
uint64_t HashEvents(const std::vector<obs::JournalEvent>& events) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const obs::JournalEvent& e : events) {
    mix(e.ts_us);
    mix(e.plan);
    mix(e.src);
    mix(e.tmpl);
    mix(e.a);
    mix(e.b);
    mix(e.c);
    mix(e.client);
    mix(static_cast<uint64_t>(e.type));
    mix(e.flags);
  }
  return h;
}

std::string Actual() {
  std::ostringstream out;
  const std::pair<core::SystemMode, const char*> modes[] = {
      {core::SystemMode::kLru, "lru"},
      {core::SystemMode::kApollo, "apollo"},
      {core::SystemMode::kScalpelE, "scalpel-e"},
      {core::SystemMode::kScalpelCC, "scalpel-cc"},
      {core::SystemMode::kChrono, "chrono"},
  };
  for (const NamedWorkload& w : Workloads()) {
    for (const auto& [mode, mode_name] : modes) {
      out << Line(std::string(w.name) + "/" + mode_name,
                  RunExperiment(w.make, ShortWindow(mode)))
          << "\n";
    }
  }

  const MakeWorkload tpce = Workloads().front().make;
  ExperimentConfig two_nodes = ShortWindow(core::SystemMode::kChrono);
  two_nodes.nodes = 2;
  out << Line("tpce/chrono/nodes=2", RunExperiment(tpce, two_nodes)) << "\n";

  // The five ablation switches, each turned off on the chrono profile
  // through ExperimentConfig::middleware, as bench_ablation turns them off.
  const std::pair<const char*, bool core::MiddlewareConfig::*> ablations[] = {
      {"-loops", &core::MiddlewareConfig::enable_loops},
      {"-loopconst", &core::MiddlewareConfig::enable_loop_constants},
      {"-combining", &core::MiddlewareConfig::enable_combining},
      {"-subsumption", &core::MiddlewareConfig::enable_subsumption},
      {"-redundancy", &core::MiddlewareConfig::enable_redundancy_check},
  };
  for (const auto& [name, ablation] : ablations) {
    ExperimentConfig ablated = ShortWindow(core::SystemMode::kChrono);
    ablated.middleware.*ablation = false;
    out << Line(std::string("tpce/chrono/") + name,
                RunExperiment(tpce, ablated))
        << "\n";
  }

  ExperimentConfig journaled = ShortWindow(core::SystemMode::kChrono);
  journaled.journal_out = ::testing::TempDir() + "sim_golden_journal.chrj";
  ExperimentResult jr = RunExperiment(tpce, journaled);
  auto events = obs::ReadJournalFile(journaled.journal_out);
  std::remove(journaled.journal_out.c_str());
  EXPECT_TRUE(events.ok()) << events.status().ToString();
  char tail[128];
  std::snprintf(tail, sizeof(tail),
                " journal_events=%" PRIu64 " journal_hash=%016" PRIx64,
                jr.journal_events,
                events.ok() ? HashEvents(*events) : uint64_t{0});
  out << Line("tpce/chrono/journaled", jr) << tail << "\n";
  return out.str();
}

TEST(SimGolden, OutputMatchesRecordedGolden) {
  const std::string golden_path =
      std::string(CHRONO_TEST_DATA_DIR) + "/sim_golden.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing " << golden_path;
  std::stringstream golden;
  golden << in.rdbuf();

  const std::string actual = Actual();
  if (actual != golden.str()) {
    const std::string actual_path =
        ::testing::TempDir() + "sim_golden.actual.txt";
    std::ofstream(actual_path) << actual;
    // Line-by-line report so the first diverging run is easy to spot.
    std::istringstream a(actual), g(golden.str());
    std::string al, gl;
    int line = 1;
    while (std::getline(g, gl)) {
      std::getline(a, al);
      EXPECT_EQ(al, gl) << "line " << line;
      al.clear();
      ++line;
    }
    ADD_FAILURE() << "simulator output differs from " << golden_path
                  << "; actual output written to " << actual_path;
  }
}

}  // namespace
}  // namespace chrono::harness
