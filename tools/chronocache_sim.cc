// chronocache_sim — command-line driver for the simulated deployment.
//
// Examples:
//   chronocache_sim --workload tpce --mode chrono --clients 20
//   chronocache_sim --workload wikipedia --mode lru --duration 120 --timeline
//   chronocache_sim --workload seats --mode chrono --nodes 3 --clients 60
//
// Run with --help for the full flag list.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "harness/experiment.h"
#include "workloads/auctionmark.h"
#include "workloads/seats.h"
#include "workloads/tpce.h"
#include "workloads/trace_replay.h"
#include "workloads/wikipedia.h"

using namespace chrono;

namespace {

void Usage() {
  std::printf(
      "chronocache_sim — ChronoCache deployment simulator\n\n"
      "  --workload NAME   tpce | wikipedia | seats | auctionmark "
      "(default tpce)\n"
      "  --trace FILE      replay a SQL trace file instead (see "
      "src/workloads/trace_replay.h)\n"
      "  --mode NAME       chrono | scalpel-cc | scalpel-e | apollo | lru "
      "(default chrono)\n"
      "  --clients N       concurrent clients (default 10)\n"
      "  --nodes N         middleware nodes (default 1)\n"
      "  --warmup SECS     virtual warm-up before measuring (default 20)\n"
      "  --duration SECS   virtual measurement window (default 60)\n"
      "  --tau X           temporal correlation threshold (default 0.8)\n"
      "  --cache-kb N      edge cache size in KiB (default 65536)\n"
      "  --wan-ms N        WAN round-trip in ms (default 70)\n"
      "  --runs N          seeded repetitions (default 1); counters print\n"
      "                    as means over the runs, errors as their sum\n"
      "  --seed N          base RNG seed (default 1)\n"
      "  --groups N        security groups, clients round-robin (default 1)\n"
      "  --journal-out F   persist the prefetch-efficacy event journal to F\n"
      "                    (virtual timestamps; analyze with chrono_audit;\n"
      "                    with --runs N the file holds the last run)\n"
      "  --timeline        print the per-bucket learning curve\n"
      "  --no-loops / --no-loop-constants / --no-combining /\n"
      "  --no-subsumption / --no-redundancy-check\n"
      "                    ablation switches, ANDed with the mode's profile\n");
}

core::SystemMode ParseMode(const std::string& name) {
  if (name == "chrono") return core::SystemMode::kChrono;
  if (name == "scalpel-cc") return core::SystemMode::kScalpelCC;
  if (name == "scalpel-e") return core::SystemMode::kScalpelE;
  if (name == "apollo") return core::SystemMode::kApollo;
  if (name == "lru") return core::SystemMode::kLru;
  std::fprintf(stderr, "unknown mode: %s\n", name.c_str());
  std::exit(2);
}

// Strict flag-value parsers: reject malformed numbers with a clear message
// and exit 2 instead of silently reading atoi's 0.
int64_t IntFlag(const std::string& flag, const std::string& value) {
  int64_t out = 0;
  if (!ParseInt64(value, &out)) {
    std::fprintf(stderr, "invalid value for %s: '%s' (expected an integer)\n",
                 flag.c_str(), value.c_str());
    std::exit(2);
  }
  return out;
}

uint64_t UintFlag(const std::string& flag, const std::string& value) {
  uint64_t out = 0;
  if (!ParseUint64(value, &out)) {
    std::fprintf(stderr,
                 "invalid value for %s: '%s' (expected a non-negative "
                 "integer)\n",
                 flag.c_str(), value.c_str());
    std::exit(2);
  }
  return out;
}

double DoubleFlag(const std::string& flag, const std::string& value) {
  double out = 0;
  if (!ParseDouble(value, &out)) {
    std::fprintf(stderr, "invalid value for %s: '%s' (expected a number)\n",
                 flag.c_str(), value.c_str());
    std::exit(2);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name = "tpce";
  std::string trace_path;
  harness::ExperimentConfig config;
  int runs = 1;
  bool timeline = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--workload") {
      workload_name = next();
    } else if (arg == "--trace") {
      trace_path = next();
      workload_name = "trace:" + trace_path;
    } else if (arg == "--mode") {
      config.middleware.mode = ParseMode(next());
    } else if (arg == "--clients") {
      config.clients = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--nodes") {
      config.nodes = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--warmup") {
      config.warmup = IntFlag(arg, next()) * kMicrosPerSecond;
    } else if (arg == "--duration") {
      config.duration = IntFlag(arg, next()) * kMicrosPerSecond;
    } else if (arg == "--tau") {
      config.middleware.tau = DoubleFlag(arg, next());
    } else if (arg == "--cache-kb") {
      config.middleware.cache_bytes =
          static_cast<size_t>(UintFlag(arg, next())) * 1024;
    } else if (arg == "--wan-ms") {
      config.latency.wan_rtt = IntFlag(arg, next()) * kMicrosPerMilli;
    } else if (arg == "--runs") {
      runs = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--seed") {
      config.seed = UintFlag(arg, next());
    } else if (arg == "--groups") {
      config.security_groups = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--journal-out") {
      config.journal_out = next();
    } else if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--no-loops") {
      config.middleware.enable_loops = false;
    } else if (arg == "--no-loop-constants") {
      config.middleware.enable_loop_constants = false;
    } else if (arg == "--no-combining") {
      config.middleware.enable_combining = false;
    } else if (arg == "--no-subsumption") {
      config.middleware.enable_subsumption = false;
    } else if (arg == "--no-redundancy-check") {
      config.middleware.enable_redundancy_check = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 2;
    }
  }

  // Range checks: well-formed but nonsensical values also exit 2.
  auto reject = [](const char* flag, const char* why) {
    std::fprintf(stderr, "invalid value for %s: %s\n", flag, why);
    std::exit(2);
  };
  if (config.clients < 1) reject("--clients", "must be >= 1");
  if (config.nodes < 1) reject("--nodes", "must be >= 1");
  if (config.duration <= 0) reject("--duration", "must be > 0");
  if (config.warmup < 0) reject("--warmup", "must be >= 0");
  if (runs < 1) reject("--runs", "must be >= 1");
  if (config.latency.wan_rtt < 0) reject("--wan-ms", "must be >= 0");
  if (!(config.middleware.tau >= 0 && config.middleware.tau <= 1)) {
    reject("--tau", "must be in [0, 1]");
  }

  std::function<std::unique_ptr<workloads::Workload>()> make_workload;
  if (!trace_path.empty()) {
    // Validate the trace once up front for a friendly error message.
    auto probe = workloads::TraceReplayWorkload::FromFile(trace_path);
    if (!probe.ok()) {
      std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
      return 2;
    }
    make_workload = [trace_path] {
      auto workload = workloads::TraceReplayWorkload::FromFile(trace_path);
      return std::move(*workload);
    };
  } else if (workload_name == "tpce") {
    make_workload = [] { return std::make_unique<workloads::TpceWorkload>(); };
  } else if (workload_name == "wikipedia") {
    make_workload = [] {
      return std::make_unique<workloads::WikipediaWorkload>();
    };
  } else if (workload_name == "seats") {
    make_workload = [] { return std::make_unique<workloads::SeatsWorkload>(); };
  } else if (workload_name == "auctionmark") {
    make_workload = [] {
      return std::make_unique<workloads::AuctionMarkWorkload>();
    };
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", workload_name.c_str());
    return 2;
  }

  std::printf("workload=%s system=%s clients=%d nodes=%d wan=%lldms "
              "warmup=%llds duration=%llds runs=%d\n\n",
              workload_name.c_str(),
              core::SystemModeName(config.middleware.mode), config.clients,
              config.nodes,
              static_cast<long long>(config.latency.wan_rtt / kMicrosPerMilli),
              static_cast<long long>(config.warmup / kMicrosPerSecond),
              static_cast<long long>(config.duration / kMicrosPerSecond),
              runs);

  // Each counter prints as its mean over the runs; errors as their sum.
  using R = const harness::ExperimentResult&;
  std::vector<harness::ExperimentResult> each;
  std::string first_error;
  harness::RepeatedResult result =
      harness::RunRepeated(make_workload, config, runs, [&](R r) {
        each.push_back(r);
        if (first_error.empty()) first_error = r.first_error;
      });
  const harness::ExperimentResult& last = result.last;
  auto mean = [&each](auto field) {
    double sum = 0;
    for (R r : each) sum += static_cast<double>(field(r));
    return sum / static_cast<double>(each.size());
  };

  if (runs > 1) {
    std::printf("(means of %d runs, errors summed; the sections below the "
                "counters are the last run's)\n", runs);
  }
  std::printf("avg response     : %.2f ms (±%.2f, %d runs)\n",
              result.response_ms.Mean(),
              result.response_ms.ConfidenceInterval95(), runs);
  std::printf("p50 / p95        : %.2f / %.2f ms\n",
              mean([](R r) { return r.p50_ms; }),
              mean([](R r) { return r.p95_ms; }));
  std::printf("cache hit rate   : %.1f%%\n", result.hit_rate.Mean() * 100.0);
  std::printf("queries measured : %.0f (%.0f transactions)\n",
              mean([](R r) { return r.queries_measured; }),
              mean([](R r) { return r.transactions; }));
  std::printf("db requests      : %.0f\n", result.db_requests.Mean());
  std::printf("combined queries : %.0f\n", result.combined.Mean());
  std::printf("prefetched sets  : %.0f\n",
              mean([](R r) { return r.metrics.predictions_cached; }));
  std::printf("seq prefetches   : %.0f\n",
              mean([](R r) { return r.metrics.sequential_prefetches; }));
  std::printf("redundant skips  : %.0f\n",
              mean([](R r) { return r.metrics.redundant_skips; }));
  std::printf("session rejects  : %.0f\n",
              mean([](R r) { return r.metrics.cache_rejects; }));
  std::printf("errors           : %llu%s%s\n",
              static_cast<unsigned long long>(result.errors),
              result.errors > 0 ? " first: " : "", first_error.c_str());
  if (!config.journal_out.empty()) {
    std::printf("journal          : %llu events -> %s\n",
                static_cast<unsigned long long>(last.journal_events),
                config.journal_out.c_str());
  }

  if (!last.by_transaction.empty()) {
    std::printf("\nper transaction type (avg query latency):\n");
    for (const auto& [name, ms, n] : last.by_transaction) {
      std::printf("  %-22s %8.2f ms  (%llu queries)\n", name.c_str(), ms,
                  static_cast<unsigned long long>(n));
    }
  }

  if (timeline) {
    std::printf("\nlearning curve (bucket start -> avg ms):\n");
    for (const auto& [sec, ms] : last.timeline) {
      int bar = static_cast<int>(ms / 2);
      std::printf("  %5.0fs %8.2f ms  %.*s\n", sec, ms, bar > 60 ? 60 : bar,
                  "############################################################");
    }
  }
  return result.errors == 0 ? 0 : 1;
}
