// chronobench — the repository's benchmark. Runs one workload against a
// wall-clock ChronoCache node and prints every metric by name and unit;
// the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a traced run. Exit 0 when every output check
// passes, 1 when one fails, 2 on a usage error. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <thread>

#include "bench.h"

namespace chronobench {
namespace {

using chrono::obs::HistogramSnapshot;
using chrono::obs::Labels;
using chrono::obs::RegistrySnapshot;

void Usage(FILE* out) {
  std::string names;
  for (const std::string& n : WorkloadNames()) names += (names.empty() ? "" : "|") + n;
  std::fprintf(out,
               "usage: chronobench --workload %s [--seed N] [--seconds S]\n"
               "                   [--trace 0|1] [--trace-out FILE]\n"
               "                   [--mode chrono|lru] [--rate TXN_PER_S]\n",
               names.c_str());
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      std::exit(0);
    } else if (arg == "--workload" && value(&v)) {
      options->workload = v;
    } else if (arg == "--seed" && value(&v)) {
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && value(&v)) {
      options->seconds = std::atof(v);
    } else if (arg == "--trace" && value(&v)) {
      options->trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--trace-out" && value(&v)) {
      options->trace_out = v;
    } else if (arg == "--mode" && value(&v)) {
      if (std::strcmp(v, "lru") != 0 && std::strcmp(v, "chrono") != 0) {
        return false;
      }
      options->lru = std::strcmp(v, "lru") == 0;
    } else if (arg == "--rate" && value(&v)) {
      options->rate = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return options->seconds > 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of unsorted samples (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Mean of the largest `share` of the samples (at least one); share 1 is
/// the plain mean. Unlike a quantile it does not jump when the latency
/// distribution has a gap at the quantile: the programs' latencies cluster
/// at whole numbers of WAN round trips, and p50 and p99 of a TPC-E window
/// sit on such gaps.
double TailMean(std::vector<double> v, double share) {
  if (v.empty()) return 0;
  const size_t k = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(share * static_cast<double>(v.size()))), 1,
      v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k - 1), v.end(),
                   std::greater<double>());
  double sum = 0;
  for (size_t i = 0; i < k; ++i) sum += v[i];
  return sum / static_cast<double>(k);
}

constexpr int kSubRuns = 5;
constexpr double kTailShare = 0.05;  // txn_tail_mean_ms: the slowest 5%
constexpr int kSetupsPerSubRun = 2;
// Two seconds leave about ten transactions in the slowest 5% of a slice of
// the 100 txn/s open loop.
constexpr double kSliceNs = 2e9;

/// The transactions of one interval [a, b). Closed loop: those that
/// finished in it. Open loop: those that were due in it, however late they
/// finished. `completed` counts finishes in the interval in both cases,
/// matching the node's counters read at its ends.
struct Txns {
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t good = 0;  // OK and within the latency limit
  uint64_t completed = 0;
};

Txns CountTxns(const std::vector<ClientLog>& logs, const WorkloadSpec& spec,
               int64_t a, int64_t b) {
  Txns out;
  for (const ClientLog& log : logs) {
    for (const TxnSample& t : log.txns) {
      if (t.end_ns >= a && t.end_ns < b) ++out.completed;
      const int64_t when = spec.open_loop ? t.due_ns : t.end_ns;
      if (when < a || when >= b) continue;
      const double ms = static_cast<double>(t.end_ns - t.due_ns) * 1e-6;
      ++out.attempted;
      out.latency_ms.push_back(ms);
      if (!t.ok) ++out.failed;
      if (t.ok && ms <= spec.latency_limit_ms) ++out.good;
    }
  }
  return out;
}

/// Counters read at a window boundary.
struct Snap {
  int64_t at_ns = 0;
  chrono::runtime::ServerMetrics server;
  double process_cpu_s = 0;
  double client_cpu_s = 0;
  uint64_t db_statements = 0;
  uint64_t evictions = 0;
  uint64_t template_hits = 0;
  uint64_t template_misses = 0;
  uint64_t tasks_shed = 0;
  uint64_t wire_bytes = 0;
  // Traced run only.
  RegistrySnapshot registry;
  uint64_t prefetch_installed = 0;
  uint64_t prefetch_used = 0;
  uint64_t prefetch_wasted_bytes = 0;
};

Snap TakeSnap(const Node& node, const Load& load, bool full) {
  Snap s;
  s.at_ns = NowNs();
  s.process_cpu_s = ProcessCpuSeconds();
  s.client_cpu_s = load.ClientCpuSeconds();
  const chrono::runtime::ChronoServer& server = *node.server;
  s.server = server.metrics();
  s.db_statements = node.db->statements_executed();
  s.evictions = server.cache().evictions();
  s.template_hits = server.template_cache_counters().hits.load();
  s.template_misses = server.template_cache_counters().misses.load();
  s.tasks_shed = server.pool().tasks_shed();
  if (node.wire != nullptr) {
    chrono::wire::WireServer::Stats w = node.wire->stats();
    s.wire_bytes = w.bytes_in + w.bytes_out;
  }
  if (full) {
    s.registry = server.registry()->Snapshot();
    if (server.audit() != nullptr) {
      chrono::obs::PrefetchAudit::Snapshot a = server.audit()->snapshot();
      s.prefetch_installed = a.TotalInstalled();
      s.prefetch_used = a.TotalUsed();
      s.prefetch_wasted_bytes = a.TotalWastedBytes();
    }
  }
  return s;
}

/// Backend calls between two snapshots: every call that crosses the WAN.
double WanCalls(const Snap& a, const Snap& b) {
  const chrono::runtime::ServerMetrics& x = a.server;
  const chrono::runtime::ServerMetrics& y = b.server;
  return static_cast<double>((y.remote_plain - x.remote_plain) +
                             (y.remote_combined - x.remote_combined) +
                             (y.writes - x.writes) +
                             (y.backend_retries - x.backend_retries));
}

/// The histogram observations recorded between two snapshots. Each
/// advanced bucket is preceded by its true lower edge, so Percentile()
/// interpolates inside the bucket rather than from the previous one.
HistogramSnapshot HistDelta(const Snap& a, const Snap& b,
                            const std::string& name, const Labels& labels) {
  HistogramSnapshot out;
  const chrono::obs::MetricSnapshot* mb = b.registry.Find(name, labels);
  if (mb == nullptr) return out;
  const chrono::obs::MetricSnapshot* ma = a.registry.Find(name, labels);
  auto per_bucket = [](const HistogramSnapshot& h) {
    std::map<double, uint64_t> counts;
    uint64_t prev = 0;
    for (const HistogramSnapshot::Bucket& bucket : h.buckets) {
      counts[bucket.upper_bound] = bucket.cumulative - prev;
      prev = bucket.cumulative;
    }
    return counts;
  };
  std::map<double, uint64_t> after = per_bucket(mb->histogram);
  std::map<double, uint64_t> before;
  if (ma != nullptr) before = per_bucket(ma->histogram);
  uint64_t cumulative = 0;
  for (const auto& [bound, count] : after) {
    uint64_t delta = count - std::min(count, before[bound]);
    if (delta == 0) continue;
    if (std::isfinite(bound)) {
      int index = chrono::obs::Histogram::BucketIndex(
          static_cast<uint64_t>(bound));
      if (index > 0) {
        out.buckets.push_back(
            {static_cast<double>(
                 chrono::obs::Histogram::BucketUpperBound(index - 1)),
             cumulative});
      }
    }
    cumulative += delta;
    out.buckets.push_back({bound, cumulative});
  }
  out.count = cumulative;
  out.sum = mb->histogram.sum - (ma != nullptr ? ma->histogram.sum : 0);
  return out;
}

/// Percentile of a nanosecond histogram delta, in microseconds.
double StageUs(const Snap& a, const Snap& b, const std::string& name,
               const Labels& labels, double q) {
  return HistDelta(a, b, name, labels).Percentile(q) / 1000.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// The lock sites ChronoServer and WireServer register (ContentionJson).
const char* const kLockSites[] = {
    "server.db.read",       "server.db.write",       "server.registry.read",
    "server.registry.write", "server.template_cache", "server.sessions",
    "server.session",       "server.versions",       "server.inflight",
    "cache.shard",          "pool.queue",            "wire.completions"};

/// What one sub-run measured: its metrics, and the transactions it
/// attempted and saw fail in its window.
struct Outcome {
  std::vector<Metric> metrics;
  /// Untraced runs: end-to-end metrics per two-second slice of the window.
  std::map<std::string, std::vector<double>> slices;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t good = 0;  // OK and within the latency limit
  double wan_calls = 0;    // untraced runs: backend calls in the window
  uint64_t completed = 0;  // untraced runs: transactions completed in it
  std::vector<std::string> problems;  // failed output checks
};

/// One sub-run: set-up, warm-up, the timed window, the output checks and
/// the metrics of one node populated from `options.seed`. Appends its
/// set-up times to `setup_s`.
Outcome RunOnce(const WorkloadSpec& spec, const Options& options,
                std::vector<double>* setup_s) {
  // Set-up is repeated and its median reported; the last node serves.
  std::unique_ptr<Node> node_owner;
  for (int i = 0; i < kSetupsPerSubRun; ++i) {
    node_owner.reset();  // tears down the previous node outside the timing
    const int64_t begin = NowNs();
    node_owner = Setup(spec, options);
    setup_s->push_back(static_cast<double>(NowNs() - begin) * 1e-9);
  }
  Node& node = *node_owner;

  Load load(spec, options, &node);
  const int64_t start_ns = NowNs();
  const int64_t warm_end = start_ns + static_cast<int64_t>(spec.warmup_s * 1e9);
  const int64_t measure_ns = static_cast<int64_t>(options.seconds * 1e9);
  const int64_t measure_end = warm_end + measure_ns;
  load.Start(warm_end, measure_end);
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(warm_end)));
  const Snap s0 = TakeSnap(node, load, options.trace);

  // The traced run orders its quarters untraced, traced, traced, untraced,
  // so the tracing overhead is measured under the same cache and model
  // state and a linear drift with the node's age cancels out.
  std::vector<std::pair<int64_t, int64_t>> traced_slices, untraced_slices;
  if (options.trace) {
    for (int q = 0; q < 4; ++q) {
      const int64_t a = warm_end + measure_ns * q / 4;
      const int64_t b = warm_end + measure_ns * (q + 1) / 4;
      const bool traced = q == 1 || q == 2;
      load.SetTracing(traced);
      (traced ? traced_slices : untraced_slices).emplace_back(a, b);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(b)));
    }
    load.SetTracing(false);
  }
  // Untraced windows are read every slice as well (see Run()).
  std::vector<Snap> marks = {s0};
  const int slices =
      options.trace ? 0
                    : std::max(1, static_cast<int>(std::lround(
                                      static_cast<double>(measure_ns) / kSliceNs)));
  for (int k = 1; k < slices; ++k) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(warm_end + measure_ns * k / slices)));
    marks.push_back(TakeSnap(node, load, false));
  }
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(measure_end)));
  const Snap s1 = TakeSnap(node, load, options.trace);
  marks.push_back(s1);
  load.StopAndJoin();

  // ---- output checks ------------------------------------------------------
  Outcome result;
  std::vector<std::string>& problems = result.problems;
  uint64_t statement_errors = 0, started = 0, finished = 0;
  GroundTruth truth;
  std::vector<std::string> stream;
  for (ClientLog& log : load.logs()) {
    statement_errors += log.statement_errors;
    started += log.programs_started;
    finished += log.programs_finished;
    if (!log.first_error.empty()) problems.push_back(log.first_error);
    truth.sample.insert(truth.sample.end(), log.reads.begin(), log.reads.end());
    stream.insert(stream.end(), log.stream.begin(), log.stream.end());
  }
  if (statement_errors != 0 || node.server->metrics().errors != 0) {
    problems.push_back("statement errors: " + std::to_string(statement_errors));
  }
  if (started != finished) {
    problems.push_back("programs started " + std::to_string(started) +
                       " but finished " + std::to_string(finished));
  }
  AskNode(spec, &node, &truth);
  if (node.wire != nullptr) node.wire->Stop();
  node.server->Shutdown();
  uint64_t journal_recorded = 0, journal_drained = 0, journal_dropped = 0;
  if (node.server->journal() != nullptr) {
    node.server->journal()->Stop();
    journal_recorded = node.server->journal()->events_recorded();
    journal_drained = node.server->journal()->events_drained();
    journal_dropped = node.server->journal()->events_dropped();
  }
  if (journal_recorded != journal_drained || journal_dropped != 0) {
    problems.push_back("journal recorded " + std::to_string(journal_recorded) +
                       " drained " + std::to_string(journal_drained) +
                       " dropped " + std::to_string(journal_dropped));
  }
  CompareWithDatabase(&node, &truth);
  if (truth.compared == 0 || truth.mismatches != 0) {
    problems.push_back("ground truth: " + std::to_string(truth.mismatches) +
                       " of " + std::to_string(truth.compared) +
                       " differ; " + truth.first_mismatch);
  }
  std::printf("checks: %zu statements compared with the database, journal "
              "%" PRIu64 "/%" PRIu64 " drained\n",
              truth.compared, journal_drained, journal_recorded);

  // ---- end-to-end ---------------------------------------------------------
  const Txns window = CountTxns(load.logs(), spec, s0.at_ns, s1.at_ns);
  const chrono::runtime::ServerMetrics& m0 = s0.server;
  const chrono::runtime::ServerMetrics& m1 = s1.server;
  auto d = [&](uint64_t chrono::runtime::ServerMetrics::*field) {
    return static_cast<double>(m1.*field - m0.*field);
  };
  const double txns = static_cast<double>(window.completed);
  std::printf("window: %.3f s, %" PRIu64 " transactions attempted, %" PRIu64
              " completed\n",
              static_cast<double>(s1.at_ns - s0.at_ns) * 1e-9,
              window.attempted, window.completed);

  result.attempted = window.attempted;
  result.failed = window.failed;
  result.good = window.good;
  std::vector<Metric>& out = result.metrics;
  if (!options.trace) {
    for (size_t k = 0; k + 1 < marks.size(); ++k) {
      const Snap& a = marks[k];
      const Snap& b = marks[k + 1];
      const Txns slice = CountTxns(load.logs(), spec, a.at_ns, b.at_ns);
      const double seconds = static_cast<double>(b.at_ns - a.at_ns) * 1e-9;
      result.slices["goodput_txn_per_s"].push_back(
          Ratio(static_cast<double>(slice.good), seconds));
      result.slices["txn_mean_ms"].push_back(TailMean(slice.latency_ms, 1.0));
      result.slices["txn_tail_mean_ms"].push_back(
          TailMean(slice.latency_ms, kTailShare));
    }
    result.wan_calls = WanCalls(s0, s1);
    result.completed = window.completed;
    return result;
  }

  // ---- per-layer (traced run) ---------------------------------------------
  std::vector<double> next_us, call_us;
  uint64_t spans_dropped = 0;
  std::vector<SpanLog> span_logs;
  for (ClientLog& log : load.logs()) {
    for (const Span& s : log.spans.spans) {
      const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      if (s.kind == SpanKind::kNext) next_us.push_back(us);
      if (s.kind == SpanKind::kCall) call_us.push_back(us);
    }
    spans_dropped += log.spans.dropped;
    span_logs.push_back(std::move(log.spans));
  }
  std::vector<double> lag_ms;
  for (const ClientLog& log : load.logs()) {
    for (int64_t ns : log.lag_ns) lag_ms.push_back(static_cast<double>(ns) * 1e-6);
  }
  const double reads = d(&chrono::runtime::ServerMetrics::reads);
  const double template_lookups =
      static_cast<double>((s1.template_hits + s1.template_misses) -
                          (s0.template_hits + s0.template_misses));
  const bool wire = spec.wire;
  auto stage = [&](const char* name, double q) {
    return StageUs(s0, s1, "chrono_stage_latency_ns", {{"stage", name}}, q);
  };
  // Engine time of reads only: the node does not time writes here.
  const double select_p50_us = StageUs(
      s0, s1, "chrono_db_statement_latency_ns", {{"kind", "select"}}, 0.5);
  auto mean_latency = [&](const std::vector<std::pair<int64_t, int64_t>>& in) {
    double sum = 0, n = 0;
    for (const auto& [a, b] : in) {
      for (double ms : CountTxns(load.logs(), spec, a, b).latency_ms) {
        sum += ms;
        ++n;
      }
    }
    return Ratio(sum, n);
  };

  out.push_back({"workloads.next_p50_us", Quantile(next_us, 0.5), "us"});
  out.push_back({"workloads.generator_lag_p99_ms", Quantile(lag_ms, 0.99), "ms"});
  out.push_back({"runtime.submit_p50_us", wire ? 0 : Quantile(call_us, 0.5), "us"});
  out.push_back({"runtime.submit_p99_us", wire ? 0 : Quantile(call_us, 0.99), "us"});
  out.push_back({"runtime.queue_wait_p50_us",
                 StageUs(s0, s1, "chrono_pool_queue_wait_ns",
                         {{"lane", "demand"}}, 0.5),
                 "us"});
  out.push_back({"runtime.queue_wait_p99_us",
                 StageUs(s0, s1, "chrono_pool_queue_wait_ns",
                         {{"lane", "demand"}}, 0.99),
                 "us"});
  out.push_back({"runtime.prefetch_shed",
                 static_cast<double>(s1.tasks_shed - s0.tasks_shed), "count"});
  // Process CPU minus the client threads' own CPU.
  out.push_back({"runtime.node_cpu_us_per_txn",
                 Ratio(((s1.process_cpu_s - s0.process_cpu_s) -
                        (s1.client_cpu_s - s0.client_cpu_s)) * 1e6,
                       txns),
                 "us/txn"});
  for (const char* site : kLockSites) {
    out.push_back({std::string("runtime.lock_wait_ms.") + site,
                   HistDelta(s0, s1, "chrono_lock_wait_ns", {{"site", site}}).sum *
                       1e-6,
                   "ms"});
  }
  out.push_back({"sql.analyze_p50_us", stage("analyze", 0.5), "us"});
  out.push_back({"sql.analyze_p99_us", stage("analyze", 0.99), "us"});
  out.push_back({"sql.template_cache_hit_ratio",
                 Ratio(static_cast<double>(s1.template_hits - s0.template_hits),
                       template_lookups),
                 "ratio"});
  out.push_back({"sql.template_cache_lookups", template_lookups, "count"});
  out.push_back({"core.learn_combine_p50_us", stage("learn_combine", 0.5), "us"});
  out.push_back({"core.learn_combine_p99_us", stage("learn_combine", 0.99), "us"});
  out.push_back({"core.split_decode_p50_us", stage("split_decode", 0.5), "us"});
  out.push_back({"core.combined_per_txn",
                 Ratio(d(&chrono::runtime::ServerMetrics::remote_combined), txns),
                 "calls/txn"});
  // Reads answered by a predictively installed entry; inline prediction
  // hits are counted there too.
  out.push_back({"core.prediction_hit_ratio",
                 Ratio(d(&chrono::runtime::ServerMetrics::prefetched_hits), reads),
                 "ratio"});
  out.push_back({"core.prefetch_precision",
                 Ratio(static_cast<double>(s1.prefetch_used - s0.prefetch_used),
                       static_cast<double>(s1.prefetch_installed -
                                           s0.prefetch_installed)),
                 "ratio"});
  out.push_back({"core.prefetch_wasted_bytes_per_txn",
                 Ratio(static_cast<double>(s1.prefetch_wasted_bytes -
                                           s0.prefetch_wasted_bytes),
                       txns),
                 "B/txn"});
  out.push_back({"cache.lookup_p50_us", stage("cache_lookup", 0.5), "us"});
  out.push_back({"cache.hit_ratio",
                 Ratio(d(&chrono::runtime::ServerMetrics::cache_hits), reads),
                 "ratio"});
  out.push_back({"cache.reject_ratio",
                 Ratio(d(&chrono::runtime::ServerMetrics::cache_rejects), reads),
                 "ratio"});
  out.push_back({"cache.evictions_per_txn",
                 Ratio(static_cast<double>(s1.evictions - s0.evictions), txns),
                 "count/txn"});
  out.push_back({"cache.used_bytes",
                 static_cast<double>(node.server->cache().used_bytes()), "B"});
  out.push_back({"net.plain_per_txn",
                 Ratio(d(&chrono::runtime::ServerMetrics::remote_plain), txns),
                 "calls/txn"});
  out.push_back({"net.writes_per_txn",
                 Ratio(d(&chrono::runtime::ServerMetrics::writes), txns),
                 "calls/txn"});
  out.push_back({"net.coalesced_per_txn",
                 Ratio(d(&chrono::runtime::ServerMetrics::backend_coalesced), txns),
                 "count/txn"});
  out.push_back({"net.retries", d(&chrono::runtime::ServerMetrics::backend_retries),
                 "count"});
  out.push_back({"db.execute_p50_us", stage("db_execute", 0.5), "us"});
  out.push_back({"db.select_p50_us", select_p50_us, "us"});
  out.push_back({"db.statements_per_txn",
                 Ratio(static_cast<double>(s1.db_statements - s0.db_statements),
                       txns),
                 "count/txn"});
  out.push_back({"wire.client_rtt_p50_us", wire ? Quantile(call_us, 0.5) : 0, "us"});
  out.push_back({"wire.client_rtt_p99_us", wire ? Quantile(call_us, 0.99) : 0, "us"});
  // The node records wire decode in whole microseconds and it is usually
  // below one, so its p50 reads 0; the mean keeps the fraction.
  const HistogramSnapshot decode =
      HistDelta(s0, s1, "chrono_stage_latency_ns", {{"stage", "wire_decode"}});
  out.push_back({"wire.decode_mean_us", decode.Mean() / 1000.0, "us"});
  out.push_back({"wire.completion_wait_p50_us", stage("completion_wait", 0.5), "us"});
  out.push_back({"wire.flush_p50_us", stage("response_flush", 0.5), "us"});
  out.push_back({"wire.bytes_per_txn",
                 Ratio(static_cast<double>(s1.wire_bytes - s0.wire_bytes), txns),
                 "B/txn"});
  out.push_back({"obs.journal_dropped", static_cast<double>(journal_dropped),
                 "count"});
  out.push_back({"obs.trace_overhead_pct",
                 100.0 * (Ratio(mean_latency(traced_slices),
                              mean_latency(untraced_slices)) -
                        1.0), "%"});

  // Layer probes: the traced run's statements replayed on one thread.
  const ProbeResult probe = RunProbes(node.db.get(), stream, spec.cache_bytes);
  out.push_back({"probe.analyze_ns", probe.analyze_ns, "ns"});
  out.push_back({"probe.parse_cached_ns", probe.parse_cached_ns, "ns"});
  out.push_back({"probe.db_execute_ns", probe.db_execute_ns, "ns"});
  out.push_back({"probe.cache_get_ns", probe.cache_get_ns, "ns"});
  out.push_back({"probe.cache_put_ns", probe.cache_put_ns, "ns"});
  auto reconcile = [](const char* probe_name, double probe_ns,
                      const char* stage_name, double stage_us) {
    std::printf("probe %-22s %10.0f ns   in-situ %-26s p50 %10.0f ns   "
                "ratio %.3f\n",
                probe_name, probe_ns, stage_name, stage_us * 1000.0,
                Ratio(probe_ns, stage_us * 1000.0));
  };
  std::printf("probes: %zu statements replayed, %zu reads\n", probe.statements,
              probe.reads);
  reconcile("analyze", probe.analyze_ns, "stage analyze", stage("analyze", 0.5));
  reconcile("db.execute (reads)", probe.db_execute_ns, "db select",
            select_p50_us);
  reconcile("cache.get", probe.cache_get_ns, "stage cache_lookup",
            stage("cache_lookup", 0.5));

  if (!options.trace_out.empty()) {
    std::string error;
    if (!WriteChromeTrace(options.trace_out, spec.name, span_logs,
                          load.program_names(), start_ns, 500, &error)) {
      problems.push_back(error);
    } else {
      std::printf("trace: %s (%" PRIu64 " spans dropped)\n",
                  options.trace_out.c_str(), spans_dropped);
    }
  }
  return result;
}

int Run(const Options& options) {
  const WorkloadSpec* found = FindWorkload(options.workload);
  if (found == nullptr) {
    Usage(stderr);
    return 2;
  }
  const WorkloadSpec& spec = *found;
  // An untraced run is kSubRuns independent nodes, each populated from its
  // own sub-seed and measured for an equal share of the run; each metric
  // is the median over them. The sub-runs spread the run over time, so a
  // host stall that slows one window does not move the median, and their
  // warm-up streams (fixed per sub-run index, see Options::warmup_seed)
  // give every run the same five learned states. The traced run measures
  // one node.
  const int sub_runs = options.trace ? 1 : kSubRuns;
  std::printf("chronobench %s seed=%" PRIu64 " seconds=%g trace=%d mode=%s "
              "sub-runs=%d\n",
              spec.name.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0, options.lru ? "lru" : "chrono", sub_runs);
  std::vector<double> setup_s;
  std::vector<Outcome> outcomes;
  bool correct = true;
  for (int r = 0; r < sub_runs; ++r) {
    Options sub = options;
    sub.seed = options.seed * kSubRuns + static_cast<uint64_t>(r);
    sub.warmup_seed = static_cast<uint64_t>(r);
    sub.seconds = options.seconds / sub_runs;
    outcomes.push_back(RunOnce(spec, sub, &setup_s));
    const Outcome& o = outcomes.back();
    std::printf("sub-run %d (seed %" PRIu64 "):", r, sub.seed);
    for (const Metric& m : o.metrics) {
      std::printf(" %s=%s", m.name.c_str(), FormatNumber(m.value).c_str());
    }
    for (const auto& [name, values] : o.slices) {
      std::printf(" %s=%s", name.c_str(), FormatNumber(Median(values)).c_str());
    }
    std::printf("\n");
    for (const std::string& p : o.problems) {
      std::printf("CHECK FAILED: %s\n", p.c_str());
      correct = false;
    }
  }
  uint64_t attempted = 0, failed = 0, good = 0, completed = 0;
  double wan_calls = 0;
  for (const Outcome& o : outcomes) {
    attempted += o.attempted;
    failed += o.failed;
    good += o.good;
    completed += o.completed;
    wan_calls += o.wan_calls;
  }
  auto over_slices = [&](const std::string& name) {
    std::vector<double> values;
    for (const Outcome& o : outcomes) {
      auto it = o.slices.find(name);
      if (it != o.slices.end()) {
        values.insert(values.end(), it->second.begin(), it->second.end());
      }
    }
    return Median(values);
  };
  std::vector<Metric> out;
  if (options.trace) {
    out = outcomes[0].metrics;
  } else {
    // Rates and latencies are medians over every two-second slice of every
    // sub-run, so a stalled second moves none of them. Counts do not stall:
    // they are pooled over the sub-runs.
    out.push_back({"goodput_txn_per_s", over_slices("goodput_txn_per_s"),
                   "txn/s"});
    out.push_back({"txn_mean_ms", over_slices("txn_mean_ms"), "ms"});
    out.push_back({"txn_tail_mean_ms", over_slices("txn_tail_mean_ms"), "ms"});
    out.push_back({"wan_round_trips_per_txn",
                   Ratio(wan_calls, static_cast<double>(completed)),
                   "calls/txn"});
    out.push_back({"ok_txn_ratio", Ratio(good, attempted), "ratio"});
    out.push_back({"setup_s", Median(setup_s), "s"});
    out.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
  }
  PrintResult(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace chronobench

int main(int argc, char** argv) {
  chronobench::Options options;
  if (!chronobench::ParseArgs(argc, argv, &options) ||
      options.workload.empty()) {
    chronobench::Usage(stderr);
    return 2;
  }
  return chronobench::Run(options);
}
