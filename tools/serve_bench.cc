// serve_bench — closed-loop wall-clock load generator for the concurrent
// serving runtime (runtime::ChronoServer). K client threads hammer one
// server with a SEATS-style point-query mix and report throughput and
// p50/p99 latency per worker-pool size.
//
// Examples:
//   serve_bench --workers 4 --clients 16 --seconds 5
//   serve_bench --sweep 1,2,4,8 --clients 16 --seconds 5 --json BENCH_serve.json
//
// Socket modes (DESIGN.md §13) drive the same workload over the real TCP
// wire protocol instead of in-process Submit() calls:
//   serve_bench --wire --connections 1024 --pipeline 4 --seconds 5
//   serve_bench --wire --conn-sweep 64,256,1024 --json BENCH_serve.json
//   serve_bench --serve --port 7077 --seconds 30        # server only
//   serve_bench --connect 127.0.0.1:7077 --connections 256   # client only
// Open-loop arrivals (--arrival-qps R) draw Poisson inter-arrival gaps and
// measure latency from the *scheduled* send time, so a stalling server
// shows up as queueing delay instead of being hidden by coordinated
// omission.
//
// The remote database sits a (simulated) WAN away — --db-us is slept once
// per database round trip, outside every lock. That wait is what worker
// threads overlap: it is the paper's deployment premise (§6 places the
// middleware at the edge, far from the database) and it makes worker
// scaling meaningful even on small CPU-count machines.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "db/database.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/stats_server.h"
#include "obs/threads.h"
#include "runtime/server.h"
#include "wire/wire_client.h"
#include "wire/wire_server.h"
#include "workloads/seats.h"
#include "workloads/workload.h"

using namespace chrono;

namespace {

struct BenchOptions {
  std::vector<int> worker_counts = {4};
  int clients = 16;
  double seconds = 5.0;
  size_t shards = 16;
  size_t cache_mb = 64;
  uint64_t db_latency_us = 1000;
  int write_pct = 10;   // SEATS booking-style update share
  int hot_pct = 80;     // share of keys drawn from the hot set
  int hot_keys_pct = 10;  // hot-set size as % of the keyspace
  uint64_t seed = 1;
  int64_t customers = 2000;
  int64_t flights = 2000;
  int64_t payload_rows = 1;  // rows returned per point lookup
  std::string json_path;
  int stats_port = -1;       // -1 disables the HTTP stats endpoint
  std::string metrics_path;  // --metrics-out: JSON registry dump (last run)
  std::string journal_path;  // --journal-out: binary event journal (last run)
  std::string trace_path;    // --trace-out: final trace ring JSON (last run)
  std::string profile_path;  // --profile-out: whole-run collapsed stacks
  int profile_hz = 99;       // --profile-hz: sampling rate for the above
  int chain_pct = 0;         // flight lookup -> flight_avail follow-up %
  bool progress = true;      // per-second qps/hit-rate/queue-depth line

  // Fault tolerance (DESIGN.md §11). Deadline/attempt-timeout defaults
  // activate only when a fault schedule is configured; -1 = auto.
  net::FaultOptions fault;
  int64_t deadline_ms = -1;         // per-request budget (auto: 100 under faults)
  int64_t attempt_timeout_ms = -1;  // per-attempt cap (auto: 25 under faults)
  uint64_t stale_serve_ms = 0;      // --stale-serve-ms degradation bound
  int retries = 3;                  // max demand-read attempts

  // Overload control (DESIGN.md §17).
  uint64_t queue_target_ms = 0;     // --queue-target-ms: 0 = brownout off
  uint64_t brownout_sample_ms = 100;  // --brownout-sample-ms

  // Socket modes (DESIGN.md §13).
  bool wire = false;            // --wire: in-process WireServer + TCP clients
  bool serve = false;           // --serve: server only, wait out --seconds
  std::string connect;          // --connect host:port: client fleet only
  int port = 0;                 // --port for --serve (0 = ephemeral)
  std::vector<int> conn_counts;  // --connections N / --conn-sweep LIST
  int pipeline = 1;             // --pipeline D: per-conn in-flight window
  double arrival_qps = 0;       // --arrival-qps R: open-loop Poisson total
};

struct RunResult {
  int workers = 0;
  uint64_t ops = 0;
  double elapsed_s = 0;
  double throughput = 0;  // ops/s
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  // Client-side demand accounting: a request "succeeds" when it returns a
  // result, fresh or explicitly stale.
  uint64_t reads_ok = 0;
  uint64_t reads_failed = 0;
  uint64_t writes_ok = 0;
  uint64_t writes_failed = 0;
  runtime::ServerMetrics metrics;

  double DemandSuccessRate() const {
    uint64_t total = reads_ok + reads_failed + writes_ok + writes_failed;
    return total == 0 ? 1.0
                      : static_cast<double>(reads_ok + writes_ok) /
                            static_cast<double>(total);
  }
  // Prefetch-efficacy scoreboard totals.
  uint64_t prefetch_installed = 0;
  uint64_t prefetch_used = 0;
  uint64_t prefetch_wasted_bytes = 0;
  double prefetch_precision = 0;

  // Overload accounting (§17). Goodput counts only completions that came
  // back within the client's deadline — the number that matters under
  // overload, where raw qps can stay high while every response is late.
  uint64_t on_time = 0;
  double goodput = 0;              // on-time completions / s
  uint64_t expired_rejections = 0;    // kFlagExpired: never executed
  uint64_t overload_rejections = 0;   // brownout Retry-After refusals

  // Socket-mode extras (zero for in-process runs).
  bool socket_mode = false;
  int connections = 0;
  int pipeline = 0;
  double arrival_qps = 0;
  uint64_t wire_accepted = 0;
  uint64_t wire_protocol_errors = 0;
  uint64_t wire_requests = 0;
  double wire_p99_us = 0;
};

void Usage() {
  std::printf(
      "serve_bench — wall-clock load harness for the concurrent runtime\n\n"
      "  --workers N       server worker threads (default 4)\n"
      "  --sweep LIST      comma-separated worker counts, one run each\n"
      "  --clients K       closed-loop client threads (default 16)\n"
      "  --seconds S       measurement window per run (default 5)\n"
      "  --shards N        result-cache lock stripes (default 16)\n"
      "  --cache-mb N      result-cache budget (default 64)\n"
      "  --db-us N         simulated WAN+DB round trip in µs (default 1000)\n"
      "  --write-pct N     UPDATE share of the mix (default 10)\n"
      "  --hot-pct N       requests hitting the hot key set (default 80)\n"
      "  --customers N / --flights N   SEATS scale (default 2000/2000)\n"
      "  --payload-rows N  rows returned per point lookup (default 1) —\n"
      "                    widens every cached payload to stress the\n"
      "                    zero-copy hit path\n"
      "  --seed N          base RNG seed (default 1)\n"
      "  --chain-pct N     after a flight lookup, follow up with the\n"
      "                    matching flight_avail lookup N%% of the time —\n"
      "                    a learnable transition the predictor can mine\n"
      "                    (default 0)\n"
      "  --json FILE       write results as JSON\n"
      "  --stats-port N    serve /metrics, /metrics.json, /traces,\n"
      "                    /prefetch and /healthz on 127.0.0.1:N while\n"
      "                    running (0 = ephemeral port; off by default)\n"
      "  --metrics-out F   write a JSON metrics-registry snapshot to F\n"
      "                    after the run (last run when sweeping)\n"
      "  --journal-out F   persist the prefetch-efficacy event journal\n"
      "                    to F (binary; analyze with chrono_audit;\n"
      "                    last run when sweeping)\n"
      "  --trace-out F     dump the final request-trace ring to F as\n"
      "                    JSON (last run when sweeping)\n"
      "  --profile-out F   run the CPU sampling profiler for the whole\n"
      "                    measurement window and write collapsed stacks\n"
      "                    (flamegraph.pl-ready) to F (last run when\n"
      "                    sweeping)\n"
      "  --profile-hz N    sampling rate for --profile-out in Hz\n"
      "                    (1..1000, default 99)\n"
      "  --no-progress     suppress the per-second progress line\n"
      "\nfault tolerance (DESIGN.md §11; faults off by default):\n"
      "  --fault-error-pct X      fail X%% of backend calls\n"
      "  --fault-spike M          latency-spike multiplier (1 = off)\n"
      "  --fault-spike-pct X      %% of calls spiked (default 10)\n"
      "  --fault-blackout-ms N    total backend blackout for N ms\n"
      "  --fault-blackout-at-ms N blackout start offset (default 3000)\n"
      "  --fault-seed N           fault schedule seed (default 42)\n"
      "  --deadline-ms N          per-request budget (default 100 when\n"
      "                           faults are on, unlimited otherwise)\n"
      "  --attempt-timeout-ms N   per-attempt cap (default 25 under faults)\n"
      "  --retries N              max demand-read attempts (default 3)\n"
      "  --no-retries             disable demand-read retries (--retries 1)\n"
      "  --stale-serve-ms N       serve cached-but-stale results up to N ms\n"
      "                           old when a demand fetch fails (default\n"
      "                           off)\n"
      "\noverload control (DESIGN.md §17; brownout off by default):\n"
      "  --queue-target-ms N      demand queue-wait p99 target for the\n"
      "                           adaptive brownout ladder (0 = off).\n"
      "                           Under pressure the server sheds prefetch,\n"
      "                           then pipelined frames, then rejects new\n"
      "                           Querys with a Retry-After hint\n"
      "  --brownout-sample-ms N   brownout sampler cadence (default 100)\n"
      "  In socket modes --deadline-ms also rides each Query frame, so the\n"
      "  server rejects requests that expired while queued without\n"
      "  executing them; reported goodput counts only on-time completions\n"
      "\nsocket modes (DESIGN.md §13; in-process by default):\n"
      "  --wire                   start a WireServer in-process and drive\n"
      "                           it with real TCP client connections\n"
      "  --connections N          socket connections (default: --clients)\n"
      "  --conn-sweep LIST        comma-separated connection counts, one\n"
      "                           run each (e.g. 64,256,1024)\n"
      "  --pipeline D             per-connection in-flight window\n"
      "                           (default 1 = strict request-response)\n"
      "  --arrival-qps R          open-loop mode: Poisson arrivals at R\n"
      "                           qps total across connections; latency\n"
      "                           measured from the scheduled send time\n"
      "                           (default 0 = closed loop)\n"
      "  --serve                  server only: listen for --seconds, then\n"
      "                           drain gracefully and verify the journal\n"
      "                           (recorded == drained)\n"
      "  --port N                 --serve listen port (default ephemeral)\n"
      "  --connect HOST:PORT      client fleet only, against a --serve\n"
      "                           node (no in-process database)\n");
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

int64_t PickKey(Rng* rng, const BenchOptions& opt, int64_t keyspace) {
  int64_t hot = std::max<int64_t>(1, keyspace * opt.hot_keys_pct / 100);
  if (rng->NextInt(0, 99) < opt.hot_pct) return rng->NextInt(0, hot - 1);
  return rng->NextInt(0, keyspace - 1);
}

/// One closed-loop client: issues SEATS-style point queries (the customer
/// / flight / availability / airline lookups the workload's transactions
/// are built from) plus a booking-style availability update.
std::string NextQuery(Rng* rng, const BenchOptions& opt) {
  int roll = static_cast<int>(rng->NextInt(0, 99));
  if (roll < opt.write_pct) {
    int64_t f = PickKey(rng, opt, opt.flights);
    return "UPDATE flight_avail SET fa_seats_left = fa_seats_left - 1 "
           "WHERE fa_f_id = " +
           std::to_string(f);
  }
  roll -= opt.write_pct;
  int reads_span = 100 - opt.write_pct;
  // Split the read share 40/30/20/10 across the four point lookups.
  if (roll < reads_span * 40 / 100) {
    int64_t c = PickKey(rng, opt, opt.customers);
    return "SELECT c_id, c_balance FROM customer WHERE c_id = " +
           std::to_string(c);
  }
  if (roll < reads_span * 70 / 100) {
    int64_t f = PickKey(rng, opt, opt.flights);
    return "SELECT f_id, f_al_id, f_depart_ap, f_arrive_ap FROM flight "
           "WHERE f_id = " +
           std::to_string(f);
  }
  if (roll < reads_span * 90 / 100) {
    int64_t f = PickKey(rng, opt, opt.flights);
    return "SELECT fa_seats_left FROM flight_avail WHERE fa_f_id = " +
           std::to_string(f);
  }
  int64_t al = PickKey(rng, opt, 50);
  return "SELECT al_name FROM airline WHERE al_id = " + std::to_string(al);
}

runtime::ServerConfig MakeServerConfig(const BenchOptions& opt, int workers,
                                       obs::MetricsRegistry* registry) {
  runtime::ServerConfig config;
  config.workers = workers;
  config.cache_shards = opt.shards;
  config.cache_bytes = opt.cache_mb << 20;
  config.db_latency_us = opt.db_latency_us;
  config.registry = registry;
  config.fault = opt.fault;
  config.retry.max_attempts = opt.retries;
  config.stale_serve_us = opt.stale_serve_ms * 1000;
  config.queue_target_us = opt.queue_target_ms * 1000;
  config.brownout_sample_ms = opt.brownout_sample_ms;
  const bool faults_on = net::FaultInjector(opt.fault).enabled();
  // A fault schedule without a deadline would let blackout calls hang for
  // the whole window; default to a bounded budget when faults are on.
  if (opt.deadline_ms >= 0) {
    config.request_deadline_us = static_cast<uint64_t>(opt.deadline_ms) * 1000;
  } else if (faults_on) {
    config.request_deadline_us = 100'000;
  }
  if (opt.attempt_timeout_ms >= 0) {
    config.attempt_timeout_us =
        static_cast<uint64_t>(opt.attempt_timeout_ms) * 1000;
  } else if (faults_on) {
    config.attempt_timeout_us = 25'000;
  }
  return config;
}

// ---------------------------------------------------------------------------
// Client-side accounting

/// What one run's clients saw: one per client thread or socket connection,
/// summed after they are joined (SampleStats' external-locking contract).
struct FleetResult {
  uint64_t ops = 0;
  uint64_t reads_ok = 0, reads_failed = 0;
  uint64_t writes_ok = 0, writes_failed = 0;
  uint64_t connect_failures = 0;
  uint64_t on_time = 0;             // completed within --deadline-ms
  uint64_t expired_rejections = 0;  // kFlagExpired Errors (never executed)
  uint64_t overload_rejections = 0; // brownout Retry-After refusals
  SampleStats latency;  // ms

  /// A request that returned a result, fresh or explicitly stale: a
  /// success from the client's seat. It counts toward goodput when it
  /// came back inside the deadline (none when `deadline_ms` <= 0).
  void Completed(bool is_write, double ms, int64_t deadline_ms) {
    latency.Add(ms);
    ++(is_write ? writes_ok : reads_ok);
    ++ops;
    if (deadline_ms <= 0 || ms <= static_cast<double>(deadline_ms)) {
      ++on_time;
    }
  }
};

FleetResult Sum(const std::vector<FleetResult>& parts) {
  FleetResult all;
  for (const FleetResult& f : parts) {
    all.ops += f.ops;
    all.reads_ok += f.reads_ok;
    all.reads_failed += f.reads_failed;
    all.writes_ok += f.writes_ok;
    all.writes_failed += f.writes_failed;
    all.connect_failures += f.connect_failures;
    all.on_time += f.on_time;
    all.expired_rejections += f.expired_rejections;
    all.overload_rejections += f.overload_rejections;
    all.latency.Merge(f.latency);
  }
  return all;
}

/// The client-side half of a RunResult; the node fills the rest.
RunResult ToRunResult(const FleetResult& fleet, double elapsed) {
  RunResult out;
  out.ops = fleet.ops;
  out.elapsed_s = elapsed;
  out.throughput = elapsed > 0 ? static_cast<double>(out.ops) / elapsed : 0;
  out.p50_ms = fleet.latency.empty() ? 0 : fleet.latency.Percentile(0.5);
  out.p99_ms = fleet.latency.empty() ? 0 : fleet.latency.Percentile(0.99);
  out.mean_ms = fleet.latency.empty() ? 0 : fleet.latency.Mean();
  out.reads_ok = fleet.reads_ok;
  out.reads_failed = fleet.reads_failed;
  out.writes_ok = fleet.writes_ok;
  out.writes_failed = fleet.writes_failed;
  out.on_time = fleet.on_time;
  out.goodput = elapsed > 0 ? static_cast<double>(fleet.on_time) / elapsed : 0;
  out.expired_rejections = fleet.expired_rejections;
  out.overload_rejections = fleet.overload_rejections;
  if (fleet.connect_failures > 0) {
    std::fprintf(stderr, "warning: %llu connections failed to connect\n",
                 static_cast<unsigned long long>(fleet.connect_failures));
  }
  return out;
}

/// Writes `body` to `path` and reports it ("wrote PATH" + `detail`).
void WriteFile(const std::string& path, const std::string& body,
               const std::string& detail = "") {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s%s\n", path.c_str(), detail.c_str());
}

/// The node one run measures: a private registry (so sweep runs export
/// clean per-configuration numbers), the ChronoServer with its journal
/// file sink, an optional wire frontend, the stats endpoint and the CPU
/// profiler. Every mode builds it here and tears it down through Finish(),
/// in the one order the journal's recorded == drained contract needs. A
/// requested journal file, stats port or wire port that cannot be opened
/// is reported and exits 1.
class BenchNode {
 public:
  BenchNode(db::Database* db, const BenchOptions& opt, int workers,
            std::optional<wire::WireServer::Options> wire_options = {})
      : opt_(opt),
        // Opened before the server: its final drain (in Shutdown) must
        // find the file sink alive.
        journal_sink_(OpenJournalSink(opt)),
        server_(db, MakeServerConfig(opt, workers, &registry_)),
        stats_(server_.registry(), server_.traces(), server_.audit(),
               server_.tail()) {
    if (journal_sink_ != nullptr) {
      server_.journal()->AddSink(journal_sink_.get());
    }
    if (wire_options) {
      wire_.emplace(&server_, *wire_options);
      Status started = wire_->Start();
      if (!started.ok()) Fail("wire server: " + started.message());
      stats_.SetWireCallback([this] { return wire_->StatsJson(); });
    }
    stats_.SetHealthCallback([this] {
      runtime::ChronoServer::HealthStatus h = server_.Health();
      return obs::StatsServer::Health{h.ok, h.reason};
    });
    stats_.SetContentionCallback(
        [this] { return server_.contention()->ContentionJson(); });
    stats_.SetProfiler(&profiler_);
    if (opt.stats_port >= 0) {
      Status started = stats_.Start(opt.stats_port);
      if (!started.ok()) Fail("stats server: " + started.message());
      std::printf("stats: http://127.0.0.1:%d/metrics (and %s)\n",
                  stats_.port(), wire_ ? "/wire" : "/traces");
    }
    if (!opt.profile_path.empty()) {
      Status prof = profiler_.Start(opt.profile_hz);
      if (!prof.ok()) {
        std::fprintf(stderr, "profiler: %s\n", prof.message().c_str());
      }
    }
  }

  BenchNode(const BenchNode&) = delete;
  BenchNode& operator=(const BenchNode&) = delete;

  runtime::ChronoServer& server() { return server_; }
  /// The frontend; null without wire options. Its stats() stay readable
  /// after Finish().
  wire::WireServer* wire() { return wire_ ? &*wire_ : nullptr; }

  /// Ends the run: writes the profile and --metrics-out, stops the
  /// frontend (draining in-flight requests), the stats endpoint and the
  /// server, takes the journal's exact final drain, then writes the
  /// journal file and --trace-out. Fills `out`'s node-side fields.
  void Finish(RunResult* out) {
    if (profiler_.running()) {
      // Collapsed stacks over the whole window, ready for flamegraph.pl
      // (or chrono_prof report).
      profiler_.Stop();
      WriteFile(opt_.profile_path, profiler_.CollapsedStacks(),
                " (" + std::to_string(profiler_.samples_captured()) +
                    " samples, " + std::to_string(profiler_.samples_dropped()) +
                    " dropped)");
    }
    out->metrics = server_.metrics();
    // Before the server tears down its registry callbacks.
    if (!opt_.metrics_path.empty()) {
      WriteFile(opt_.metrics_path, obs::ToJson(registry_.Snapshot()));
    }
    if (wire_) {
      wire_->Stop();
      wire::WireServer::Stats ws = wire_->stats();
      out->wire_accepted = ws.accepted;
      out->wire_protocol_errors = ws.protocol_errors;
      out->wire_requests = ws.requests;
      out->wire_p99_us = ws.p99_latency_us;
    }
    stats_.Stop();
    server_.Shutdown();
    // Workers are joined: the journal can take its exact final drain, and
    // the audit scoreboards are complete.
    server_.journal()->Stop();
    obs::PrefetchAudit::Snapshot snap = server_.audit()->snapshot();
    out->prefetch_installed = snap.TotalInstalled();
    out->prefetch_used = snap.TotalUsed();
    out->prefetch_wasted_bytes = snap.TotalWastedBytes();
    out->prefetch_precision = snap.OverallPrecision();
    if (journal_sink_ != nullptr) {
      journal_sink_->Flush();
      std::printf(
          "wrote %s (%llu events)\n", opt_.journal_path.c_str(),
          static_cast<unsigned long long>(journal_sink_->events_written()));
    }
    if (!opt_.trace_path.empty()) {
      WriteFile(opt_.trace_path,
                obs::TracesToJson(server_.traces()->Snapshot()));
    }
  }

 private:
  static std::unique_ptr<obs::JournalFileSink> OpenJournalSink(
      const BenchOptions& opt) {
    if (opt.journal_path.empty()) return nullptr;
    auto sink = obs::JournalFileSink::Open(opt.journal_path);
    if (sink == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opt.journal_path.c_str());
      std::exit(1);
    }
    return sink;
  }

  /// Startup failure: stop what already runs, then exit 1.
  [[noreturn]] void Fail(const std::string& what) {
    std::fprintf(stderr, "%s\n", what.c_str());
    if (wire_) wire_->Stop();
    stats_.Stop();
    server_.Shutdown();
    std::exit(1);
  }

  // Declaration order is teardown order, reversed: the stats endpoint and
  // the frontend go before the server, the sink and registry after it.
  const BenchOptions& opt_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::JournalFileSink> journal_sink_;
  runtime::ChronoServer server_;
  std::optional<wire::WireServer> wire_;
  obs::CpuProfiler profiler_;
  obs::StatsServer stats_;
};

RunResult RunOnce(db::Database* db, const BenchOptions& opt, int workers) {
  BenchNode node(db, opt, workers);
  runtime::ChronoServer& server = node.server();

  std::atomic<bool> stop{false};
  // One private accumulator per client thread (SampleStats' external
  // locking contract), summed after the threads are joined.
  std::vector<FleetResult> per_client(static_cast<size_t>(opt.clients));

  auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(opt.clients));
  for (int c = 0; c < opt.clients; ++c) {
    clients.emplace_back([&, c] {
      obs::ThreadLease lease(obs::ThreadRole::kClient,
                             "chrono-client-" + std::to_string(c));
      Rng rng(opt.seed + 1000 * static_cast<uint64_t>(workers) +
              static_cast<uint64_t>(c));
      FleetResult& mine = per_client[static_cast<size_t>(c)];
      int64_t chain_key = -1;  // flight id awaiting its follow-up lookup
      while (!stop.load(std::memory_order_relaxed)) {
        std::string sql;
        if (chain_key >= 0) {
          sql = "SELECT fa_seats_left FROM flight_avail WHERE fa_f_id = " +
                std::to_string(chain_key);
          chain_key = -1;
        } else {
          sql = NextQuery(&rng, opt);
          if (opt.chain_pct > 0 &&
              sql.rfind("SELECT f_id, f_al_id", 0) == 0 &&
              rng.NextInt(0, 99) < opt.chain_pct) {
            chain_key = std::atoll(sql.c_str() + sql.rfind('=') + 1);
          }
        }
        const bool is_write = sql.rfind("UPDATE", 0) == 0;
        auto t0 = std::chrono::steady_clock::now();
        auto result = server.Submit(c, std::move(sql)).get();
        auto t1 = std::chrono::steady_clock::now();
        // A stale result is still a success from the client's seat — the
        // degradation is accounted server-side (chrono_stale_serves_total).
        if (result.ok()) {
          mine.Completed(
              is_write,
              std::chrono::duration<double, std::milli>(t1 - t0).count(),
              opt.deadline_ms);
        } else {
          ++(is_write ? mine.writes_failed : mine.reads_failed);
        }
      }
    });
  }

  // Measurement window, with a once-a-second live progress line pulled
  // from the same counters the registry exports.
  auto deadline = started + std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(opt.seconds));
  uint64_t last_done = 0;
  auto last_tick = started;
  while (std::chrono::steady_clock::now() < deadline) {
    auto tick = std::min(deadline, std::chrono::steady_clock::now() +
                                       std::chrono::seconds(1));
    std::this_thread::sleep_until(tick);
    if (!opt.progress) continue;
    auto now = std::chrono::steady_clock::now();
    runtime::ServerMetrics m = server.metrics();
    uint64_t done = m.reads + m.writes;
    double interval = std::chrono::duration<double>(now - last_tick).count();
    double secs = std::chrono::duration<double>(now - started).count();
    double precision = server.audit()->snapshot().OverallPrecision();
    std::printf(
        "  t=%4.1fs  %7.1f qps  hit-rate %5.1f%%  prefetch-prec %5.1f%%  "
        "queue %zu\n",
        secs,
        interval > 0 ? static_cast<double>(done - last_done) / interval : 0,
        100.0 * m.CacheHitRate(), 100.0 * precision,
        server.pool().queue_depth());
    std::fflush(stdout);
    last_done = done;
    last_tick = now;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started)
                       .count();

  RunResult out = ToRunResult(Sum(per_client), elapsed);
  out.workers = workers;
  node.Finish(&out);
  return out;
}

// ---------------------------------------------------------------------------
// Socket modes (DESIGN.md §13)

/// One socket client connection. Closed loop keeps up to `pipeline`
/// requests in flight; open loop (`per_conn_qps > 0`) draws Poisson
/// inter-arrival gaps and measures latency from the scheduled send time.
void WireClientLoop(const std::string& host, int port,
                    const BenchOptions& opt, int index, double per_conn_qps,
                    const std::atomic<bool>& stop, FleetResult* out) {
  obs::ThreadLease lease(obs::ThreadRole::kClient,
                         "chrono-client-" + std::to_string(index));
  Rng rng(opt.seed + 7'000'000 + static_cast<uint64_t>(index));
  wire::WireClient client;
  Status connected =
      client.Connect(host, port, /*client_id=*/100 + index);
  if (!connected.ok()) {
    ++out->connect_failures;
    return;
  }
  using Clock = std::chrono::steady_clock;
  // request id -> (scheduled send time, is_write)
  std::map<uint64_t, std::pair<Clock::time_point, bool>> inflight;

  // §17: the per-request budget rides the Query frame, and a completion
  // only counts toward goodput when it came back inside that budget,
  // measured from the *scheduled* send time (open loop included).
  const uint32_t wire_deadline_ms =
      opt.deadline_ms > 0 ? static_cast<uint32_t>(opt.deadline_ms) : 0;

  auto account = [&](const wire::WireClient::Response& response,
                     Clock::time_point now) {
    auto it = inflight.find(response.request_id);
    if (it == inflight.end()) return;
    const bool is_write = it->second.second;
    if (response.result.ok()) {
      out->Completed(is_write,
                     std::chrono::duration<double, std::milli>(
                         now - it->second.first)
                         .count(),
                     opt.deadline_ms);
    } else {
      ++(is_write ? out->writes_failed : out->reads_failed);
      if (response.expired) {
        ++out->expired_rejections;
      } else if (response.retry_after_ms > 0) {
        ++out->overload_rejections;
      }
    }
    inflight.erase(it);
  };
  auto send_one = [&](Clock::time_point scheduled) {
    std::string sql = NextQuery(&rng, opt);
    const bool is_write = sql.rfind("UPDATE", 0) == 0;
    uint64_t id = 0;
    if (!client.SendQuery(sql, &id, 0, wire_deadline_ms).ok()) return false;
    inflight.emplace(id, std::make_pair(scheduled, is_write));
    return true;
  };

  if (per_conn_qps > 0) {
    // Open loop: arrivals fire on schedule whether or not responses came
    // back; queueing delay lands in the latency numbers where it belongs.
    auto next_send = Clock::now();
    auto exp_gap = [&] {
      double u = rng.NextDouble();
      if (u >= 1.0) u = 0.999999;
      double gap_s = -std::log(1.0 - u) / per_conn_qps;
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap_s));
    };
    while (!stop.load(std::memory_order_relaxed)) {
      auto now = Clock::now();
      if (now >= next_send) {
        if (!send_one(next_send)) break;
        next_send += exp_gap();
        continue;
      }
      int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(next_send -
                                                                now)
              .count());
      auto response = client.ReadResponse(std::max(1, wait_ms));
      if (response.ok()) {
        account(*response, Clock::now());
      } else if (response.status().code() !=
                 Status::Code::kDeadlineExceeded) {
        break;  // connection gone
      }
    }
  } else {
    // Closed loop with a pipelining window.
    const size_t depth = static_cast<size_t>(std::max(1, opt.pipeline));
    while (!stop.load(std::memory_order_relaxed)) {
      while (inflight.size() < depth &&
             !stop.load(std::memory_order_relaxed)) {
        if (!send_one(Clock::now())) {
          client.Close();
          return;
        }
      }
      auto response = client.ReadResponse(1000);
      if (response.ok()) {
        account(*response, Clock::now());
      } else if (response.status().code() !=
                 Status::Code::kDeadlineExceeded) {
        client.Close();
        return;
      }
    }
  }
  // Drain what is still in flight so the server's journal and our
  // accounting agree, then say Goodbye.
  auto drain_deadline = Clock::now() + std::chrono::seconds(5);
  while (!inflight.empty() && Clock::now() < drain_deadline) {
    auto response = client.ReadResponse(250);
    if (response.ok()) {
      account(*response, Clock::now());
    } else if (response.status().code() != Status::Code::kDeadlineExceeded) {
      break;
    }
  }
  client.Close();
}

/// Drives `connections` socket clients against host:port for the window.
RunResult RunWireFleet(const std::string& host, int port,
                       const BenchOptions& opt, int connections) {
  auto started = std::chrono::steady_clock::now();
  std::atomic<bool> stop{false};
  std::vector<FleetResult> per_conn(static_cast<size_t>(connections));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  const double per_conn_qps =
      opt.arrival_qps > 0 ? opt.arrival_qps / connections : 0;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      WireClientLoop(host, port, opt, c, per_conn_qps, stop,
                     &per_conn[static_cast<size_t>(c)]);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  RunResult out = ToRunResult(Sum(per_conn), elapsed);
  out.socket_mode = true;
  out.connections = connections;
  out.pipeline = opt.pipeline;
  out.arrival_qps = opt.arrival_qps;
  return out;
}

/// --wire: in-process node behind a real WireServer, TCP client fleet.
RunResult RunOnceWire(db::Database* db, const BenchOptions& opt, int workers,
                      int connections) {
  wire::WireServer::Options wire_options;
  wire_options.max_connections = std::max(connections * 2, 4096);
  wire_options.max_pipeline = std::max(opt.pipeline, 8);
  BenchNode node(db, opt, workers, wire_options);
  RunResult out =
      RunWireFleet("127.0.0.1", node.wire()->port(), opt, connections);
  out.workers = workers;
  node.Finish(&out);
  return out;
}

/// --serve: run the node (WireServer + StatsServer) for the window, then
/// drain gracefully and verify the journal contract. Returns the exit
/// code: non-zero when the drain dropped events.
int RunServe(db::Database* db, const BenchOptions& opt, int workers) {
  wire::WireServer::Options wire_options;
  wire_options.port = opt.port;
  wire_options.max_pipeline = std::max(opt.pipeline, 128);
  BenchNode node(db, opt, workers, wire_options);
  runtime::ChronoServer& server = node.server();
  wire::WireServer& wire_server = *node.wire();
  std::printf("serving on 127.0.0.1:%d for %.1f s\n", wire_server.port(),
              opt.seconds);
  std::fflush(stdout);

  auto started_at = std::chrono::steady_clock::now();
  auto deadline = started_at + std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(opt.seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    auto tick = std::min(deadline, std::chrono::steady_clock::now() +
                                       std::chrono::seconds(1));
    std::this_thread::sleep_until(tick);
    if (!opt.progress) continue;
    wire::WireServer::Stats live = wire_server.stats();
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - started_at)
                      .count();
    std::printf("  t=%4.1fs  conns %llu  requests %llu  queue %zu\n", secs,
                static_cast<unsigned long long>(live.active),
                static_cast<unsigned long long>(live.requests),
                server.pool().queue_depth());
    std::fflush(stdout);
  }
  RunResult out;
  node.Finish(&out);
  wire::WireServer::Stats ws = wire_server.stats();

  const obs::EventJournal& journal = *server.journal();
  const uint64_t recorded = journal.events_recorded();
  const uint64_t drained = journal.events_drained();
  const uint64_t dropped = journal.events_dropped();
  std::printf(
      "wire: accepted %llu  requests %llu  overload-rejects %llu  "
      "protocol-errors %llu  "
      "closed client/idle/error %llu/%llu/%llu  bytes in/out %llu/%llu\n",
      static_cast<unsigned long long>(ws.accepted),
      static_cast<unsigned long long>(ws.requests),
      static_cast<unsigned long long>(ws.overload_rejects),
      static_cast<unsigned long long>(ws.protocol_errors),
      static_cast<unsigned long long>(ws.closed_by_client),
      static_cast<unsigned long long>(ws.closed_by_idle),
      static_cast<unsigned long long>(ws.closed_by_error),
      static_cast<unsigned long long>(ws.bytes_in),
      static_cast<unsigned long long>(ws.bytes_out));
  std::printf("journal: recorded %llu  drained %llu  dropped %llu\n",
              static_cast<unsigned long long>(recorded),
              static_cast<unsigned long long>(drained),
              static_cast<unsigned long long>(dropped));
  if (recorded != drained || dropped != 0) {
    std::fprintf(stderr, "FAIL: journal drain incomplete\n");
    return 1;
  }
  return 0;
}

void WriteJson(const BenchOptions& opt, const std::vector<RunResult>& runs) {
  FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"serve_bench\",\n"
               "  \"workload\": \"seats-point-mix\",\n"
               "  \"clients\": %d,\n"
               "  \"seconds\": %.1f,\n"
               "  \"db_latency_us\": %llu,\n"
               "  \"write_pct\": %d,\n"
               "  \"cache_mb\": %zu,\n"
               "  \"shards\": %zu,\n"
               "  \"payload_rows\": %lld,\n"
               "  \"runs\": [\n",
               opt.clients, opt.seconds,
               static_cast<unsigned long long>(opt.db_latency_us),
               opt.write_pct, opt.cache_mb, opt.shards,
               static_cast<long long>(opt.payload_rows));
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(
        f,
        "    {\"workers\": %d, \"ops\": %llu, \"throughput_qps\": %.1f, "
        "\"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"cache_hit_rate\": %.4f, \"remote_plain\": %llu, "
        "\"backend_coalesced\": %llu, "
        "\"remote_combined\": %llu, \"predictions_cached\": %llu, "
        "\"prefetch_installed\": %llu, \"prefetch_used\": %llu, "
        "\"prefetch_precision\": %.4f, \"prefetch_wasted_bytes\": %llu, "
        "\"demand_success_rate\": %.6f, \"faults_injected\": %llu, "
        "\"backend_retries\": %llu, \"backend_timeouts\": %llu, "
        "\"stale_serves\": %llu, \"breaker_rejects\": %llu, "
        "\"prefetches_shed_queue\": %llu, "
        "\"prefetches_shed_breaker\": %llu, "
        "\"goodput_qps\": %.1f, \"on_time\": %llu, "
        "\"expired_rejections\": %llu, \"overload_rejections\": %llu, "
        "\"deadline_expired\": %llu, \"brownout_sheds\": %llu",
        r.workers, static_cast<unsigned long long>(r.ops), r.throughput,
        r.mean_ms, r.p50_ms, r.p99_ms, r.metrics.CacheHitRate(),
        static_cast<unsigned long long>(r.metrics.remote_plain),
        static_cast<unsigned long long>(r.metrics.backend_coalesced),
        static_cast<unsigned long long>(r.metrics.remote_combined),
        static_cast<unsigned long long>(r.metrics.predictions_cached),
        static_cast<unsigned long long>(r.prefetch_installed),
        static_cast<unsigned long long>(r.prefetch_used),
        r.prefetch_precision,
        static_cast<unsigned long long>(r.prefetch_wasted_bytes),
        r.DemandSuccessRate(),
        static_cast<unsigned long long>(r.metrics.faults_injected),
        static_cast<unsigned long long>(r.metrics.backend_retries),
        static_cast<unsigned long long>(r.metrics.backend_timeouts),
        static_cast<unsigned long long>(r.metrics.stale_serves),
        static_cast<unsigned long long>(r.metrics.breaker_rejects),
        static_cast<unsigned long long>(r.metrics.prefetches_dropped),
        static_cast<unsigned long long>(r.metrics.prefetches_shed_breaker),
        r.goodput, static_cast<unsigned long long>(r.on_time),
        static_cast<unsigned long long>(r.expired_rejections),
        static_cast<unsigned long long>(r.overload_rejections),
        static_cast<unsigned long long>(r.metrics.deadline_expired),
        static_cast<unsigned long long>(r.metrics.brownout_sheds));
    if (r.socket_mode) {
      std::fprintf(
          f,
          ", \"transport\": \"socket\", \"connections\": %d, "
          "\"pipeline\": %d, \"arrival_qps\": %.1f, "
          "\"wire_accepted\": %llu, \"wire_protocol_errors\": %llu, "
          "\"wire_requests\": %llu, \"wire_p99_us\": %.1f",
          r.connections, r.pipeline, r.arrival_qps,
          static_cast<unsigned long long>(r.wire_accepted),
          static_cast<unsigned long long>(r.wire_protocol_errors),
          static_cast<unsigned long long>(r.wire_requests), r.wire_p99_us);
    } else {
      std::fprintf(f, ", \"transport\": \"in-process\"");
    }
    std::fprintf(f, "}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", opt.json_path.c_str());
}

std::vector<int> ParseSweep(const std::string& list) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    out.push_back(
        static_cast<int>(IntFlag("--sweep", list.substr(pos, comma - pos))));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ThreadLease main_lease(obs::ThreadRole::kMain, "chrono-main");
  BenchOptions opt;
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
    } else if (arg == "--workers") {
      opt.worker_counts = {static_cast<int>(IntFlag(arg, next()))};
    } else if (arg == "--sweep") {
      opt.worker_counts = ParseSweep(next());
    } else if (arg == "--clients") {
      opt.clients = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--seconds") {
      opt.seconds = DoubleFlag(arg, next());
    } else if (arg == "--shards") {
      opt.shards = static_cast<size_t>(UintFlag(arg, next()));
    } else if (arg == "--cache-mb") {
      opt.cache_mb = static_cast<size_t>(UintFlag(arg, next()));
    } else if (arg == "--db-us") {
      opt.db_latency_us = UintFlag(arg, next());
    } else if (arg == "--write-pct") {
      opt.write_pct = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--hot-pct") {
      opt.hot_pct = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--customers") {
      opt.customers = IntFlag(arg, next());
    } else if (arg == "--flights") {
      opt.flights = IntFlag(arg, next());
    } else if (arg == "--payload-rows") {
      opt.payload_rows = IntFlag(arg, next());
    } else if (arg == "--seed") {
      opt.seed = UintFlag(arg, next());
    } else if (arg == "--json") {
      opt.json_path = next();
    } else if (arg == "--stats-port") {
      opt.stats_port = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--fault-error-pct") {
      opt.fault.error_pct = DoubleFlag(arg, next());
    } else if (arg == "--fault-spike") {
      opt.fault.spike_multiplier = DoubleFlag(arg, next());
    } else if (arg == "--fault-spike-pct") {
      opt.fault.spike_pct = DoubleFlag(arg, next());
    } else if (arg == "--fault-blackout-ms") {
      opt.fault.blackout_us = UintFlag(arg, next()) * 1000;
    } else if (arg == "--fault-blackout-at-ms") {
      opt.fault.blackout_start_us = UintFlag(arg, next()) * 1000;
    } else if (arg == "--fault-seed") {
      opt.fault.seed = UintFlag(arg, next());
    } else if (arg == "--deadline-ms") {
      opt.deadline_ms = IntFlag(arg, next());
    } else if (arg == "--attempt-timeout-ms") {
      opt.attempt_timeout_ms = IntFlag(arg, next());
    } else if (arg == "--retries") {
      opt.retries = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--no-retries") {
      opt.retries = 1;
    } else if (arg == "--stale-serve-ms") {
      opt.stale_serve_ms = UintFlag(arg, next());
    } else if (arg == "--queue-target-ms") {
      opt.queue_target_ms = UintFlag(arg, next());
    } else if (arg == "--brownout-sample-ms") {
      opt.brownout_sample_ms = UintFlag(arg, next());
    } else if (arg == "--metrics-out") {
      opt.metrics_path = next();
    } else if (arg == "--journal-out") {
      opt.journal_path = next();
    } else if (arg == "--trace-out") {
      opt.trace_path = next();
    } else if (arg == "--profile-out") {
      opt.profile_path = next();
    } else if (arg == "--profile-hz") {
      opt.profile_hz = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--chain-pct") {
      opt.chain_pct = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--no-progress") {
      opt.progress = false;
    } else if (arg == "--wire") {
      opt.wire = true;
    } else if (arg == "--serve") {
      opt.serve = true;
    } else if (arg == "--connect") {
      opt.connect = next();
    } else if (arg == "--port") {
      opt.port = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--connections") {
      opt.conn_counts = {static_cast<int>(IntFlag(arg, next()))};
    } else if (arg == "--conn-sweep") {
      opt.conn_counts = ParseSweep(next());
    } else if (arg == "--pipeline") {
      opt.pipeline = static_cast<int>(IntFlag(arg, next()));
    } else if (arg == "--arrival-qps") {
      opt.arrival_qps = DoubleFlag(arg, next());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  // Well-formed but out-of-range values get the same exit-2 treatment as
  // malformed ones; a bench that silently does nothing helps nobody.
  auto reject = [](const char* flag, const char* why) {
    std::fprintf(stderr, "invalid value for %s: %s\n", flag, why);
    std::exit(2);
  };
  if (!(opt.seconds > 0)) reject("--seconds", "must be > 0");
  if (opt.clients < 1) reject("--clients", "must be >= 1");
  for (int w : opt.worker_counts) {
    if (w < 1) reject("--workers/--sweep", "worker counts must be >= 1");
  }
  if (opt.customers < 1 || opt.flights < 1) {
    reject("--customers/--flights", "keyspace must be >= 1");
  }
  if (opt.payload_rows < 1) reject("--payload-rows", "must be >= 1");
  if (opt.write_pct < 0 || opt.write_pct > 100 || opt.hot_pct < 0 ||
      opt.hot_pct > 100 || opt.chain_pct < 0 || opt.chain_pct > 100) {
    reject("--write-pct/--hot-pct/--chain-pct", "must be in [0, 100]");
  }
  if (opt.fault.error_pct < 0 || opt.fault.error_pct > 100 ||
      opt.fault.spike_pct < 0 || opt.fault.spike_pct > 100) {
    reject("--fault-error-pct/--fault-spike-pct", "must be in [0, 100]");
  }
  if (opt.fault.spike_multiplier < 1.0) {
    reject("--fault-spike", "multiplier must be >= 1");
  }
  if (opt.retries < 1) reject("--retries", "must be >= 1");
  if (opt.brownout_sample_ms < 1) {
    reject("--brownout-sample-ms", "must be >= 1");
  }
  if (opt.profile_hz < 1 || opt.profile_hz > 1000) {
    reject("--profile-hz", "must be in [1, 1000]");
  }
  if (opt.pipeline < 1) reject("--pipeline", "must be >= 1");
  if (opt.arrival_qps < 0) reject("--arrival-qps", "must be >= 0");
  if (opt.port < 0 || opt.port > 65535) reject("--port", "not a TCP port");
  for (int c : opt.conn_counts) {
    if (c < 1) reject("--connections/--conn-sweep", "must be >= 1");
  }
  int modes = (opt.wire ? 1 : 0) + (opt.serve ? 1 : 0) +
              (opt.connect.empty() ? 0 : 1);
  if (modes > 1) {
    reject("--wire/--serve/--connect", "modes are mutually exclusive");
  }
  if (opt.conn_counts.empty()) opt.conn_counts = {opt.clients};

  // --connect needs no local database: just drive the remote node.
  if (!opt.connect.empty()) {
    size_t colon = opt.connect.rfind(':');
    int64_t port64 = 0;
    if (colon == std::string::npos || colon == 0 ||
        !ParseInt64(opt.connect.substr(colon + 1), &port64) || port64 < 1 ||
        port64 > 65535) {
      reject("--connect", "expected HOST:PORT");
    }
    std::string host = opt.connect.substr(0, colon);
    std::vector<RunResult> runs;
    for (int connections : opt.conn_counts) {
      RunResult r =
          RunWireFleet(host, static_cast<int>(port64), opt, connections);
      runs.push_back(r);
      std::printf(
          "connections=%d  pipeline=%d  %.1f qps  goodput %.1f/s  "
          "mean %.2f ms  p50 %.2f ms  p99 %.2f ms  success %.2f%%  "
          "(expired %llu, overload-rejected %llu)\n",
          r.connections, r.pipeline, r.throughput, r.goodput, r.mean_ms,
          r.p50_ms, r.p99_ms, 100.0 * r.DemandSuccessRate(),
          static_cast<unsigned long long>(r.expired_rejections),
          static_cast<unsigned long long>(r.overload_rejections));
    }
    if (!opt.json_path.empty()) WriteJson(opt, runs);
    return 0;
  }

  std::printf(
      "Populating SEATS (%lld customers, %lld flights, %lld rows/key)...\n",
      static_cast<long long>(opt.customers),
      static_cast<long long>(opt.flights),
      static_cast<long long>(opt.payload_rows));
  db::Database db;
  workloads::SeatsWorkload::Config seats_config;
  seats_config.customers = opt.customers;
  seats_config.flights = opt.flights;
  seats_config.rows_per_key = opt.payload_rows;
  workloads::SeatsWorkload seats(seats_config);
  seats.Populate(&db);

  if (opt.serve) {
    return RunServe(&db, opt, opt.worker_counts.front());
  }

  if (opt.wire) {
    std::vector<RunResult> runs;
    for (int connections : opt.conn_counts) {
      RunResult r =
          RunOnceWire(&db, opt, opt.worker_counts.front(), connections);
      runs.push_back(r);
      std::printf(
          "connections=%d  pipeline=%d  workers=%d  %.1f qps  "
          "goodput %.1f/s  mean %.2f ms  "
          "p50 %.2f ms  p99 %.2f ms  hit-rate %.1f%%  "
          "(accepted %llu, protocol-errors %llu, wire-p99 %.0f us)\n",
          r.connections, r.pipeline, r.workers, r.throughput, r.goodput,
          r.mean_ms, r.p50_ms, r.p99_ms, 100.0 * r.metrics.CacheHitRate(),
          static_cast<unsigned long long>(r.wire_accepted),
          static_cast<unsigned long long>(r.wire_protocol_errors),
          r.wire_p99_us);
      if (r.expired_rejections + r.overload_rejections +
              r.metrics.brownout_sheds >
          0) {
        std::printf(
            "  overload: expired %llu  overload-rejected %llu  "
            "server sheds %llu  expired-in-queue %llu\n",
            static_cast<unsigned long long>(r.expired_rejections),
            static_cast<unsigned long long>(r.overload_rejections),
            static_cast<unsigned long long>(r.metrics.brownout_sheds),
            static_cast<unsigned long long>(r.metrics.deadline_expired));
      }
    }
    if (runs.size() > 1) {
      double base = runs.front().throughput;
      for (const RunResult& r : runs) {
        std::printf("conn scaling %d -> %d: %.2fx\n",
                    runs.front().connections, r.connections,
                    base > 0 ? r.throughput / base : 0);
      }
    }
    if (!opt.json_path.empty()) WriteJson(opt, runs);
    return 0;
  }

  std::vector<RunResult> runs;
  for (int workers : opt.worker_counts) {
    RunResult r = RunOnce(&db, opt, workers);
    runs.push_back(r);
    std::printf(
        "workers=%d  clients=%d  %.1f qps  mean %.2f ms  p50 %.2f ms  "
        "p99 %.2f ms  hit-rate %.1f%%  (plain %llu, coalesced %llu, "
        "combined %llu, predicted %llu, errors %llu)\n",
        r.workers, opt.clients, r.throughput, r.mean_ms, r.p50_ms, r.p99_ms,
        100.0 * r.metrics.CacheHitRate(),
        static_cast<unsigned long long>(r.metrics.remote_plain),
        static_cast<unsigned long long>(r.metrics.backend_coalesced),
        static_cast<unsigned long long>(r.metrics.remote_combined),
        static_cast<unsigned long long>(r.metrics.predictions_cached),
        static_cast<unsigned long long>(r.metrics.errors));
    if (net::FaultInjector(opt.fault).enabled() || opt.stale_serve_ms > 0) {
      std::printf(
          "  degradation: success %.2f%% (reads %llu/%llu, writes %llu/%llu)"
          "  faults %llu  retries %llu  timeouts %llu  stale %llu  "
          "breaker-rejects %llu  shed q/brk %llu/%llu\n",
          100.0 * r.DemandSuccessRate(),
          static_cast<unsigned long long>(r.reads_ok),
          static_cast<unsigned long long>(r.reads_ok + r.reads_failed),
          static_cast<unsigned long long>(r.writes_ok),
          static_cast<unsigned long long>(r.writes_ok + r.writes_failed),
          static_cast<unsigned long long>(r.metrics.faults_injected),
          static_cast<unsigned long long>(r.metrics.backend_retries),
          static_cast<unsigned long long>(r.metrics.backend_timeouts),
          static_cast<unsigned long long>(r.metrics.stale_serves),
          static_cast<unsigned long long>(r.metrics.breaker_rejects),
          static_cast<unsigned long long>(r.metrics.prefetches_dropped),
          static_cast<unsigned long long>(r.metrics.prefetches_shed_breaker));
    }
  }

  if (runs.size() > 1) {
    double base = runs.front().throughput;
    for (const RunResult& r : runs) {
      std::printf("scaling %d -> %dx workers: %.2fx\n", runs.front().workers,
                  r.workers, base > 0 ? r.throughput / base : 0);
    }
  }
  if (!opt.json_path.empty()) WriteJson(opt, runs);
  return 0;
}
