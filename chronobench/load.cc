// Workload table, node set-up and the client fleet.

#include <pthread.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "wire/wire_client.h"
#include "workloads/seats.h"
#include "workloads/tpce.h"
#include "workloads/wikipedia.h"

namespace chronobench {

using chrono::Rng;
using chrono::runtime::ChronoServer;
using chrono::runtime::ServerConfig;

namespace {

// Why each workload exists is recorded in README.md; the settings below
// are the only node settings the benchmark changes (workers stay at the
// default 4, learning and combining stay on).
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    WorkloadSpec tpce;
    tpce.name = "tpce-wan";
    tpce.programs = WorkloadSpec::Programs::kTpce;
    tpce.db_latency_us = 5000;
    tpce.cache_bytes = 64ull << 20;
    tpce.latency_limit_ms = 250;
    tpce.warmup_s = 2;
    w.push_back(tpce);

    // Not in BENCHMARK.json: a closed loop at zero WAN measures the host's
    // CPU and thread wake-up latency, which on a shared host spread too far
    // between runs to gate on (README.md).
    WorkloadSpec seats;
    seats.name = "seats-cpu";
    seats.programs = WorkloadSpec::Programs::kSeats;
    seats.db_latency_us = 0;
    seats.cache_bytes = 64ull << 20;
    seats.latency_limit_ms = 50;
    seats.warmup_s = 1.5;
    w.push_back(seats);

    WorkloadSpec wiki;
    wiki.name = "wiki-wire";
    wiki.programs = WorkloadSpec::Programs::kWikipedia;
    wiki.wire = true;
    wiki.open_loop = true;
    wiki.rate_txn_per_s = 100;
    wiki.db_latency_us = 5000;
    wiki.cache_bytes = 512u << 10;
    wiki.latency_limit_ms = 100;
    wiki.warmup_s = 1.5;
    w.push_back(wiki);
    return w;
  }();
  return kWorkloads;
}

std::unique_ptr<chrono::workloads::Workload> MakeWorkload(
    WorkloadSpec::Programs programs, uint64_t seed) {
  switch (programs) {
    case WorkloadSpec::Programs::kTpce: {
      chrono::workloads::TpceWorkload::Config config;
      config.seed = seed;
      return std::make_unique<chrono::workloads::TpceWorkload>(config);
    }
    case WorkloadSpec::Programs::kSeats: {
      chrono::workloads::SeatsWorkload::Config config;
      config.seed = seed;
      return std::make_unique<chrono::workloads::SeatsWorkload>(config);
    }
    case WorkloadSpec::Programs::kWikipedia: {
      chrono::workloads::WikipediaWorkload::Config config;
      config.seed = seed;
      return std::make_unique<chrono::workloads::WikipediaWorkload>(config);
    }
  }
  return nullptr;
}

bool IsRead(const std::string& sql) {
  return sql.size() >= 6 && (sql.compare(0, 6, "SELECT") == 0 ||
                              sql.compare(0, 6, "select") == 0);
}

void SleepUntilNs(int64_t when_ns) {
  int64_t now = NowNs();
  if (when_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(when_ns - now));
  }
}

constexpr size_t kReadReservoir = 128;      // per client
constexpr size_t kStreamCapture = 20'000;   // per client, traced run only

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

std::unique_ptr<Node> Setup(const WorkloadSpec& spec,
                            const Options& options) {
  auto node = std::make_unique<Node>();
  node->db = std::make_unique<chrono::db::Database>();
  node->workload = MakeWorkload(spec.programs, options.seed);
  node->workload->Populate(node->db.get());

  ServerConfig config;
  config.db_latency_us = spec.db_latency_us;
  config.cache_bytes = spec.cache_bytes;
  if (options.lru) {
    config.enable_learning = false;
    config.enable_combining = false;
  }
  node->server = std::make_unique<ChronoServer>(node->db.get(), config);
  if (spec.wire) {
    node->wire = std::make_unique<chrono::wire::WireServer>(
        node->server.get(), chrono::wire::WireServer::Options{});
    chrono::Status status = node->wire->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "wire frontend failed to start: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  return node;
}

Load::Load(const WorkloadSpec& spec, const Options& options, Node* node)
    : spec_(spec), options_(options), node_(node), logs_(kClients) {}

Load::~Load() { StopAndJoin(); }

void Load::Start(int64_t warm_end_ns, int64_t open_loop_end_ns) {
  for (int i = 0; i < kClients; ++i) {
    threads_.emplace_back([this, i, warm_end_ns, open_loop_end_ns] {
      RunClient(i, warm_end_ns, open_loop_end_ns);
    });
  }
  for (ClientLog& log : logs_) {
    while (!log.cpu_clock_ready.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}

void Load::StopAndJoin() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

double Load::ClientCpuSeconds() const {
  double total = 0;
  for (const ClientLog& log : logs_) {
    timespec ts{};
    if (clock_gettime(log.cpu_clock, &ts) == 0) {
      total += static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
    }
  }
  return total;
}

uint8_t Load::ProgramIndex(const char* name) {
  std::lock_guard<std::mutex> lock(names_mutex_);
  for (size_t i = 0; i < program_names_.size(); ++i) {
    if (program_names_[i] == name) return static_cast<uint8_t>(i);
  }
  program_names_.emplace_back(name);
  return static_cast<uint8_t>(program_names_.size() - 1);
}

void Load::RunClient(int index, int64_t warm_end_ns,
                     int64_t open_loop_end_ns) {
  ClientLog& log = logs_[static_cast<size_t>(index)];
  pthread_getcpuclockid(pthread_self(), &log.cpu_clock);
  log.cpu_clock_ready.store(true, std::memory_order_release);

  // Client RNGs derive from the seeds, one stream per session; arrivals
  // and the read reservoir draw from their own streams so the programs a
  // session runs do not depend on timing.
  const uint64_t base = options_.seed * 1'000'003ull + 17;
  const uint64_t client = static_cast<uint64_t>(index);
  Rng warmup(options_.warmup_seed * 1'000'033ull + client * 7919 + 5);
  Rng programs(base + client * 7919);
  Rng arrivals(base ^ (0x9e3779b97f4a7c15ull + client));
  Rng reservoir(base + 0x5bd1e995ull * (client + 1));

  std::unique_ptr<chrono::wire::WireClient> wire;
  if (spec_.wire) {
    wire = std::make_unique<chrono::wire::WireClient>();
    chrono::Status status =
        wire->Connect("127.0.0.1", node_->wire->port(),
                      static_cast<uint64_t>(kFirstClient + index));
    if (!status.ok()) {
      log.first_error = "connect: " + status.ToString();
      ++log.statement_errors;
      return;
    }
  }

  const double rate = options_.rate > 0 ? options_.rate : spec_.rate_txn_per_s;
  const double mean_gap_ns = 1e9 * kClients / (rate > 0 ? rate : 1);
  int64_t due = NowNs();
  uint64_t seq = 0;
  while (true) {
    if (spec_.open_loop) {
      due += static_cast<int64_t>(-std::log(1.0 - arrivals.NextDouble()) *
                                  mean_gap_ns);
      if (due >= open_loop_end_ns) break;
      if (due > NowNs()) {
        SleepUntilNs(due);
        log.lag_ns.push_back(NowNs() - due);
      }
    } else {
      if (stop_.load(std::memory_order_relaxed)) break;
      due = NowNs();
    }
    std::unique_ptr<chrono::workloads::TransactionProgram> program =
        node_->workload->NextTransaction(due < warm_end_ns ? &warmup
                                                           : &programs);
    const uint64_t txn_id =
        (static_cast<uint64_t>(index + 1) << 40) | seq++;
    const uint8_t program_index = ProgramIndex(program->name());
    const bool traced = tracing_.load(std::memory_order_relaxed);
    ++log.programs_started;
    bool ok = RunProgram(index, wire.get(), program.get(), txn_id,
                         program_index, traced, &reservoir);
    TxnSample sample;
    sample.due_ns = due;
    sample.end_ns = NowNs();
    sample.ok = ok;
    log.txns.push_back(sample);
    if (traced) {
      Span span;
      span.txn = txn_id;
      span.kind = SpanKind::kTxn;
      span.program = program_index;
      span.start_ns = due;
      span.end_ns = sample.end_ns;
      log.spans.Add(span);
    }
  }
  // An open-loop client stays alive past its last arrival until
  // StopAndJoin(): the window's closing snapshot reads its CPU clock, which
  // an exited thread no longer has.
  while (spec_.open_loop && !stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (wire != nullptr) wire->Close();
}

bool Load::RunProgram(int index, chrono::wire::WireClient* wire,
                      chrono::workloads::TransactionProgram* program,
                      uint64_t txn_id, uint8_t program_index, bool traced,
                      Rng* reservoir) {
  ClientLog& log = logs_[static_cast<size_t>(index)];
  const chrono::runtime::ClientId client = kFirstClient + index;
  // Both forms of the previous result stay alive until Next() has read it.
  SharedResult prev_shared;
  chrono::sql::ResultSet prev_wire;
  const chrono::sql::ResultSet* prev = nullptr;
  for (int32_t stmt = 0;; ++stmt) {
    const int64_t next_start = NowNs();
    std::optional<std::string> sql = program->Next(prev);
    const int64_t next_end = NowNs();
    if (traced) {
      log.spans.Add(Span{txn_id, sql ? stmt : -1, SpanKind::kNext,
                         program_index, next_start, next_end});
    }
    if (!sql) {
      ++log.programs_finished;
      return true;
    }
    if (IsRead(*sql)) {
      // Reservoir sample of read statements for the ground-truth check.
      ++log.reads_seen;
      if (log.reads.size() < kReadReservoir) {
        log.reads.push_back(*sql);
      } else {
        uint64_t slot = reservoir->NextBounded(log.reads_seen);
        if (slot < kReadReservoir) log.reads[slot] = *sql;
      }
    }
    if (traced && log.stream.size() < kStreamCapture) log.stream.push_back(*sql);

    const int64_t call_start = NowNs();
    chrono::Status status;
    if (wire != nullptr) {
      uint64_t request_id = 0;
      status = wire->SendQuery(*sql, &request_id);
      if (status.ok()) {
        chrono::Result<chrono::wire::WireClient::Response> response =
            wire->ReadResponse();
        if (!response.ok()) {
          status = response.status();
        } else if (response->request_id != request_id) {
          status = chrono::Status::Internal("response for another request");
        } else if (!response->result.ok()) {
          status = response->result.status();
        } else {
          prev_wire = std::move(response->result).value();
          prev = &prev_wire;
        }
      }
    } else {
      chrono::Result<SharedResult> result =
          node_->server->Submit(client, *sql).get();
      if (result.ok()) {
        prev_shared = std::move(result).value();
        prev = prev_shared.get();
      } else {
        status = result.status();
      }
    }
    const int64_t call_end = NowNs();
    if (traced) {
      log.spans.Add(Span{txn_id, stmt, SpanKind::kCall, program_index,
                         call_start, call_end});
      log.spans.Add(Span{txn_id, stmt, SpanKind::kStmt, program_index,
                         next_start, call_end});
    }
    if (!status.ok()) {
      ++log.statement_errors;
      if (log.first_error.empty()) log.first_error = *sql + ": " + status.ToString();
      return false;  // abandoned: the program does not count as finished
    }
  }
}

}  // namespace chronobench
