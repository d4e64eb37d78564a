#ifndef CHRONOBENCH_BENCH_H_
#define CHRONOBENCH_BENCH_H_

// Paper-workload benchmark for the wall-clock ChronoCache node: drives the
// workloads::TransactionProgram generators against a runtime::ChronoServer,
// in process through Submit() or over the wire frontend, and measures the
// node from outside through its public accessors. See README.md.

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "obs/metrics.h"
#include "runtime/server.h"
#include "wire/wire_client.h"
#include "wire/wire_server.h"
#include "workloads/workload.h"

namespace chronobench {

using chrono::runtime::SharedResult;

/// One named traffic mix: which transaction programs, how they arrive and
/// which of the three node settings the benchmark is allowed to change.
struct WorkloadSpec {
  enum class Programs { kTpce, kSeats, kWikipedia };
  std::string name;
  Programs programs = Programs::kTpce;
  bool wire = false;            // served through WireServer connections
  bool open_loop = false;       // Poisson arrivals instead of a closed loop
  double rate_txn_per_s = 0;    // open loop: total arrival rate
  uint64_t db_latency_us = 0;   // simulated WAN per backend call
  size_t cache_bytes = 0;       // result-cache budget
  double latency_limit_ms = 0;  // goodput limit per transaction
  double warmup_s = 0;          // excluded from every metric
};

/// The three workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Seeds the programs clients run during warm-up. A session's learned
  /// model locks in on its first programs; a warm-up stream that does not
  /// vary with `seed` lets every run enter its window from the same learned
  /// state, while `seed` drives the data and the measured programs.
  uint64_t warmup_seed = 0;
  double seconds = 10;
  bool trace = false;
  bool lru = false;           // reference arm: learning and combining off
  double rate = 0;            // open-loop rate override (rate sweep)
  std::string trace_out;      // Chrome trace-event file (traced runs)
};

// ---- spans ---------------------------------------------------------------

enum class SpanKind : uint8_t { kTxn, kStmt, kNext, kCall };

/// One span of the traced run. Spans of one transaction share `txn`; the
/// parent of a kStmt is the kTxn, the parent of kNext/kCall is the kStmt
/// with the same `stmt` ordinal (or the kTxn when stmt < 0: the final
/// Next() that ends the program).
struct Span {
  uint64_t txn = 0;
  int32_t stmt = -1;
  SpanKind kind = SpanKind::kTxn;
  uint8_t program = 0;  // index into Load::program_names()
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-client span buffer: written by one client thread, read after it
/// has been joined. Bounded so a long traced run cannot exhaust memory.
struct SpanLog {
  static constexpr size_t kMaxSpans = 3'000'000;
  std::vector<Span> spans;
  uint64_t dropped = 0;
  void Add(const Span& span) {
    if (spans.size() < kMaxSpans) {
      spans.push_back(span);
    } else {
      ++dropped;
    }
  }
};

/// Writes the spans as Chrome trace-event JSON (one row per client) and
/// checks the document with the repository's strict JSON validator.
/// Writes at most `max_txns` transactions per client. Returns false with
/// `error` set on failure.
bool WriteChromeTrace(const std::string& path, const std::string& workload,
                      const std::vector<SpanLog>& logs,
                      const std::vector<std::string>& program_names,
                      int64_t origin_ns, size_t max_txns, std::string* error);

// ---- load ----------------------------------------------------------------

/// One finished (or failed) transaction as seen by its client.
struct TxnSample {
  int64_t due_ns = 0;    // start (closed loop) or scheduled arrival (open)
  int64_t end_ns = 0;
  bool ok = false;
};

/// What one client thread observed. Written only by its thread until the
/// thread is joined.
struct ClientLog {
  std::vector<TxnSample> txns;
  std::vector<int64_t> lag_ns;         // open loop: wake-up slip
  std::vector<std::string> reads;      // reservoir of read statements
  std::vector<std::string> stream;     // captured statements (traced run)
  uint64_t reads_seen = 0;
  uint64_t statement_errors = 0;
  uint64_t programs_started = 0;
  uint64_t programs_finished = 0;
  std::string first_error;
  SpanLog spans;
  clockid_t cpu_clock{};
  std::atomic<bool> cpu_clock_ready{false};
};

/// The node under test plus its database, built by Setup(). Torn down
/// front end first: the wire frontend uses the server, the server the
/// database.
struct Node {
  std::unique_ptr<chrono::db::Database> db;
  std::unique_ptr<chrono::workloads::Workload> workload;
  std::unique_ptr<chrono::runtime::ChronoServer> server;
  std::unique_ptr<chrono::wire::WireServer> wire;

  Node() = default;
  ~Node() {
    wire.reset();
    server.reset();
  }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
};

/// Populates a database from `seed`, constructs the server (which warms the
/// indexes) and, for wire workloads, starts the frontend.
std::unique_ptr<Node> Setup(const WorkloadSpec& spec, const Options& options);

/// The client fleet: 4 sequential sessions. Start() launches the threads;
/// the closed loop runs until StopAndJoin(); the open loop serves every
/// arrival scheduled before `open_loop_end_ns` and then idles until
/// StopAndJoin().
class Load {
 public:
  static constexpr int kClients = 4;
  static constexpr chrono::runtime::ClientId kFirstClient = 1;

  Load(const WorkloadSpec& spec, const Options& options, Node* node);
  ~Load();
  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  /// Clients draw warm-up programs until `warm_end_ns`, then the seeded
  /// ones.
  void Start(int64_t warm_end_ns, int64_t open_loop_end_ns);
  /// Stops the closed loop after each client's current program, and joins.
  void StopAndJoin();
  /// Turns span recording on or off; each transaction is recorded whole
  /// or not at all.
  void SetTracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }

  std::vector<ClientLog>& logs() { return logs_; }
  /// CPU seconds consumed so far by the client threads.
  double ClientCpuSeconds() const;
  const std::vector<std::string>& program_names() const {
    return program_names_;
  }

 private:
  void RunClient(int index, int64_t warm_end_ns, int64_t open_loop_end_ns);
  /// Runs one program to its end; returns whether every statement was OK.
  bool RunProgram(int index, chrono::wire::WireClient* wire,
                  chrono::workloads::TransactionProgram* program,
                  uint64_t txn_id, uint8_t program_index, bool traced,
                  chrono::Rng* reservoir);
  uint8_t ProgramIndex(const char* name);

  const WorkloadSpec spec_;
  const Options options_;
  Node* node_;
  std::vector<ClientLog> logs_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> tracing_{false};
  std::mutex names_mutex_;
  std::vector<std::string> program_names_;  // guarded by names_mutex_
};

int64_t NowNs();

// ---- checks and probes ---------------------------------------------------

/// Ground truth under §5.2: a fresh session first forces one backend read
/// (which syncs its session vector to the database's), then the node's
/// answers to `sample` are compared with direct execution on the same
/// database after the node has shut down. `node_answers` is filled before
/// shutdown by AskNode(); CompareWithDatabase() runs after.
struct GroundTruth {
  std::vector<std::string> sample;
  std::vector<chrono::Result<chrono::sql::ResultSet>> node_answers;
  size_t compared = 0;
  size_t mismatches = 0;
  std::string first_mismatch;
};
void AskNode(const WorkloadSpec& spec, Node* node, GroundTruth* truth);
void CompareWithDatabase(Node* node, GroundTruth* truth);

/// Single-thread replay of captured statements through the layers' own
/// entry points; ns per call.
struct ProbeResult {
  double analyze_ns = 0;
  double parse_cached_ns = 0;
  double db_execute_ns = 0;  // read statements only
  double cache_get_ns = 0;
  double cache_put_ns = 0;
  size_t statements = 0;
  size_t reads = 0;
};
ProbeResult RunProbes(chrono::db::Database* db,
                      const std::vector<std::string>& stream,
                      size_t cache_bytes);

}  // namespace chronobench

#endif  // CHRONOBENCH_BENCH_H_
