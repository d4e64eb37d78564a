#ifndef CHRONOCACHE_CORE_MIDDLEWARE_H_
#define CHRONOCACHE_CORE_MIDDLEWARE_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "db/database.h"
#include "net/latency_model.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/resource.h"

namespace chrono::core {

/// \brief One middleware node's settings: the node's own (EngineConfig and
/// Engine::Options, the §6 system `mode` among them, applied by the
/// engine) and the simulator's scheduling. The simulator keeps the
/// engine's one cache shard: a global LRU order, exactly the paper's
/// Memcached model.
struct MiddlewareConfig : EngineConfig, Engine::Options {
  int workers = 8;  // middleware worker pool
};

/// \brief The simulated remote database server: the shared SQL engine
/// fronted by a WAN link and a finite worker pool. Statements execute at
/// dispatch time (virtual order) and are charged service time proportional
/// to rows touched.
class RemoteDbServer {
 public:
  RemoteDbServer(EventQueue* events, db::Database* database,
                 const net::LatencyModel& latency, int workers);

  using DbCallback = std::function<void(SimTime, Result<db::ExecOutcome>)>;

  /// A request payload: the wire text plus, optionally, the parse tree it
  /// was rendered from. When `ast` is present the server executes it
  /// directly — the combined queries built by the combiners never get
  /// re-parsed (`sql` remains the wire-protocol/debugging form).
  struct DbRequest {
    std::string sql;
    std::shared_ptr<const sql::Statement> ast;
  };

  /// Submits SQL text from a middleware node; `done` fires when the
  /// response arrives back at the node (WAN + queue + service).
  void Submit(std::string sql_text, DbCallback done);
  void Submit(DbRequest request, DbCallback done);

  /// Forces AST-carrying requests through the text round-trip (parse of
  /// `sql`) instead of the handoff path. Used by tests to cross-validate
  /// the two execution paths.
  void set_text_roundtrip(bool v) { text_roundtrip_ = v; }

  uint64_t requests() const { return requests_; }
  uint64_t rows_scanned() const { return rows_scanned_; }
  /// Requests executed via a handed-off AST (no server-side parse).
  uint64_t ast_handoffs() const { return ast_handoffs_; }
  SimTime busy_time() const { return busy_time_; }

 private:
  struct Job {
    DbRequest request;
    DbCallback done;
  };
  void TryDispatch();

  EventQueue* events_;
  db::Database* database_;
  net::LatencyModel latency_;
  int workers_;
  int busy_ = 0;
  bool text_roundtrip_ = false;
  std::deque<Job> waiting_;
  uint64_t requests_ = 0;
  uint64_t rows_scanned_ = 0;
  uint64_t ast_handoffs_ = 0;
  SimTime busy_time_ = 0;
};

/// Per-node middleware metrics surfaced to the experiment harness.
using MiddlewareMetrics = NodeMetrics;

/// \brief One ChronoCache middleware node (Fig. 2): accepts client query
/// text, learns the client's query patterns online, predictively combines
/// and prefetches query results, and serves results from the edge cache
/// under session semantics. Runs entirely in virtual time on the shared
/// EventQueue. The pipeline state and decisions live in the core::Engine
/// it drives: the §6 system profile, which ready graphs fire and how
/// (combined, or Apollo-style sequential reads), the single-flight table
/// a miss joins (§5.1). This class holds only the scheduling: the event
/// queue, the worker pool and the WAN hops. A demand read is sent once;
/// backend fault tolerance is the wall-clock node's (runtime::ChronoServer).
class Middleware {
 public:
  using ResponseCallback =
      std::function<void(SimTime now, const Result<sql::ResultSet>&)>;

  Middleware(EventQueue* events, RemoteDbServer* remote,
             const net::LatencyModel& latency, MiddlewareConfig config);

  /// Client entry point: submit one SQL statement. `done` fires when the
  /// response reaches the client (includes all edge/WAN latency).
  void SubmitQuery(ClientId client, int security_group, std::string sql_text,
                   ResponseCallback done);

  MiddlewareMetrics metrics() const { return engine_.Metrics(); }
  /// Adds this node's counters to `sum` (the harness sums its nodes).
  void AddMetricsTo(MiddlewareMetrics* sum) const {
    engine_.AddMetricsTo(sum);
  }
  const runtime::ShardedCache& cache() const { return engine_.cache(); }

  /// Template (AnalyzeQuery memoization) cache hit/miss counters.
  const CacheCounters& template_cache_counters() const {
    return engine_.template_cache_counters();
  }

  /// Registers the engine's counter families and the template/result
  /// caches — the same table the runtime ChronoServer registers, so the
  /// simulator and the wall-clock node export the same shapes. The
  /// simulator is single-threaded: snapshot the registry between
  /// simulation steps, not concurrently with them. The registry must
  /// outlive this middleware.
  void RegisterMetrics(obs::MetricsRegistry* registry) {
    engine_.RegisterMetrics(registry);
  }

  /// Journals the prefetch lifecycle — plan mined, combined issued/fetched,
  /// entries installed / used / evicted / invalidated, request outcomes —
  /// with *virtual* timestamps, so chrono_audit reads simulator journals
  /// exactly like serve_bench ones. Request events carry
  /// kJournalFlagNoLatency (virtual stage times are not wall-clock). The
  /// journal must outlive the middleware; the simulator is
  /// single-threaded, so its owner calls Drain() between steps.
  void AttachJournal(obs::EventJournal* journal);

  /// Dependency-graph count across clients (learning progress probe).
  size_t TotalGraphs() const { return engine_.TotalGraphs(); }

 private:
  void Process(ClientId client, int security_group, std::string sql_text,
               ResponseCallback done);
  void HandleWrite(ClientId client, sql::ParsedQuery parsed,
                   ResponseCallback done);
  void HandleRead(ClientId client, int security_group,
                  sql::ParsedQuery parsed, ResponseCallback done);

  /// A read waiting for the combined query its miss fired (its trigger).
  struct PendingRead {
    sql::ParsedQuery query;
    ResponseCallback done;
  };

  /// Sends one plan Engine::Observe combined. A `trigger` is answered
  /// either way, as ChronoServer::DoRead answers its own: by the landed
  /// plan (Engine::PlanLanded), else by a plain read.
  void FirePlan(ClientId client, int security_group, Engine::Plan plan,
                std::optional<PendingRead> trigger = std::nullopt);

  /// Sends Engine::SequentialReads of `graph` in the background.
  void FireSequential(ClientId client, int security_group,
                      const DependencyGraph& graph);

  /// A plain demand read of `query`: leads its flight (Engine::
  /// OpenOrJoinFlight), sending the read once, or parks on the one in
  /// flight, and is answered when that flight closes. The sequential
  /// graphs its miss `deferred` fire under this client once its own rows
  /// are answered.
  void RemotePlain(ClientId client, int security_group,
                   sql::ParsedQuery query, ResponseCallback done,
                   std::vector<DependencyGraph> deferred = {});

  /// Ships the shared immutable payload to the client (the one copy into
  /// the client's Result happens at the LAN edge delivery, never here).
  void Respond(std::shared_ptr<const sql::ResultSet> result,
               const ResponseCallback& done);

  EventQueue* events_;
  RemoteDbServer* remote_;
  net::LatencyModel latency_;
  Engine engine_;
  Resource mw_pool_;
};

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_MIDDLEWARE_H_
