#ifndef CHRONOCACHE_RUNTIME_SERVER_H_
#define CHRONOCACHE_RUNTIME_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "db/database.h"
#include "net/circuit_breaker.h"
#include "net/fault_injector.h"
#include "net/retry_policy.h"
#include "obs/audit.h"
#include "obs/contention.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/brownout.h"
#include "runtime/sharded_cache.h"
#include "runtime/thread_pool.h"
#include "sql/result_set.h"
#include "sql/template.h"

namespace chrono::runtime {

using core::ClientId;

/// A result payload shared between the cache, coalesced waiters and client
/// futures. Immutable after publication: a cache hit is a
/// ref-count bump, never a row copy (DESIGN.md §12).
using SharedResult = std::shared_ptr<const sql::ResultSet>;

/// \brief Tuning knobs for one wall-clock serving node. The knobs shared
/// with the simulator's MiddlewareConfig (τ, Δt, cache budgets, learning
/// switches) live in core::EngineConfig; on this node Δt is wall-clock µs.
struct ServerConfig : core::EngineConfig {
  int workers = 4;                     // serving thread-pool size
  size_t cache_shards = 16;            // result-cache lock stripes
  /// Simulated one-way-pair WAN round trip to the remote database, slept
  /// (outside every lock) once per database round trip. 0 disables. This
  /// is the paper's deployment premise — the mid-tier cache sits a WAN
  /// away from the database — and it is what worker threads overlap.
  uint64_t db_latency_us = 0;

  /// External metrics registry (must outlive the server); the server owns
  /// a private one when null, so instrumentation is always live. All
  /// stages, the pool, the shards and the database report through this
  /// one registry (DESIGN.md §9).
  obs::MetricsRegistry* registry = nullptr;

  // --- Fault tolerance (DESIGN.md §11) ---

  /// Scripted fault schedule applied to every remote-database call
  /// (serve_bench --fault-*). Off by default.
  net::FaultOptions fault;
  /// Deadline budget per remote operation, wall µs; 0 = unlimited. The
  /// budget spans all retry attempts of one demand read.
  uint64_t request_deadline_us = 0;
  /// Per-attempt timeout within the deadline; 0 = whatever remains of the
  /// deadline. A blackout burns one attempt budget, not the whole deadline.
  uint64_t attempt_timeout_us = 0;
  /// Backoff schedule for idempotent demand-read retries
  /// (max_attempts = 1: no retry). Writes never auto-retry; prefetch never
  /// retries (it is shed instead).
  net::RetryOptions retry;
  /// Circuit breaker thresholds for the remote-database path.
  net::CircuitBreaker::Options breaker;
  /// Serve version-stale cached entries (age-bounded) when a demand fetch
  /// fails at the transport level; 0 disables (--stale-serve-ms).
  uint64_t stale_serve_us = 0;

  // --- Overload control (DESIGN.md §17) ---

  /// Demand queue-wait p99 target the brownout controller holds
  /// (--queue-target-ms); 0 disables adaptive brownout entirely.
  uint64_t queue_target_us = 0;
  /// Brownout step cadence (see BrownoutController).
  uint64_t brownout_sample_ms = 100;
};

/// Wall-clock serving metrics: the engine's counter snapshot.
using ServerMetrics = core::NodeMetrics;

/// \brief The concurrent serving runtime: a ChronoCache middleware node
/// that serves real threads under wall-clock time, alongside the
/// discrete-event simulator (which remains the vehicle for the paper's §6
/// experiments). The pipeline state — template cache and registry,
/// per-session learned models, version vectors, the lock-striped result
/// cache, the single-flight table (§12) — lives in the core::Engine this
/// server drives; the server owns the wall-clock policy: the worker pool
/// and its lanes, the backend call ladder (§11), a coalesced read's
/// blocking wait, stale serving, brownout (§17) and request traces.
///
/// Telemetry has one configuration: the journal and its audit (§10), the
/// trace ring and tail reservoir (§15) and the lock sites (§16) are always
/// on, so counters, journal and traces describe every node the same way.
///
/// Threading model — lock order is strictly
///   server-level locks  →  engine registry  →  per-session model lock
/// with everything else a leaf: the database RW lock and the engine's
/// template cache, session table, version vectors, flight table and cache
/// shards are taken one at a time, never while another lock is held. The
/// one nesting is the engine registry's reader side held while
/// a session's model lock is taken inside it (learning/combining). The
/// database is guarded by a reader/writer lock: read-only statements
/// execute concurrently under reader access (indexes are warmed eagerly so
/// reads are side-effect-free), writes and DDL take the writer side. See
/// DESIGN.md §8. Observability sits outside this order entirely: hot-path
/// metric recording is lock-free, and the exporters only ever pull
/// snapshots (DESIGN.md §9).
class ChronoServer {
 public:
  /// `db` must outlive the server. The server warms the database's
  /// indexes at construction so reader-locked execution never triggers a
  /// lazy index build; populate the database before constructing.
  ChronoServer(db::Database* db, ServerConfig config);
  ~ChronoServer();

  ChronoServer(const ChronoServer&) = delete;
  ChronoServer& operator=(const ChronoServer&) = delete;

  /// When and how a request reached the node (server-clock µs, see
  /// NowMicros); its stamps become the spans in front of the pipeline in
  /// the request's record (DESIGN.md §15).
  struct Arrival {
    /// kQueue: Submit(); kWire: a Query frame.
    enum class Via : uint8_t { kQueue, kWire };
    Via via = Via::kQueue;
    uint64_t arrived_us = 0;   // frame decode began (kWire), or submitted
    uint64_t enqueued_us = 0;  // handed to the worker pool
    /// A client-forced trace (wire kFlagTraced): bypasses tail admission.
    bool traced = false;
    /// Absolute server-clock µs the client's propagated deadline lands
    /// (wire deadline_ms anchored at decode start); 0 = none. Clamps the
    /// §11 retry budget and arms expiry-at-dequeue rejection (§17).
    uint64_t deadline_us = 0;
  };

  /// Receives a finished request's result and its unpublished record; the
  /// receiver may append spans (the wire frontend adds completion-wait and
  /// response-flush) and must hand the record to PublishTrace.
  using Done = std::function<void(Result<SharedResult>,
                                  std::shared_ptr<obs::RequestTrace>)>;

  /// The queued entry point every request goes through:
  /// enqueues the statement on the worker pool (blocking while the queue
  /// is full) and invokes `done` exactly once — from the worker thread
  /// that executed it, from a worker that found its deadline expired in
  /// the queue, or after Shutdown() from the calling thread (both with an
  /// error status). `done` must not block: the wire frontend hands the
  /// response to its IO thread via an eventfd-signalled completion queue.
  /// The payload is a shared immutable result — callers must not mutate
  /// it; concurrent requests may alias the same rows.
  void SubmitAsync(ClientId client, std::string sql, int security_group,
                   const Arrival& arrival, Done done);

  /// In-process wrapper over SubmitAsync: stamps the arrival at enqueue
  /// and publishes the record before the future becomes ready, so a
  /// caller that waits on it sees its trace. After Shutdown() the future
  /// holds an error status.
  std::future<Result<SharedResult>> Submit(ClientId client, std::string sql,
                                           int security_group = 0);

  /// The one publish site for request records: records the arrival-stage
  /// histograms (wire_decode … response_flush) from the record's spans,
  /// then pushes it to the ring and offers it to the tail reservoir. The
  /// caller must be done mutating it.
  void PublishTrace(std::shared_ptr<obs::RequestTrace> trace);

  /// Microseconds since server start — the clock every trace timestamp,
  /// stale-age bound and time-series sample shares.
  uint64_t NowMicros() const;

  /// Stops accepting work, drains the queue, joins the workers.
  void Shutdown();

  ServerMetrics metrics() const { return engine_.Metrics(); }
  /// The live node counters metrics() snapshots (lock-free reads).
  const core::EngineCounters& counters() const { return counters_; }

  /// Node health for /healthz: degraded while the circuit breaker is not
  /// closed or a stale result was served within the last 2 s.
  struct HealthStatus {
    bool ok = true;
    std::string reason;
  };
  HealthStatus Health() const;

  const net::CircuitBreaker& breaker() const { return breaker_; }
  const net::FaultInjector& fault_injector() const { return fault_; }
  const ShardedCache& cache() const { return engine_.cache(); }
  /// The node's engine: its learned models are read through WithModel.
  core::Engine& engine() { return engine_; }
  const ThreadPool& pool() const { return pool_; }
  const ServerConfig& config() const { return config_; }

  /// §17 overload surface for the wire frontend: the current brownout
  /// level (lock-free) and the Retry-After hint to attach to rejections.
  BrownoutController::Level brownout_level() const {
    return brownout_.level();
  }
  uint32_t brownout_retry_after_ms() const {
    return brownout_.RetryAfterMs();
  }
  /// Journals + counts one overload shed (kOverloadShed* reason). The
  /// wire frontend calls this for pipeline/admission rejections; the
  /// server itself for brownout-shed prefetches.
  void RecordOverloadShed(uint64_t reason, ClientId client,
                          uint32_t retry_after_ms);
  /// The exact status delivered when a queued request's deadline expired
  /// before any worker dequeued it (§17): rejected in O(1), never
  /// executed. The wire frontend uses this to stamp kFlagExpired on the
  /// Error frame it answers with.
  static constexpr const char* kExpiredInQueueMessage =
      "deadline expired while queued; not executed";
  static bool IsExpiredInQueue(const Status& status) {
    return status.code() == Status::Code::kDeadlineExceeded &&
           status.message() == kExpiredInQueueMessage;
  }
  /// Lock-free reads: CacheCounters fields are atomic.
  const CacheCounters& template_cache_counters() const {
    return engine_.template_cache_counters();
  }
  size_t session_count() const;

  /// The metrics registry every layer of this node reports through
  /// (external when ServerConfig::registry was set, otherwise owned).
  obs::MetricsRegistry* registry() const { return metrics_registry_; }
  /// Per-site lock telemetry for this node (the /contention document;
  /// wire frontends get their sites here). Never null.
  obs::ContentionRegistry* contention() const { return contention_.get(); }
  /// Recent-request traces (the last kTraceCapacity records). Never null.
  const obs::TraceRing* traces() const { return &traces_; }
  static constexpr size_t kTraceCapacity = 256;
  /// SQL text retained per trace (truncated beyond this).
  static constexpr size_t kTraceSqlBytes = 120;
  /// The prefetch-lifecycle journal (attach file sinks here). Never null.
  obs::EventJournal* journal() const { return &journal_; }
  /// Live prefetch cost/benefit scoreboards fed by the journal drain.
  /// Never null.
  const obs::PrefetchAudit* audit() const { return &audit_; }
  /// Tail-latency reservoir. Never null.
  const obs::TailReservoir* tail() const { return &tail_; }

 private:
  /// Per-request observability context, stack-allocated in
  /// ExecuteInternal(): accumulates timed pipeline spans and the
  /// outcome/attribution that become a RequestTrace. Never crosses a
  /// thread.
  struct ReqCtx;
  class StageTimer;

  /// A finished request: its result and its unpublished record.
  struct Served {
    Result<SharedResult> result;
    std::shared_ptr<obs::RequestTrace> trace;
  };
  /// Runs the pipeline for one request in the calling thread.
  Served ExecuteInternal(ClientId client, const std::string& sql,
                         int security_group, const Arrival& arrival);

  Result<SharedResult> DoWrite(ClientId client,
                               const sql::ParsedQuery& parsed, ReqCtx* ctx);
  Result<SharedResult> DoRead(ClientId client, int security_group,
                              const sql::ParsedQuery& parsed, ReqCtx* ctx);

  /// Queues `plan` on the prefetch lane, unless the brownout ladder sheds
  /// speculation or the lane is full (both counted as sheds).
  void PrefetchInBackground(ClientId client, int security_group,
                            const core::Engine::Plan& plan);

  /// Executes a combined plan (reader-locked database), splits the result
  /// and installs every piece in the cache tagged with `plan_id` for hit
  /// attribution (Engine::PlanLanded). Combined execution is best-effort:
  /// a shed or failed plan installs nothing. `ctx` and `trigger` are null
  /// when running as a background prefetch; an inline covering plan passes
  /// its read as `trigger`, which it answers unless it failed.
  void ExecuteCombined(ClientId client, int security_group,
                       const core::Engine::Plan& plan, ReqCtx* ctx,
                       core::Engine::Trigger* trigger = nullptr);

  /// One remote-database operation routed through the fault-tolerance
  /// layer (fault injection → breaker admission → deadline/attempt budget
  /// → WAN sleep → execute → retry with backoff for demand reads).
  struct BackendCall {
    bool is_write = false;
    bool is_prefetch = false;  // best-effort: no retries, breaker-shed
    uint64_t tmpl = 0;         // journal attribution
    ClientId client = 0;
    ReqCtx* ctx = nullptr;     // trace annotations (null for background)
  };
  /// `exec` performs the actual (locked) database execution; CallBackend
  /// owns the WAN sleep, so `exec` must not sleep itself.
  Result<db::ExecOutcome> CallBackend(
      const BackendCall& call,
      const std::function<Result<db::ExecOutcome>()>& exec);

  /// True for transport-level failures (unavailable / deadline exceeded)
  /// as opposed to application errors from a healthy backend.
  static bool IsBackendFailure(const Status& status) {
    return net::RetryPolicy::IsRetryable(status);
  }

  /// Records one runtime fact through the engine's recorder (counter +
  /// journal, Engine::Record) and, when the fact happened to a request
  /// (`ctx` non-null), stamps its annotation on that request's timeline:
  /// retry, attempt timeout, stale serve and coalesced carry `event.a` as
  /// the annotation value.
  void Record(const obs::JournalEvent& event, ReqCtx* ctx = nullptr);
  /// Records one shed prefetch (kind = kShedQueueFull /
  /// kShedBreakerUnhealthy).
  void ShedPrefetch(uint64_t kind, const core::Engine::Plan& plan,
                    ClientId client);

  /// Serves `candidate` as an explicitly stale result if stale-serving is
  /// enabled and the entry is within the age bound; null otherwise. The
  /// returned payload aliases the cached entry (no copy).
  SharedResult TryServeStale(
      const std::optional<cache::CachedResult>& candidate, uint64_t tmpl,
      ClientId client, ReqCtx* ctx);

  /// Whether a cache lookup keeps a version-rejected prefetched entry
  /// resident instead of invalidating it: with stale serving on and the
  /// breaker not closed it may be the only answer this node can still give.
  bool KeepRejected() const;

  /// Registers the engine's counter families and this node's pool, breaker,
  /// database and trace metrics, and creates the stage histograms.
  void RegisterMetrics();
  /// Records one journal event that no counter stands for (lock-free;
  /// safe under any server lock — the journal's own locks are leaves).
  void Journal(obs::JournalEvent event) { engine_.Journal(event); }
  /// Records the finished request's latency and outcome (Engine::Record,
  /// on the worker thread) and returns its record.
  std::shared_ptr<obs::RequestTrace> FinishRequest(ReqCtx* ctx,
                                                   ClientId client,
                                                   bool read_only,
                                                   const std::string& sql);
  /// Builds the one-shape record of a request: the arrival stages
  /// (wire_decode when it crossed the wire, queue_wait when it was
  /// queued), then an execute span wrapping the pipeline spans.
  std::shared_ptr<obs::RequestTrace> BuildTrace(const ReqCtx& ctx,
                                                ClientId client,
                                                const std::string& sql,
                                                uint64_t execute_us);
  /// The record of a queued request that never ran the pipeline (expired
  /// in the queue, or refused after Shutdown): an error outcome whose
  /// execute span is empty.
  std::shared_ptr<obs::RequestTrace> UnservedTrace(const Arrival& arrival,
                                                   ClientId client);

  /// Sleeps (the WAN latency, a backoff); never called holding a lock.
  void SleepMicros(uint64_t us) const;

  db::Database* db_;
  ServerConfig config_;
  std::chrono::steady_clock::time_point start_;

  // Declared before every instrumented lock (and before cache_/pool_):
  // the registry/contention pair must outlive the LockSites handed to
  // them, and construction order hands sites out of contention_ in the
  // member-init list below.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* metrics_registry_ = nullptr;
  std::unique_ptr<obs::ContentionRegistry> contention_;

  // readers: SELECT; writers: DML/DDL
  mutable obs::TimedSharedMutex db_mutex_;

  // Template cache and registry, session models and version vectors, the
  // result cache and every node counter; its locks report to contention_.
  core::Engine engine_;
  core::EngineCounters& counters_;  // engine_.counters()

  /// Test-only back door (runtime_singleflight_test.cc, runtime_test.cc):
  /// advances session version state at a deterministic point inside a
  /// coalescing race that cannot be scheduled reliably through the public
  /// API, and sets `after_read_hook_`.
  friend struct ServerTestPeer;
  /// Test-only: runs on a plain-read leader's or a combined plan's thread
  /// between its backend read and its cache install (no lock held). Set
  /// before traffic.
  std::function<void()> after_read_hook_;

  // Fault-tolerance layer (DESIGN.md §11). The breaker mutex and the
  // injector's atomics sit outside the server lock order: backend call
  // sites hold no other lock when touching them, and the breaker's
  // transition listener only records journal events (a leaf).
  net::FaultInjector fault_;
  net::RetryPolicy retry_;
  net::CircuitBreaker breaker_;
  std::atomic<uint64_t> jitter_ordinal_{0};  // deterministic backoff jitter
  std::atomic<uint64_t> last_stale_us_{0};   // NowMicros of last stale serve

  // Observability: the node's registry + contention pair is declared at
  // the top of the member list (it must outlive the instrumented locks).
  // Stage histograms are raw pointers into the registry (stable for its
  // lifetime); the trace ring is owned here. Worker threads touch these
  // only through lock-free Record()/Push() calls.
  obs::TraceRing traces_{kTraceCapacity};
  obs::TailReservoir tail_{obs::TailReservoir::Options{}};
  obs::Histogram* stage_hist_[static_cast<int>(obs::Stage::kCount)] = {};
  obs::Histogram* request_read_hist_ = nullptr;
  obs::Histogram* request_write_hist_ = nullptr;
  std::atomic<uint64_t> next_trace_id_{1};

  // Prefetch-efficacy journal + live audit. Declaration order matters:
  // audit_ before journal_, so the journal's destructor (final drain into
  // the audit sink) runs while the audit is still alive; both before
  // pool_, so workers are joined before the journal goes away. The
  // journal is mutable: attaching a sink through the const accessor
  // changes no serving state.
  obs::PrefetchAudit audit_;
  mutable obs::EventJournal journal_;

  // Overload control (§17). The controller's level is read lock-free on
  // the hot path; the housekeeping thread steps it from the demand-lane
  // wait histogram when queue_target_us > 0.
  BrownoutController brownout_;
  obs::Histogram* pool_wait_hist_[ThreadPool::kLaneCount] = {};
  obs::Histogram* pool_run_hist_ = nullptr;

  // One thread runs every periodic job (DESIGN.md §9): the journal drain
  // and, when enabled, the brownout step. Started last in the
  // constructor; joined in Shutdown once the pool has drained.
  std::mutex housekeeping_mutex_;
  std::condition_variable housekeeping_cv_;
  bool housekeeping_stop_ = false;
  std::thread housekeeping_;
  void Housekeeping();

  // Declared last: destroyed first, so worker threads are joined before
  // any state they touch goes away.
  ThreadPool pool_;
};

}  // namespace chrono::runtime

#endif  // CHRONOCACHE_RUNTIME_SERVER_H_
