#ifndef CHRONOCACHE_CORE_ENGINE_H_
#define CHRONOCACHE_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/lru_map.h"
#include "common/result.h"
#include "core/dependency_manager.h"
#include "core/loop_detector.h"
#include "core/param_mapper.h"
#include "core/result_splitter.h"
#include "core/session.h"
#include "core/template_registry.h"
#include "core/transition_graph.h"
#include "db/executor.h"
#include "obs/contention.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/sharded_cache.h"
#include "sql/footprint.h"
#include "sql/template.h"

namespace chrono::core {

/// \brief The systems compared in the paper's evaluation (§6), each a
/// profile of the same engine: the paper's apples-to-apples methodology.
enum class SystemMode {
  kLru,       // plain LRU result cache, no prediction
  kApollo,    // online learning, sequential (uncombined) predictions, no loops
  kScalpelE,  // combining + loops, no per-loop constants, per-client cache
  kScalpelCC, // Scalpel-E plus ChronoCache's shared client caching
  kChrono,    // the full system
};

const char* SystemModeName(SystemMode mode);

/// \brief The knobs every ChronoCache node has, whichever clock drives
/// it. The simulator's MiddlewareConfig and the wall-clock
/// runtime::ServerConfig both derive from this struct.
struct EngineConfig {
  double tau = 0.8;                         // temporal correlation threshold
  SimTime delta_t = 200 * kMicrosPerMilli;  // Δt correlation window (µs)
  size_t cache_bytes = 64ull << 20;         // result-cache budget
  int min_validations = 2;                  // mapping confirmation threshold
  size_t extract_every = 4;                 // model-mining cadence
  bool enable_learning = true;              // learn the query patterns
  bool enable_combining = true;             // fire combined prefetches
  bool share_across_clients = true;         // shared vs. per-client keys
};

/// \brief A snapshot of every node counter, filled by Engine::Metrics.
/// runtime::ServerMetrics and MiddlewareMetrics name this struct; a fact
/// one driver never records reads 0 there.
struct NodeMetrics {
  uint64_t reads = 0;
  uint64_t writes = 0;
  // Request outcomes, counted from each request's record (Engine::Record).
  uint64_t cache_hits = 0;          // reads answered by a cache lookup
  uint64_t prediction_hits = 0;     // misses answered by a combined query
  uint64_t prefetched_hits = 0;     // either hit, on predictively cached rows
  uint64_t errors = 0;              // statements that returned a status
  uint64_t cache_rejects = 0;       // present but failed session/security
  uint64_t version_gap_serves = 0;  // behind the session, gap disjoint
  uint64_t remote_plain = 0;        // uncombined remote reads
  uint64_t remote_combined = 0;     // combined queries executed
  uint64_t predictions_cached = 0;  // result sets cached ahead of time
  uint64_t prediction_fallbacks = 0;  // combined result missed our query
  uint64_t backend_retries = 0;     // demand-read retries after failures
  uint64_t backend_coalesced = 0;   // misses that joined an in-flight fetch
  uint64_t redundant_skips = 0;     // §5.1: ready graphs already cached
  // Runtime only.
  uint64_t prefetches_dropped = 0;  // prefetch tasks the pool shed
  uint64_t prefetches_shed_breaker = 0;  // prefetch shed: breaker unhealthy
  uint64_t backend_timeouts = 0;    // remote calls abandoned at deadline
  uint64_t stale_serves = 0;        // demand reads answered from stale data
  uint64_t breaker_rejects = 0;     // demand rejected while breaker open
  uint64_t faults_injected = 0;     // injected transport failures
  uint64_t deadline_expired = 0;    // rejected unexecuted at dequeue (§17)
  uint64_t brownout_sheds = 0;      // work dropped by the brownout ladder
  // Simulator only.
  uint64_t sequential_prefetches = 0;  // Apollo-style predictions

  double CacheHitRate() const {
    return reads == 0 ? 0 : static_cast<double>(cache_hits) /
                                static_cast<double>(reads);
  }
};

/// \brief The node's counters, one per fact (relaxed atomics). The engine
/// bumps the ones it owns the decision for (rejects, predictions cached,
/// prediction fallbacks, §5.1 skips); each driver bumps the rest at the
/// one site its policy decides. A fact that is also journaled — a request's outcome, a
/// coalesced waiter — is counted by Engine::Record, never by hand.
/// Engine::RegisterMetrics exports them and Engine::Metrics snapshots them
/// from one table (DESIGN.md §9).
struct EngineCounters {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  // Request outcomes (Engine::Record of a Request).
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> prediction_hits{0};
  std::atomic<uint64_t> prefetched_hits{0};
  std::atomic<uint64_t> errors{0};
  // Present entries turned down: another security group's (§5.2.1), or
  // behind the session with a write in the gap not provably disjoint
  // (§5.2, DESIGN.md §19).
  std::atomic<uint64_t> cache_rejects_security{0};
  std::atomic<uint64_t> cache_rejects_version{0};
  // Entries behind the session served because every write in the gap was
  // provably disjoint from their query.
  std::atomic<uint64_t> version_gap_serves{0};
  std::atomic<uint64_t> remote_plain{0};
  std::atomic<uint64_t> remote_combined{0};
  std::atomic<uint64_t> predictions_cached{0};
  std::atomic<uint64_t> prediction_fallbacks{0};
  std::atomic<uint64_t> backend_retries{0};
  // Waiters that took another read's rows (kBackendCoalesced, b = 0).
  std::atomic<uint64_t> backend_coalesced{0};
  std::atomic<uint64_t> redundant_skips{0};  // §5.1 (Engine::Observe)
  // Runtime only.
  std::atomic<uint64_t> prefetches_shed_breaker{0};
  // Timeouts by whose budget ran out: the node's own, or only the
  // client's propagated wire deadline.
  std::atomic<uint64_t> backend_timeouts_backend{0};
  std::atomic<uint64_t> backend_timeouts_client{0};
  std::atomic<uint64_t> stale_serves{0};
  std::atomic<uint64_t> breaker_rejects{0};
  // Brownout-ladder sheds by rung (§17).
  std::atomic<uint64_t> overload_shed_prefetch{0};
  std::atomic<uint64_t> overload_shed_pipeline{0};
  std::atomic<uint64_t> overload_shed_admission{0};
  // Simulator only.
  std::atomic<uint64_t> sequential_prefetches{0};

  // Facts the component that decides them already counts; the runtime
  // binds a reader before registering metrics (unbound reads 0).
  std::function<uint64_t()> prefetches_dropped;  // the pool's shed tasks
  std::function<uint64_t()> deadline_expired;    // the pool's expired tasks
  std::function<uint64_t()> faults_injected;     // the fault injector's
};

/// \brief The ChronoCache pipeline state and decisions, independent of any
/// clock (DESIGN.md "One engine, two drivers"): memoized query analysis,
/// the template registry, the per-client learned models, combining a
/// ready graph into a plan, the result cache under the §5.2 session and
/// §5.2.1 security rules, each backend call's §5.2 bookkeeping (the
/// version vectors are private to it), the single-flight table that
/// coalesces duplicate demand reads (§5.1), the prefetch-lifecycle journal
/// events and the shared counters.
///
/// Two drivers call it: core::Middleware executes its decisions in
/// virtual time, runtime::ChronoServer on real threads. Time comes from
/// the `now_us` clock the driver passes in; every method is thread-safe.
///
/// Lock order: `registry → client model`, everything else a leaf. The
/// template cache, the client table, the version vectors, the flight table
/// and each cache shard are taken one at a time and never while another
/// engine lock is held; the only nesting is the registry's reader side
/// held while one client's model lock is taken inside it (Observe).
class Engine {
 public:
  /// What a driver fixes beyond EngineConfig. The engine ANDs `mode`'s
  /// profile into the capability switches here and in EngineConfig once,
  /// at construction: a mode turns off what its system lacks and never
  /// turns on a switch that is off.
  struct Options {
    SystemMode mode = SystemMode::kChrono;  // §6 system profile
    int node_id = 0;                    // tags entries; keys in multi-node
    bool multi_node = false;            // §5.2 multi-node session rule
    bool enable_subsumption = true;     // §3 redundancy elimination
    bool enable_redundancy_check = true;  // §5.1 cached-prediction skip
    bool enable_loops = true;           // §2.2 loop graphs
    bool enable_loop_constants = true;  // per-loop constants
  };

  /// One client's learned model (§2–§3): transition graph, parameter
  /// mapper, dependency table and the latest parameters per template.
  struct ClientModel {
    obs::TimedMutex mutex;
    TransitionGraph transitions;
    ParamMapper mapper;
    DependencyManager manager;
    std::map<TemplateId, std::vector<sql::Value>> latest_params;
    uint64_t observations = 0;
    // transitions.generation() + mapper.generation() at the last
    // extraction: both only grow, so an equal sum means neither moved.
    uint64_t extracted_generation = 0;

    ClientModel(const EngineConfig& config, const Options& options,
                obs::LockSite* lock_site);
  };

  /// A combined query mined from a ready graph, with the plan id its
  /// installs and hits are attributed to.
  struct Plan {
    std::shared_ptr<const CombinedQuery> query;
    uint64_t id = 0;
    std::shared_ptr<const DependencyGraph> graph;  // combined from
    TemplateId root = 0;  // the graph's root; every plan event carries it
  };

  /// `now_us` is the driver's clock. `contention` (nullable) attributes
  /// the engine's locks to the runtime's lock sites; `cache_shards` are
  /// the result cache's lock stripes (one keeps its LRU order global).
  Engine(const EngineConfig& config, Options options,
         std::function<uint64_t()> now_us,
         obs::ContentionRegistry* contention = nullptr,
         size_t cache_shards = 1);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Query analysis ---------------------------------------------------

  /// AnalyzeQuery memoized by literal-free shape (sql::ShapeQuery): a hit
  /// costs a tokenize, a hash and reading the literals, with no parse. A
  /// new template joins the registry.
  Result<sql::ParsedQuery> Analyze(const std::string& sql);
  /// Registered template or nullptr. Templates are never removed, so the
  /// pointer stays valid for the engine's lifetime.
  const sql::QueryTemplate* FindTemplate(TemplateId id) const;

  // --- Learned models ---------------------------------------------------

  /// What a read fires: the graphs it made ready, in readiness order, less
  /// the twins of the first (SkipTwins, with combining on) and those whose
  /// predictions the §5.1 check found already cached for the reading
  /// client. Both count as redundant_skips. Each graph has the read's
  /// template as a text dependency.
  struct ReadyGraphs {
    /// With combining on, the first graph's plan, absent when it does not
    /// combine: it can answer the read itself.
    std::optional<Plan> covering;
    /// With combining on, the plans of the rest that combine.
    std::vector<Plan> others;
    /// With combining off, all of them: Apollo-style sequential reads
    /// (SequentialReads) that bind from the read's own answer.
    std::vector<DependencyGraph> sequential;
  };
  /// One read arrival: transition, parameter and latest-parameter
  /// updates, extraction every `extract_every` observations (skipped when
  /// no input of the extractor moved since the last one), then Algorithm
  /// 1's mark_text_avail, then the twin rule and the §5.1 check on the
  /// graphs it made ready, then Combine on each. A no-op with learning off.
  ReadyGraphs Observe(ClientId client, int security_group,
                      const sql::ParsedQuery& parsed);
  /// Feeds a result the client received into its mapper (no-op with
  /// learning off). The engine does so wherever it hands a client rows, so
  /// no driver calls it and a stale serve trains no model; tests and
  /// benchmarks seed a model with it.
  void ObserveResult(ClientId client, TemplateId tmpl,
                     const sql::ResultSet& result);
  /// Runs `fn(const ClientModel&)` under the model lock. `fn` must not
  /// call back into the engine.
  template <typename Fn>
  auto WithModel(ClientId client, Fn&& fn) {
    ClientModel* model = ModelFor(client);
    std::lock_guard<obs::TimedMutex> lock(model->mutex);
    return fn(static_cast<const ClientModel&>(*model));
  }
  /// One uncombined read of a predicted node, bound to text, with its
  /// pre-read tag (BeginRead).
  struct SequentialRead {
    TemplateId tmpl = 0;
    std::string bound_text;
    cache::VersionVector tag;
  };
  /// Apollo-style prediction (§6 "Systems"): the reads of `graph`'s
  /// predicted nodes, in topological order, to send uncombined. A node
  /// binds from its sources' last results, row 0 only (no loops), and the
  /// rest as a combined plan would (FiringParams); one that cannot bind, or
  /// whose text the cache holds or a demand read or another sequential
  /// read has on the wire, is skipped. Each read returned counts in
  /// sequential_prefetches; the driver must send it and land it through
  /// ReadLanded as a kPrefetch, which takes it off the wire.
  std::vector<SequentialRead> SequentialReads(ClientId client,
                                              int security_group,
                                              const DependencyGraph& graph);
  size_t TotalGraphs() const;
  size_t model_count() const;

  // --- Backend calls (§5.2) ---------------------------------------------
  //
  // A driver only sends each call and delivers its answer. Begin* snapshots
  // Vd before the call is sent; *Landed bumps Vd in multi-node mode,
  // installs what was fetched tagged from that snapshot, and syncs Vc.

  /// The pre-read tag of a plain read of `tmpl` about to be sent: Vd
  /// restricted to the relations it reads. Taken before the read, it never
  /// claims a write that commits while the read is in flight as seen.
  cache::VersionVector BeginRead(TemplateId tmpl);
  /// A client's demand read that leads its flight (OpenOrJoinFlight) or
  /// flew alone, or a sequential (Apollo-style) prefetch that no client
  /// has read yet.
  enum class ReadKind { kLeader, kDemand, kPrefetch };
  /// A plain read of `bound_text` landed with its final `outcome`. On
  /// success the rows are frozen into one shared payload, installed tagged
  /// with `tag`, fed to the client's mapper and returned; a demand read
  /// also syncs the client's session to the database (Vc = Vd), since it
  /// performed the read. A failed call returns its status and installs
  /// nothing. A leader's landing closes its flight; a sequential read's
  /// takes its text off the wire.
  Result<std::shared_ptr<const sql::ResultSet>> ReadLanded(
      ClientId client, int security_group, TemplateId tmpl,
      const std::string& bound_text, const cache::VersionVector& tag,
      Result<db::ExecOutcome> outcome, ReadKind kind = ReadKind::kDemand);
  /// Whether a waiter coalesced onto another client's read, whose tag is
  /// `tag`, may take its rows: not if its session moved past `tag` (its
  /// own write landed meanwhile). If so, Vc absorbs `tag` in the same step.
  bool Adopt(ClientId waiter, const cache::VersionVector& tag);

  // --- Single-flight table (§5.1 duplicate-request coalescing) ----------
  //
  // One flight per FlightKey. The leader's ReadLanded (kLeader), given the
  // final outcome, closes it: every read on it gets one Verdict, the
  // leader's first. Each waiter goes through Adopt against the leader's
  // tag (an adopted waiter's mapper is fed the rows, on the leader's
  // thread) and is recorded as one kBackendCoalesced (a = parked_before,
  // b = 1 when refused, ok flag when the read succeeded).

  /// What a read on a flight is handed when the flight closes.
  struct Verdict {
    /// The flight's rows, or the status its read failed with.
    Result<std::shared_ptr<const sql::ResultSet>> rows;
    /// The waiter's own write landed after the leader's tag, so `rows` may
    /// predate it: fetch afresh instead (§5.2 read-your-writes).
    bool refetch = false;
    bool joined = false;  // a waiter, not the leader
    uint64_t parked_before = 0;  // waiters parked before this one
  };
  using Waiter = std::function<void(Verdict)>;
  /// Opens the flight of a demand read of `query` or parks on the open
  /// one. The leader gets its pre-read tag (BeginRead's, taken after the
  /// flight opens and before the read is sent); a waiter gets nullopt.
  /// `waiter` gets the read's Verdict on the leader's thread, with no
  /// engine lock held.
  std::optional<cache::VersionVector> OpenOrJoinFlight(
      ClientId client, int security_group, const sql::ParsedQuery& query,
      Waiter waiter);

  /// A combined plan on the wire: all of Vd before it was sent, and when.
  struct PlanCall {
    std::vector<uint64_t> pre_read;
    uint64_t sent_us = 0;  // the engine clock
  };
  /// Records kCombinedIssued for a plan about to be sent.
  PlanCall BeginPlan(ClientId client, const Plan& plan);
  /// The read whose miss fired a plan inline (the trigger), and its answer.
  struct Trigger {
    const sql::ParsedQuery& query;
    /// CacheGet's `keep_rejected` for the trigger's lookup.
    bool keep_rejected = false;
    /// Set when the landed plan answered the trigger: a prediction hit.
    std::optional<cache::CachedResult> answer = std::nullopt;
  };
  /// A plan's answer landed: journals kCombinedFetched. On success splits
  /// the rows and installs one entry per slot, attributed to the plan and
  /// the edge that predicted it and tagged from `call.pre_read`, then
  /// syncs the client (Vc = Vd). The pieces train no model: the mapper
  /// sees each result when the client reads it, in the client's order (a
  /// piece fed early would restart the loop cursors of §2.1 mid-loop).
  /// A landed split answers a `trigger` from the entry bound to its text,
  /// installed as used by it: it is as fresh as a plain leader's own fetch
  /// (DESIGN.md §19). Failing that, one CacheGet answers it; failing both,
  /// prediction_fallbacks counts the miss. An answer is fed to the
  /// client's mapper. A failed call or split answers nothing and counts
  /// nothing; the driver then reads plainly.
  Status PlanLanded(ClientId client, int security_group, const Plan& plan,
                    const PlanCall& call,
                    const Result<db::ExecOutcome>& outcome,
                    Trigger* trigger = nullptr);

  /// A client's write `parsed` landed with `outcome`. On success Vd moves
  /// for the relations the executor reports written (a write that changed
  /// no row moves none), the writer's Vc syncs to it, and the write's
  /// footprint is logged for the row-level check (DESIGN.md §19).
  void WriteLanded(ClientId client, const sql::ParsedQuery& parsed,
                   const Result<db::ExecOutcome>& outcome);

  // --- Result cache -----------------------------------------------------

  std::string CacheKey(ClientId client, const std::string& bound_text) const;
  /// The coalescing key of a demand read: its cache key plus the security
  /// group, so one group's fetch is never handed to another (§5.2.1).
  std::string FlightKey(ClientId client, int security_group,
                        const std::string& bound_text) const;
  /// Lookup of `query` under the §5.2.1 security-group and §5.2 session
  /// checks. An entry behind the session is served when every write in the
  /// gap is provably disjoint from the query (its tag is then re-stamped
  /// in place, DESIGN.md §19). A version-rejected entry is copied to
  /// `stale_candidate` (when given) and, if it was prefetched, invalidated
  /// unless `keep_rejected`. A hit is fed to the client's mapper.
  std::optional<cache::CachedResult> CacheGet(
      ClientId client, int security_group, const sql::ParsedQuery& query,
      std::optional<cache::CachedResult>* stale_candidate = nullptr,
      bool keep_rejected = false);

  // --- Journal and metrics ----------------------------------------------

  /// Attaches the lifecycle journal and the cache-eviction hook that
  /// journals evicted and invalidated prefetches. With `stamp_events`,
  /// events carry the driver clock as their timestamp (virtual time);
  /// otherwise the journal stamps its own wall clock. Attach before the
  /// first request: the pointer is not synchronised with serving threads.
  void AttachJournal(obs::EventJournal* journal, bool stamp_events);
  /// Records one runtime fact: bumps the EngineCounters field `event`
  /// stands for (if any) and journals it. The one place the drivers'
  /// event-to-counter rules live, so counters and journal agree by
  /// construction.
  void Record(const obs::JournalEvent& event);
  /// One finished client statement, as the driver that served it saw it.
  struct Request {
    ClientId client = 0;
    TemplateId tmpl = 0;  // 0: the text did not analyze
    obs::TraceOutcome outcome = obs::TraceOutcome::kRemotePlain;
    uint64_t plan_root = 0;  // the answering entry's prefetch attribution
    uint64_t src = 0;
    bool late = false;  // started after its client deadline (§17)
    /// Wall-clock pipeline spans and end-to-end µs. Null in virtual time:
    /// the record then carries kJournalFlagNoLatency.
    const std::vector<obs::TraceSpan>* spans = nullptr;
    uint64_t total_us = 0;
  };
  /// Records a request's outcome, the one place either driver does: builds
  /// its kRequest event and records it, which counts cache_hits
  /// (kCacheHit), prediction_hits (kPredictionHit), prefetched_hits
  /// (either hit with a plan) and errors (kError).
  void Record(const Request& request);
  /// Journals one event that no counter stands for; no-op without a
  /// journal.
  void Journal(obs::JournalEvent event);
  /// Registers every node counter family (one table, both drivers) and
  /// the template and result cache families. The registry must outlive the
  /// engine.
  void RegisterMetrics(obs::MetricsRegistry* registry);
  /// Adds every counter to `sum` (several nodes sum into one struct).
  void AddMetricsTo(NodeMetrics* sum) const;
  NodeMetrics Metrics() const {
    NodeMetrics m;
    AddMetricsTo(&m);
    return m;
  }
  /// One `chrono_cache_*{cache="which"}` family set.
  static void RegisterCacheFamily(obs::MetricsRegistry* registry,
                                  const char* which,
                                  std::function<double()> hits,
                                  std::function<double()> misses,
                                  std::function<double()> evictions,
                                  std::function<double()> entries,
                                  const void* owner);

  EngineCounters& counters() { return counters_; }
  const EngineCounters& counters() const { return counters_; }
  const runtime::ShardedCache& cache() const { return cache_; }
  const CacheCounters& template_cache_counters() const {
    return template_cache_.counters();
  }

 private:
  ClientModel* ModelFor(ClientId client);
  /// Combines a ready graph over the client's latest parameters (with
  /// parameter-source bindings resolved, core::FiringParams), assigns a
  /// plan id and journals kPlanMined with the graph's root template.
  std::optional<Plan> Combine(ClientModel* model, DependencyGraph graph);
  /// Drops from `graphs` every graph after the first (the covering one)
  /// whose templates the first contains, with the same dependency queries
  /// and the same loop-constant status: its plan would send pieces of the
  /// covering plan over the WAN again. Each counts in redundant_skips
  /// (DESIGN.md §18). Off with either the §5.1 check or §3 subsumption off.
  void SkipTwins(std::vector<DependencyGraph>* graphs);
  /// §5.1, with no engine lock held: drops from `graphs` every graph whose
  /// predictions are already cached, counting each in redundant_skips.
  void SkipCached(ClientModel* model, ClientId client, int security_group,
                  std::vector<DependencyGraph>* graphs);
  /// True when every piece the graph's plan would install is served to
  /// `client` from the cache. Walks the graph from its one root, at its
  /// latest parameters, in topological order as the plan's nested lateral
  /// loops do: each node is bound from its sources' cached rows in every
  /// context those rows reach, a parameter-bound node is peeked once, and
  /// a source that returned no rows ends its context for the nodes bound
  /// from it. An unknown parameter (NULL no row binds) counts as not
  /// cached.
  bool PredictionsCached(ClientModel* model, ClientId client,
                         int security_group, const DependencyGraph& graph);
  /// Reads relations of a registered template (empty when unknown).
  const std::vector<std::string>& ReadsOf(TemplateId tmpl) const;
  /// Registers a template unless known: a known one takes only the
  /// registry's shared lock.
  void Register(const std::shared_ptr<const sql::QueryTemplate>& tmpl);
  /// Multi-node §5.2: a remote access advances all of Vd (the versions
  /// lock is taken only in multi-node mode, where this is not a no-op).
  void RemoteAccessed();
  /// Installs `result` tagged with `version`, a pre-read tag already
  /// raised over the multi-node access bumps after it
  /// (SessionManager::SkipRemoteAccesses). `plan` (null for demand fills)
  /// and `prefetch_src` attribute predictive installs, which are
  /// journaled. A `used` entry is one a read consumes at install: it is
  /// installed with one use, journaled as used, fed to the client's mapper
  /// and returned.
  std::optional<cache::CachedResult> Put(
      ClientId client, int security_group, TemplateId tmpl,
      const std::string& bound_text,
      std::shared_ptr<const sql::ResultSet> result,
      cache::VersionVector version, const Plan* plan, uint64_t prefetch_src,
      bool used);
  /// The entry `tmpl` bound with `params` (rendered as `bound_text`) would
  /// be served to `client`, by the same checks as CacheGet but without side
  /// effects (no recency, no counters, no session or tag change).
  std::optional<cache::CachedResult> CachePeek(
      ClientId client, int security_group, const sql::QueryTemplate& tmpl,
      const std::vector<sql::Value>& params, const std::string& bound_text);

  enum class Admission { kCurrent, kAcrossGap, kRejected };
  /// The §5.2 session check for `entry`, answering `tmpl` bound with
  /// `params`: current, served across a gap of disjoint writes (`entry`'s
  /// tag is then raised to the session's), or rejected. With `absorb` an
  /// admitted entry's tag is absorbed into Vc in the same step.
  Admission Admit(ClientId client, cache::CachedResult* entry,
                  const sql::QueryTemplate& tmpl,
                  const std::vector<sql::Value>& params, bool absorb);

  const EngineConfig config_;
  const Options options_;
  std::function<uint64_t()> now_us_;
  GraphExtractor extractor_;  // stateless after construction

  mutable obs::TimedMutex template_mutex_;
  // Keyed by QueryShape::key; values are shared, so a hit copies a pointer.
  cache::LruMap<std::string, std::shared_ptr<const sql::ShapeTemplate>>
      template_cache_;

  mutable obs::TimedSharedMutex registry_mutex_;
  TemplateRegistry registry_;

  mutable obs::TimedMutex versions_mutex_;
  SessionManager versions_;

  // Each open flight's reads: the leader first, then the waiters in order.
  struct FlightRead {
    ClientId client;
    Waiter waiter;
  };
  mutable obs::TimedMutex flights_mutex_;
  std::unordered_map<std::string, std::vector<FlightRead>> flights_;
  // The sequential reads on the wire, by FlightKey (SequentialReads adds,
  // a kPrefetch ReadLanded removes).
  std::unordered_set<std::string> sequential_;

  mutable obs::TimedMutex models_mutex_;
  // Resolved once here: ModelFor creates models under models_mutex_, and
  // resolving a site there would nest the contention registry's mutex
  // inside it.
  obs::LockSite* model_site_ = nullptr;
  std::unordered_map<ClientId, std::unique_ptr<ClientModel>> models_;

  runtime::ShardedCache cache_;
  EngineCounters counters_;
  std::atomic<uint64_t> next_plan_id_{1};

  obs::EventJournal* journal_ = nullptr;  // non-owning; null = off
  bool stamp_events_ = false;
  obs::MetricsRegistry* metrics_registry_ = nullptr;  // null until set
};

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_ENGINE_H_
