#include "core/engine.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "core/combiner_cte.h"
#include "core/combiner_lateral.h"

namespace chrono::core {

namespace {

constexpr size_t kTemplateCacheEntries = 512;  // memoized AnalyzeQuery results
constexpr uint64_t kMinOccurrences = 3;        // graph-extraction threshold

obs::LockSite* SiteOrNull(obs::ContentionRegistry* contention,
                          const char* name) {
  return contention == nullptr ? nullptr : contention->Site(name);
}

/// One node counter: read from an atomic (`count`) or a bound reader
/// (`source`), exported as one `family` series with at most one label
/// (null family: snapshot only), and added into one NodeMetrics `field`
/// (null: another row already adds this fact).
struct CounterRow {
  const char* family;
  const char* help;
  const char* label_key;
  const char* label_value;
  std::atomic<uint64_t> EngineCounters::*count;
  std::function<uint64_t()> EngineCounters::*source;
  uint64_t NodeMetrics::*field;
};

using C = EngineCounters;
using M = NodeMetrics;

// Every node counter family, for both drivers: the one place a fact gets
// its exported name. Each fact is exported under one family (and label).
constexpr CounterRow kCounterRows[] = {
    {"chrono_requests_total", "Client statements served", "op", "read",
     &C::reads, nullptr, &M::reads},
    {"chrono_requests_total", "Client statements served", "op", "write",
     &C::writes, nullptr, &M::writes},
    {nullptr, nullptr, nullptr, nullptr, &C::cache_hits, nullptr,
     &M::cache_hits},
    {"chrono_prediction_inline_hits_total",
     "Misses answered by the combined query that covered them", nullptr,
     nullptr, &C::prediction_hits, nullptr, &M::prediction_hits},
    {"chrono_prefetched_hits_total",
     "Requests answered from predictively prefetched entries", nullptr,
     nullptr, &C::prefetched_hits, nullptr, &M::prefetched_hits},
    {"chrono_errors_total", "Statements that returned a status", nullptr,
     nullptr, &C::errors, nullptr, &M::errors},
    {"chrono_cache_rejects_total",
     "Cached results rejected by session/security checks", "reason",
     "security_group", &C::cache_rejects_security, nullptr, &M::cache_rejects},
    {"chrono_cache_rejects_total",
     "Cached results rejected by session/security checks", "reason",
     "version", &C::cache_rejects_version, nullptr, &M::cache_rejects},
    {"chrono_cache_version_gap_serves_total",
     "Cached results behind the session served because every write in the "
     "gap was disjoint from their query",
     nullptr, nullptr, &C::version_gap_serves, nullptr,
     &M::version_gap_serves},
    {"chrono_remote_plain_total", "Plain (uncombined) remote reads", nullptr,
     nullptr, &C::remote_plain, nullptr, &M::remote_plain},
    {"chrono_remote_combined_total", "Combined queries sent to the database",
     nullptr, nullptr, &C::remote_combined, nullptr, &M::remote_combined},
    {"chrono_predictions_cached_total", "Result sets cached ahead of demand",
     nullptr, nullptr, &C::predictions_cached, nullptr,
     &M::predictions_cached},
    {"chrono_prediction_fallbacks_total",
     "Combined queries that missed the asked-for result", nullptr, nullptr,
     &C::prediction_fallbacks, nullptr, &M::prediction_fallbacks},
    {"chrono_backend_retries_total",
     "Demand-read retries after transport failures.", nullptr, nullptr,
     &C::backend_retries, nullptr, &M::backend_retries},
    {"chrono_backend_coalesced_total",
     "Demand misses that joined another thread's in-flight backend fetch "
     "instead of issuing their own.",
     nullptr, nullptr, &C::backend_coalesced, nullptr, &M::backend_coalesced},
    {"chrono_redundant_skips_total",
     "Combinations suppressed as redundant (paper 5.1)", nullptr, nullptr,
     &C::redundant_skips, nullptr, &M::redundant_skips},
    // Runtime only.
    {"chrono_shed_total", "Best-effort work shed instead of queued or retried.",
     "kind", "prefetch_queue", nullptr, &C::prefetches_dropped,
     &M::prefetches_dropped},
    {"chrono_shed_total", "Best-effort work shed instead of queued or retried.",
     "kind", "prefetch_breaker", &C::prefetches_shed_breaker, nullptr,
     &M::prefetches_shed_breaker},
    {"chrono_backend_timeouts_total",
     "Remote calls abandoned at their deadline budget, by whose budget ran "
     "out.",
     "reason", "backend", &C::backend_timeouts_backend, nullptr,
     &M::backend_timeouts},
    {"chrono_backend_timeouts_total",
     "Remote calls abandoned at their deadline budget, by whose budget ran "
     "out.",
     "reason", "client_deadline", &C::backend_timeouts_client, nullptr,
     &M::backend_timeouts},
    {"chrono_stale_serves_total",
     "Demand reads answered from stale cache entries after a backend "
     "failure.",
     nullptr, nullptr, &C::stale_serves, nullptr, &M::stale_serves},
    {"chrono_breaker_rejects_total",
     "Demand calls rejected fast while the breaker was open", nullptr,
     nullptr, &C::breaker_rejects, nullptr, &M::breaker_rejects},
    {"chrono_faults_injected_total",
     "Transport faults injected by the scripted fault schedule", nullptr,
     nullptr, nullptr, &C::faults_injected, &M::faults_injected},
    {"chrono_overload_deadline_expired_total",
     "Requests whose client deadline expired while queued; rejected at "
     "dequeue without executing.",
     nullptr, nullptr, nullptr, &C::deadline_expired, &M::deadline_expired},
    {"chrono_overload_shed_total",
     "Work refused by the brownout ladder, by shed reason.", "reason",
     "prefetch", &C::overload_shed_prefetch, nullptr, &M::brownout_sheds},
    {"chrono_overload_shed_total",
     "Work refused by the brownout ladder, by shed reason.", "reason",
     "pipeline", &C::overload_shed_pipeline, nullptr, &M::brownout_sheds},
    {"chrono_overload_shed_total",
     "Work refused by the brownout ladder, by shed reason.", "reason",
     "admission", &C::overload_shed_admission, nullptr, &M::brownout_sheds},
    // Simulator only.
    {"chrono_sequential_prefetches_total",
     "Apollo-style sequential predictions fired (sim only)", nullptr, nullptr,
     &C::sequential_prefetches, nullptr, &M::sequential_prefetches},
};

uint64_t Read(const EngineCounters& counters, const CounterRow& row) {
  if (row.count != nullptr) {
    return (counters.*row.count).load(std::memory_order_relaxed);
  }
  const std::function<uint64_t()>& source = counters.*row.source;
  return source ? source() : 0;
}

// The counter a recorded event stands for, or null when the event's fact
// is counted elsewhere (queue sheds: the pool) or not at all
// (session-rejected coalesced followers saved no backend call; requests
// answered without a hit or an error). A prefetched hit is counted once
// more, by Engine::Record.
std::atomic<uint64_t>* CounterFor(EngineCounters& c,
                                  const obs::JournalEvent& event) {
  using Type = obs::JournalEventType;
  switch (event.type) {
    case Type::kRequest:
      switch (obs::RequestOutcome(event)) {
        case obs::TraceOutcome::kCacheHit:
          return &c.cache_hits;
        case obs::TraceOutcome::kPredictionHit:
          return &c.prediction_hits;
        case obs::TraceOutcome::kError:
          return &c.errors;
        default:
          return nullptr;
      }
    case Type::kCombinedIssued:
      return &c.remote_combined;
    case Type::kBackendRetry:
      return &c.backend_retries;
    case Type::kBackendTimeout:
      return event.b == obs::kTimeoutClientDeadline
                 ? &c.backend_timeouts_client
                 : &c.backend_timeouts_backend;
    case Type::kStaleServe:
      return &c.stale_serves;
    case Type::kShed:
      return event.a == obs::kShedBreakerUnhealthy
                 ? &c.prefetches_shed_breaker
                 : nullptr;
    case Type::kShedQueue:
      return event.a == obs::kOverloadShedPipeline ? &c.overload_shed_pipeline
             : event.a == obs::kOverloadShedAdmission
                 ? &c.overload_shed_admission
                 : &c.overload_shed_prefetch;
    case Type::kBackendCoalesced:
      return event.b == 0 ? &c.backend_coalesced : nullptr;
    default:
      return nullptr;
  }
}

// The §6 systems, ANDed into the switches: LRU learns nothing, Apollo
// neither combines nor loops, the Scalpels have no per-loop constants and
// Scalpel-E keys its cache per client.
bool Learns(SystemMode mode) { return mode != SystemMode::kLru; }
bool Combines(SystemMode mode) {
  return Learns(mode) && mode != SystemMode::kApollo;
}

EngineConfig Profiled(EngineConfig config, SystemMode mode) {
  config.enable_learning &= Learns(mode);
  config.enable_combining &= Combines(mode);
  config.share_across_clients &= mode != SystemMode::kScalpelE;
  return config;
}

Engine::Options Profiled(Engine::Options options) {
  options.enable_loops &= Combines(options.mode);
  options.enable_loop_constants &= options.mode == SystemMode::kChrono;
  return options;
}

}  // namespace

const char* SystemModeName(SystemMode mode) {
  switch (mode) {
    case SystemMode::kLru: return "LRU";
    case SystemMode::kApollo: return "Apollo";
    case SystemMode::kScalpelE: return "Scalpel-E";
    case SystemMode::kScalpelCC: return "Scalpel-CC";
    case SystemMode::kChrono: return "ChronoCache";
  }
  return "?";
}

Engine::ClientModel::ClientModel(const EngineConfig& config,
                                 const Options& options,
                                 obs::LockSite* lock_site)
    : mutex(lock_site),
      transitions(config.delta_t, /*window_cap=*/64,
                  {config.tau, kMinOccurrences}),
      mapper(config.min_validations),
      manager(DependencyManager::Options{options.enable_subsumption}) {}

Engine::Engine(const EngineConfig& config, Options options,
               std::function<uint64_t()> now_us,
               obs::ContentionRegistry* contention, size_t cache_shards)
    : config_(Profiled(config, options.mode)),
      options_(Profiled(options)),
      now_us_(std::move(now_us)),
      extractor_(GraphExtractor::Options{
          config.tau, kMinOccurrences, options_.enable_loops,
          options_.enable_loop_constants, /*max_nodes=*/8}),
      template_mutex_(SiteOrNull(contention, "server.template_cache")),
      template_cache_(kTemplateCacheEntries),
      registry_mutex_(SiteOrNull(contention, "server.registry.write"),
                      SiteOrNull(contention, "server.registry.read")),
      versions_mutex_(SiteOrNull(contention, "server.versions")),
      versions_(options.multi_node),
      flights_mutex_(SiteOrNull(contention, "server.inflight")),
      models_mutex_(SiteOrNull(contention, "server.sessions")),
      model_site_(SiteOrNull(contention, "server.session")),
      cache_(config.cache_bytes, cache_shards,
             SiteOrNull(contention, "cache.shard")) {}

Engine::~Engine() {
  if (metrics_registry_ != nullptr) {
    metrics_registry_->UnregisterCallbacksOwnedBy(this);
  }
}

// ---- Query analysis ------------------------------------------------------

Result<sql::ParsedQuery> Engine::Analyze(const std::string& sql) {
  CHRONO_ASSIGN_OR_RETURN(sql::QueryShape shape, sql::ShapeQuery(sql));
  std::shared_ptr<const sql::ShapeTemplate> analyzed;
  {
    std::lock_guard<obs::TimedMutex> lock(template_mutex_);
    if (const auto* hit = template_cache_.Get(shape.key)) analyzed = *hit;
  }
  if (analyzed == nullptr) {
    // Analysis is a pure function of the shape: run it unlocked. Two
    // threads racing on a new shape both analyze and both Put — the second
    // Put replaces an identical value, which is harmless.
    Result<sql::ShapeTemplate> built = sql::AnalyzeShape(sql);
    if (!built.ok()) {
      // Not reusable by shape (or not valid SQL): analyze the text itself.
      auto parsed = sql::AnalyzeQuery(sql);
      if (parsed.ok()) Register(parsed->tmpl);
      return parsed;
    }
    // Registered before it is cached: a reader that finds the shape finds
    // the template.
    Register(built->tmpl);
    analyzed = std::make_shared<const sql::ShapeTemplate>(std::move(*built));
    std::lock_guard<obs::TimedMutex> lock(template_mutex_);
    template_cache_.Put(shape.key, analyzed);
  }
  return sql::InstantiateShape(*analyzed, shape);
}

void Engine::Register(const std::shared_ptr<const sql::QueryTemplate>& tmpl) {
  // Several shapes (and texts) share a template: only a template the
  // registry has never seen takes the writer side.
  {
    std::shared_lock<obs::TimedSharedMutex> lock(registry_mutex_);
    if (registry_.Find(tmpl->id) != nullptr) return;
  }
  std::unique_lock<obs::TimedSharedMutex> lock(registry_mutex_);
  registry_.Register(tmpl);
}

const sql::QueryTemplate* Engine::FindTemplate(TemplateId id) const {
  std::shared_lock<obs::TimedSharedMutex> lock(registry_mutex_);
  return registry_.Find(id);
}

// ---- Learned models ------------------------------------------------------

Engine::ClientModel* Engine::ModelFor(ClientId client) {
  std::lock_guard<obs::TimedMutex> lock(models_mutex_);
  auto it = models_.find(client);
  if (it == models_.end()) {
    it = models_
             .emplace(client, std::make_unique<ClientModel>(config_, options_,
                                                            model_site_))
             .first;
  }
  return it->second.get();
}

Engine::ReadyGraphs Engine::Observe(ClientId client, int security_group,
                                    const sql::ParsedQuery& parsed) {
  if (!config_.enable_learning) return {};
  ClientModel* model = ModelFor(client);
  const TemplateId tmpl = parsed.tmpl->id;
  // The extractor reads the shared registry while one model is updated.
  std::shared_lock<obs::TimedSharedMutex> registry_lock(registry_mutex_);
  std::unique_lock<obs::TimedMutex> model_lock(model->mutex);
  model->transitions.Observe(tmpl, static_cast<SimTime>(now_us_()));
  model->mapper.ObserveQuery(tmpl, parsed.params);
  model->latest_params[tmpl].assign(parsed.params.begin(), parsed.params.end());
  if (++model->observations % config_.extract_every == 0) {
    // Extract reads the τ-pruned transition graph and the confirmed
    // mappings (registered templates never change). When neither moved,
    // it would return the graphs the manager already holds, and adding
    // them again changes nothing.
    const uint64_t generation =
        model->transitions.generation() + model->mapper.generation();
    if (generation != model->extracted_generation) {
      model->extracted_generation = generation;
      model->manager.DropStale(model->mapper);
      for (auto& graph :
           extractor_.Extract(model->transitions, model->mapper, registry_)) {
        model->manager.AddGraph(std::move(graph));
      }
    }
  }
  std::vector<DependencyGraph> ready;
  for (const DependencyGraph* graph : model->manager.MarkTextAvail(tmpl)) {
    ready.push_back(*graph);
  }
  model_lock.unlock();
  registry_lock.unlock();
  ReadyGraphs out;
  if (!config_.enable_combining) {
    SkipCached(model, client, security_group, &ready);
    out.sequential = std::move(ready);
    return out;
  }
  // Each graph the read made ready has its template as a text dependency:
  // the first one's plan can answer the read.
  SkipTwins(&ready);
  SkipCached(model, client, security_group, &ready);
  for (DependencyGraph& graph : ready) {
    std::optional<Plan> plan = Combine(model, std::move(graph));
    if (&graph == &ready.front()) {
      out.covering = std::move(plan);
    } else if (plan.has_value()) {
      out.others.push_back(std::move(*plan));
    }
  }
  return out;
}

void Engine::SkipTwins(std::vector<DependencyGraph>* graphs) {
  // Containment is §3's test: with subsumption off, every stored graph
  // fires, as that ablation measures.
  if (graphs->size() < 2 || !options_.enable_redundancy_check ||
      !options_.enable_subsumption) {
    return;
  }
  const DependencyGraph& covering = graphs->front();
  const std::vector<TemplateId> roots = covering.DependencyQueries();
  auto twins = std::remove_if(
      graphs->begin() + 1, graphs->end(), [&](const DependencyGraph& g) {
        return g.loop_marked.empty() == covering.loop_marked.empty() &&
               std::ranges::includes(covering.nodes, g.nodes) &&
               g.DependencyQueries() == roots;
      });
  counters_.redundant_skips.fetch_add(
      static_cast<uint64_t>(graphs->end() - twins), std::memory_order_relaxed);
  graphs->erase(twins, graphs->end());
}

void Engine::SkipCached(ClientModel* model, ClientId client,
                        int security_group,
                        std::vector<DependencyGraph>* graphs) {
  if (!options_.enable_redundancy_check) return;
  const size_t skipped = std::erase_if(*graphs, [&](const DependencyGraph& g) {
    return PredictionsCached(model, client, security_group, g);
  });
  counters_.redundant_skips.fetch_add(skipped, std::memory_order_relaxed);
}

bool Engine::PredictionsCached(ClientModel* model, ClientId client,
                               int security_group,
                               const DependencyGraph& graph) {
  const std::vector<TemplateId> roots = graph.DependencyQueries();
  if (roots.size() != 1) return false;
  const TemplateId root = roots[0];
  // The walk starts at the root, as the plan does.
  const std::vector<TemplateId> order = graph.TopologicalOrder();
  if (order.empty() || order.front() != root) return false;
  std::map<TemplateId, std::vector<sql::Value>> firing;
  {
    std::lock_guard<obs::TimedMutex> lock(model->mutex);
    firing = FiringParams(graph, model->latest_params);
  }
  // Each distinct piece is peeked once, however many contexts bind it: at
  // most as many peeks as the plan has pieces. Peeks take a cache shard and
  // the versions lock: never under the model's.
  std::unordered_map<std::string, std::shared_ptr<const sql::ResultSet>> seen;
  auto peek = [&](const sql::QueryTemplate& tmpl,
                  const std::vector<sql::Value>& params)
      -> const sql::ResultSet* {
    std::string text = sql::RenderBoundText(tmpl, params);
    auto it = seen.find(text);
    if (it == seen.end()) {
      std::optional<cache::CachedResult> hit =
          CachePeek(client, security_group, tmpl, params, text);
      if (!hit.has_value()) return nullptr;
      it = seen.emplace(std::move(text), hit->result).first;
    }
    return it->second.get();
  };
  // The nodes whose rows bind another node's parameters, by context slot.
  std::map<TemplateId, size_t> slot_of;
  for (const DepEdge& e : graph.edges) {
    if (e.HasResultBinding()) slot_of.emplace(e.src, slot_of.size());
  }
  // One context per combination of rows the plan's nested loops reach: the
  // row each visited node in slot_of returned there, or null when it
  // returned none (the plan's left join then installs nothing bound from
  // it).
  using Context = std::vector<const sql::Row*>;
  std::vector<Context> contexts(1, Context(slot_of.size(), nullptr));
  std::map<TemplateId, const sql::ResultSet*> columns_of;  // a result per source
  struct Binding {
    size_t slot;    // the source's context slot
    size_t column;  // in the source's rows
    size_t param;   // of the bound node
  };

  for (TemplateId node : order) {
    const sql::QueryTemplate* tmpl = FindTemplate(node);
    if (tmpl == nullptr) return false;
    // Constants and parameter sources for positions no result row binds.
    const std::vector<sql::Value> base =
        FiringParamsOf(firing, node, tmpl->param_count);
    std::vector<Binding> bindings;
    for (const DepEdge& e : graph.edges) {
      if (e.dst != node) continue;
      for (const ParamBinding& b : e.bindings) {
        if (b.from_param()) continue;
        auto source = columns_of.find(e.src);
        // A source no context has a row of binds nothing anywhere.
        const int column = source == columns_of.end()
                               ? 0
                               : source->second->ColumnIndex(b.src_column);
        if (column < 0) return false;
        bindings.push_back({slot_of.at(e.src), static_cast<size_t>(column),
                            static_cast<size_t>(b.dst_param)});
      }
    }
    // An unknown parameter (NULL) that no row binds cannot be verified.
    for (size_t p = 0; p < base.size(); ++p) {
      if (base[p].is_null() &&
          std::none_of(bindings.begin(), bindings.end(),
                       [p](const Binding& b) { return b.param == p; })) {
        return false;
      }
    }
    const auto reader = slot_of.find(node);
    std::vector<Context> extended;
    for (Context& context : contexts) {
      std::vector<sql::Value> params = base;
      bool reached = true;
      for (const Binding& b : bindings) {
        const sql::Row* row = context[b.slot];
        // A source that returned no row here, or a NULL the client could
        // never have bound: the plan installs no piece for this context.
        reached = row != nullptr && !(*row)[b.column].is_null();
        if (!reached) break;
        params[b.param] = (*row)[b.column];
      }
      const sql::ResultSet* rows = reached ? peek(*tmpl, params) : nullptr;
      if (reached && rows == nullptr) return false;
      // No root rows: the combined result is empty, and the plan installs
      // the root's piece only.
      if (node == root && rows->empty()) return true;
      if (reader == slot_of.end()) continue;
      if (rows == nullptr || rows->empty()) {
        extended.push_back(std::move(context));
        continue;
      }
      columns_of.emplace(node, rows);
      for (const sql::Row& row : rows->rows()) {
        Context next = context;
        next[reader->second] = &row;
        extended.push_back(std::move(next));
      }
    }
    if (reader != slot_of.end()) contexts = std::move(extended);
  }
  return true;
}

void Engine::ObserveResult(ClientId client, TemplateId tmpl,
                           const sql::ResultSet& result) {
  if (!config_.enable_learning) return;
  ClientModel* model = ModelFor(client);
  std::lock_guard<obs::TimedMutex> lock(model->mutex);
  model->mapper.ObserveResult(tmpl, result);
}

std::optional<Engine::Plan> Engine::Combine(ClientModel* model,
                                            DependencyGraph graph) {
  std::map<TemplateId, std::vector<sql::Value>> params;
  {
    std::lock_guard<obs::TimedMutex> model_lock(model->mutex);
    params = FiringParams(graph, model->latest_params);
  }
  Result<CombinedQuery> combined = [&] {
    std::shared_lock<obs::TimedSharedMutex> registry_lock(registry_mutex_);
    return CombineGraph(CombineInput{&graph, &registry_, &params});
  }();
  if (!combined.ok()) return std::nullopt;
  Plan plan;
  plan.query = std::make_shared<const CombinedQuery>(std::move(*combined));
  plan.id = next_plan_id_.fetch_add(1, std::memory_order_relaxed);
  std::vector<TemplateId> roots = graph.DependencyQueries();
  obs::JournalEvent event;
  event.type = obs::JournalEventType::kPlanMined;
  event.plan = plan.id;
  event.tmpl = roots.empty() ? 0 : static_cast<uint64_t>(roots.front());
  event.a = plan.query->slots.size();
  Journal(event);
  plan.graph = std::make_shared<const DependencyGraph>(std::move(graph));
  plan.root = event.tmpl;
  return plan;
}

std::vector<Engine::SequentialRead> Engine::SequentialReads(
    ClientId client, int security_group, const DependencyGraph& graph) {
  ClientModel* model = ModelFor(client);
  std::vector<SequentialRead> reads;
  for (TemplateId node : graph.TopologicalOrder()) {
    if (graph.RoleOf(node) != NodeRole::kPredicted) continue;
    const sql::QueryTemplate* tmpl = FindTemplate(node);
    if (tmpl == nullptr) continue;
    std::vector<sql::Value> params;
    const bool bound = [&] {
      std::lock_guard<obs::TimedMutex> lock(model->mutex);
      params = FiringParamsOf(FiringParams(graph, model->latest_params), node,
                              tmpl->param_count);
      for (const DepEdge& e : graph.edges) {
        if (e.dst != node || !e.HasResultBinding()) continue;
        const sql::ResultSet* rows = model->mapper.LastResult(e.src);
        if (rows == nullptr || rows->empty()) return false;
        for (const ParamBinding& b : e.bindings) {
          if (b.from_param()) continue;
          const int column = rows->ColumnIndex(b.src_column);
          if (column < 0) return false;
          params[static_cast<size_t>(b.dst_param)] =
              rows->row(0)[static_cast<size_t>(column)];
        }
      }
      return true;
    }();
    if (!bound) continue;
    std::string text = sql::RenderBoundText(*tmpl, params);
    if (cache_.Contains(CacheKey(client, text))) continue;
    {
      std::string key = FlightKey(client, security_group, text);
      std::lock_guard<obs::TimedMutex> lock(flights_mutex_);
      if (flights_.contains(key) || !sequential_.insert(std::move(key)).second) {
        continue;
      }
    }
    counters_.sequential_prefetches.fetch_add(1, std::memory_order_relaxed);
    reads.push_back({node, std::move(text), BeginRead(node)});
  }
  return reads;
}

size_t Engine::TotalGraphs() const {
  std::vector<ClientModel*> models;
  {
    std::lock_guard<obs::TimedMutex> lock(models_mutex_);
    for (const auto& [client, model] : models_) {
      (void)client;
      models.push_back(model.get());
    }
  }
  size_t n = 0;
  for (ClientModel* model : models) {
    std::lock_guard<obs::TimedMutex> lock(model->mutex);
    n += model->manager.graph_count();
  }
  return n;
}

size_t Engine::model_count() const {
  std::lock_guard<obs::TimedMutex> lock(models_mutex_);
  return models_.size();
}

// ---- Backend calls -------------------------------------------------------

const std::vector<std::string>& Engine::ReadsOf(TemplateId tmpl) const {
  static const std::vector<std::string> kNone;
  std::shared_lock<obs::TimedSharedMutex> lock(registry_mutex_);
  const sql::QueryTemplate* qt = registry_.Find(tmpl);
  // Templates are never removed: the reference outlives the lock.
  return qt == nullptr ? kNone : qt->access.reads;
}

void Engine::RemoteAccessed() {
  if (!options_.multi_node) return;
  std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
  versions_.OnRemoteAccess();
}

cache::VersionVector Engine::BeginRead(TemplateId tmpl) {
  const std::vector<std::string>& reads = ReadsOf(tmpl);
  std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
  return versions_.SnapshotFor(reads);
}

Result<std::shared_ptr<const sql::ResultSet>> Engine::ReadLanded(
    ClientId client, int security_group, TemplateId tmpl,
    const std::string& bound_text, const cache::VersionVector& tag,
    Result<db::ExecOutcome> outcome, ReadKind kind) {
  RemoteAccessed();
  // Frozen once: the cache entry and every waiter share the payload.
  using Payload = std::shared_ptr<const sql::ResultSet>;
  Result<Payload> payload =
      outcome.ok() ? Result<Payload>(std::make_shared<const sql::ResultSet>(
                         std::move(outcome->result)))
                   : outcome.status();
  if (payload.ok()) {
    cache::VersionVector version = tag;
    {
      std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
      versions_.SkipRemoteAccesses(&version);
      if (kind != ReadKind::kPrefetch) versions_.SyncClientToDb(client);
    }
    Put(client, security_group, tmpl, bound_text, *payload,
        std::move(version), /*plan=*/nullptr, /*prefetch_src=*/0,
        /*used=*/false);
    ObserveResult(client, tmpl, **payload);
  }
  if (kind == ReadKind::kPrefetch) {
    std::lock_guard<obs::TimedMutex> lock(flights_mutex_);
    sequential_.erase(FlightKey(client, security_group, bound_text));
  }
  if (kind != ReadKind::kLeader) return payload;
  // The flight is erased first: a read arriving from here on (a refetching
  // waiter included) opens a new one instead of parking on a closed one.
  std::vector<FlightRead> reads;
  {
    std::lock_guard<obs::TimedMutex> lock(flights_mutex_);
    auto node = flights_.extract(FlightKey(client, security_group, bound_text));
    if (!node.empty()) reads = std::move(node.mapped());
  }
  for (size_t i = 0; i < reads.size(); ++i) {
    Verdict verdict{payload};
    if (i > 0) {
      verdict.joined = true;
      verdict.parked_before = i - 1;
      verdict.refetch = payload.ok() && !Adopt(reads[i].client, tag);
      if (payload.ok() && !verdict.refetch) {
        ObserveResult(reads[i].client, tmpl, **payload);
      }
      Record({.tmpl = static_cast<uint64_t>(tmpl),
              .a = verdict.parked_before,
              .b = verdict.refetch ? 1u : 0u,
              .client = static_cast<uint32_t>(reads[i].client),
              .type = obs::JournalEventType::kBackendCoalesced,
              .flags = payload.ok() ? obs::kJournalFlagOk : uint8_t{0}});
    }
    reads[i].waiter(std::move(verdict));
  }
  return payload;
}

bool Engine::Adopt(ClientId waiter, const cache::VersionVector& tag) {
  std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
  if (!versions_.CanUse(waiter, tag)) return false;
  versions_.AbsorbResult(waiter, tag);
  return true;
}

std::optional<cache::VersionVector> Engine::OpenOrJoinFlight(
    ClientId client, int security_group, const sql::ParsedQuery& query,
    Waiter waiter) {
  {
    std::lock_guard<obs::TimedMutex> lock(flights_mutex_);
    auto [it, opened] = flights_.try_emplace(
        FlightKey(client, security_group, query.bound_text));
    it->second.push_back(FlightRead{client, std::move(waiter)});
    if (!opened) return std::nullopt;
  }
  // Before the read is sent: a write committing after this snapshot moves
  // Vd past it, so its writer's Adopt refuses the flight's rows.
  return BeginRead(query.tmpl->id);
}

Engine::PlanCall Engine::BeginPlan(ClientId client, const Plan& plan) {
  Record({.plan = plan.id,
          .tmpl = static_cast<uint64_t>(plan.root),
          .client = static_cast<uint32_t>(client),
          .type = obs::JournalEventType::kCombinedIssued});
  PlanCall call;
  {
    std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
    call.pre_read = versions_.Versions();
  }
  call.sent_us = now_us_();
  return call;
}

Status Engine::PlanLanded(ClientId client, int security_group,
                          const Plan& plan, const PlanCall& call,
                          const Result<db::ExecOutcome>& outcome,
                          Trigger* trigger) {
  RemoteAccessed();
  obs::JournalEvent event;
  event.type = obs::JournalEventType::kCombinedFetched;
  event.plan = plan.id;
  event.tmpl = static_cast<uint64_t>(plan.root);
  event.client = static_cast<uint32_t>(client);
  if (outcome.ok()) {
    event.flags = obs::kJournalFlagOk;
    event.a = outcome->result.row_count();
    event.b = outcome->result.ByteSize();
  }
  const uint64_t now = now_us_();
  event.c = now > call.sent_us ? now - call.sent_us : 0;
  Journal(event);
  if (!outcome.ok()) return outcome.status();
  const CombinedQuery& query = *plan.query;
  Result<std::vector<SplitEntry>> split = [&] {
    std::shared_lock<obs::TimedSharedMutex> lock(registry_mutex_);
    return SplitResult(query, outcome->result, registry_);
  }();
  if (!split.ok()) return split.status();

  // Hit attribution: the transition-graph edge that prefetched a slot is
  // (first parent slot's template -> slot template); a parameter-bound
  // slot's inputs are the root's (an input source is its value's origin,
  // which only a root can be); roots keep src 0.
  std::map<TemplateId, TemplateId> src_of;
  for (const DecodeSlot& slot : query.slots) {
    TemplateId src = 0;
    if (slot.param_bound) {
      src = query.slots.front().tmpl;
    } else if (!slot.parents.empty()) {
      int parent = slot.parents.front();
      if (parent >= 0 && static_cast<size_t>(parent) < query.slots.size()) {
        src = query.slots[static_cast<size_t>(parent)].tmpl;
      }
    }
    src_of.emplace(slot.tmpl, src);
  }
  for (const SplitEntry& entry : *split) {
    auto it = src_of.find(entry.tmpl);
    cache::VersionVector version;
    {
      const std::vector<std::string>& reads = ReadsOf(entry.tmpl);
      std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
      version = versions_.SnapshotFor(reads, call.pre_read);
      versions_.SkipRemoteAccesses(&version);
    }
    const bool answers_trigger = trigger != nullptr &&
                                 !trigger->answer.has_value() &&
                                 entry.key == trigger->query.bound_text;
    std::optional<cache::CachedResult> used =
        Put(client, security_group, entry.tmpl, entry.key, entry.result,
            std::move(version), &plan,
            it == src_of.end() ? 0 : static_cast<uint64_t>(it->second),
            answers_trigger);
    if (used.has_value()) trigger->answer = std::move(used);
    counters_.predictions_cached.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // The triggering client observed fresh database state.
    std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
    versions_.SyncClientToDb(client);
  }
  if (trigger != nullptr && !trigger->answer.has_value()) {
    trigger->answer = CacheGet(client, security_group, trigger->query,
                               /*stale_candidate=*/nullptr,
                               trigger->keep_rejected);
    // Misprediction: the combined result did not cover the trigger.
    if (!trigger->answer.has_value()) {
      counters_.prediction_fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

void Engine::WriteLanded(ClientId client, const sql::ParsedQuery& parsed,
                         const Result<db::ExecOutcome>& outcome) {
  RemoteAccessed();
  if (!outcome.ok()) return;
  auto footprint = std::make_shared<const sql::WriteFootprint>(
      sql::ExtractWriteFootprint(*parsed.tmpl->ast, parsed.params));
  std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
  versions_.OnClientWrite(client, outcome->tables_written,
                          std::move(footprint));
}

// ---- Result cache --------------------------------------------------------

std::string Engine::CacheKey(ClientId client,
                             const std::string& bound_text) const {
  std::string key;
  if (!config_.share_across_clients) {
    key.append("c").append(std::to_string(client)).append("#");
  }
  if (options_.multi_node) {
    key.append("n").append(std::to_string(options_.node_id)).append("#");
  }
  key += bound_text;
  return key;
}

std::string Engine::FlightKey(ClientId client, int security_group,
                              const std::string& bound_text) const {
  return CacheKey(client, bound_text) + "#g" + std::to_string(security_group);
}

std::optional<cache::CachedResult> Engine::Put(
    ClientId client, int security_group, TemplateId tmpl,
    const std::string& bound_text,
    std::shared_ptr<const sql::ResultSet> result, cache::VersionVector version,
    const Plan* plan, uint64_t prefetch_src, bool used) {
  cache::CachedResult entry;
  entry.SetResult(std::move(result));
  entry.version = std::move(version);
  entry.security_group = security_group;
  entry.node_id = options_.node_id;
  if (plan != nullptr) {
    entry.prefetch_plan = plan->id;
    entry.prefetch_root = static_cast<uint64_t>(plan->root);
    entry.prefetch_src = prefetch_src;
  }
  entry.tmpl = static_cast<uint64_t>(tmpl);
  entry.install_us = now_us_();
  // A CacheGet hit would have counted this use.
  entry.use_count = used ? 1 : 0;
  std::string key = CacheKey(client, bound_text);
  if (plan != nullptr && journal_ != nullptr) {
    obs::JournalEvent event;
    event.type = obs::JournalEventType::kEntryInstalled;
    event.plan = entry.prefetch_plan;
    event.src = entry.prefetch_src;
    event.tmpl = entry.tmpl;
    event.a = cache::LruCache::EntryBytes(key, entry);
    event.c = entry.prefetch_root;
    event.client = static_cast<uint32_t>(client);
    Journal(event);
    if (used) {
      event.type = obs::JournalEventType::kEntryUsed;
      event.b = 0;  // used the moment it landed
      Journal(event);
    }
  }
  std::optional<cache::CachedResult> installed;
  if (used) {
    ObserveResult(client, tmpl, *entry.result);
    installed = entry;
  }
  cache_.Put(key, std::move(entry));
  return installed;
}

Engine::Admission Engine::Admit(ClientId client, cache::CachedResult* entry,
                                const sql::QueryTemplate& tmpl,
                                const std::vector<sql::Value>& params,
                                bool absorb) {
  {
    std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
    if (versions_.CanUse(client, entry->version)) {
      if (absorb) versions_.AbsorbResult(client, entry->version);
      return Admission::kCurrent;
    }
  }
  // Behind the session: derive the query side from the template and its
  // parameters (outside the lock; nothing is stored per entry), then scan
  // the write log. The session may have moved in between; CoverGap reads
  // it afresh under the lock.
  if (entry->tmpl != tmpl.id || entry->version.size() != 1) {
    return Admission::kRejected;
  }
  std::optional<sql::ReadFootprint> read =
      sql::ExtractReadFootprint(*tmpl.ast, params);
  if (!read.has_value()) return Admission::kRejected;
  std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
  std::optional<cache::VersionVector> covered =
      versions_.CoverGap(client, entry->version, *read, *entry->result);
  if (!covered.has_value()) return Admission::kRejected;
  if (absorb) versions_.AbsorbResult(client, *covered);
  entry->version = std::move(*covered);
  return Admission::kAcrossGap;
}

std::optional<cache::CachedResult> Engine::CacheGet(
    ClientId client, int security_group, const sql::ParsedQuery& query,
    std::optional<cache::CachedResult>* stale_candidate, bool keep_rejected) {
  const std::string key = CacheKey(client, query.bound_text);
  std::optional<cache::CachedResult> entry = cache_.Get(key);
  if (!entry.has_value()) return std::nullopt;
  if (entry->security_group != security_group) {
    counters_.cache_rejects_security.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const Admission admission =
      Admit(client, &*entry, *query.tmpl, query.params, /*absorb=*/true);
  if (admission == Admission::kRejected) {
    counters_.cache_rejects_version.fetch_add(1, std::memory_order_relaxed);
    if (stale_candidate != nullptr) *stale_candidate = *entry;
    // A version-rejected prefetched entry can never become usable again
    // (database versions are monotonic, so the write that sank it stays in
    // every later gap): erase it now so the eviction hook journals it as
    // invalidated rather than letting it age out as an ordinary capacity
    // eviction.
    if (entry->prefetch_plan != 0 && !keep_rejected) cache_.Invalidate(key);
    return std::nullopt;
  }
  if (admission == Admission::kAcrossGap) {
    // Later checks only scan the writes after the session's version.
    counters_.version_gap_serves.fetch_add(1, std::memory_order_relaxed);
    cache_.Restamp(key, entry->result.get(), entry->version);
  }
  // First demand hit on a prefetched entry: the cache just bumped
  // use_count, so our copy reading 1 means this very lookup was the first.
  if (entry->prefetch_plan != 0 && entry->use_count == 1 &&
      journal_ != nullptr) {
    obs::JournalEvent event;
    event.type = obs::JournalEventType::kEntryUsed;
    event.plan = entry->prefetch_plan;
    event.src = entry->prefetch_src;
    event.tmpl = entry->tmpl;
    event.a = cache::LruCache::EntryBytes(key, *entry);
    const uint64_t now = now_us_();
    event.b = now > entry->install_us ? now - entry->install_us : 0;
    event.c = entry->prefetch_root;
    event.client = static_cast<uint32_t>(client);
    Journal(event);
  }
  ObserveResult(client, query.tmpl->id, *entry->result);
  return entry;
}

std::optional<cache::CachedResult> Engine::CachePeek(
    ClientId client, int security_group, const sql::QueryTemplate& tmpl,
    const std::vector<sql::Value>& params, const std::string& bound_text) {
  std::optional<cache::CachedResult> entry =
      cache_.Peek(CacheKey(client, bound_text));
  if (!entry.has_value() || entry->security_group != security_group ||
      Admit(client, &*entry, tmpl, params, /*absorb=*/false) ==
          Admission::kRejected) {
    return std::nullopt;
  }
  return entry;
}

// ---- Journal and metrics -------------------------------------------------

void Engine::AttachJournal(obs::EventJournal* journal, bool stamp_events) {
  journal_ = journal;
  stamp_events_ = stamp_events;
  // Runs under the owning shard's mutex (a leaf lock); journal Record is
  // the only side effect. Only prefetch-attributed entries are journaled.
  // kErased is the staleness invalidation in CacheGet — the one explicit
  // erase on the result cache — and it always follows a Get that bumped
  // use_count, so "served a real hit" is use_count > 1 there and
  // use_count > 0 everywhere else.
  cache_.SetEvictionCallback([this](const std::string& key,
                                    const cache::CachedResult& value,
                                    size_t bytes, cache::EvictReason reason) {
    (void)key;
    if (value.prefetch_plan == 0 || reason == cache::EvictReason::kCleared) {
      return;
    }
    obs::JournalEvent event;
    event.plan = value.prefetch_plan;
    event.src = value.prefetch_src;
    event.tmpl = value.tmpl;
    event.a = bytes;
    const uint64_t now = now_us_();
    event.b = now > value.install_us ? now - value.install_us : 0;
    event.c = value.prefetch_root;
    if (reason == cache::EvictReason::kErased) {
      event.type = obs::JournalEventType::kEntryInvalidated;
      event.flags = value.use_count > 1 ? obs::kJournalFlagUsed : 0;
    } else {
      event.type = obs::JournalEventType::kEntryEvicted;
      event.flags = (value.use_count > 0 ? obs::kJournalFlagUsed : 0) |
                    (reason == cache::EvictReason::kReplaced
                         ? obs::kJournalEvictReplaced
                         : obs::kJournalEvictCapacity);
    }
    Journal(event);
  });
}

void Engine::Record(const obs::JournalEvent& event) {
  if (std::atomic<uint64_t>* counter = CounterFor(counters_, event)) {
    counter->fetch_add(1, std::memory_order_relaxed);
  }
  if (obs::IsPrefetchedHit(event)) {
    counters_.prefetched_hits.fetch_add(1, std::memory_order_relaxed);
  }
  Journal(event);
}

void Engine::Record(const Request& request) {
  obs::JournalEvent event;
  event.type = obs::JournalEventType::kRequest;
  event.client = static_cast<uint32_t>(request.client);
  event.tmpl = static_cast<uint64_t>(request.tmpl);
  event.plan = request.plan_root;
  event.src = request.src;
  event.flags = static_cast<uint8_t>(request.outcome);
  if (request.late) event.flags |= obs::kJournalFlagLate;
  if (request.spans == nullptr) {
    event.flags |= obs::kJournalFlagNoLatency;
  } else {
    uint64_t stage_us[static_cast<int>(obs::Stage::kCount)] = {};
    for (const obs::TraceSpan& span : *request.spans) {
      stage_us[static_cast<int>(span.stage)] += span.dur_us;
    }
    auto us = [&stage_us](obs::Stage stage) {
      return stage_us[static_cast<int>(stage)];
    };
    event.a = obs::PackDurations(us(obs::Stage::kAnalyze),
                                 us(obs::Stage::kCacheLookup));
    event.b = obs::PackDurations(us(obs::Stage::kLearnCombine),
                                 us(obs::Stage::kDbExecute));
    event.c = obs::PackDurations(us(obs::Stage::kSplitDecode),
                                 request.total_us);
  }
  Record(event);
}

void Engine::Journal(obs::JournalEvent event) {
  if (journal_ == nullptr) return;
  if (stamp_events_ && event.ts_us == 0) {
    // ts 0 would make the journal substitute its wall clock.
    const uint64_t now = now_us_();
    event.ts_us = now == 0 ? 1 : now;
  }
  journal_->Record(event);
}

void Engine::RegisterCacheFamily(obs::MetricsRegistry* registry,
                                 const char* which,
                                 std::function<double()> hits,
                                 std::function<double()> misses,
                                 std::function<double()> evictions,
                                 std::function<double()> entries,
                                 const void* owner) {
  obs::Labels labels = {{"cache", which}};
  registry->RegisterCallbackCounter("chrono_cache_hits_total",
                                    "Cache lookup hits by cache", labels,
                                    std::move(hits), owner);
  registry->RegisterCallbackCounter("chrono_cache_misses_total",
                                    "Cache lookup misses by cache", labels,
                                    std::move(misses), owner);
  registry->RegisterCallbackCounter("chrono_cache_evictions_total",
                                    "Cache evictions by cache", labels,
                                    std::move(evictions), owner);
  registry->RegisterCallbackGauge("chrono_cache_entries",
                                  "Entries resident by cache", labels,
                                  std::move(entries), owner);
}

void Engine::RegisterMetrics(obs::MetricsRegistry* registry) {
  metrics_registry_ = registry;
  const void* owner = this;
  for (const CounterRow& row : kCounterRows) {
    if (row.family == nullptr) continue;
    obs::Labels labels;
    if (row.label_key != nullptr) labels = {{row.label_key, row.label_value}};
    registry->RegisterCallbackCounter(
        row.family, row.help, std::move(labels),
        [this, &row] { return static_cast<double>(Read(counters_, row)); },
        owner);
  }

  RegisterCacheFamily(
      registry, "template",
      [this] {
        return static_cast<double>(
            template_cache_.counters().hits.load(std::memory_order_relaxed));
      },
      [this] {
        return static_cast<double>(
            template_cache_.counters().misses.load(std::memory_order_relaxed));
      },
      [this] {
        std::lock_guard<obs::TimedMutex> lock(template_mutex_);
        return static_cast<double>(template_cache_.evictions());
      },
      [this] {
        std::lock_guard<obs::TimedMutex> lock(template_mutex_);
        return static_cast<double>(template_cache_.size());
      },
      owner);
  RegisterCacheFamily(
      registry, "result", [this] { return static_cast<double>(cache_.hits()); },
      [this] { return static_cast<double>(cache_.misses()); },
      [this] { return static_cast<double>(cache_.evictions()); },
      [this] { return static_cast<double>(cache_.entry_count()); }, owner);
  registry->RegisterCallbackGauge(
      "chrono_result_cache_bytes", "Bytes resident in the result cache", {},
      [this] { return static_cast<double>(cache_.used_bytes()); }, owner);
  registry->RegisterCallbackGauge(
      "chrono_result_cache_capacity_bytes", "Result cache byte budget", {},
      [this] { return static_cast<double>(cache_.capacity_bytes()); }, owner);
  // Per-shard occupancy (shard mutexes are leaves, so pulling them from a
  // snapshot callback cannot invert the lock order).
  for (size_t i = 0; i < cache_.shard_count(); ++i) {
    obs::Labels labels = {{"shard", std::to_string(i)}};
    registry->RegisterCallbackGauge(
        "chrono_result_cache_shard_entries", "Entries resident per shard",
        labels,
        [this, i] { return static_cast<double>(cache_.ShardEntryCount(i)); },
        owner);
    registry->RegisterCallbackGauge(
        "chrono_result_cache_shard_bytes", "Bytes resident per shard", labels,
        [this, i] { return static_cast<double>(cache_.ShardUsedBytes(i)); },
        owner);
    registry->RegisterCallbackGauge(
        "chrono_result_cache_shard_evictions", "Evictions per shard", labels,
        [this, i] { return static_cast<double>(cache_.ShardEvictions(i)); },
        owner);
  }
}

void Engine::AddMetricsTo(NodeMetrics* sum) const {
  for (const CounterRow& row : kCounterRows) {
    if (row.field != nullptr) sum->*row.field += Read(counters_, row);
  }
}

}  // namespace chrono::core
