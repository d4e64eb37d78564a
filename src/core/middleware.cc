#include "core/middleware.h"

#include "common/rng.h"
#include "core/combiner_cte.h"

namespace chrono::core {

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

void MiddlewareConfig::Finalize() {
  switch (mode) {
    case SystemMode::kLru:
      enable_learning = false;
      enable_loops = false;
      enable_loop_constants = false;
      enable_combining = false;
      share_across_clients = true;
      break;
    case SystemMode::kApollo:
      enable_learning = true;
      enable_loops = false;
      enable_loop_constants = false;
      enable_combining = false;
      share_across_clients = true;
      break;
    case SystemMode::kScalpelE:
      enable_learning = true;
      enable_loops = true;
      enable_loop_constants = false;
      enable_combining = true;
      share_across_clients = false;
      break;
    case SystemMode::kScalpelCC:
      enable_learning = true;
      enable_loops = true;
      enable_loop_constants = false;
      enable_combining = true;
      share_across_clients = true;
      break;
    case SystemMode::kChrono:
      enable_learning = true;
      enable_loops = true;
      enable_loop_constants = true;
      enable_combining = true;
      share_across_clients = true;
      break;
  }
}

// ---- RemoteDbServer ----------------------------------------------------

RemoteDbServer::RemoteDbServer(EventQueue* events, db::Database* database,
                               const net::LatencyModel& latency, int workers)
    : events_(events),
      database_(database),
      latency_(latency),
      workers_(workers) {}

void RemoteDbServer::Submit(std::string sql_text, DbCallback done) {
  Submit(DbRequest{std::move(sql_text), nullptr}, std::move(done));
}

void RemoteDbServer::Submit(DbRequest request, DbCallback done) {
  ++requests_;
  double service_multiplier = 1.0;
  if (fault_ != nullptr && fault_->enabled()) {
    net::FaultDecision fd = fault_->Decide(events_->now());
    if (fd.fail) {
      // The call dies on the WAN: the caller still pays the full round
      // trip before Unavailable comes back. Blackout failures take the
      // same path — virtual time has no client deadline to cut short.
      events_->ScheduleAfter(latency_.wan_rtt,
                             [done = std::move(done)](SimTime now) {
                               done(now, Status::Unavailable(
                                             "injected backend failure"));
                             });
      return;
    }
    service_multiplier = fd.latency_multiplier;
  }
  // Outbound WAN half, then queue for a database worker.
  events_->ScheduleAfter(
      latency_.wan_rtt / 2,
      [this, req = std::move(request), done = std::move(done),
       service_multiplier](SimTime) mutable {
        waiting_.push_back(
            Job{std::move(req), std::move(done), service_multiplier});
        TryDispatch();
      });
}

void RemoteDbServer::TryDispatch() {
  while (busy_ < workers_ && !waiting_.empty()) {
    Job job = std::move(waiting_.front());
    waiting_.pop_front();
    ++busy_;
    // Execute at dispatch time so statements apply in virtual order; the
    // result is held until the service time elapses.
    // Zero-reparse path: execute a handed-off parse tree directly.
    const bool handoff = job.request.ast != nullptr && !text_roundtrip_;
    if (handoff) ++ast_handoffs_;
    auto outcome = handoff ? database_->Execute(*job.request.ast)
                           : database_->ExecuteText(job.request.sql);
    uint64_t rows = outcome.ok() ? outcome->stats.rows_scanned : 0;
    if (outcome.ok()) rows_scanned_ += rows;
    SimTime service = latency_.DbServiceTime(rows);
    if (job.service_multiplier > 1.0) {
      service = static_cast<SimTime>(static_cast<double>(service) *
                                     job.service_multiplier);
    }
    busy_time_ += service;
    auto shared =
        std::make_shared<Result<db::ExecOutcome>>(std::move(outcome));
    events_->ScheduleAfter(
        service, [this, shared, done = std::move(job.done)](SimTime) {
          --busy_;
          TryDispatch();
          // Inbound WAN half back to the middleware node.
          events_->ScheduleAfter(latency_.wan_rtt / 2,
                                 [shared, done](SimTime now2) {
                                   done(now2, std::move(*shared));
                                 });
        });
  }
}

// ---- Middleware ----------------------------------------------------------

namespace {

// The simulator is single-threaded: one shard keeps the result cache's LRU
// order global, exactly the paper's Memcached model.
constexpr size_t kSimCacheShards = 1;

}  // namespace

Middleware::Middleware(EventQueue* events, RemoteDbServer* remote,
                       const net::LatencyModel& latency,
                       MiddlewareConfig config)
    : events_(events),
      remote_(remote),
      latency_(latency),
      config_(config),
      engine_(config,
              Engine::Options{
                  .cache_shards = kSimCacheShards,
                  .node_id = config.node_id,
                  .multi_node = config.multi_node,
                  .enable_subsumption = config.enable_subsumption,
                  .enable_redundancy_check = config.enable_redundancy_check,
                  .enable_loops = config.enable_loops,
                  .enable_loop_constants = config.enable_loop_constants},
              [events] { return static_cast<uint64_t>(events->now()); }),
      mw_pool_(events, config.workers),
      retry_(config.retry) {}

void Middleware::AttachJournal(obs::EventJournal* journal) {
  engine_.AttachJournal(journal, /*stamp_events=*/true);
}

void Middleware::SubmitQuery(ClientId client, int security_group,
                             std::string sql_text, ResponseCallback done) {
  // Client -> middleware edge hop, then middleware service.
  events_->ScheduleAfter(
      latency_.edge_rtt / 2,
      [this, client, security_group, sql = std::move(sql_text),
       done = std::move(done)](SimTime) mutable {
        mw_pool_.Submit(latency_.mw_base_service,
                        [this, client, security_group, sql = std::move(sql),
                         done = std::move(done)](SimTime) mutable {
                          Process(client, security_group, std::move(sql),
                                  std::move(done));
                        });
      });
}

void Middleware::Process(ClientId client, int security_group,
                         std::string sql_text, ResponseCallback done) {
  Result<sql::ParsedQuery> parsed = engine_.Analyze(sql_text);
  if (!parsed.ok()) {
    engine_.Record(Engine::Request{.client = client,
                                   .outcome = obs::TraceOutcome::kError});
    events_->ScheduleAfter(latency_.edge_rtt / 2,
                           [done, st = parsed.status()](SimTime now2) {
                             done(now2, st);
                           });
    return;
  }
  if (!parsed->tmpl->read_only) {
    ++engine_.counters().writes;
    HandleWrite(client, std::move(*parsed), std::move(done));
    return;
  }
  ++engine_.counters().reads;
  HandleRead(client, security_group, std::move(*parsed), std::move(done));
}

void Middleware::HandleWrite(ClientId client, sql::ParsedQuery parsed,
                             ResponseCallback done) {
  // Writes bypass the cache entirely; ChronoCache never predicts updates
  // (§5, "focuses on predictively caching read queries").
  std::string bound_text = parsed.bound_text;
  remote_->Submit(
      std::move(bound_text),
      [this, client, parsed = std::move(parsed),
       done = std::move(done)](SimTime, Result<db::ExecOutcome> outcome) {
        engine_.WriteLanded(client, parsed, outcome);
        engine_.Record(Engine::Request{
            .client = client,
            .tmpl = parsed.tmpl->id,
            .outcome = outcome.ok() ? obs::TraceOutcome::kWrite
                                    : obs::TraceOutcome::kError});
        events_->ScheduleAfter(
            latency_.edge_rtt / 2,
            [outcome = std::move(outcome), done](SimTime now2) {
              if (!outcome.ok()) {
                done(now2, outcome.status());
              } else {
                done(now2, outcome->result);
              }
            });
      });
}

void Middleware::HandleRead(ClientId client, int security_group,
                            sql::ParsedQuery parsed, ResponseCallback done) {
  TemplateId tmpl = parsed.tmpl->id;
  Engine::ReadyGraphs ready = engine_.Observe(client, security_group, parsed);
  const std::string key =
      engine_.FlightKey(client, security_group, parsed.bound_text);
  std::optional<cache::CachedResult> hit =
      engine_.CacheGet(client, security_group, parsed);
  auto flight = inflight_.find(key);
  const bool answered = hit.has_value() || flight != inflight_.end();
  if (hit.has_value()) {
    engine_.Record(Engine::Request{.client = client,
                                   .tmpl = tmpl,
                                   .outcome = obs::TraceOutcome::kCacheHit,
                                   .plan = hit->prefetch_plan,
                                   .src = hit->prefetch_src});
    // Answer from the edge cache first (Respond records the fresh result
    // into the mapper), then fire background predictions off it.
    Respond(client, tmpl, hit->result, done);
  } else if (flight != inflight_.end()) {
    // Duplicate-request coalescing (§5.1).
    flight->second.waiters.push_back(PendingRequest{client, std::move(done)});
  }

  // A read nothing answers yet waits on the covering graph's combined
  // query, which will produce its result; otherwise that graph fires in
  // the background like the others.
  bool waiting = false;
  if (ready.covering.has_value()) {
    waiting = FireGraph(client, security_group, *ready.covering,
                        answered ? std::string() : key) &&
              !answered;
  }
  if (waiting) {
    inflight_[key] =
        Flight{parsed, security_group, {PendingRequest{client, done}}};
  }
  for (const DependencyGraph& g : ready.others) {
    if (config_.enable_combining) {
      FireGraph(client, security_group, g, /*wait_key=*/"");
    } else if (!hit.has_value()) {
      // Apollo-style sequential prediction needs this query's fresh
      // result for parameter bindings; defer it to the read's landing.
      deferred_seq_[key].emplace_back(security_group, g);
    } else {
      FireSequential(client, security_group, g);
    }
  }
  if (!answered && !waiting) {
    RemotePlain(client, security_group, std::move(parsed), std::move(done));
  }
}

void Middleware::RemotePlain(ClientId client, int security_group,
                             sql::ParsedQuery query, ResponseCallback done) {
  const std::string key =
      engine_.FlightKey(client, security_group, query.bound_text);
  auto [it, inserted] = inflight_.try_emplace(key);
  if (!inserted) {
    it->second.waiters.push_back(PendingRequest{client, std::move(done)});
    return;
  }
  const TemplateId tmpl = query.tmpl->id;
  std::string bound_text = query.bound_text;
  it->second = Flight{std::move(query), security_group,
                      {PendingRequest{client, std::move(done)}}};
  ++engine_.counters().remote_plain;
  IssuePlainFetch(client, security_group, tmpl, std::move(bound_text), key,
                  /*attempts=*/1);
}

void Middleware::IssuePlainFetch(ClientId client, int security_group,
                                 TemplateId tmpl, std::string bound_text,
                                 std::string key, int attempts) {
  cache::VersionVector pre_read = engine_.BeginRead(tmpl);
  remote_->Submit(
      bound_text,
      [this, client, security_group, tmpl, key, bound_text, attempts,
       pre_read = std::move(pre_read)](SimTime,
                                       Result<db::ExecOutcome> outcome) {
        Result<std::shared_ptr<const sql::ResultSet>> payload =
            engine_.ReadLanded(client, security_group, tmpl, bound_text,
                               pre_read, std::move(outcome));
        // Each waiter but the first (which sent the read) is journaled as
        // the runtime journals a follower; b = 1: its session refused it.
        auto coalesced = [&](size_t i, ClientId waiter, bool refused) {
          engine_.Record(
              {.tmpl = static_cast<uint64_t>(tmpl),
               .a = i - 1,  // waiters parked before it
               .b = refused ? 1u : 0u,
               .client = static_cast<uint32_t>(waiter),
               .type = obs::JournalEventType::kBackendCoalesced,
               .flags = payload.ok() ? obs::kJournalFlagOk : uint8_t{0}});
        };
        if (!payload.ok()) {
          // Idempotent demand read: reschedule after a full-jitter backoff
          // while the waiters (and any late joiners) stay parked under the
          // in-flight key. Writes and prefetch never take this path.
          if (net::RetryPolicy::IsRetryable(payload.status()) &&
              retry_.ShouldRetry(attempts)) {
            double u =
                HashToUnit(SplitMix64(config_.retry_seed ^ retry_ordinal_++));
            SimTime backoff =
                static_cast<SimTime>(retry_.BackoffUs(attempts, u));
            // c = 0: no per-request deadline in virtual time.
            engine_.Record({.tmpl = static_cast<uint64_t>(tmpl),
                            .a = static_cast<uint64_t>(attempts),
                            .b = static_cast<uint64_t>(backoff),
                            .client = static_cast<uint32_t>(client),
                            .type = obs::JournalEventType::kBackendRetry});
            events_->ScheduleAfter(
                backoff, [this, client, security_group, tmpl, bound_text, key,
                          attempts](SimTime) {
                  IssuePlainFetch(client, security_group, tmpl, bound_text,
                                  key, attempts + 1);
                });
            return;
          }
          auto waiters = std::move(inflight_[key].waiters);
          inflight_.erase(key);
          deferred_seq_.erase(key);
          for (size_t i = 0; i < waiters.size(); ++i) {
            PendingRequest& w = waiters[i];
            if (i > 0) coalesced(i, w.client, /*refused=*/false);
            engine_.Record(
                Engine::Request{.client = w.client,
                                .tmpl = tmpl,
                                .outcome = obs::TraceOutcome::kError});
            events_->ScheduleAfter(
                latency_.edge_rtt / 2,
                [done = std::move(w.done), st = payload.status()](
                    SimTime now2) { done(now2, st); });
          }
          return;
        }
        Flight flight = std::move(inflight_[key]);
        inflight_.erase(key);
        // The others take the rows only if Adopt accepts their tag; one
        // whose own write landed meanwhile fetches afresh, as the runtime's
        // followers do.
        for (size_t i = 0; i < flight.waiters.size(); ++i) {
          PendingRequest& w = flight.waiters[i];
          const bool refused = i > 0 && !engine_.Adopt(w.client, pre_read);
          if (i > 0) coalesced(i, w.client, refused);
          if (refused) {
            RemotePlain(w.client, security_group, flight.query,
                        std::move(w.done));
            continue;
          }
          engine_.Record(Engine::Request{
              .client = w.client,
              .tmpl = tmpl,
              .outcome = i == 0 ? obs::TraceOutcome::kRemotePlain
                                : obs::TraceOutcome::kCoalescedHit});
          Respond(w.client, tmpl, *payload, w.done);
        }
        // Fire deferred sequential predictions now that the result they
        // bind from is recorded in the mapper.
        auto deferred_it = deferred_seq_.find(key);
        if (deferred_it != deferred_seq_.end()) {
          auto deferred = std::move(deferred_it->second);
          deferred_seq_.erase(deferred_it);
          for (auto& [group, graph] : deferred) {
            FireSequential(client, group, graph);
          }
        }
      });
}

bool Middleware::FireGraph(ClientId client, int security_group,
                           const DependencyGraph& graph,
                           const std::string& wait_key, int cascade_depth) {
  std::optional<Engine::Plan> plan = engine_.Combine(client, graph);
  if (!plan.has_value()) return false;
  Engine::PlanCall call = engine_.BeginPlan(client, *plan);
  // Charge the combination + split work to this node's worker pool.
  mw_pool_.Submit(latency_.mw_combine_service, [](SimTime) {});

  // Hand the combiner-built AST to the server alongside the text: the
  // combined query executes without ever being re-parsed.
  remote_->Submit(
      RemoteDbServer::DbRequest{plan->query->sql, plan->query->ast},
      [this, client, security_group, plan = *plan, call = std::move(call),
       wait_key, cascade_depth](SimTime, Result<db::ExecOutcome> outcome) {
        auto split =
            engine_.PlanLanded(client, security_group, plan, call, outcome);
        if (split.ok()) {
          // Algorithm 1 line 7: the prefetched texts may make further
          // dependency graphs ready; fire them in the background.
          for (const auto& entry : *split) {
            SplitMarkTextAvail(client, security_group, entry.tmpl,
                               entry.params, cascade_depth + 1);
          }
        }
        if (!wait_key.empty()) ResolveInflight(wait_key);
      });
  return true;
}

void Middleware::SplitMarkTextAvail(ClientId client, int security_group,
                                    TemplateId tmpl,
                                    const std::vector<sql::Value>& params,
                                    int cascade_depth) {
  // Bound the cascade: a graph whose own split re-supplies its dependency
  // text would otherwise re-fire forever when the §5.1 redundancy check is
  // disabled.
  constexpr int kMaxCascadeDepth = 3;
  if (cascade_depth > kMaxCascadeDepth) return;
  for (const DependencyGraph& graph :
       engine_.MarkTextAvail(client, security_group, tmpl, params)) {
    if (FireGraph(client, security_group, graph, "", cascade_depth)) {
      ++engine_.counters().cascaded_fires;
    }
  }
}

void Middleware::ResolveInflight(const std::string& key) {
  auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  Flight flight = std::move(it->second);
  inflight_.erase(it);

  std::vector<PendingRequest> unresolved;
  const TemplateId tmpl = flight.query.tmpl->id;
  for (auto& w : flight.waiters) {
    std::optional<cache::CachedResult> hit =
        engine_.CacheGet(w.client, flight.security_group, flight.query);
    if (hit.has_value()) {
      engine_.Record(
          Engine::Request{.client = w.client,
                          .tmpl = tmpl,
                          .outcome = obs::TraceOutcome::kPredictionHit,
                          .plan = hit->prefetch_plan,
                          .src = hit->prefetch_src});
      Respond(w.client, tmpl, hit->result, w.done);
    } else {
      unresolved.push_back(std::move(w));
    }
  }
  if (!unresolved.empty()) {
    // Misprediction: the combined result did not cover this query. Fall
    // back to plain remote execution; RemotePlain coalesces duplicates.
    ++engine_.counters().prediction_fallbacks;
    for (auto& w : unresolved) {
      RemotePlain(w.client, flight.security_group, flight.query,
                  std::move(w.done));
    }
  }
}

void Middleware::FireSequential(ClientId client, int security_group,
                                const DependencyGraph& graph) {
  // Apollo-style prediction (§6 "Systems"): predicted queries are issued
  // to the database sequentially and uncombined. Without loop support only
  // the first iteration's bindings (row 0 of the source result) are used.
  for (TemplateId node : graph.TopologicalOrder()) {
    if (graph.RoleOf(node) != NodeRole::kPredicted) continue;
    const sql::QueryTemplate* tmpl = engine_.FindTemplate(node);
    if (tmpl == nullptr) continue;
    // Bind parameters from the sources' last observed result sets; the
    // rest (parameter sources, constants) as a combined plan would.
    std::vector<sql::Value> params;
    bool ok = engine_.WithModel(client, [&](const Engine::ClientModel& model) {
      params = FiringParamsOf(FiringParams(graph, model.latest_params), node,
                              tmpl->param_count);
      for (const auto& e : graph.edges) {
        if (e.dst != node || !e.HasResultBinding()) continue;
        const sql::ResultSet* src_rs = model.mapper.LastResult(e.src);
        if (src_rs == nullptr || src_rs->empty()) return false;
        for (const auto& b : e.bindings) {
          if (b.from_param()) continue;
          int col = src_rs->ColumnIndex(b.src_column);
          if (col < 0) return false;
          params[static_cast<size_t>(b.dst_param)] =
              src_rs->row(0)[static_cast<size_t>(col)];
        }
      }
      return true;
    });
    if (!ok) continue;
    std::string bound = sql::RenderBoundText(*tmpl, params);
    if (engine_.cache().Contains(engine_.CacheKey(client, bound))) continue;
    if (inflight_.contains(engine_.FlightKey(client, security_group, bound))) {
      continue;
    }
    ++engine_.counters().sequential_prefetches;
    remote_->Submit(bound, [this, client, security_group, node, bound,
                            pre_read = engine_.BeginRead(node)](
                               SimTime, Result<db::ExecOutcome> outcome) {
      auto payload =
          engine_.ReadLanded(client, security_group, node, bound, pre_read,
                             std::move(outcome), Engine::ReadKind::kPrefetch);
      // Feed the model so deeper predictions can bind next time.
      if (payload.ok()) engine_.ObserveResult(client, node, **payload);
    });
  }
}

void Middleware::Respond(ClientId client, TemplateId tmpl,
                         std::shared_ptr<const sql::ResultSet> result,
                         const ResponseCallback& done) {
  engine_.ObserveResult(client, tmpl, *result);
  // The scheduled delivery carries only the shared_ptr; the single copy
  // into the client's Result<ResultSet> happens at the LAN edge.
  events_->ScheduleAfter(latency_.edge_rtt / 2,
                         [done, result = std::move(result)](SimTime now2) {
                           done(now2, *result);
                         });
}

}  // namespace chrono::core
