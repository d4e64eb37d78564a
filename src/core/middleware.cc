#include "core/middleware.h"

#include "common/rng.h"

namespace chrono::core {

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

Middleware::Middleware(EventQueue* events, RemoteDbServer* remote,
                       const net::LatencyModel& latency,
                       MiddlewareConfig config)
    : events_(events),
      remote_(remote),
      latency_(latency),
      // The config is both the EngineConfig and the Engine::Options.
      engine_(config, config,
              [events] { return static_cast<uint64_t>(events->now()); }),
      mw_pool_(events, config.workers),
      retry_(config.retry),
      retry_seed_(config.retry_seed) {}

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
  std::optional<cache::CachedResult> hit =
      engine_.CacheGet(client, security_group, parsed);
  if (hit.has_value()) {
    engine_.Record(Engine::Request{.client = client,
                                   .tmpl = tmpl,
                                   .outcome = obs::TraceOutcome::kCacheHit,
                                   .plan_root = hit->prefetch_root,
                                   .src = hit->prefetch_src});
    // Answer from the edge cache first, then fire background predictions
    // off it.
    Respond(hit->result, done);
  }

  // A miss triggers the covering plan, which answers it, or else reads
  // plainly; on a hit that plan fires in the background. Either goes on
  // the wire before the other plans.
  if (ready.covering.has_value()) {
    FirePlan(client, security_group, std::move(*ready.covering),
             hit.has_value() ? std::nullopt
                             : std::optional<PendingRead>(
                                   {std::move(parsed), std::move(done)}));
  } else if (!hit.has_value()) {
    // Duplicate-request coalescing (§5.1): joins the flight or leads it.
    // Sequential graphs bind from this read's fresh rows: they wait for
    // its answer.
    RemotePlain(client, security_group, std::move(parsed), std::move(done),
                std::move(ready.sequential));
  }
  for (Engine::Plan& plan : ready.others) {
    FirePlan(client, security_group, std::move(plan));
  }
  if (hit.has_value()) {
    for (const DependencyGraph& g : ready.sequential) {
      FireSequential(client, security_group, g);
    }
  }
}

void Middleware::RemotePlain(ClientId client, int security_group,
                             sql::ParsedQuery query, ResponseCallback done,
                             std::vector<DependencyGraph> deferred) {
  const TemplateId tmpl = query.tmpl->id;
  // Every read on the flight, its leader first, is answered here.
  std::optional<cache::VersionVector> tag = engine_.OpenOrJoinFlight(
      client, security_group, query,
      [this, client, security_group, tmpl, query, done = std::move(done),
       deferred = std::move(deferred)](Engine::Verdict verdict) mutable {
        if (verdict.refetch) {
          RemotePlain(client, security_group, std::move(query),
                      std::move(done), std::move(deferred));
          return;
        }
        engine_.Record(Engine::Request{
            .client = client,
            .tmpl = tmpl,
            .outcome = !verdict.rows.ok() ? obs::TraceOutcome::kError
                       : verdict.joined   ? obs::TraceOutcome::kCoalescedHit
                                          : obs::TraceOutcome::kRemotePlain});
        if (verdict.rows.ok()) {
          // The engine fed the rows to this client's mapper when the
          // flight closed: the deferred graphs bind from them.
          Respond(*verdict.rows, done);
          for (const DependencyGraph& g : deferred) {
            FireSequential(client, security_group, g);
          }
          return;
        }
        events_->ScheduleAfter(
            latency_.edge_rtt / 2,
            [done = std::move(done), st = verdict.rows.status()](
                SimTime now2) { done(now2, st); });
      });
  if (!tag.has_value()) return;  // parked
  ++engine_.counters().remote_plain;
  IssuePlainFetch(client, security_group, tmpl, query.bound_text,
                  std::move(*tag), /*attempts=*/1);
}

void Middleware::IssuePlainFetch(ClientId client, int security_group,
                                 TemplateId tmpl, std::string bound_text,
                                 cache::VersionVector tag, int attempts) {
  remote_->Submit(
      bound_text,
      [this, client, security_group, tmpl, bound_text, tag = std::move(tag),
       attempts](SimTime, Result<db::ExecOutcome> outcome) mutable {
        // Idempotent demand read: reschedule after a full-jitter backoff
        // while the flight stays open (late joiners park on it too).
        // Writes and prefetch never take this path.
        if (!outcome.ok() &&
            net::RetryPolicy::IsRetryable(outcome.status()) &&
            retry_.ShouldRetry(attempts)) {
          double u =
              HashToUnit(SplitMix64(retry_seed_ ^ retry_ordinal_++));
          SimTime backoff =
              static_cast<SimTime>(retry_.BackoffUs(attempts, u));
          // c = 0: no per-request deadline in virtual time.
          engine_.Record({.tmpl = static_cast<uint64_t>(tmpl),
                          .a = static_cast<uint64_t>(attempts),
                          .b = static_cast<uint64_t>(backoff),
                          .client = static_cast<uint32_t>(client),
                          .type = obs::JournalEventType::kBackendRetry});
          events_->ScheduleAfter(
              backoff, [this, client, security_group, tmpl, bound_text,
                        tag = std::move(tag), attempts](SimTime) mutable {
                IssuePlainFetch(client, security_group, tmpl,
                                std::move(bound_text), std::move(tag),
                                attempts + 1);
              });
          return;
        }
        // Closes the flight: RemotePlain answers every read on it.
        engine_.ReadLanded(client, security_group, tmpl, bound_text, tag,
                           std::move(outcome), Engine::ReadKind::kLeader);
      });
}

void Middleware::FirePlan(ClientId client, int security_group,
                          Engine::Plan plan,
                          std::optional<PendingRead> trigger) {
  Engine::PlanCall call = engine_.BeginPlan(client, plan);
  // Charge the combination + split work to this node's worker pool.
  mw_pool_.Submit(latency_.mw_combine_service, [](SimTime) {});

  // Hand the combiner-built AST to the server alongside the text: the
  // combined query executes without ever being re-parsed.
  RemoteDbServer::DbRequest request{plan.query->sql, plan.query->ast};
  remote_->Submit(
      std::move(request),
      [this, client, security_group, plan = std::move(plan),
       call = std::move(call),
       trigger = std::move(trigger)](SimTime,
                                     Result<db::ExecOutcome> outcome) mutable {
        if (!trigger.has_value()) {
          engine_.PlanLanded(client, security_group, plan, call, outcome);
          return;
        }
        Engine::Trigger read{.query = trigger->query};
        engine_.PlanLanded(client, security_group, plan, call, outcome,
                           &read);
        if (read.answer.has_value()) {
          const TemplateId tmpl = trigger->query.tmpl->id;
          engine_.Record(
              Engine::Request{.client = client,
                              .tmpl = tmpl,
                              .outcome = obs::TraceOutcome::kPredictionHit,
                              .plan_root = read.answer->prefetch_root,
                              .src = read.answer->prefetch_src});
          Respond(read.answer->result, trigger->done);
          return;
        }
        RemotePlain(client, security_group, std::move(trigger->query),
                    std::move(trigger->done));
      });
}

void Middleware::FireSequential(ClientId client, int security_group,
                                const DependencyGraph& graph) {
  for (Engine::SequentialRead& read :
       engine_.SequentialReads(client, security_group, graph)) {
    std::string text = read.bound_text;
    remote_->Submit(std::move(text), [this, client, security_group,
                                      read = std::move(read)](
                                         SimTime,
                                         Result<db::ExecOutcome> outcome) {
      // The landing feeds the model: deeper predictions bind next time.
      engine_.ReadLanded(client, security_group, read.tmpl, read.bound_text,
                         read.tag, std::move(outcome),
                         Engine::ReadKind::kPrefetch);
    });
  }
}

void Middleware::Respond(std::shared_ptr<const sql::ResultSet> result,
                         const ResponseCallback& done) {
  // The scheduled delivery carries only the shared_ptr; the single copy
  // into the client's Result<ResultSet> happens at the LAN edge.
  events_->ScheduleAfter(latency_.edge_rtt / 2,
                         [done, result = std::move(result)](SimTime now2) {
                           done(now2, *result);
                         });
}

}  // namespace chrono::core
