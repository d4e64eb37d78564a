#include "runtime/server.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "obs/build_info.h"
#include "obs/threads.h"

namespace chrono::runtime {

namespace {

uint64_t NsBetween(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(to - from);
  return d.count() < 0 ? 0 : static_cast<uint64_t>(d.count());
}

// Fixed sizes and cadences of the serving node.
constexpr size_t kQueueCapacity = 4096;  // demand lane: backpressure
// Speculation queues separately and only runs on an empty demand lane.
constexpr size_t kPrefetchQueueCapacity = kQueueCapacity / 8;
constexpr std::chrono::milliseconds kJournalDrainEvery{5};

}  // namespace

/// Per-request observability context. `t0` (steady clock) and `start_us`
/// (server clock) both mark the pipeline start and anchor every span;
/// spans are appended in completion order (pipeline order, since stages
/// nest only sequentially within one request).
struct ChronoServer::ReqCtx {
  ReqCtx(const Arrival& request_arrival, uint64_t now_us)
      : arrival(request_arrival),
        t0(std::chrono::steady_clock::now()),
        start_us(now_us) {}

  const Arrival& arrival;
  std::chrono::steady_clock::time_point t0;
  uint64_t start_us = 0;
  core::TemplateId tmpl = 0;
  obs::TraceOutcome outcome = obs::TraceOutcome::kRemotePlain;
  uint64_t prefetch_plan = 0;
  uint64_t prefetch_root = 0;
  uint64_t prefetch_src = 0;
  std::vector<obs::TraceSpan> spans;
  std::vector<obs::TraceAnnotation> annotations;

  /// Stamps a backend event onto this request's timeline, relative to the
  /// pipeline start (BuildTrace rebases annotations onto the arrival
  /// together with the spans).
  void Note(obs::AnnotationKind kind, uint64_t value) {
    annotations.push_back(
        {kind, NsBetween(t0, std::chrono::steady_clock::now()) / 1000,
         value});
  }
};

/// Times one pipeline stage: records wall-clock nanoseconds into the
/// stage histogram and, when a request context is present, appends a
/// microsecond-resolution span to its trace.
class ChronoServer::StageTimer {
 public:
  StageTimer(ChronoServer* server, ReqCtx* ctx, obs::Stage stage)
      : server_(server),
        ctx_(ctx),
        stage_(stage),
        begin_(std::chrono::steady_clock::now()) {}

  ~StageTimer() {
    auto end = std::chrono::steady_clock::now();
    uint64_t ns = NsBetween(begin_, end);
    server_->stage_hist_[static_cast<int>(stage_)]->Record(ns);
    if (ctx_ != nullptr) {
      ctx_->spans.push_back({stage_, NsBetween(ctx_->t0, begin_) / 1000,
                             ns / 1000});
    }
  }

 private:
  ChronoServer* server_;
  ReqCtx* ctx_;
  obs::Stage stage_;
  std::chrono::steady_clock::time_point begin_;
};

ChronoServer::ChronoServer(db::Database* db, ServerConfig config)
    : db_(db),
      config_(config),
      start_(std::chrono::steady_clock::now()),
      owned_registry_(config.registry != nullptr
                          ? nullptr
                          : std::make_unique<obs::MetricsRegistry>()),
      metrics_registry_(config.registry != nullptr ? config.registry
                                                   : owned_registry_.get()),
      contention_(std::make_unique<obs::ContentionRegistry>(
          metrics_registry_)),
      db_mutex_(contention_->Site("server.db.write"),
                contention_->Site("server.db.read")),
      engine_(config, core::Engine::Options{},
              [this] { return NowMicros(); }, contention_.get(),
              config.cache_shards),
      counters_(engine_.counters()),
      fault_(config.fault),
      retry_(config.retry),
      breaker_(config.breaker, [this] { return NowMicros(); }),
      audit_(metrics_registry_),
      brownout_(BrownoutController::Options{
          .queue_target_us = config.queue_target_us}),
      pool_(config.workers, kQueueCapacity, kPrefetchQueueCapacity,
            contention_->Site("pool.queue")) {
  // Reader-locked execution must never trigger a lazy index build.
  db_->WarmIndexes();
  journal_.AddSink(&audit_);
  engine_.AttachJournal(&journal_, /*stamp_events=*/false);
  // Breaker transitions flow into the journal (the listener runs under
  // the breaker mutex; journal Record is a leaf, so this cannot invert
  // the lock order). The audit fold turns these into
  // chrono_breaker_transitions_total and the availability board.
  breaker_.SetTransitionListener(
      [this](net::CircuitBreaker::State from, net::CircuitBreaker::State to) {
        obs::JournalEvent event;
        event.type = obs::JournalEventType::kBreakerTransition;
        event.a = static_cast<uint64_t>(to);
        event.b = static_cast<uint64_t>(from);
        Journal(event);
      });
  // Brownout ladder steps flow into the journal the same way (the listener
  // runs on the housekeeping thread; journal Record is a leaf). The audit fold
  // turns these into chrono_overload_brownout_transitions_total.
  brownout_.SetTransitionListener(
      [this](BrownoutController::Level to, BrownoutController::Level from,
             uint64_t p99_us) {
        obs::JournalEvent event;
        event.type = obs::JournalEventType::kBrownoutTransition;
        event.a = static_cast<uint64_t>(to);
        event.b = static_cast<uint64_t>(from);
        event.c = p99_us;
        Journal(event);
      });
  // The pool and the fault injector already count these facts.
  counters_.prefetches_dropped = [this] { return pool_.tasks_shed(); };
  counters_.deadline_expired = [this] { return pool_.tasks_expired(); };
  counters_.faults_injected = [this] { return fault_.faults_injected(); };
  RegisterMetrics();
  // Last: every job reads state built above (the brownout step diffs the
  // demand-lane wait histogram RegisterMetrics attached).
  housekeeping_ = std::thread([this] { Housekeeping(); });
}

ChronoServer::~ChronoServer() {
  Shutdown();
  // An external registry may outlive us; drop every callback that
  // captured this server's state (the engine's bound readers read the
  // pool, which is destroyed before the engine).
  metrics_registry_->UnregisterCallbacksOwnedBy(this);
  metrics_registry_->UnregisterCallbacksOwnedBy(&engine_);
}

void ChronoServer::Shutdown() {
  pool_.Shutdown();
  {
    std::lock_guard<std::mutex> lock(housekeeping_mutex_);
    housekeeping_stop_ = true;
  }
  housekeeping_cv_.notify_all();
  if (housekeeping_.joinable()) housekeeping_.join();
  // What the drained pool journaled: recorded == drained from here on.
  journal_.Drain();
}

void ChronoServer::Housekeeping() {
  obs::ThreadLease lease(obs::ThreadRole::kHousekeeping,
                         "chrono-housekeeping");
  using Clock = std::chrono::steady_clock;
  struct Job {
    std::chrono::milliseconds every;
    std::function<void()> run;
    Clock::time_point due;
  };
  std::vector<Job> jobs;
  auto every = [&jobs](std::chrono::milliseconds period,
                       std::function<void()> run) {
    jobs.push_back({period, std::move(run), Clock::now() + period});
  };
  every(kJournalDrainEvery, [this] { journal_.Drain(); });
  if (brownout_.enabled()) {
    every(std::chrono::milliseconds(config_.brownout_sample_ms),
          [this, prev = pool_wait_hist_[0]->Snapshot()]() mutable {
            obs::HistogramSnapshot cur = pool_wait_hist_[0]->Snapshot();
            // The wait histograms record ns; the ladder thinks in µs.
            brownout_.OnSample(static_cast<uint64_t>(
                obs::DeltaHistogram(cur, prev).Percentile(0.99) / 1000));
            prev = std::move(cur);
          });
  }

  std::unique_lock<std::mutex> lock(housekeeping_mutex_);
  while (!housekeeping_stop_) {
    Clock::time_point next = jobs.front().due;
    for (const Job& job : jobs) next = std::min(next, job.due);
    if (housekeeping_cv_.wait_until(lock, next,
                                    [this] { return housekeeping_stop_; })) {
      break;
    }
    lock.unlock();
    for (Job& job : jobs) {
      if (job.due > Clock::now()) continue;
      job.run();
      job.due = Clock::now() + job.every;
    }
    lock.lock();
  }
}

void ChronoServer::Record(const obs::JournalEvent& event, ReqCtx* ctx) {
  engine_.Record(event);
  if (ctx == nullptr) return;
  switch (event.type) {
    case obs::JournalEventType::kBackendRetry:
      ctx->Note(obs::AnnotationKind::kRetry, event.a);
      break;
    case obs::JournalEventType::kBackendTimeout:
      ctx->Note(obs::AnnotationKind::kAttemptTimeout, event.a);
      break;
    case obs::JournalEventType::kStaleServe:
      ctx->Note(obs::AnnotationKind::kStaleServe, event.a);
      break;
    default:
      break;
  }
}

void ChronoServer::RecordOverloadShed(uint64_t reason, ClientId client,
                                      uint32_t retry_after_ms) {
  Record({.a = reason,
          .b = static_cast<uint64_t>(brownout_.level()),
          .c = retry_after_ms,
          .client = static_cast<uint32_t>(client),
          .type = obs::JournalEventType::kShedQueue});
}

void ChronoServer::RegisterMetrics() {
  obs::MetricsRegistry* r = metrics_registry_;
  const void* owner = this;

  // Static build identity (version / git sha / build type / sanitizer) as
  // a constant-1 info gauge.
  obs::RegisterBuildInfo(r);

  // Stage + request latency histograms (push-mode, lock-free hot path).
  for (int s = 0; s < static_cast<int>(obs::Stage::kCount); ++s) {
    stage_hist_[s] = r->GetHistogram(
        "chrono_stage_latency_ns",
        "Serving-pipeline stage latency in wall-clock nanoseconds",
        {{"stage", obs::StageName(static_cast<obs::Stage>(s))}});
  }
  request_read_hist_ = r->GetHistogram(
      "chrono_request_latency_ns",
      "End-to-end request latency inside the server in nanoseconds",
      {{"op", "read"}});
  request_write_hist_ = r->GetHistogram(
      "chrono_request_latency_ns",
      "End-to-end request latency inside the server in nanoseconds",
      {{"op", "write"}});

  // Pool histograms + pull-mode pool stats. The demand-lane wait histogram
  // doubles as the brownout controller's input signal (§17).
  pool_wait_hist_[static_cast<int>(ThreadPool::Lane::kDemand)] =
      r->GetHistogram("chrono_pool_queue_wait_ns",
                      "Time tasks spend queued before a worker runs them",
                      {{"lane", "demand"}});
  pool_wait_hist_[static_cast<int>(ThreadPool::Lane::kPrefetch)] =
      r->GetHistogram("chrono_pool_queue_wait_ns",
                      "Time tasks spend queued before a worker runs them",
                      {{"lane", "prefetch"}});
  pool_run_hist_ = r->GetHistogram(
      "chrono_pool_run_ns", "Time tasks spend executing on a worker");
  pool_.AttachMetrics(pool_wait_hist_[0], pool_wait_hist_[1],
                      pool_run_hist_);
  r->RegisterCallbackGauge(
      "chrono_pool_queue_depth", "Tasks queued and not yet running", {},
      [this] { return static_cast<double>(pool_.queue_depth()); }, owner);
  r->RegisterCallbackGauge(
      "chrono_pool_lane_depth", "Tasks queued per admission lane",
      {{"lane", "demand"}},
      [this] {
        return static_cast<double>(
            pool_.lane_depth(ThreadPool::Lane::kDemand));
      },
      owner);
  r->RegisterCallbackGauge(
      "chrono_pool_lane_depth", "Tasks queued per admission lane",
      {{"lane", "prefetch"}},
      [this] {
        return static_cast<double>(
            pool_.lane_depth(ThreadPool::Lane::kPrefetch));
      },
      owner);
  r->RegisterCallbackGauge(
      "chrono_pool_queue_depth_peak",
      "High-water mark of the pool queue depth", {},
      [this] { return static_cast<double>(pool_.peak_queue_depth()); }, owner);
  r->RegisterCallbackCounter(
      "chrono_pool_tasks_executed_total", "Tasks completed by the pool", {},
      [this] { return static_cast<double>(pool_.tasks_executed()); }, owner);
  r->RegisterCallbackCounter(
      "chrono_pool_tasks_failed_total",
      "Tasks that exited via an exception", {},
      [this] { return static_cast<double>(pool_.tasks_failed()); }, owner);
  r->RegisterCallbackGauge(
      "chrono_overload_brownout_level",
      "Brownout ladder level (0=normal 1=shed-prefetch 2=shed-pipeline "
      "3=reject-query)",
      {},
      [this] {
        return static_cast<double>(static_cast<int>(brownout_.level()));
      },
      owner);

  // Every node counter family (the table in core::Engine, which also
  // reads the pool's shed/expired counts and the injected faults) and the
  // template/result cache families.
  engine_.RegisterMetrics(r);
  r->RegisterCallbackGauge(
      "chrono_sessions", "Live client sessions", {},
      [this] { return static_cast<double>(session_count()); }, owner);
  r->RegisterCallbackGauge(
      "chrono_breaker_state",
      "Remote-DB circuit breaker state (0=closed, 1=open, 2=half-open)", {},
      [this] {
        return static_cast<double>(static_cast<int>(breaker_.state()));
      },
      owner);

  // The statement cache joins the engine's template and result caches
  // under the same uniform family.
  core::Engine::RegisterCacheFamily(
      r, "statement",
      [this] {
        return static_cast<double>(db_->statement_cache_counters().hits.load(
            std::memory_order_relaxed));
      },
      [this] {
        return static_cast<double>(db_->statement_cache_counters().misses.load(
            std::memory_order_relaxed));
      },
      [this] { return static_cast<double>(db_->statement_cache_evictions()); },
      [this] {
        std::shared_lock<obs::TimedSharedMutex> lock(db_mutex_);
        return static_cast<double>(db_->statement_cache_size());
      },
      owner);

  // Database-side statement accounting + per-kind latency histograms.
  db_->AttachMetrics(r);
  r->RegisterCallbackCounter(
      "chrono_db_statements_total",
      "Statements executed by the database engine", {},
      [this] { return static_cast<double>(db_->statements_executed()); },
      owner);

  r->RegisterCallbackCounter(
      "chrono_traces_total", "Requests traced into the ring", {},
      [this] { return static_cast<double>(traces_.total_pushed()); }, owner);
}

std::shared_ptr<obs::RequestTrace> ChronoServer::FinishRequest(
    ReqCtx* ctx, ClientId client, bool read_only, const std::string& sql) {
  uint64_t total_ns = NsBetween(ctx->t0, std::chrono::steady_clock::now());
  (read_only ? request_read_hist_ : request_write_hist_)->Record(total_ns);
  engine_.Record(core::Engine::Request{
      .client = client,
      .tmpl = ctx->tmpl,
      .outcome = ctx->outcome,
      .plan_root = ctx->prefetch_root,
      .src = ctx->prefetch_src,
      // §17 invariant violation marker: a request whose client deadline
      // had already passed when the pipeline started should have been
      // rejected at dequeue, never executed. The audit counts these; the
      // count must stay zero.
      .late = ctx->arrival.deadline_us != 0 &&
              ctx->start_us > ctx->arrival.deadline_us,
      .spans = &ctx->spans,
      .total_us = total_ns / 1000});
  return BuildTrace(*ctx, client, sql, total_ns / 1000);
}

std::shared_ptr<obs::RequestTrace> ChronoServer::BuildTrace(
    const ReqCtx& ctx, ClientId client, const std::string& sql,
    uint64_t execute_us) {
  const Arrival& arrival = ctx.arrival;
  auto since_arrival = [&arrival](uint64_t us) {
    return us > arrival.arrived_us ? us - arrival.arrived_us : 0;
  };
  const uint64_t enqueued = since_arrival(arrival.enqueued_us);
  const uint64_t exec_start = std::max(enqueued, since_arrival(ctx.start_us));

  auto trace = std::make_shared<obs::RequestTrace>();
  trace->id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  trace->client = static_cast<uint64_t>(client);
  trace->tmpl = static_cast<uint64_t>(ctx.tmpl);
  trace->sql = sql.substr(0, kTraceSqlBytes);
  trace->outcome = ctx.outcome;
  trace->prefetch_plan = ctx.prefetch_plan;
  trace->prefetch_src = ctx.prefetch_src;
  trace->forced = arrival.traced;
  trace->start_us = arrival.arrived_us;
  // The arrival stages tile [0, exec_start); the pipeline spans ride
  // inside the execute span.
  trace->spans.reserve(ctx.spans.size() + 5);
  if (arrival.via == Arrival::Via::kWire) {
    trace->spans.push_back({obs::Stage::kWireDecode, 0, enqueued});
  }
  trace->spans.push_back(
      {obs::Stage::kQueueWait, enqueued, exec_start - enqueued});
  trace->spans.push_back({obs::Stage::kExecute, exec_start, execute_us});
  for (obs::TraceSpan span : ctx.spans) {
    span.start_us += exec_start;
    trace->spans.push_back(span);
  }
  trace->annotations.reserve(ctx.annotations.size());
  for (obs::TraceAnnotation note : ctx.annotations) {
    note.at_us += exec_start;
    trace->annotations.push_back(note);
  }
  // The wire frontend extends this with its completion-wait and
  // response-flush spans before publishing.
  trace->total_us = exec_start + execute_us;
  return trace;
}

std::shared_ptr<obs::RequestTrace> ChronoServer::UnservedTrace(
    const Arrival& arrival, ClientId client) {
  ReqCtx ctx(arrival, NowMicros());
  ctx.outcome = obs::TraceOutcome::kError;
  return BuildTrace(ctx, client, /*sql=*/{}, /*execute_us=*/0);
}

void ChronoServer::PublishTrace(std::shared_ptr<obs::RequestTrace> trace) {
  // The arrival stages never pass through a StageTimer; their histograms
  // are fed here so chrono_stage_latency_ns covers the full round trip.
  for (const obs::TraceSpan& span : trace->spans) {
    if (span.stage >= obs::Stage::kWireDecode) {
      stage_hist_[static_cast<int>(span.stage)]->Record(span.dur_us * 1000);
    }
  }
  std::shared_ptr<const obs::RequestTrace> published = std::move(trace);
  traces_.Push(published);
  // Cheap floor pre-check first: the steady-state cost is one relaxed load.
  if (tail_.MightAdmit(published->total_us, published->forced)) {
    tail_.Offer(published, NowMicros());
  }
}

uint64_t ChronoServer::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void ChronoServer::SleepMicros(uint64_t us) const {
  if (us == 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

ChronoServer::HealthStatus ChronoServer::Health() const {
  switch (breaker_.state()) {
    case net::CircuitBreaker::State::kOpen:
      return {false, "circuit breaker open"};
    case net::CircuitBreaker::State::kHalfOpen:
      return {false, "circuit breaker half-open (probing)"};
    case net::CircuitBreaker::State::kClosed:
      break;
  }
  uint64_t last = last_stale_us_.load(std::memory_order_relaxed);
  if (last != 0 && NowMicros() - last < 2'000'000) {
    return {false, "serving stale results"};
  }
  return {};
}

Result<db::ExecOutcome> ChronoServer::CallBackend(
    const BackendCall& call,
    const std::function<Result<db::ExecOutcome>()>& exec) {
  // The §11 retry budget, clamped by whatever is left of the client's
  // propagated wire deadline (§17): the ladder never spends time the
  // client no longer has. An already-expired deadline degrades to a 1 µs
  // budget — the first attempt fails fast rather than sleeping.
  uint64_t budget_us = config_.request_deadline_us;
  // The node's own budget, before any client clamp: a timeout this budget
  // alone would not have hit is the client's, not the backend's.
  net::Deadline own_deadline(budget_us, [this] { return NowMicros(); });
  if (call.ctx != nullptr && call.ctx->arrival.deadline_us != 0) {
    uint64_t now = NowMicros();
    uint64_t left = call.ctx->arrival.deadline_us > now
                        ? call.ctx->arrival.deadline_us - now
                        : 1;
    uint64_t clamped = net::ClampBudgetUs(budget_us, left);
    if (clamped != budget_us) {
      call.ctx->Note(obs::AnnotationKind::kDeadlineClamp, left);
    }
    budget_us = clamped;
  }
  net::Deadline deadline(budget_us, [this] { return NowMicros(); });

  // Breaker admission, once per call. Prefetch admission happens at the
  // caller (ExecuteCombined sheds before the plan is issued). The breaker
  // judges whole calls, not attempts: failures the retry schedule absorbs
  // never reach it, so a background error rate keeps flowing (retried)
  // while a genuine outage — every call failing post-retry — trips it.
  auto admission = net::CircuitBreaker::Admission::kAdmitted;
  if (!call.is_prefetch) {
    admission = breaker_.AdmitDemand();
    if (admission == net::CircuitBreaker::Admission::kRejected) {
      counters_.breaker_rejects.fetch_add(1, std::memory_order_relaxed);
      if (call.ctx != nullptr) {
        call.ctx->Note(obs::AnnotationKind::kBreakerReject,
                       static_cast<uint64_t>(breaker_.state()));
      }
      return Status::Unavailable("circuit breaker open");
    }
  }

  int attempts = 0;
  for (;;) {
    ++attempts;

    uint64_t attempt_cap = deadline.remaining_us();  // UINT64_MAX: unlimited
    if (config_.attempt_timeout_us > 0 &&
        config_.attempt_timeout_us < attempt_cap) {
      attempt_cap = config_.attempt_timeout_us;
    }

    net::FaultDecision fd;
    if (fault_.enabled()) fd = fault_.Decide(NowMicros());
    if (fd.fail && call.ctx != nullptr) {
      call.ctx->Note(obs::AnnotationKind::kFault, fd.blackout ? 1 : 0);
    }
    uint64_t latency = config_.db_latency_us;
    if (fd.latency_multiplier > 1.0) {
      latency = static_cast<uint64_t>(static_cast<double>(latency) *
                                      fd.latency_multiplier);
    }

    bool timed_out = false;
    bool client_deadline = false;  // timed out on the client's budget only
    Result<db::ExecOutcome> outcome = [&]() -> Result<db::ExecOutcome> {
      if (fd.fail) {
        // The request dies in the WAN. A blackout behaves like a hang that
        // the attempt budget cuts off (without a deadline it degenerates
        // to a refused connection); a plain fault surfaces as a refusal
        // after the — possibly truncated — round trip.
        if (fd.blackout && attempt_cap != UINT64_MAX) {
          SleepMicros(attempt_cap);
          timed_out = true;
          return Status::DeadlineExceeded(
              "backend blackout: attempt timed out");
        }
        SleepMicros(std::min(latency, attempt_cap));
        return Status::Unavailable("injected backend failure");
      }
      if (attempt_cap != UINT64_MAX && latency > attempt_cap) {
        // Healthy but (spike-)slow: give up at the budget, not after it.
        uint64_t own_cap = own_deadline.remaining_us();
        if (config_.attempt_timeout_us > 0 &&
            config_.attempt_timeout_us < own_cap) {
          own_cap = config_.attempt_timeout_us;
        }
        client_deadline = latency <= own_cap;
        SleepMicros(attempt_cap);
        timed_out = true;
        return Status::DeadlineExceeded(
            "backend latency exceeded attempt budget");
      }
      SleepMicros(latency);
      return exec();
    }();

    bool transport_failed =
        !outcome.ok() && IsBackendFailure(outcome.status());
    if (timed_out) {
      Record({.tmpl = call.tmpl,
              .a = attempt_cap,
              .b = client_deadline ? obs::kTimeoutClientDeadline
                                   : obs::kTimeoutBackend,
              .client = static_cast<uint32_t>(call.client),
              .type = obs::JournalEventType::kBackendTimeout,
              .flags = call.is_write ? obs::kJournalFlagWrite : uint8_t{0}},
             call.ctx);
    }
    if (client_deadline) {
      // Local budget exhaustion (the client's wire deadline shrank the
      // budget below a healthy backend's latency): no verdict on backend
      // health, and no retry — the client's time is gone.
      breaker_.OnAbandoned(admission);
      return outcome;
    }
    if (!transport_failed) {
      breaker_.OnResult(admission, true);
      return outcome;
    }

    // Retry only idempotent demand reads, within the deadline. Writes are
    // never safely retryable here (no dedup tokens), and prefetch is
    // best-effort by contract.
    if (call.is_write || call.is_prefetch || !retry_.ShouldRetry(attempts)) {
      breaker_.OnResult(admission, false);
      return outcome;
    }
    uint64_t left = deadline.remaining_us();
    if (left == 0) {
      breaker_.OnResult(admission, false);
      return outcome;
    }
    // Full jitter from a counter hash: deterministic for a fixed seed,
    // lock-free, and de-correlated across concurrent workers.
    double u = HashToUnit(SplitMix64(
        config_.fault.seed ^ 0x5deece66dULL ^
        jitter_ordinal_.fetch_add(1, std::memory_order_relaxed)));
    uint64_t backoff = retry_.BackoffUs(attempts, u);
    if (left != UINT64_MAX && backoff >= left) backoff = left / 2;
    Record({.tmpl = call.tmpl,
            .a = static_cast<uint64_t>(attempts),
            .b = backoff,
            .c = left == UINT64_MAX ? 0 : left,
            .client = static_cast<uint32_t>(call.client),
            .type = obs::JournalEventType::kBackendRetry},
           call.ctx);
    SleepMicros(backoff);
  }
}

void ChronoServer::ShedPrefetch(uint64_t kind, const core::Engine::Plan& plan,
                                ClientId client) {
  Record({.plan = plan.id,
          .tmpl = static_cast<uint64_t>(plan.root),
          .a = kind,
          .client = static_cast<uint32_t>(client),
          .type = obs::JournalEventType::kShed});
}

SharedResult ChronoServer::TryServeStale(
    const std::optional<cache::CachedResult>& candidate, uint64_t tmpl,
    ClientId client, ReqCtx* ctx) {
  if (config_.stale_serve_us == 0 || !candidate.has_value()) {
    return nullptr;
  }
  uint64_t now = NowMicros();
  uint64_t age = now > candidate->install_us ? now - candidate->install_us : 0;
  if (age > config_.stale_serve_us) return nullptr;
  last_stale_us_.store(now, std::memory_order_relaxed);
  if (ctx != nullptr) ctx->outcome = obs::TraceOutcome::kStaleHit;
  Record({.tmpl = tmpl,
          .a = age,
          .b = config_.stale_serve_us,
          .client = static_cast<uint32_t>(client),
          .type = obs::JournalEventType::kStaleServe},
         ctx);
  return candidate->result;
}

size_t ChronoServer::session_count() const { return engine_.model_count(); }

void ChronoServer::SubmitAsync(ClientId client, std::string sql,
                               int security_group, const Arrival& arrival,
                               Done done) {
  // The pool copies the task before running it; share the callback so a
  // rejected submission can still deliver the mandatory callback.
  auto callback = std::make_shared<Done>(std::move(done));
  auto work = [this, callback, client, security_group, arrival,
               sql = std::move(sql)]() {
    Served served = ExecuteInternal(client, sql, security_group, arrival);
    (*callback)(std::move(served.result), std::move(served.trace));
  };
  bool accepted;
  if (arrival.deadline_us != 0) {
    // Arm expiry-at-dequeue (§17): if the client's deadline passes while
    // the task is still queued, the worker rejects it in O(1) — the
    // backend never sees it — and the completion is delivered with
    // DeadlineExceeded so the frontend can stamp the kFlagExpired Error.
    uint64_t budget_ms =
        arrival.deadline_us > arrival.arrived_us
            ? (arrival.deadline_us - arrival.arrived_us) / 1000
            : 0;
    accepted = pool_.Submit(
        std::move(work),
        start_ + std::chrono::microseconds(arrival.deadline_us),
        [this, callback, client, arrival, budget_ms]() {
          uint64_t now = NowMicros();
          obs::JournalEvent event;
          event.type = obs::JournalEventType::kDeadlineExpired;
          event.client = static_cast<uint32_t>(client);
          event.a = now > arrival.deadline_us ? now - arrival.deadline_us : 0;
          event.b = budget_ms;
          if (pool_.shutting_down()) event.flags = obs::kJournalFlagDrain;
          Journal(event);
          (*callback)(Status::DeadlineExceeded(kExpiredInQueueMessage),
                      UnservedTrace(arrival, client));
        });
  } else {
    accepted = pool_.Submit(std::move(work));
  }
  if (!accepted) {
    (*callback)(
        Status::Internal("ChronoServer is shut down; submission rejected"),
        UnservedTrace(arrival, client));
  }
}

std::future<Result<SharedResult>> ChronoServer::Submit(ClientId client,
                                                       std::string sql,
                                                       int security_group) {
  auto promise = std::make_shared<std::promise<Result<SharedResult>>>();
  std::future<Result<SharedResult>> future = promise->get_future();
  Arrival arrival;
  arrival.arrived_us = NowMicros();
  arrival.enqueued_us = arrival.arrived_us;
  SubmitAsync(client, std::move(sql), security_group, arrival,
              [this, promise](Result<SharedResult> result,
                              std::shared_ptr<obs::RequestTrace> trace) {
                PublishTrace(std::move(trace));
                promise->set_value(std::move(result));
              });
  return future;
}

ChronoServer::Served ChronoServer::ExecuteInternal(ClientId client,
                                                   const std::string& sql,
                                                   int security_group,
                                                   const Arrival& arrival) {
  ReqCtx ctx(arrival, NowMicros());
  BrownoutController::Level level = brownout_.level();
  if (level != BrownoutController::Level::kNormal) {
    ctx.Note(obs::AnnotationKind::kBrownout,
             static_cast<uint64_t>(level));
  }

  Result<sql::ParsedQuery> parsed = [&] {
    StageTimer timer(this, &ctx, obs::Stage::kAnalyze);
    return engine_.Analyze(sql);
  }();
  if (!parsed.ok()) {
    ctx.outcome = obs::TraceOutcome::kError;
    return {parsed.status(),
            FinishRequest(&ctx, client, /*read_only=*/true, sql)};
  }
  ctx.tmpl = parsed->tmpl->id;
  const bool read_only = parsed->tmpl->read_only;

  Result<SharedResult> result = [&] {
    if (!read_only) {
      counters_.writes.fetch_add(1, std::memory_order_relaxed);
      ctx.outcome = obs::TraceOutcome::kWrite;
      return DoWrite(client, *parsed, &ctx);
    }
    counters_.reads.fetch_add(1, std::memory_order_relaxed);
    return DoRead(client, security_group, *parsed, &ctx);
  }();
  if (!result.ok()) ctx.outcome = obs::TraceOutcome::kError;
  return {std::move(result),
          FinishRequest(&ctx, client, read_only, parsed->bound_text)};
}

Result<SharedResult> ChronoServer::DoWrite(ClientId client,
                                           const sql::ParsedQuery& parsed,
                                           ReqCtx* ctx) {
  BackendCall call;
  call.is_write = true;
  call.tmpl = static_cast<uint64_t>(parsed.tmpl->id);
  call.client = client;
  call.ctx = ctx;
  Result<db::ExecOutcome> outcome = [&] {
    StageTimer timer(this, ctx, obs::Stage::kDbExecute);
    return CallBackend(call, [&] {
      std::unique_lock<obs::TimedSharedMutex> lock(db_mutex_);
      // Exclusive access: ExecuteText may touch the statement cache.
      Result<db::ExecOutcome> out = db_->ExecuteText(parsed.bound_text);
      // DDL may have created tables whose indexes are still lazy; re-warm
      // under the same writer lock (no-op when everything is warm).
      db_->WarmIndexes();
      return out;
    });
  }();
  engine_.WriteLanded(client, parsed, outcome);
  if (!outcome.ok()) return outcome.status();
  return std::make_shared<const sql::ResultSet>(std::move(outcome->result));
}

void ChronoServer::PrefetchInBackground(ClientId client, int security_group,
                                        const core::Engine::Plan& plan) {
  // First rung of the brownout ladder (§17): under pressure speculation
  // is dropped before it is even queued. Plans are still learned — only
  // the background execution is shed.
  if (brownout_.level() >= BrownoutController::Level::kShedPrefetch) {
    RecordOverloadShed(obs::kOverloadShedPrefetch, client,
                       /*retry_after_ms=*/0);
    return;
  }
  bool queued = pool_.TrySubmit(
      ThreadPool::Lane::kPrefetch, [this, client, security_group, plan] {
        ExecuteCombined(client, security_group, plan, /*ctx=*/nullptr);
      });
  if (!queued) {
    ShedPrefetch(obs::kShedQueueFull, plan, client);
  }
}

Result<SharedResult> ChronoServer::DoRead(ClientId client,
                                          int security_group,
                                          const sql::ParsedQuery& parsed,
                                          ReqCtx* ctx) {
  const core::TemplateId tmpl = parsed.tmpl->id;

  // Every plan but the one covering this query goes to the background
  // here; the covering one runs inline on a miss and queues on a hit.
  core::Engine::ReadyGraphs ready = [&] {
    StageTimer timer(this, ctx, obs::Stage::kLearnCombine);
    return engine_.Observe(client, security_group, parsed);
  }();
  for (const core::Engine::Plan& plan : ready.others) {
    PrefetchInBackground(client, security_group, plan);
  }

  // Ships the shared payload to the caller: a ref-count bump, never a row
  // copy. The engine fed it to the client's mapper as it handed it over.
  auto respond_hit = [&](const cache::CachedResult& hit,
                         obs::TraceOutcome outcome) {
    ctx->outcome = outcome;
    ctx->prefetch_plan = hit.prefetch_plan;
    ctx->prefetch_root = hit.prefetch_root;
    ctx->prefetch_src = hit.prefetch_src;
    return hit.result;
  };

  // A version-stale (but security-cleared) entry seen during the lookup:
  // kept around as the degraded answer of last resort.
  std::optional<cache::CachedResult> stale_candidate;
  {
    std::optional<cache::CachedResult> hit;
    {
      StageTimer timer(this, ctx, obs::Stage::kCacheLookup);
      hit = engine_.CacheGet(
          client, security_group, parsed,
          config_.stale_serve_us > 0 ? &stale_candidate : nullptr,
          KeepRejected());
    }
    if (hit.has_value()) {
      // The §5.1 check kept the covering graph, so some piece it predicts
      // is not cached: fetch it in the background, as for the others.
      if (ready.covering.has_value()) {
        PrefetchInBackground(client, security_group, *ready.covering);
      }
      return respond_hit(*hit, obs::TraceOutcome::kCacheHit);
    }
  }

  // Miss with a covering plan: run it inline with this read as its trigger,
  // as the simulator does. The landed plan answers its trigger
  // (Engine::PlanLanded, DESIGN.md §19); otherwise the read goes plain.
  core::Engine::Trigger trigger{.query = parsed};
  if (ready.covering.has_value()) {
    ExecuteCombined(client, security_group, *ready.covering, ctx, &trigger);
    if (trigger.answer.has_value()) {
      return respond_hit(*trigger.answer, obs::TraceOutcome::kPredictionHit);
    }
  }

  // A transport-level failure after every retry degrades to the
  // version-stale entry if the operator opted in, rather than surface an
  // error. The engine hands a stale entry to no mapper: a model never
  // trains on superseded rows.
  auto failed = [&](const Status& status) -> Result<SharedResult> {
    if (IsBackendFailure(status)) {
      if (auto stale = TryServeStale(stale_candidate,
                                     static_cast<uint64_t>(tmpl), client,
                                     ctx)) {
        return stale;
      }
    }
    return status;
  };

  // Plain remote execution, single-flighted by the engine: the leader
  // performs the backend call with the full retry/breaker/deadline
  // semantics; a thread that misses the key while it flies blocks here
  // until the leader lands. A waiter told to refetch goes around; after
  // kMaxRejectedFlights refusals it fetches alone, so a write-heavy client
  // cannot be starved parking behind flights it can never use.
  constexpr int kMaxRejectedFlights = 2;
  int rejected_flights = 0;
  std::optional<cache::VersionVector> tag;
  while (rejected_flights < kMaxRejectedFlights) {
    auto parked = std::make_shared<std::promise<core::Engine::Verdict>>();
    tag = engine_.OpenOrJoinFlight(
        client, security_group, parsed,
        [parked](core::Engine::Verdict verdict) {
          parked->set_value(std::move(verdict));
        });
    if (tag.has_value()) break;

    // Waiter: the wait surfaces as db-execute time (that is what it
    // replaces). No install, no retries, no breaker feed — the leader owns
    // all backend semantics; its Status fans out verbatim.
    core::Engine::Verdict verdict = [&] {
      StageTimer timer(this, ctx, obs::Stage::kDbExecute);
      return parked->get_future().get();
    }();
    ctx->Note(obs::AnnotationKind::kCoalesced, verdict.parked_before);
    if (verdict.refetch) {
      ++rejected_flights;
      continue;
    }
    ctx->outcome = obs::TraceOutcome::kCoalescedHit;
    if (!verdict.rows.ok()) return failed(verdict.rows.status());
    return *verdict.rows;
  }
  const auto kind = tag.has_value() ? core::Engine::ReadKind::kLeader
                                    : core::Engine::ReadKind::kDemand;
  if (!tag.has_value()) tag = engine_.BeginRead(tmpl);

  // Leader (or flying alone): bind the template's AST (no re-parse) and
  // run it under reader access.
  counters_.remote_plain.fetch_add(1, std::memory_order_relaxed);
  ctx->outcome = obs::TraceOutcome::kRemotePlain;

  // A leader that unwinds before its read lands lands a failure, so the
  // flight closes and its waiters wake instead of parking forever.
  bool landed = kind != core::Engine::ReadKind::kLeader;  // no flight
  struct AtExit {
    std::function<void()> run;
    ~AtExit() { run(); }
  } unwind{[&] {
    if (landed) return;
    engine_.ReadLanded(
        client, security_group, tmpl, parsed.bound_text, *tag,
        Status::Internal("backend fetch abandoned before resolution"), kind);
  }};

  std::unique_ptr<sql::Statement> stmt =
      sql::BindParams(*parsed.tmpl->ast, parsed.params);
  BackendCall call;
  call.tmpl = static_cast<uint64_t>(tmpl);
  call.client = client;
  call.ctx = ctx;
  Result<db::ExecOutcome> outcome = [&] {
    StageTimer timer(this, ctx, obs::Stage::kDbExecute);
    return CallBackend(call, [&] {
      std::shared_lock<obs::TimedSharedMutex> lock(db_mutex_);
      return db_->Execute(*stmt);
    });
  }();
  if (after_read_hook_) after_read_hook_();

  // Installed tagged with the pre-read snapshot; a leader's landing also
  // answers its waiters.
  Result<SharedResult> payload =
      engine_.ReadLanded(client, security_group, tmpl, parsed.bound_text,
                         *tag, std::move(outcome), kind);
  landed = true;
  if (!payload.ok()) return failed(payload.status());
  return *payload;
}

void ChronoServer::ExecuteCombined(ClientId client, int security_group,
                                   const core::Engine::Plan& plan,
                                   ReqCtx* ctx,
                                   core::Engine::Trigger* trigger) {
  // Combined queries are predictive work, inline or not: while the breaker
  // is unhealthy they are shed before touching the backend, so prefetch
  // never consumes capacity (or probe slots) demand traffic needs.
  if (!breaker_.AdmitPrefetch()) {
    ShedPrefetch(obs::kShedBreakerUnhealthy, plan, client);
    return;
  }
  const core::Engine::PlanCall plan_call = engine_.BeginPlan(client, plan);
  BackendCall call;
  call.is_prefetch = true;
  call.client = client;
  call.ctx = ctx;  // inline covering combine: annotate the demand trace
  Result<db::ExecOutcome> outcome = [&] {
    StageTimer timer(this, ctx, obs::Stage::kDbExecute);
    return CallBackend(call, [&] {
      std::shared_lock<obs::TimedSharedMutex> lock(db_mutex_);
      return db_->Execute(*plan.query->ast);
    });
  }();
  std::optional<StageTimer> split_timer;
  if (outcome.ok()) {
    if (after_read_hook_) after_read_hook_();
    split_timer.emplace(this, ctx, obs::Stage::kSplitDecode);
  }
  // Read at the landing: the breaker may have moved while the plan flew.
  if (trigger != nullptr) trigger->keep_rejected = KeepRejected();
  engine_.PlanLanded(client, security_group, plan, plan_call, outcome,
                     trigger);
}

bool ChronoServer::KeepRejected() const {
  return config_.stale_serve_us > 0 &&
         breaker_.state() != net::CircuitBreaker::State::kClosed;
}

}  // namespace chrono::runtime
