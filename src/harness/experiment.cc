#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "db/database.h"
#include "obs/journal.h"
#include "sim/event_queue.h"

namespace chrono::harness {

namespace {

/// One simulated client: draws transactions from the workload and issues
/// their statements sequentially, pausing `think_time` between
/// transactions. Collects per-query response times.
class Client {
 public:
  struct Shared {
    EventQueue* events;
    workloads::Workload* workload;
    const ExperimentConfig* config;
    SampleStats* samples;
    std::map<int64_t, SampleStats>* timeline;
    std::map<std::string, SampleStats>* by_transaction;
    uint64_t* transactions;
    uint64_t* errors;
    std::string* first_error;
  };

  Client(int id, int security_group, core::Middleware* node, Shared shared,
         uint64_t seed)
      : id_(id),
        security_group_(security_group),
        node_(node),
        shared_(shared),
        rng_(seed) {}

  void Start() { BeginTransaction(); }

 private:
  void BeginTransaction() {
    tx_ = shared_.workload->NextTransaction(&rng_);
    ++(*shared_.transactions);
    Step(nullptr);
  }

  void Step(const sql::ResultSet* prev) {
    auto sql_text = tx_->Next(prev);
    if (!sql_text.has_value()) {
      tx_.reset();
      shared_.events->ScheduleAfter(shared_.config->think_time,
                                    [this](SimTime) { BeginTransaction(); });
      return;
    }
    SimTime submitted = shared_.events->now();
    node_->SubmitQuery(
        id_, security_group_, std::move(*sql_text),
        [this, submitted](SimTime now, const Result<sql::ResultSet>& result) {
          OnResponse(submitted, now, result);
        });
  }

  void OnResponse(SimTime submitted, SimTime now,
                  const Result<sql::ResultSet>& result) {
    double ms = static_cast<double>(now - submitted) /
                static_cast<double>(kMicrosPerMilli);
    if (submitted >= shared_.config->warmup) {
      shared_.samples->Add(ms);
      if (tx_ != nullptr) (*shared_.by_transaction)[tx_->name()].Add(ms);
    }
    int64_t bucket = now / shared_.config->timeline_bucket;
    (*shared_.timeline)[bucket].Add(ms);
    if (!result.ok()) {
      ++(*shared_.errors);
      if (shared_.first_error->empty()) {
        *shared_.first_error = result.status().ToString();
      }
      tx_.reset();
      shared_.events->ScheduleAfter(shared_.config->think_time,
                                    [this](SimTime) { BeginTransaction(); });
      return;
    }
    Step(&result.value());
  }

  int id_;
  int security_group_;
  core::Middleware* node_;
  Shared shared_;
  Rng rng_;
  std::unique_ptr<workloads::TransactionProgram> tx_;
};

}  // namespace

ExperimentResult RunExperiment(
    const std::function<std::unique_ptr<workloads::Workload>()>& make_workload,
    const ExperimentConfig& config) {
  EventQueue events;
  db::Database database;
  auto workload = make_workload();
  workload->Populate(&database);

  core::RemoteDbServer remote(&events, &database, config.latency,
                              config.db_workers);
  net::FaultInjector fault(config.fault);
  if (fault.enabled()) remote.SetFaultInjector(&fault);

  std::vector<std::unique_ptr<core::Middleware>> nodes;
  for (int n = 0; n < config.nodes; ++n) {
    core::MiddlewareConfig mw = config.middleware;
    mw.node_id = n;
    mw.multi_node = config.nodes > 1;
    nodes.push_back(std::make_unique<core::Middleware>(
        &events, &remote, config.latency, mw));
  }

  // Optional prefetch-efficacy journal: the sim mirrors the runtime's
  // lifecycle events with virtual timestamps. The whole simulation runs on
  // this thread and the journal owns no thread, so the buffer is drained to
  // the file sink once at the end: entirely deterministic.
  std::unique_ptr<obs::JournalFileSink> journal_sink;
  std::unique_ptr<obs::EventJournal> journal;
  if (!config.journal_out.empty()) {
    journal_sink = obs::JournalFileSink::Open(config.journal_out);
    if (journal_sink == nullptr) {
      std::fprintf(stderr, "warning: cannot open journal file %s\n",
                   config.journal_out.c_str());
    } else {
      obs::EventJournal::Options options;
      options.buffer_events = 1 << 20;  // sized to hold a full run
      journal = std::make_unique<obs::EventJournal>(options);
      journal->AddSink(journal_sink.get());
      for (auto& node : nodes) node->AttachJournal(journal.get());
    }
  }

  SampleStats samples;
  std::map<int64_t, SampleStats> timeline;
  std::map<std::string, SampleStats> by_transaction;
  uint64_t transactions = 0;
  uint64_t errors = 0;
  std::string first_error;

  Client::Shared shared{&events,         workload.get(), &config, &samples,
                        &timeline,       &by_transaction, &transactions,
                        &errors,         &first_error};

  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < config.clients; ++c) {
    int node = c % config.nodes;
    int group = c % std::max(1, config.security_groups);
    clients.push_back(std::make_unique<Client>(
        c, group, nodes[static_cast<size_t>(node)].get(), shared,
        config.seed * 1000003 + static_cast<uint64_t>(c)));
  }
  for (auto& client : clients) client->Start();

  events.RunUntil(config.warmup + config.duration);

  ExperimentResult result;
  if (journal != nullptr) {
    journal->Drain();  // into the file sink
    journal_sink->Flush();
    result.journal_events = journal_sink->events_written();
    if (journal->events_dropped() > 0) {
      std::fprintf(stderr, "warning: journal dropped %llu events\n",
                   static_cast<unsigned long long>(journal->events_dropped()));
    }
  }
  result.avg_response_ms = samples.Mean();
  result.p50_ms = samples.Percentile(0.5);
  result.p95_ms = samples.Percentile(0.95);
  result.queries_measured = samples.count();
  result.transactions = transactions;
  result.errors = errors;
  result.first_error = first_error;
  result.db_requests = remote.requests();
  for (const auto& node : nodes) node->AddMetricsTo(&result.metrics);
  result.faults_injected = fault.faults_injected();
  result.cache_hit_rate = result.metrics.CacheHitRate();
  for (const auto& [name, stats] : by_transaction) {
    result.by_transaction.emplace_back(name, stats.Mean(),
                                       static_cast<uint64_t>(stats.count()));
  }
  for (const auto& [bucket, stats] : timeline) {
    result.timeline.emplace_back(
        static_cast<double>(bucket) *
            static_cast<double>(config.timeline_bucket) /
            static_cast<double>(kMicrosPerSecond),
        stats.Mean());
  }
  return result;
}

RepeatedResult RunRepeated(
    const std::function<std::unique_ptr<workloads::Workload>()>& make_workload,
    ExperimentConfig config, int runs,
    const std::function<void(const ExperimentResult&)>& each) {
  RepeatedResult out;
  const uint64_t base = config.seed;
  for (int r = 0; r < runs; ++r) {
    config.seed = (base + static_cast<uint64_t>(r)) * 7919;
    ExperimentResult result = RunExperiment(make_workload, config);
    if (each) each(result);
    out.response_ms.Add(result.avg_response_ms);
    out.hit_rate.Add(result.cache_hit_rate);
    out.db_requests.Add(static_cast<double>(result.db_requests));
    out.combined.Add(static_cast<double>(result.metrics.remote_combined));
    out.errors += result.errors;
    out.last = std::move(result);
  }
  return out;
}

}  // namespace chrono::harness
