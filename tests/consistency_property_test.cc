// Correctness property: for a single client (no concurrent writers), every
// result returned through the middleware — cache hit, coalesced wait,
// split combined result, or plain remote read — must be byte-identical to
// executing the same statement stream directly against a mirror database.
// This exercises the full stack (templates, learning, combining, splitting,
// session semantics) against ground truth on every workload, through both
// drivers of the engine: the simulator's Middleware in virtual time and
// the wall-clock ChronoServer with its background prefetch running on
// worker threads.

#include <gtest/gtest.h>

#include "core/middleware.h"
#include "db/database.h"
#include "runtime/server.h"
#include "workloads/auctionmark.h"
#include "workloads/seats.h"
#include "workloads/tpce.h"
#include "workloads/wikipedia.h"

namespace chrono {
namespace {

using core::SystemMode;

std::unique_ptr<workloads::Workload> MakeWorkload(const std::string& name) {
    if (name == "tpce") {
      workloads::TpceWorkload::Config c;
      c.customers = 30;
      c.securities = 80;
      c.watch_lists = 30;
      c.watch_items_per_list = 7;
      c.trades = 200;
      return std::make_unique<workloads::TpceWorkload>(c);
    }
    if (name == "wikipedia") {
      workloads::WikipediaWorkload::Config c;
      c.pages = 150;
      c.users = 150;
      return std::make_unique<workloads::WikipediaWorkload>(c);
    }
    if (name == "seats") {
      workloads::SeatsWorkload::Config c;
      c.customers = 60;
      c.flights = 80;
      c.routes = 16;
      return std::make_unique<workloads::SeatsWorkload>(c);
    }
    workloads::AuctionMarkWorkload::Config c;
    c.users = 50;
    c.items = 300;
    c.end_dates = 10;
    return std::make_unique<workloads::AuctionMarkWorkload>(c);
}

/// Drives 50 transactions of `workload` through `execute`, comparing every
/// answer with direct execution on `mirror`.
void CheckAgainstMirror(
    workloads::Workload* workload, db::Database* mirror,
    const std::function<Result<sql::ResultSet>(const std::string&)>& execute) {
  Rng rng(1234);
  int mismatches = 0;
  int statements = 0;
  for (int t = 0; t < 50 && mismatches == 0; ++t) {
    auto tx = workload->NextTransaction(&rng);
    const sql::ResultSet* prev = nullptr;
    sql::ResultSet last;
    while (auto sql_text = tx->Next(prev)) {
      Result<sql::ResultSet> via_node = execute(*sql_text);
      ASSERT_TRUE(via_node.ok()) << *sql_text << ": "
                                 << via_node.status().ToString();

      // Ground truth.
      auto direct = mirror->ExecuteText(*sql_text);
      ASSERT_TRUE(direct.ok()) << *sql_text;

      ++statements;
      if (direct->result.column_count() > 0 || via_node->column_count() > 0) {
        if (!(*via_node == direct->result)) {
          ++mismatches;
          ADD_FAILURE() << "mismatch for: " << *sql_text << "\nvia node:\n"
                        << via_node->ToString() << "\ndirect:\n"
                        << direct->result.ToString();
        }
      }
      last = std::move(*via_node);
      prev = &last;
    }
  }
  EXPECT_GT(statements, 100);
  EXPECT_EQ(mismatches, 0);
}

class ConsistencyProperty
    : public ::testing::TestWithParam<std::tuple<const char*, SystemMode>> {};

TEST_P(ConsistencyProperty, MiddlewareMatchesDirectExecution) {
  // Two identically populated databases: one behind the middleware, one
  // as the ground-truth mirror.
  const std::string name = std::get<0>(GetParam());
  EventQueue events;
  db::Database behind;
  db::Database mirror;
  MakeWorkload(name)->Populate(&behind);
  MakeWorkload(name)->Populate(&mirror);
  auto workload = MakeWorkload(name);

  net::LatencyModel latency;
  core::RemoteDbServer remote(&events, &behind, latency, 8);
  core::MiddlewareConfig config;
  config.mode = std::get<1>(GetParam());
  core::Middleware node(&events, &remote, latency, config);

  CheckAgainstMirror(workload.get(), &mirror, [&](const std::string& sql) {
    // Run the event loop to completion so all background prefetching
    // lands too.
    Result<sql::ResultSet> out = Status::Internal("no response");
    node.SubmitQuery(0, 0, sql,
                     [&](SimTime, const Result<sql::ResultSet>& result) {
                       out = result;
                     });
    events.RunAll();
    return out;
  });
}

// The wall-clock driver: the single client goes through Execute while
// combined prefetches run in the background on the worker pool.
class RuntimeConsistencyProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(RuntimeConsistencyProperty, ServerMatchesDirectExecution) {
  const std::string name = GetParam();
  db::Database behind;
  db::Database mirror;
  MakeWorkload(name)->Populate(&behind);
  MakeWorkload(name)->Populate(&mirror);
  auto workload = MakeWorkload(name);

  runtime::ServerConfig config;
  config.workers = 2;
  config.db_latency_us = 0;
  config.enable_learning = true;
  config.enable_combining = true;
  runtime::ChronoServer server(&behind, config);

  CheckAgainstMirror(workload.get(), &mirror, [&](const std::string& sql) {
    Result<sql::ResultSet> out = Status::Internal("no response");
    Result<runtime::SharedResult> result = server.Submit(0, sql).get();
    if (result.ok()) {
      out = **result;
    } else {
      out = result.status();
    }
    return out;
  });
  server.Shutdown();
  EXPECT_GT(server.metrics().remote_combined, 0u)
      << "background prefetch never ran";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, RuntimeConsistencyProperty,
    ::testing::Values("tpce", "wikipedia", "seats", "auctionmark"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllModes, ConsistencyProperty,
    ::testing::Combine(::testing::Values("tpce", "wikipedia", "seats",
                                         "auctionmark"),
                       ::testing::Values(SystemMode::kLru, SystemMode::kApollo,
                                         SystemMode::kScalpelCC,
                                         SystemMode::kChrono)),
    [](const ::testing::TestParamInfo<std::tuple<const char*, SystemMode>>&
           info) {
      std::string name = std::string(std::get<0>(info.param)) + "_" +
                         core::SystemModeName(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace chrono
