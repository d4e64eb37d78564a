// Middleware behaviour (Algorithm 1, §5): caching, session semantics,
// security groups, request coalescing, predictive combining end to end —
// driven in virtual time against a real database instance.

#include <gtest/gtest.h>

#include <vector>

#include "core/middleware.h"
#include "db/database.h"
#include "obs/journal.h"

namespace chrono::core {
namespace {

using sql::ResultSet;
using sql::Value;

/// The outcomes of the kRequest events drained into it, in order.
class OutcomeSink : public obs::JournalSink {
 public:
  void OnEvents(const obs::JournalEvent* events, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      if (events[i].type == obs::JournalEventType::kRequest) {
        outcomes.push_back(obs::RequestOutcome(events[i]));
      } else if (events[i].type == obs::JournalEventType::kBackendCoalesced) {
        coalesced.push_back(events[i]);
      }
    }
  }
  std::vector<obs::TraceOutcome> outcomes;
  std::vector<obs::JournalEvent> coalesced;
};

class MiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.catalog()
                    ->CreateTable("watch_item",
                                  {db::ColumnDef{"wi_wl_id", Value::Type::kInt},
                                   db::ColumnDef{"wi_s_symb",
                                                 Value::Type::kString}})
                    .ok());
    ASSERT_TRUE(db_.catalog()
                    ->CreateTable("security",
                                  {db::ColumnDef{"s_symb", Value::Type::kString},
                                   db::ColumnDef{"s_num_out",
                                                 Value::Type::kInt}})
                    .ok());
    for (int wl = 0; wl < 5; ++wl) {
      for (int i = 0; i < 8; ++i) {
        std::string sym = "S" + std::to_string(wl) + "_" + std::to_string(i);
        ASSERT_TRUE(db_.ExecuteText("INSERT INTO watch_item VALUES (" +
                                    std::to_string(wl) + ", '" + sym + "')")
                        .ok());
        ASSERT_TRUE(db_.ExecuteText("INSERT INTO security VALUES ('" + sym +
                                    "', " + std::to_string(100 + i) + ")")
                        .ok());
      }
    }
  }

  std::unique_ptr<Middleware> MakeMiddleware(SystemMode mode) {
    MiddlewareConfig config;
    config.mode = mode;
    return std::make_unique<Middleware>(&events_, &remote_, latency_, config);
  }

  /// Synchronous helper: submit and run the event loop to completion.
  ResultSet Query(Middleware* mw, ClientId client, const std::string& sql,
                  int group = 0) {
    ResultSet out;
    bool done = false;
    mw->SubmitQuery(client, group, sql,
                    [&](SimTime, const Result<ResultSet>& result) {
                      EXPECT_TRUE(result.ok()) << result.status().ToString();
                      if (result.ok()) out = *result;
                      done = true;
                    });
    events_.RunAll();
    EXPECT_TRUE(done);
    return out;
  }

  /// Runs a Market-Watch style transaction; returns queries issued.
  void RunLoopTransaction(Middleware* mw, ClientId client, int wl) {
    ResultSet symbols = Query(
        mw, client,
        "SELECT wi_s_symb FROM watch_item WHERE wi_wl_id = " +
            std::to_string(wl));
    for (size_t i = 0; i < symbols.row_count(); ++i) {
      (void)Query(mw, client,
                  "SELECT s_num_out FROM security WHERE s_symb = '" +
                      symbols.row(i)[0].AsString() + "'");
    }
  }

  EventQueue events_;
  db::Database db_;
  net::LatencyModel latency_;
  RemoteDbServer remote_{&events_, &db_, latency_, 8};
};

TEST_F(MiddlewareTest, ReadReturnsCorrectResult) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  ResultSet rs = Query(mw.get(), 0,
                       "SELECT s_num_out FROM security WHERE s_symb = 'S0_3'");
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.row(0)[0], Value::Int(103));
}

TEST_F(MiddlewareTest, RepeatQueryHitsCache) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  (void)Query(mw.get(), 0, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  uint64_t remote_before = remote_.requests();
  ResultSet rs = Query(mw.get(), 0,
                       "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  EXPECT_EQ(remote_.requests(), remote_before);  // served from the edge
  EXPECT_EQ(mw->metrics().cache_hits, 1u);
  EXPECT_EQ(rs.row(0)[0], Value::Int(100));
}

TEST_F(MiddlewareTest, DifferentFormattingSameCacheEntry) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  (void)Query(mw.get(), 0, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  (void)Query(mw.get(), 0,
              "select  s_num_out  from security where s_symb='S0_0'");
  EXPECT_EQ(mw->metrics().cache_hits, 1u);
}

TEST_F(MiddlewareTest, CacheSharedAcrossClients) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  (void)Query(mw.get(), 0, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  (void)Query(mw.get(), 1, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  EXPECT_EQ(mw->metrics().cache_hits, 1u);
}

TEST_F(MiddlewareTest, ScalpelEDoesNotShareAcrossClients) {
  auto mw = MakeMiddleware(SystemMode::kScalpelE);
  (void)Query(mw.get(), 0, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  (void)Query(mw.get(), 1, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  EXPECT_EQ(mw->metrics().cache_hits, 0u);
  // But the same client still shares with itself across transactions.
  (void)Query(mw.get(), 1, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  EXPECT_EQ(mw->metrics().cache_hits, 1u);
}

TEST_F(MiddlewareTest, SecurityGroupsIsolateResults) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  (void)Query(mw.get(), 0, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'",
              /*group=*/1);
  // A client under a different policy must not consume the entry (Sec.
  // 5.2.1); its own remote read then re-tags the cached result.
  (void)Query(mw.get(), 1, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'",
              /*group=*/2);
  EXPECT_EQ(mw->metrics().cache_hits, 0u);
  EXPECT_GE(mw->metrics().cache_rejects, 1u);
  // Same group as the latest cached copy shares.
  (void)Query(mw.get(), 2, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'",
              /*group=*/2);
  EXPECT_EQ(mw->metrics().cache_hits, 1u);
}

TEST_F(MiddlewareTest, WriteInvalidatesViaSessionVersions) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  (void)Query(mw.get(), 0, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  // The same client updates the relation; its session must advance.
  (void)Query(mw.get(), 0,
              "UPDATE security SET s_num_out = 999 WHERE s_symb = 'S0_0'");
  ResultSet rs = Query(mw.get(), 0,
                       "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  EXPECT_EQ(rs.row(0)[0], Value::Int(999));  // not the stale cached 100
  EXPECT_EQ(mw->metrics().cache_hits, 0u);
  EXPECT_GE(mw->metrics().cache_rejects, 1u);
}

TEST_F(MiddlewareTest, OtherClientsMayStillReadOlderSnapshot) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  (void)Query(mw.get(), 0, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  (void)Query(mw.get(), 1,
              "UPDATE security SET s_num_out = 999 WHERE s_symb = 'S0_0'");
  // Client 2 never observed the newer state: session semantics allow the
  // older consistent snapshot (§5.2).
  ResultSet rs = Query(mw.get(), 2,
                       "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  EXPECT_EQ(rs.row(0)[0], Value::Int(100));
  EXPECT_EQ(mw->metrics().cache_hits, 1u);
}

TEST_F(MiddlewareTest, ConcurrentIdenticalQueriesCoalesce) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  OutcomeSink sink;
  obs::EventJournal journal;
  journal.AddSink(&sink);
  mw->AttachJournal(&journal);
  int completions = 0;
  for (int c = 0; c < 3; ++c) {
    mw->SubmitQuery(c, 0,
                    "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'",
                    [&](SimTime, const Result<ResultSet>& result) {
                      EXPECT_TRUE(result.ok());
                      EXPECT_EQ(result->row(0)[0], Value::Int(100));
                      ++completions;
                    });
  }
  events_.RunAll();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(mw->metrics().backend_coalesced, 2u);
  EXPECT_EQ(remote_.requests(), 1u);  // §5.1: submitted once
  // The leader read remotely; the others were answered from its flight,
  // recorded as the runtime records its coalesced followers.
  journal.Drain();
  EXPECT_EQ(sink.outcomes,
            (std::vector<obs::TraceOutcome>{
                obs::TraceOutcome::kRemotePlain,
                obs::TraceOutcome::kCoalescedHit,
                obs::TraceOutcome::kCoalescedHit}));
  // One kBackendCoalesced per waiter, as the runtime journals a follower:
  // `a` waiters parked before it, b = 0 (its session took the rows).
  ASSERT_EQ(sink.coalesced.size(), 2u);
  for (uint64_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sink.coalesced[i].client, i + 1);
    EXPECT_EQ(sink.coalesced[i].a, i);
    EXPECT_EQ(sink.coalesced[i].b, 0u);
    EXPECT_EQ(sink.coalesced[i].flags, obs::kJournalFlagOk);
  }
}

// A client that writes and then joins another client's read sent before
// the write must not be handed that read's pre-write rows (§5.2
// read-your-writes): it fetches afresh. Rows cost 1 ms each, so the join
// over 40 watch items is still on the wire when the point UPDATE lands.
TEST_F(MiddlewareTest, CoalescedWaiterRefetchesAfterItsOwnWrite) {
  net::LatencyModel slow = latency_;
  slow.db_per_row = 1000;
  RemoteDbServer remote(&events_, &db_, slow, 8);
  MiddlewareConfig config;
  config.mode = SystemMode::kLru;
  Middleware mw(&events_, &remote, slow, config);
  OutcomeSink sink;
  obs::EventJournal journal;
  journal.AddSink(&sink);
  mw.AttachJournal(&journal);
  const std::string kSum =
      "SELECT SUM(s_num_out) FROM security, watch_item WHERE s_symb = 'S0_0'";

  Result<ResultSet> leader = Status::Internal("unanswered");
  Result<ResultSet> writer = Status::Internal("unanswered");
  mw.SubmitQuery(0, 0, kSum, [&](SimTime, const Result<ResultSet>& r) {
    leader = r;
  });
  mw.SubmitQuery(
      1, 0, "UPDATE security SET s_num_out = 999 WHERE s_symb = 'S0_0'",
      [&](SimTime, const Result<ResultSet>& r) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        mw.SubmitQuery(1, 0, kSum, [&](SimTime, const Result<ResultSet>& r2) {
          writer = r2;
        });
      });
  events_.RunAll();

  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_EQ(leader->row(0)[0], Value::Int(4000));  // read before the write
  auto direct = db_.ExecuteText(kSum);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->result.row(0)[0], Value::Int(39960));
  EXPECT_EQ(*writer, direct->result);
  // It joined the flight, was refused its rows (b = 1) and fetched alone:
  // the wait saved nothing, so it is not counted as coalesced.
  journal.Drain();
  ASSERT_EQ(sink.coalesced.size(), 1u);
  EXPECT_EQ(sink.coalesced[0].client, 1u);
  EXPECT_EQ(sink.coalesced[0].b, 1u);
  EXPECT_EQ(mw.metrics().backend_coalesced, 0u);
  EXPECT_EQ(mw.metrics().remote_plain, 2u);
}

// A write that changes no row moves no relation's version: the writer's
// cached read stays current. SUM has no row-level footprint, so any
// version move would reject the entry.
TEST_F(MiddlewareTest, ZeroRowWriteKeepsTheWritersCachedRead) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  const std::string kSum =
      "SELECT SUM(s_num_out) FROM security WHERE s_symb = 'S0_0'";
  (void)Query(mw.get(), 0, kSum);
  (void)Query(mw.get(), 0,
              "UPDATE security SET s_num_out = 1 WHERE s_symb = 'nobody'");
  ResultSet rs = Query(mw.get(), 0, kSum);
  EXPECT_EQ(rs.row(0)[0], Value::Int(100));
  EXPECT_EQ(mw->metrics().cache_hits, 1u);
  EXPECT_EQ(mw->metrics().cache_rejects, 0u);
}

TEST_F(MiddlewareTest, ChronoLearnsLoopAndPrefetches) {
  auto mw = MakeMiddleware(SystemMode::kChrono);
  // Teach the pattern.
  RunLoopTransaction(mw.get(), 0, 0);
  RunLoopTransaction(mw.get(), 0, 1);
  uint64_t hits_before = mw->metrics().cache_hits;
  // Fresh watch list: the combined query must prefetch the whole loop.
  RunLoopTransaction(mw.get(), 0, 2);
  EXPECT_GT(mw->metrics().remote_combined, 0u);
  // All 8 security lookups of watch list 2 come from the cache.
  EXPECT_GE(mw->metrics().cache_hits - hits_before, 8u);
}

// A read parked on the combined query that covers it is answered by that
// plan: a prediction hit, not a cache hit, and a prefetched hit like the
// loop reads that hit what the plan cached — the runtime's definitions,
// since both drivers count outcomes from the request record.
TEST_F(MiddlewareTest, PlanAnsweredReadIsAPredictionHitNotACacheHit) {
  auto mw = MakeMiddleware(SystemMode::kChrono);
  RunLoopTransaction(mw.get(), 0, 0);
  RunLoopTransaction(mw.get(), 0, 1);
  const MiddlewareMetrics before = mw->metrics();
  RunLoopTransaction(mw.get(), 0, 2);
  const MiddlewareMetrics after = mw->metrics();
  ASSERT_EQ(after.remote_combined - before.remote_combined, 1u);
  EXPECT_EQ(after.prediction_hits - before.prediction_hits, 1u);
  EXPECT_EQ(after.cache_hits - before.cache_hits, 8u);
  EXPECT_EQ(after.prefetched_hits - before.prefetched_hits, 9u);
  EXPECT_EQ(after.errors, 0u);
}

// The simulator twin of the runtime test of the same name: a covering plan
// answers its trigger from its own slot. The trigger is an ORDER BY ...
// LIMIT read, and another client's write of its table executes after the
// plan and lands before it (rows cost 1 ms each, so the plan over two
// scans of the table is the slower call). The plan's entries are then
// behind the trigger's session, and no row-level rule covers ORDER BY ...
// LIMIT, so a re-lookup would reject the entry and pay a plain fetch.
TEST_F(MiddlewareTest, CoveringPlanAnswersItsTriggerDespiteAConcurrentWrite) {
  ASSERT_TRUE(db_.ExecuteText("CREATE TABLE t (id INT, v TEXT)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_.ExecuteText("INSERT INTO t (id, v) VALUES (" +
                                std::to_string(i) + ", 'v" +
                                std::to_string(i) + "')")
                    .ok());
  }
  net::LatencyModel slow = latency_;
  slow.db_per_row = 1000;
  RemoteDbServer remote(&events_, &db_, slow, 8);
  MiddlewareConfig config;
  config.mode = SystemMode::kChrono;
  config.extract_every = 2;
  Middleware mw(&events_, &remote, slow, config);
  auto driver = [](int bound) {
    return "SELECT id FROM t WHERE id < " + std::to_string(bound) +
           " ORDER BY id DESC LIMIT 1";
  };
  auto lookup = [](int id) {
    return "SELECT v FROM t WHERE id = " + std::to_string(id);
  };
  // Train driver -> lookup keyed by the driver's row; every driver text is
  // new, so it misses and fires the plan covering it once learned.
  for (int bound = 10; bound < 22; ++bound) {
    (void)Query(&mw, 1, driver(bound));
    (void)Query(&mw, 1, lookup(bound - 1));
  }
  ASSERT_GT(mw.metrics().prediction_hits, 0u);

  const MiddlewareMetrics before = mw.metrics();
  Result<ResultSet> answer = Status::Internal("unanswered");
  mw.SubmitQuery(1, 0, driver(40), [&](SimTime, const Result<ResultSet>& r) {
    answer = r;
  });
  events_.ScheduleAfter(kMicrosPerMilli, [&](SimTime) {
    mw.SubmitQuery(2, 0, "UPDATE t SET v = 'w39' WHERE id = 39",
                   [](SimTime, const Result<ResultSet>& r) {
                     EXPECT_TRUE(r.ok()) << r.status().ToString();
                   });
  });
  events_.RunAll();
  const MiddlewareMetrics after = mw.metrics();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(after.writes - before.writes, 1u);

  // The trigger's one backend call is the plan: no plain fetch, no
  // fallback.
  EXPECT_EQ(after.remote_combined - before.remote_combined, 1u);
  EXPECT_EQ(after.remote_plain - before.remote_plain, 0u);
  EXPECT_EQ(after.prediction_fallbacks - before.prediction_fallbacks, 0u);
  EXPECT_EQ(after.prediction_hits - before.prediction_hits, 1u);
  auto direct = db_.ExecuteText(driver(40));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*answer, direct->result);

  // The plan also installed the lookup of row 39 from before the write;
  // the writer's own next read must not be served that entry.
  ResultSet mine = Query(&mw, 2, lookup(39));
  ASSERT_EQ(mine.row_count(), 1u);
  EXPECT_EQ(mine.row(0)[0], Value::String("w39"));
}

TEST_F(MiddlewareTest, PrefetchedResultsMatchDirectExecution) {
  auto mw = MakeMiddleware(SystemMode::kChrono);
  RunLoopTransaction(mw.get(), 0, 0);
  RunLoopTransaction(mw.get(), 0, 1);
  // Loop over a fresh list; every response must equal direct DB output.
  ResultSet symbols = Query(
      mw.get(), 0, "SELECT wi_s_symb FROM watch_item WHERE wi_wl_id = 3");
  for (size_t i = 0; i < symbols.row_count(); ++i) {
    std::string q = "SELECT s_num_out FROM security WHERE s_symb = '" +
                    symbols.row(i)[0].AsString() + "'";
    ResultSet via_mw = Query(mw.get(), 0, q);
    auto direct = db_.ExecuteText(q);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(via_mw, direct->result) << q;
  }
}

TEST_F(MiddlewareTest, RedundancyCheckSuppressesRefiring) {
  auto mw = MakeMiddleware(SystemMode::kChrono);
  RunLoopTransaction(mw.get(), 0, 0);
  RunLoopTransaction(mw.get(), 0, 1);
  RunLoopTransaction(mw.get(), 0, 2);
  uint64_t combined_before = mw->metrics().remote_combined;
  // Re-running list 2 immediately: everything already cached (§5.1).
  RunLoopTransaction(mw.get(), 0, 2);
  EXPECT_GE(mw->metrics().redundant_skips, 1u);
  EXPECT_EQ(mw->metrics().remote_combined, combined_before);
}

TEST_F(MiddlewareTest, ApolloPrefetchesSequentially) {
  auto mw = MakeMiddleware(SystemMode::kApollo);
  RunLoopTransaction(mw.get(), 0, 0);
  RunLoopTransaction(mw.get(), 0, 1);
  RunLoopTransaction(mw.get(), 0, 2);
  EXPECT_EQ(mw->metrics().remote_combined, 0u);  // never combines
  EXPECT_GT(mw->metrics().sequential_prefetches, 0u);
}

// An Apollo read that coalesces onto another client's flight fires the
// graphs its miss made ready from its own model. Client 1 learns that
// `pair` takes one value from each of two reads; client 0 never read
// `left`. With shared keys client 1's `right` joins client 0's flight, and
// only client 1's model can bind `pair` once it lands.
TEST_F(MiddlewareTest, CoalescedApolloReadFiresItsGraphsUnderItsOwnClient) {
  for (const char* ddl :
       {"CREATE TABLE l (k INT, a INT)", "CREATE TABLE r (k INT, b INT)",
        "CREATE TABLE p (a INT, b INT, c INT)"}) {
    ASSERT_TRUE(db_.ExecuteText(ddl).ok()) << ddl;
  }
  for (int i = 0; i < 10; ++i) {
    const std::string a = std::to_string(100 + i);
    const std::string b = std::to_string(300 + i);
    ASSERT_TRUE(db_.ExecuteText("INSERT INTO l VALUES (" + std::to_string(i) +
                                ", " + a + ")")
                    .ok());
    ASSERT_TRUE(db_.ExecuteText("INSERT INTO r VALUES (" +
                                std::to_string(500 + i) + ", " + b + ")")
                    .ok());
    ASSERT_TRUE(db_.ExecuteText("INSERT INTO p VALUES (" + a + ", " + b +
                                ", " + std::to_string(i) + ")")
                    .ok());
  }
  auto left = [](int i) {
    return "SELECT a FROM l WHERE k = " + std::to_string(i);
  };
  auto right = [](int i) {
    return "SELECT b FROM r WHERE k = " + std::to_string(500 + i);
  };
  auto pair = [](int i) {
    return "SELECT c FROM p WHERE a = " + std::to_string(100 + i) +
           " AND b = " + std::to_string(300 + i);
  };
  MiddlewareConfig config;
  config.mode = SystemMode::kApollo;
  config.delta_t = 10 * kMicrosPerSecond;
  config.extract_every = 1;
  Middleware mw(&events_, &remote_, latency_, config);
  for (int i = 0; i < 6; ++i) {
    (void)Query(&mw, 1, left(i));
    (void)Query(&mw, 1, right(i));
    (void)Query(&mw, 1, pair(i));
  }
  ASSERT_GT(mw.TotalGraphs(), 0u);

  (void)Query(&mw, 1, left(8));
  const MiddlewareMetrics before = mw.metrics();
  int answered = 0;
  for (ClientId client : {0, 1}) {
    mw.SubmitQuery(client, 0, right(8),
                   [&](SimTime, const Result<ResultSet>& r) {
                     EXPECT_TRUE(r.ok()) << r.status().ToString();
                     ++answered;
                   });
  }
  events_.RunAll();
  ASSERT_EQ(answered, 2);
  EXPECT_EQ(mw.metrics().backend_coalesced - before.backend_coalesced, 1u);
  EXPECT_EQ(mw.metrics().sequential_prefetches - before.sequential_prefetches,
            1u);

  ResultSet c = Query(&mw, 1, pair(8));
  ASSERT_EQ(c.row_count(), 1u);
  EXPECT_EQ(c.row(0)[0], Value::Int(8));
  EXPECT_EQ(mw.metrics().cache_hits - before.cache_hits, 1u);
}

// Apollo's prediction reads never join the demand flight table, so two
// fires of one prediction before its read lands would send it twice. The
// client learned that `lookup` takes `root`'s value; two reads of one root,
// submitted together, share one flight, and each fires the graph when the
// flight answers it: the second finds the lookup on the wire.
TEST_F(MiddlewareTest, ApolloSendsAPredictedReadOnceWhileItIsOnTheWire) {
  for (const char* ddl :
       {"CREATE TABLE k (id INT, a INT)", "CREATE TABLE v (a INT, w INT)"}) {
    ASSERT_TRUE(db_.ExecuteText(ddl).ok()) << ddl;
  }
  for (int i = 0; i < 10; ++i) {
    const std::string a = std::to_string(100 + i);
    ASSERT_TRUE(db_.ExecuteText("INSERT INTO k VALUES (" + std::to_string(i) +
                                ", " + a + ")")
                    .ok());
    ASSERT_TRUE(db_.ExecuteText("INSERT INTO v VALUES (" + a + ", " +
                                std::to_string(i) + ")")
                    .ok());
  }
  auto root = [](int i) {
    return "SELECT a FROM k WHERE id = " + std::to_string(i);
  };
  auto lookup = [](int i) {
    return "SELECT w FROM v WHERE a = " + std::to_string(100 + i);
  };
  MiddlewareConfig config;
  config.mode = SystemMode::kApollo;
  config.extract_every = 1;
  Middleware mw(&events_, &remote_, latency_, config);
  for (int i = 0; i < 6; ++i) {
    (void)Query(&mw, 0, root(i));
    (void)Query(&mw, 0, lookup(i));
  }
  ASSERT_GT(mw.TotalGraphs(), 0u);

  const MiddlewareMetrics before = mw.metrics();
  const uint64_t sent_before = remote_.requests();
  int answered = 0;
  for (int copy = 0; copy < 2; ++copy) {
    mw.SubmitQuery(0, 0, root(8), [&](SimTime, const Result<ResultSet>& r) {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      ++answered;
    });
  }
  events_.RunAll();
  ASSERT_EQ(answered, 2);
  EXPECT_EQ(mw.metrics().backend_coalesced - before.backend_coalesced, 1u);
  // The root's read and one lookup.
  EXPECT_EQ(mw.metrics().sequential_prefetches - before.sequential_prefetches,
            1u);
  EXPECT_EQ(remote_.requests() - sent_before, 2u);

  ResultSet w = Query(&mw, 0, lookup(8));
  ASSERT_EQ(w.row_count(), 1u);
  EXPECT_EQ(w.row(0)[0], Value::Int(8));
  EXPECT_EQ(mw.metrics().cache_hits - before.cache_hits, 1u);
}

TEST_F(MiddlewareTest, LruModeNeverPredicts) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  RunLoopTransaction(mw.get(), 0, 0);
  RunLoopTransaction(mw.get(), 0, 1);
  RunLoopTransaction(mw.get(), 0, 2);
  EXPECT_EQ(mw->metrics().remote_combined, 0u);
  EXPECT_EQ(mw->metrics().sequential_prefetches, 0u);
  EXPECT_EQ(mw->TotalGraphs(), 0u);
}

// The mode alone picks the system: a node given kLru and nothing else
// learns nothing and predicts nothing.
TEST_F(MiddlewareTest, LruModeAloneSelectsLru) {
  MiddlewareConfig config;
  config.mode = SystemMode::kLru;
  Middleware mw(&events_, &remote_, latency_, config);
  RunLoopTransaction(&mw, 0, 0);
  RunLoopTransaction(&mw, 0, 1);
  RunLoopTransaction(&mw, 0, 2);
  EXPECT_EQ(mw.metrics().remote_combined, 0u);
  EXPECT_EQ(mw.metrics().sequential_prefetches, 0u);
  EXPECT_EQ(mw.TotalGraphs(), 0u);
}

TEST_F(MiddlewareTest, ParseErrorSurfacesToClient) {
  auto mw = MakeMiddleware(SystemMode::kChrono);
  bool got_error = false;
  mw->SubmitQuery(0, 0, "THIS IS NOT SQL",
                  [&](SimTime, const Result<ResultSet>& result) {
                    got_error = !result.ok();
                  });
  events_.RunAll();
  EXPECT_TRUE(got_error);
}

// retry.max_attempts = 1 is "no retry": a demand read whose backend call
// fails surfaces the error at once and counts it.
TEST_F(MiddlewareTest, OneAttemptSurfacesBackendFailuresUnretried) {
  net::FaultOptions faults;
  faults.error_pct = 100;  // every backend call fails
  net::FaultInjector injector(faults);
  remote_.SetFaultInjector(&injector);
  for (int attempts : {1, 3}) {
    SCOPED_TRACE(attempts);
    MiddlewareConfig config;
    config.mode = SystemMode::kLru;
    config.retry.max_attempts = attempts;
    Middleware mw(&events_, &remote_, latency_, config);
    bool failed = false;
    const std::string q =
        "SELECT s_num_out FROM security WHERE s_symb = 'S0_1'";
    mw.SubmitQuery(0, 0, q, [&](SimTime, const Result<ResultSet>& result) {
      failed = !result.ok();
    });
    events_.RunAll();
    EXPECT_TRUE(failed);
    EXPECT_EQ(mw.metrics().backend_retries,
              static_cast<uint64_t>(attempts - 1));
    EXPECT_EQ(mw.metrics().errors, 1u);
  }
  remote_.SetFaultInjector(nullptr);
}

TEST_F(MiddlewareTest, WriteReturnsWithoutCaching) {
  auto mw = MakeMiddleware(SystemMode::kChrono);
  (void)Query(mw.get(), 0,
              "UPDATE security SET s_num_out = 5 WHERE s_symb = 'S0_1'");
  EXPECT_EQ(mw->metrics().writes, 1u);
  EXPECT_EQ(mw->cache().entry_count(), 0u);
}

TEST_F(MiddlewareTest, MultiNodeKeysIsolateCaches) {
  MiddlewareConfig config;
  config.mode = SystemMode::kChrono;
  config.multi_node = true;
  config.node_id = 0;
  Middleware node0(&events_, &remote_, latency_, config);
  config.node_id = 1;
  Middleware node1(&events_, &remote_, latency_, config);

  (void)Query(&node0, 0, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  (void)Query(&node1, 1, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  // Separate caches: node1's read was a miss despite node0's entry.
  EXPECT_EQ(node1.metrics().cache_hits, 0u);
}

TEST_F(MiddlewareTest, TemplateCacheMemoizesAnalyzeQuery) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  const std::string q = "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'";
  (void)Query(mw.get(), 0, q);
  EXPECT_EQ(mw->template_cache_counters().misses, 1u);
  EXPECT_EQ(mw->template_cache_counters().hits, 0u);

  // Same text again: AnalyzeQuery is skipped even though the read itself
  // is answered from the edge cache.
  (void)Query(mw.get(), 0, q);
  EXPECT_EQ(mw->template_cache_counters().misses, 1u);
  EXPECT_EQ(mw->template_cache_counters().hits, 1u);

  // A different binding of the same template has the same literal-free
  // shape: a hit too.
  (void)Query(mw.get(), 0,
              "SELECT s_num_out FROM security WHERE s_symb = 'S0_1'");
  EXPECT_EQ(mw->template_cache_counters().misses, 1u);
  EXPECT_EQ(mw->template_cache_counters().hits, 2u);

  // A literal of another kind is another shape.
  (void)Query(mw.get(), 0,
              "SELECT s_num_out FROM security WHERE s_symb = 7");
  EXPECT_EQ(mw->template_cache_counters().misses, 2u);
  EXPECT_EQ(mw->template_cache_counters().hits, 2u);
}

TEST_F(MiddlewareTest, CombinedPredictionsUseAstHandoff) {
  auto mw = MakeMiddleware(SystemMode::kChrono);
  // Train the model on the Market-Watch loop, then trigger a predictive
  // combined query: it must reach the server as a pre-built AST.
  for (int round = 0; round < 6; ++round) {
    RunLoopTransaction(mw.get(), 0, round % 2);
  }
  ASSERT_GT(mw->metrics().remote_combined, 0u);
  EXPECT_GT(remote_.ast_handoffs(), 0u);
}

TEST_F(MiddlewareTest, ResponseLatencyIncludesWanOnMiss) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  SimTime start = events_.now();
  SimTime end = 0;
  mw->SubmitQuery(0, 0, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'",
                  [&](SimTime now, const Result<ResultSet>&) { end = now; });
  events_.RunAll();
  EXPECT_GE(end - start, latency_.wan_rtt);
}

TEST_F(MiddlewareTest, HitLatencyAvoidsWan) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  (void)Query(mw.get(), 0, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
  SimTime start = events_.now();
  SimTime end = 0;
  mw->SubmitQuery(0, 0, "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'",
                  [&](SimTime now, const Result<ResultSet>&) { end = now; });
  events_.RunAll();
  EXPECT_LT(end - start, latency_.wan_rtt / 2);
}

// §5.2.1 on the coalescing path: a demand miss never joins another
// security group's in-flight fetch — the in-flight key carries the group,
// as the runtime's single-flight key does — so two groups reading the same
// text at the same virtual instant each pay their own remote read.
TEST_F(MiddlewareTest, InflightCoalescingNeverCrossesSecurityGroups) {
  auto mw = MakeMiddleware(SystemMode::kLru);
  const std::string q = "SELECT s_num_out FROM security WHERE s_symb = 'S0_2'";
  int answered = 0;
  for (auto [client, group] : {std::pair{0, 1}, std::pair{1, 2}}) {
    mw->SubmitQuery(client, group, q,
                    [&](SimTime, const Result<ResultSet>& result) {
                      ASSERT_TRUE(result.ok()) << result.status().ToString();
                      ASSERT_EQ(result->row_count(), 1u);
                      EXPECT_EQ(result->row(0)[0], Value::Int(102));
                      ++answered;
                    });
  }
  events_.RunAll();
  EXPECT_EQ(answered, 2);
  EXPECT_EQ(mw->metrics().remote_plain, 2u);
  EXPECT_EQ(mw->metrics().backend_coalesced, 0u);
}

// The sim middleware exports the same metric shapes as the wall-clock
// server (DESIGN.md §9): counters mirror MiddlewareMetrics through
// pull-mode callbacks, and destruction unregisters them so a later
// snapshot never dereferences the dead middleware.
TEST_F(MiddlewareTest, RegisterMetricsMirrorsCountersIntoRegistry) {
  obs::MetricsRegistry registry;
  {
    auto mw = MakeMiddleware(SystemMode::kLru);
    mw->RegisterMetrics(&registry);
    (void)Query(mw.get(), 0,
                "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");
    (void)Query(mw.get(), 0,
                "SELECT s_num_out FROM security WHERE s_symb = 'S0_0'");

    obs::RegistrySnapshot snap = registry.Snapshot();
    const obs::MetricSnapshot* reads =
        snap.Find("chrono_requests_total", {{"op", "read"}});
    ASSERT_NE(reads, nullptr);
    EXPECT_DOUBLE_EQ(reads->value, static_cast<double>(mw->metrics().reads));
    EXPECT_DOUBLE_EQ(reads->value, 2.0);
    const obs::MetricSnapshot* hits =
        snap.Find("chrono_cache_hits_total", {{"cache", "result"}});
    ASSERT_NE(hits, nullptr);
    EXPECT_GE(hits->value, 1.0);  // the repeat query was an edge hit
    ASSERT_NE(snap.Find("chrono_cache_entries", {{"cache", "template"}}),
              nullptr);
    ASSERT_NE(snap.Find("chrono_result_cache_bytes"), nullptr);
  }
  // Middleware destroyed: callbacks must be unregistered, not dangling.
  obs::RegistrySnapshot after = registry.Snapshot();
  const obs::MetricSnapshot* reads =
      after.Find("chrono_requests_total", {{"op", "read"}});
  ASSERT_NE(reads, nullptr);
  EXPECT_DOUBLE_EQ(reads->value, 0.0);
}

}  // namespace
}  // namespace chrono::core
