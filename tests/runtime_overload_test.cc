// Overload-control tests (DESIGN.md §17): lane-split thread pool with
// strict demand priority, expiry-at-dequeue rejection, deterministic
// shutdown drain, the brownout ladder's hysteresis state machine, and the
// server-level expired-in-queue rejection path. Every transition here is
// deterministic — the brownout controller is driven sample-by-sample with
// no real clock, and pool ordering tests pin the single worker on a latch
// before releasing it. The CI ASan/TSan jobs run this file.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "runtime/brownout.h"
#include "runtime/server.h"
#include "runtime/thread_pool.h"

namespace chrono::runtime {
namespace {

using Lane = ThreadPool::Lane;
using Level = BrownoutController::Level;

/// Spins (bounded) until `pred` holds.
template <typename Pred>
bool WaitUntil(Pred pred, int timeout_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// Parks the pool's single worker until Release() — everything submitted
/// while parked sits in the lanes, so dequeue order is observable.
class WorkerLatch {
 public:
  void Park(ThreadPool* pool) {
    ASSERT_TRUE(pool->Submit([this] { future_.wait(); }));
  }
  void Release() { promise_.set_value(); }

 private:
  std::promise<void> promise_;
  std::shared_future<void> future_{promise_.get_future().share()};
};

// ---- Expiry at dequeue ---------------------------------------------------

TEST(ThreadPoolOverload, ExpiredInQueueRunsExpiredFnNotTask) {
  ThreadPool pool(1, 64);
  WorkerLatch latch;
  latch.Park(&pool);

  std::atomic<bool> ran{false}, expired{false};
  // Deadline already in the past when the worker eventually dequeues it.
  ASSERT_TRUE(pool.Submit([&] { ran = true; },
                          std::chrono::steady_clock::now() -
                              std::chrono::milliseconds(1),
                          [&] { expired = true; }));
  latch.Release();
  pool.Shutdown();
  EXPECT_FALSE(ran.load());
  EXPECT_TRUE(expired.load());
  EXPECT_EQ(pool.tasks_expired(), 1u);
}

TEST(ThreadPoolOverload, FutureDeadlineRunsTheTask) {
  ThreadPool pool(1, 64);
  std::atomic<bool> ran{false}, expired{false};
  ASSERT_TRUE(pool.Submit([&] { ran = true; },
                          std::chrono::steady_clock::now() +
                              std::chrono::minutes(10),
                          [&] { expired = true; }));
  pool.Shutdown();
  EXPECT_TRUE(ran.load());
  EXPECT_FALSE(expired.load());
  EXPECT_EQ(pool.tasks_expired(), 0u);
}

// ---- Strict demand priority ----------------------------------------------

TEST(ThreadPoolOverload, DemandRunsBeforeQueuedPrefetch) {
  ThreadPool pool(1, 64, /*prefetch_capacity=*/64);
  WorkerLatch latch;
  latch.Park(&pool);

  // Prefetch enqueued FIRST — under the old single-queue headroom
  // heuristic it would run first; with lanes, later demand overtakes it.
  std::vector<std::string> order;
  std::mutex order_mutex;
  auto record = [&](std::string tag) {
    return [&, tag = std::move(tag)] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    };
  };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.TrySubmit(Lane::kPrefetch, record("prefetch")));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.Submit(record("demand")));
  }
  latch.Release();
  // Wait for the full drain before Shutdown — Shutdown would discard any
  // prefetch still queued (that determinism is ShutdownDrains...'s test).
  ASSERT_TRUE(WaitUntil([&] { return pool.tasks_executed() >= 7; }));
  pool.Shutdown();

  ASSERT_EQ(order.size(), 6u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(order[i], "demand") << i;
  for (size_t i = 3; i < 6; ++i) EXPECT_EQ(order[i], "prefetch") << i;
}

TEST(ThreadPoolOverload, PrefetchLaneFullShedsWithoutBlocking) {
  ThreadPool pool(1, 64, /*prefetch_capacity=*/2);
  WorkerLatch latch;
  latch.Park(&pool);

  EXPECT_TRUE(pool.TrySubmit(Lane::kPrefetch, [] {}));
  EXPECT_TRUE(pool.TrySubmit(Lane::kPrefetch, [] {}));
  EXPECT_FALSE(pool.TrySubmit(Lane::kPrefetch, [] {}));  // lane full: shed
  EXPECT_EQ(pool.tasks_shed(), 1u);
  EXPECT_EQ(pool.lane_depth(Lane::kPrefetch), 2u);
  latch.Release();
  pool.Shutdown();
}

// ---- Deterministic shutdown drain ----------------------------------------

TEST(ThreadPoolOverload, ShutdownDrainsDemandAndDiscardsPrefetch) {
  ThreadPool pool(1, 64, /*prefetch_capacity=*/64);
  WorkerLatch latch;
  latch.Park(&pool);

  std::atomic<int> demand_ran{0}, expired_ran{0}, prefetch_ran{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.Submit([&] { ++demand_ran; }));
  }
  // Expired demand work still gets its completion during the drain — via
  // expired_fn, never silently dropped.
  ASSERT_TRUE(pool.Submit([&] { ++demand_ran; },
                          std::chrono::steady_clock::now() -
                              std::chrono::milliseconds(1),
                          [&] { ++expired_ran; }));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.TrySubmit(Lane::kPrefetch, [&] { ++prefetch_ran; }));
  }

  // Shutdown must drain every queued demand completion even though the
  // worker is still parked when it begins. Only release the worker once
  // Shutdown has actually started (it discards queued prefetch under the
  // lock), or the worker could legitimately drain the prefetch lane first.
  std::thread shutter([&] { pool.Shutdown(); });
  ASSERT_TRUE(WaitUntil([&] { return pool.shutting_down(); }));
  latch.Release();
  shutter.join();

  EXPECT_EQ(demand_ran.load(), 4);
  EXPECT_EQ(expired_ran.load(), 1);
  EXPECT_EQ(prefetch_ran.load(), 0);   // discarded, not run
  EXPECT_GE(pool.tasks_shed(), 3u);    // ... and counted
  EXPECT_FALSE(pool.Submit([] {}));    // rejected after shutdown
  EXPECT_TRUE(pool.shutting_down());
}

// ---- Brownout ladder state machine ---------------------------------------

BrownoutController::Options LadderOptions() {
  BrownoutController::Options options;
  options.queue_target_us = 1000;
  options.up_samples = 2;
  options.down_samples = 3;
  options.clear_ratio = 0.5;
  return options;
}

TEST(Brownout, DisabledControllerStaysNormal) {
  BrownoutController off(BrownoutController::Options{});
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(off.OnSample(1'000'000), Level::kNormal);
  }
}

TEST(Brownout, StepsUpOnlyAfterConsecutiveOverTargetSamples) {
  BrownoutController ctl(LadderOptions());
  EXPECT_EQ(ctl.OnSample(2000), Level::kNormal);        // over #1
  EXPECT_EQ(ctl.OnSample(400), Level::kNormal);         // clear: streak reset
  EXPECT_EQ(ctl.OnSample(2000), Level::kNormal);        // over #1 again
  EXPECT_EQ(ctl.OnSample(2000), Level::kShedPrefetch);  // over #2: step
  // Each further step needs its own consecutive streak.
  EXPECT_EQ(ctl.OnSample(2000), Level::kShedPrefetch);
  EXPECT_EQ(ctl.OnSample(2000), Level::kShedPipeline);
  EXPECT_EQ(ctl.OnSample(2000), Level::kShedPipeline);
  EXPECT_EQ(ctl.OnSample(2000), Level::kRejectQuery);
  // Ladder is capped at the top.
  EXPECT_EQ(ctl.OnSample(9000), Level::kRejectQuery);
  EXPECT_EQ(ctl.OnSample(9000), Level::kRejectQuery);
}

TEST(Brownout, HoldBandNeitherStepsUpNorDown) {
  BrownoutController ctl(LadderOptions());
  ctl.OnSample(2000);
  ASSERT_EQ(ctl.OnSample(2000), Level::kShedPrefetch);
  // In-band samples (>= clear_ratio*target, <= target) hold the level
  // forever — hysteresis damping.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ctl.OnSample(700), Level::kShedPrefetch) << i;
  }
}

TEST(Brownout, WalksBackDownAfterConsecutiveClearSamples) {
  BrownoutController ctl(LadderOptions());
  for (int i = 0; i < 4; ++i) ctl.OnSample(5000);
  ASSERT_EQ(ctl.level(), Level::kShedPipeline);
  EXPECT_EQ(ctl.OnSample(100), Level::kShedPipeline);  // clear #1
  EXPECT_EQ(ctl.OnSample(100), Level::kShedPipeline);  // clear #2
  EXPECT_EQ(ctl.OnSample(100), Level::kShedPrefetch);  // clear #3: step down
  // An in-band blip resets the clear streak.
  EXPECT_EQ(ctl.OnSample(100), Level::kShedPrefetch);
  EXPECT_EQ(ctl.OnSample(700), Level::kShedPrefetch);
  EXPECT_EQ(ctl.OnSample(100), Level::kShedPrefetch);
  EXPECT_EQ(ctl.OnSample(100), Level::kShedPrefetch);
  EXPECT_EQ(ctl.OnSample(100), Level::kNormal);
}

TEST(Brownout, TransitionListenerSeesEveryStep) {
  BrownoutController ctl(LadderOptions());
  struct Step {
    Level to, from;
    uint64_t p99;
  };
  std::vector<Step> steps;
  ctl.SetTransitionListener([&](Level to, Level from, uint64_t p99) {
    steps.push_back({to, from, p99});
  });
  for (int i = 0; i < 4; ++i) ctl.OnSample(3000);
  for (int i = 0; i < 6; ++i) ctl.OnSample(0);
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[0].to, Level::kShedPrefetch);
  EXPECT_EQ(steps[0].from, Level::kNormal);
  EXPECT_EQ(steps[0].p99, 3000u);
  EXPECT_EQ(steps[1].to, Level::kShedPipeline);
  EXPECT_EQ(steps[2].to, Level::kShedPrefetch);
  EXPECT_EQ(steps[2].from, Level::kShedPipeline);
  EXPECT_EQ(steps[3].to, Level::kNormal);
}

TEST(Brownout, RetryAfterScalesWithLevelAndClamps) {
  BrownoutController::Options options = LadderOptions();
  options.queue_target_us = 100'000;  // 100 ms target
  BrownoutController ctl(options);
  EXPECT_EQ(ctl.RetryAfterMs(), 100u);  // level 0: target itself
  ctl.OnSample(500'000);
  ctl.OnSample(500'000);
  EXPECT_EQ(ctl.RetryAfterMs(), 200u);  // level 1: doubled
  BrownoutController::Options tiny = LadderOptions();
  tiny.queue_target_us = 1;  // sub-ms target clamps to the 10 ms floor
  EXPECT_EQ(BrownoutController(tiny).RetryAfterMs(), 10u);
}

TEST(Brownout, WindowedPercentileIgnoresHistoryBeforeTheWindow) {
  obs::Histogram hist;
  for (int i = 0; i < 1000; ++i) hist.Record(10);  // old, fast samples
  obs::HistogramSnapshot prev = hist.Snapshot();
  for (int i = 0; i < 100; ++i) hist.Record(100'000);  // the slow window
  obs::HistogramSnapshot cur = hist.Snapshot();
  // Cumulative p99 would still be dominated by the 1000 old samples; the
  // windowed p99 must see only the slow ones.
  double p99 = obs::DeltaHistogram(cur, prev).Percentile(0.99);
  EXPECT_GT(p99, 50'000.0);
  // Empty window reads as fully clear.
  EXPECT_EQ(obs::DeltaHistogram(cur, cur).Percentile(0.99), 0.0);
}

// ---- Server-level expired-in-queue rejection ------------------------------

class OverloadServerTest : public ::testing::Test {
 protected:
  OverloadServerTest() {
    auto r = db_.ExecuteText("CREATE TABLE t (id INT, v TEXT)");
    EXPECT_TRUE(r.ok());
    for (int i = 0; i < 10; ++i) {
      auto ins = db_.ExecuteText("INSERT INTO t (id, v) VALUES (" +
                                 std::to_string(i) + ", 'x')");
      EXPECT_TRUE(ins.ok());
    }
  }

  db::Database db_;
  obs::MetricsRegistry registry_;
};

TEST_F(OverloadServerTest, ExpiredWhileQueuedIsRejectedNotExecuted) {
  ServerConfig config;
  config.workers = 1;
  config.registry = &registry_;
  config.db_latency_us = 20'000;  // each executed request holds the worker
  ChronoServer server(&db_, config);

  // Head-of-line requests monopolize the single worker long enough that a
  // 1 ms deadline on the tail request expires while it waits in queue.
  constexpr int kBlockers = 4;
  std::vector<std::future<Result<runtime::SharedResult>>> blockers;
  for (int i = 0; i < kBlockers; ++i) {
    blockers.push_back(server.Submit(/*client=*/1,
                                     "SELECT v FROM t WHERE id = 1"));
  }
  ChronoServer::Arrival arrival;
  arrival.arrived_us = server.NowMicros();
  arrival.enqueued_us = arrival.arrived_us;
  arrival.deadline_us = arrival.arrived_us + 1000;  // 1 ms budget
  std::promise<Status> done;
  server.SubmitAsync(
      /*client=*/1, "SELECT v FROM t WHERE id = 2", /*security_group=*/0,
      arrival,
      [&done](Result<runtime::SharedResult> result,
              std::shared_ptr<obs::RequestTrace>) {
        done.set_value(result.status());
      });

  for (auto& blocker : blockers) EXPECT_TRUE(blocker.get().ok());
  Status rejected = done.get_future().get();
  EXPECT_EQ(rejected.code(), Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(ChronoServer::IsExpiredInQueue(rejected));

  ServerMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.deadline_expired, 1u);
  EXPECT_EQ(server.pool().tasks_expired(), 1u);
  server.Shutdown();
}

TEST_F(OverloadServerTest, GenerousDeadlineExecutesNormally) {
  ServerConfig config;
  config.workers = 2;
  config.registry = &registry_;
  ChronoServer server(&db_, config);

  ChronoServer::Arrival arrival;
  arrival.arrived_us = server.NowMicros();
  arrival.enqueued_us = arrival.arrived_us;
  arrival.deadline_us = arrival.arrived_us + 10'000'000;  // 10 s
  std::promise<Status> done;
  server.SubmitAsync(
      /*client=*/1, "SELECT v FROM t WHERE id = 3", /*security_group=*/0,
      arrival,
      [&done](Result<runtime::SharedResult> result,
              std::shared_ptr<obs::RequestTrace>) {
        done.set_value(result.status());
      });
  EXPECT_TRUE(done.get_future().get().ok());
  EXPECT_EQ(server.metrics().deadline_expired, 0u);
  server.Shutdown();
}

TEST_F(OverloadServerTest, ClientDeadlineTimeoutsNeverTripTheBreaker) {
  // Zero injected faults and a healthy backend, but every client deadline
  // is shorter than the WAN: each call times out on the client's budget.
  // That is local budget exhaustion, not backend failure, so the breaker
  // (5 consecutive failures open it) must never leave closed.
  ServerConfig config;
  config.workers = 2;
  config.registry = &registry_;
  config.db_latency_us = 20'000;
  config.enable_learning = false;
  config.enable_combining = false;
  ChronoServer server(&db_, config);

  // A request that waits longer than its deadline in the pool queue (a
  // busy host) expires at dequeue and never reaches the backend.
  constexpr int kRequests = 10;
  uint64_t expired_in_queue = 0;
  for (int i = 0; i < kRequests; ++i) {
    ChronoServer::Arrival arrival;
    arrival.arrived_us = server.NowMicros();
    arrival.enqueued_us = arrival.arrived_us;
    arrival.deadline_us = arrival.arrived_us + 5'000;  // 5 ms < 20 ms
    std::promise<Status> done;
    server.SubmitAsync(
        /*client=*/1, "SELECT v FROM t WHERE id = " + std::to_string(i),
        /*security_group=*/0, arrival,
        [&done](Result<runtime::SharedResult> result,
                std::shared_ptr<obs::RequestTrace>) {
          done.set_value(result.status());
        });
    const Status status = done.get_future().get();
    EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
    if (ChronoServer::IsExpiredInQueue(status)) ++expired_in_queue;
  }
  EXPECT_EQ(server.breaker().state(), net::CircuitBreaker::State::kClosed);
  EXPECT_EQ(server.breaker().transitions(), 0u);
  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.breaker_rejects, 0u);
  // Every request that reached the backend timed out there.
  EXPECT_EQ(m.deadline_expired, expired_in_queue);
  EXPECT_EQ(m.backend_timeouts, kRequests - expired_in_queue);
  EXPECT_EQ(m.backend_retries, 0u);  // the client's time is gone
  server.Shutdown();
}

TEST_F(OverloadServerTest, BrownoutTransitionsAreJournaled) {
  ServerConfig config;
  config.workers = 1;
  config.registry = &registry_;
  config.queue_target_us = 1;        // any queue wait is over target
  config.brownout_sample_ms = 5;     // fast sampler for the test
  config.db_latency_us = 5'000;
  ChronoServer server(&db_, config);

  std::atomic<uint64_t> transitions{0};
  class CountSink : public obs::JournalSink {
   public:
    explicit CountSink(std::atomic<uint64_t>* transitions)
        : transitions_(transitions) {}
    void OnEvents(const obs::JournalEvent* events, size_t count) override {
      for (size_t i = 0; i < count; ++i) {
        if (events[i].type == obs::JournalEventType::kBrownoutTransition) {
          transitions_->fetch_add(1);
        }
      }
    }

   private:
    std::atomic<uint64_t>* transitions_;
  } sink(&transitions);
  ASSERT_NE(server.journal(), nullptr);
  server.journal()->AddSink(&sink);

  // Enough queued work that the sampler observes nonzero queue waits.
  constexpr int kBurst = 32;
  std::vector<std::future<Result<SharedResult>>> results;
  for (int i = 0; i < kBurst; ++i) {
    results.push_back(
        server.Submit(1, "SELECT v FROM t WHERE id = " +
                             std::to_string(i % 10)));
  }
  for (auto& r : results) (void)r.get();
  // The sampler needs a couple of windows to observe and step.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(5);
  while (server.brownout_level() == Level::kNormal &&
         std::chrono::steady_clock::now() < deadline) {
    (void)server.Submit(1, "SELECT v FROM t WHERE id = 1").get();
  }
  EXPECT_NE(server.brownout_level(), Level::kNormal);
  server.Shutdown();
  server.journal()->Stop();
  EXPECT_GT(transitions.load(), 0u);
}

}  // namespace
}  // namespace chrono::runtime
