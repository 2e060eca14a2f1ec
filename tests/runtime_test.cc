// DetRuntime semantics: exclusivity, determinism, blocking, deadlock detection,
// schedule strategies, interleaving exploration, and the fiber lifecycle.

#include <atomic>
#include <cfenv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "syneval/runtime/det_runtime.h"
#include "syneval/runtime/explore.h"
#include "syneval/fault/fault.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/runtime/parallel_sweep.h"
#include "syneval/runtime/schedule.h"

namespace syneval {
namespace {

TEST(DetRuntimeTest, RunsAllThreadsToCompletion) {
  DetRuntime rt(std::make_unique<RandomSchedule>(1));
  int a = 0;
  int b = 0;
  auto t1 = rt.StartThread("a", [&] { a = 1; });
  auto t2 = rt.StartThread("b", [&] { b = 2; });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_TRUE(result.completed) << result.report;
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(DetRuntimeTest, MutexProvidesMutualExclusion) {
  DetRuntime rt(std::make_unique<RandomSchedule>(7));
  auto mu = rt.CreateMutex();
  int counter = 0;
  auto body = [&] {
    for (int i = 0; i < 10; ++i) {
      RtLock lock(*mu);
      const int read = counter;
      rt.Yield();  // A preemption point inside the critical section.
      counter = read + 1;
    }
  };
  auto t1 = rt.StartThread("inc1", body);
  auto t2 = rt.StartThread("inc2", body);
  const DetRuntime::RunResult result = rt.Run();
  ASSERT_TRUE(result.completed) << result.report;
  EXPECT_EQ(counter, 20);
}

TEST(DetRuntimeTest, ExploresRacyInterleavings) {
  // Without a lock, a read-yield-write counter must lose updates on SOME schedule;
  // this shows the scheduler actually explores interleavings.
  auto trial = [](std::uint64_t seed) -> std::string {
    DetRuntime rt(std::make_unique<RandomSchedule>(seed));
    int counter = 0;
    auto body = [&] {
      for (int i = 0; i < 5; ++i) {
        const int read = counter;
        rt.Yield();
        counter = read + 1;
      }
    };
    auto t1 = rt.StartThread("r1", body);
    auto t2 = rt.StartThread("r2", body);
    const DetRuntime::RunResult result = rt.Run();
    if (!result.completed) {
      return result.report;
    }
    return counter == 10 ? "" : "lost update";
  };
  const SweepOutcome outcome = SweepSchedules(50, trial);
  EXPECT_GT(outcome.failures, 0) << "no schedule exhibited the race";
  EXPECT_GT(outcome.passes, 0) << "every schedule exhibited the race";
}

TEST(DetRuntimeTest, SameSeedIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    DetRuntime rt(std::make_unique<RandomSchedule>(seed));
    std::vector<int> order;
    auto mu = rt.CreateMutex();
    for (int i = 0; i < 4; ++i) {
      static_cast<void>(rt.StartThread("t" + std::to_string(i), [&rt, &order, &mu, i] {
        for (int k = 0; k < 3; ++k) {
          RtLock lock(*mu);
          order.push_back(i);
          rt.Yield();
        }
      }));
    }
    EXPECT_TRUE(rt.Run().completed);
    return order;
  };
  EXPECT_EQ(run(42), run(42));
  // And different seeds should (very likely) differ.
  EXPECT_NE(run(42), run(43));
}

TEST(DetRuntimeTest, CondVarHandshake) {
  DetRuntime rt(std::make_unique<RandomSchedule>(3));
  auto mu = rt.CreateMutex();
  auto cv = rt.CreateCondVar();
  bool ready = false;
  int seen = 0;
  auto consumer = rt.StartThread("consumer", [&] {
    RtLock lock(*mu);
    while (!ready) {
      cv->Wait(*mu);
    }
    seen = 1;
  });
  auto producer = rt.StartThread("producer", [&] {
    RtLock lock(*mu);
    ready = true;
    cv->NotifyOne();
  });
  ASSERT_TRUE(rt.Run().completed);
  EXPECT_EQ(seen, 1);
}

TEST(DetRuntimeTest, DetectsAbbaDeadlock) {
  DetRuntime::Options options;
  options.preempt_before_lock = true;
  DetRuntime rt(std::make_unique<ScriptedSchedule>(std::vector<std::uint32_t>{
                    1, 1, 2, 2, 1, 2, 1, 2, 1, 2}),
                options);
  auto a = rt.CreateMutex();
  auto b = rt.CreateMutex();
  auto t1 = rt.StartThread("ab", [&] {
    RtLock la(*a);
    rt.Yield();
    RtLock lb(*b);
  });
  auto t2 = rt.StartThread("ba", [&] {
    RtLock lb(*b);
    rt.Yield();
    RtLock la(*a);
  });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.deadlocked) << result.report;
  EXPECT_NE(result.report.find("ab"), std::string::npos) << result.report;
  EXPECT_NE(result.report.find("ba"), std::string::npos) << result.report;
}

TEST(DetRuntimeTest, DeadlockFoundBySweepToo) {
  auto trial = [](std::uint64_t seed) -> std::string {
    DetRuntime rt(std::make_unique<RandomSchedule>(seed));
    auto a = rt.CreateMutex();
    auto b = rt.CreateMutex();
    auto t1 = rt.StartThread("ab", [&] {
      RtLock la(*a);
      rt.Yield();
      RtLock lb(*b);
    });
    auto t2 = rt.StartThread("ba", [&] {
      RtLock lb(*b);
      rt.Yield();
      RtLock la(*a);
    });
    const DetRuntime::RunResult result = rt.Run();
    return result.completed ? "" : "deadlock";
  };
  const SweepOutcome outcome = SweepSchedules(60, trial);
  EXPECT_GT(outcome.failures, 0) << "ABBA deadlock never triggered across 60 schedules";
}

TEST(DetRuntimeTest, StepLimitCatchesLivelock) {
  DetRuntime::Options options;
  options.max_steps = 500;
  DetRuntime rt(std::make_unique<RandomSchedule>(1), options);
  auto spinner = rt.StartThread("spinner", [&] {
    while (true) {
      rt.Yield();
    }
  });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.step_limit) << result.report;
}

TEST(DetRuntimeTest, JoinBlocksUntilTargetFinishes) {
  DetRuntime rt(std::make_unique<RandomSchedule>(5));
  int stage = 0;
  auto worker = rt.StartThread("worker", [&] {
    rt.Yield();
    stage = 1;
  });
  RtThread* worker_raw = worker.get();
  auto waiter = rt.StartThread("waiter", [&, worker_raw] {
    worker_raw->Join();
    EXPECT_EQ(stage, 1);
    stage = 2;
  });
  ASSERT_TRUE(rt.Run().completed);
  EXPECT_EQ(stage, 2);
}

TEST(DetRuntimeTest, ThreadsCanSpawnThreads) {
  DetRuntime rt(std::make_unique<RandomSchedule>(9));
  int value = 0;
  auto parent = rt.StartThread("parent", [&] {
    auto child = rt.StartThread("child", [&] { value = 7; });
    child->Join();
    EXPECT_EQ(value, 7);
    value = 8;
  });
  ASSERT_TRUE(rt.Run().completed);
  EXPECT_EQ(value, 8);
}

TEST(DetRuntimeTest, NowNanosAdvancesWithSteps) {
  DetRuntime rt(std::make_unique<RandomSchedule>(1));
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  auto t = rt.StartThread("t", [&] {
    before = rt.NowNanos();
    rt.Yield();
    rt.Yield();
    after = rt.NowNanos();
  });
  ASSERT_TRUE(rt.Run().completed);
  EXPECT_GT(after, before);
}

TEST(ScheduleTest, RoundRobinCycles) {
  RoundRobinSchedule schedule;
  std::vector<SchedCandidate> candidates = {{1, 0}, {2, 0}, {3, 0}};
  EXPECT_EQ(candidates[schedule.Pick(candidates, 1)].thread_id, 1u);
  EXPECT_EQ(candidates[schedule.Pick(candidates, 2)].thread_id, 2u);
  EXPECT_EQ(candidates[schedule.Pick(candidates, 3)].thread_id, 3u);
  EXPECT_EQ(candidates[schedule.Pick(candidates, 4)].thread_id, 1u);  // Wraps.
}

TEST(ScheduleTest, FifoPicksLongestReady) {
  FifoSchedule schedule;
  std::vector<SchedCandidate> candidates = {{1, 30}, {2, 10}, {3, 20}};
  EXPECT_EQ(candidates[schedule.Pick(candidates, 1)].thread_id, 2u);
}

TEST(ScheduleTest, ScriptedFollowsScriptWithFallback) {
  ScriptedSchedule schedule({2, 9, 1});
  std::vector<SchedCandidate> candidates = {{1, 0}, {2, 0}};
  EXPECT_EQ(candidates[schedule.Pick(candidates, 1)].thread_id, 2u);
  // 9 is not runnable: skipped, then 1.
  EXPECT_EQ(candidates[schedule.Pick(candidates, 2)].thread_id, 1u);
  // Script exhausted: falls back to the first candidate.
  EXPECT_EQ(candidates[schedule.Pick(candidates, 3)].thread_id, 1u);
}

TEST(ScheduleTest, RandomIsSeedDeterministic) {
  RandomSchedule a(11);
  RandomSchedule b(11);
  std::vector<SchedCandidate> candidates = {{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Pick(candidates, static_cast<std::uint64_t>(i)),
              b.Pick(candidates, static_cast<std::uint64_t>(i)));
  }
}

TEST(DetRuntimeTest, PreemptionOptionsChangeInterleavings) {
  // With preemption points disabled, a critical section of two lock-free... rather:
  // the same racy program becomes much harder to break because the only scheduling
  // points left are explicit yields — and stays deterministic.
  auto run = [](bool preempt) {
    DetRuntime::Options options;
    options.preempt_before_lock = preempt;
    options.preempt_after_notify = preempt;
    DetRuntime rt(std::make_unique<RandomSchedule>(3), options);
    auto mu = rt.CreateMutex();
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
      static_cast<void>(rt.StartThread("t" + std::to_string(i), [&, i] {
        for (int k = 0; k < 2; ++k) {
          RtLock lock(*mu);
          order.push_back(i);
        }
      }));
    }
    EXPECT_TRUE(rt.Run().completed);
    return order;
  };
  // Both modes are deterministic per seed.
  EXPECT_EQ(run(true), run(true));
  EXPECT_EQ(run(false), run(false));
}

TEST(DetRuntimeTest, PctScheduleFindsRaceToo) {
  auto trial = [](std::uint64_t seed) -> std::string {
    DetRuntime rt(std::make_unique<PctSchedule>(seed, /*change_points=*/4,
                                                /*max_steps=*/200));
    int counter = 0;
    auto body = [&] {
      for (int i = 0; i < 5; ++i) {
        const int read = counter;
        rt.Yield();
        counter = read + 1;
      }
    };
    auto t1 = rt.StartThread("r1", body);
    auto t2 = rt.StartThread("r2", body);
    const DetRuntime::RunResult result = rt.Run();
    if (!result.completed) {
      return result.report;
    }
    return counter == 10 ? "" : "lost update";
  };
  const SweepOutcome outcome = SweepSchedules(50, trial);
  EXPECT_GT(outcome.failures, 0) << "PCT never exhibited the race";
}

TEST(DetRuntimeTest, CustomStepLimitIsRespected) {
  DetRuntime::Options options;
  options.max_steps = 25;
  DetRuntime rt(std::make_unique<FifoSchedule>(), options);
  auto spinner = rt.StartThread("spinner", [&] {
    while (true) {
      rt.Yield();
    }
  });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_TRUE(result.step_limit);
  EXPECT_LE(result.steps, 26u);
}

// ---- Fiber lifecycle ------------------------------------------------------------------

// Round-robin until `throw_at`, then throws out of Run() with every fiber still parked.
class ThrowingSchedule : public Schedule {
 public:
  explicit ThrowingSchedule(std::uint64_t throw_at) : throw_at_(throw_at) {}
  std::size_t Pick(const std::vector<SchedCandidate>& candidates, std::uint64_t step) override {
    if (step >= throw_at_) {
      throw std::runtime_error("schedule gave up");
    }
    return static_cast<std::size_t>(step) % candidates.size();
  }
  std::string Describe() const override { return "throwing"; }

 private:
  std::uint64_t throw_at_;
};

// Runs a callback when destroyed, i.e. also while an exception unwinds the thread.
struct OnExit {
  std::function<void()> fn;
  ~OnExit() { fn(); }
};

TEST(DetRuntimeFiberTest, DestroyingARuntimeWhoseThreadsNeverRanRunsNoBody) {
  int bodies = 0;
  {
    DetRuntime rt(std::make_unique<RandomSchedule>(1));
    std::vector<std::unique_ptr<RtThread>> threads;
    for (int i = 0; i < 3; ++i) {
      threads.push_back(rt.StartThread("idle", [&] { ++bodies; }));
    }
  }
  EXPECT_EQ(bodies, 0);
}

TEST(DetRuntimeFiberTest, DestroyingARuntimeMidRunUnwindsEveryParkedThread) {
  int started = 0;
  int unwound = 0;
  int finished = 0;
  {
    DetRuntime rt(std::make_unique<ThrowingSchedule>(8));
    std::vector<std::unique_ptr<RtThread>> threads;
    for (int i = 0; i < 3; ++i) {
      threads.push_back(rt.StartThread("worker", [&] {
        ++started;
        OnExit guard{[&] { ++unwound; }};
        for (int k = 0; k < 10; ++k) {
          rt.Yield();
        }
        ++finished;
      }));
    }
    EXPECT_THROW(rt.Run(), std::runtime_error);
  }
  EXPECT_GT(started, 0);
  EXPECT_EQ(unwound, started);
  EXPECT_EQ(finished, 0);
}

TEST(DetRuntimeFiberTest, ThreadsStartedInsideManagedThreadsRunOrAreBornFinished) {
  DetRuntime rt(std::make_unique<RandomSchedule>(3));
  auto mu = rt.CreateMutex();
  auto cv = rt.CreateCondVar();
  std::vector<std::unique_ptr<RtThread>> spawned;
  int leaves = 0;
  int late_bodies = 0;
  auto root = rt.StartThread("root", [&] {
    for (int i = 0; i < 2; ++i) {
      spawned.push_back(rt.StartThread("mid", [&] {
        auto leaf = rt.StartThread("leaf", [&] { ++leaves; });
        leaf->Join();
      }));
    }
    // Started while the deadlock teardown unwinds this thread: too late to run.
    OnExit late{[&] { spawned.push_back(rt.StartThread("late", [&] { ++late_bodies; })); }};
    RtLock lock(*mu);
    cv->Wait(*mu);  // Never notified.
  });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_TRUE(result.deadlocked) << result.report;
  EXPECT_EQ(leaves, 2);
  EXPECT_EQ(spawned.size(), 3u);
  EXPECT_EQ(late_bodies, 0);
}

TEST(DetRuntimeFiberTest, RequestAbortFromAForeignThreadEndsAYieldLoop) {
  DetRuntime::Options options;
  options.max_steps = std::numeric_limits<std::uint64_t>::max();
  DetRuntime rt(std::make_unique<RandomSchedule>(4), options);
  std::atomic<bool> spinning{false};
  std::vector<std::unique_ptr<RtThread>> threads;
  for (int i = 0; i < 2; ++i) {
    threads.push_back(rt.StartThread("spinner", [&] {
      spinning.store(true);
      while (true) {
        rt.Yield();
      }
    }));
  }
  std::thread aborter([&] {
    while (!spinning.load()) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    rt.RequestAbort();
  });
  const DetRuntime::RunResult result = rt.Run();
  aborter.join();
  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.completed);
  EXPECT_GT(result.steps, 0u);
}

// All fibers share their OS thread's C++ exception state. A thread unwinding from a
// kill may park in a destructor (here: NotifyAll's preempt_after_notify point) while a
// peer throws and catches; both must see their own exceptions, and the unwinding
// thread must resume with its exception still in flight.
TEST(DetRuntimeFiberTest, KilledThreadParksMidUnwindWhileAPeerThrowsAndCatches) {
  DetRuntime rt(std::make_unique<RoundRobinSchedule>());
  auto cv = rt.CreateCondVar();
  bool victim_unwinding = false;
  int in_flight_after_park = -1;
  bool victim_survived_kill = false;
  int caught = 0;
  int caught_during_unwind = 0;
  auto victim = rt.StartThread("victim", [&] {
    OnExit guard{[&] {
      victim_unwinding = true;
      cv->NotifyAll();  // A scheduling point, reached during unwinding.
      victim_unwinding = false;
      in_flight_after_park = std::uncaught_exceptions();
    }};
    rt.Yield();
    throw ThreadKilledFault{};
    victim_survived_kill = true;
  });
  auto peer = rt.StartThread("peer", [&] {
    for (int i = 0; i < 6; ++i) {
      const std::string expected = "peer " + std::to_string(i);
      try {
        throw std::runtime_error(expected);
      } catch (const std::runtime_error& e) {
        if (e.what() == expected) {
          ++caught;
          caught_during_unwind += victim_unwinding ? 1 : 0;
        }
      }
      rt.Yield();
    }
  });
  const DetRuntime::RunResult result = rt.Run();
  ASSERT_TRUE(result.completed) << result.report;
  EXPECT_FALSE(victim_survived_kill);
  EXPECT_EQ(caught, 6);
  EXPECT_GT(caught_during_unwind, 0) << "the peer never ran while the victim was parked";
  EXPECT_EQ(in_flight_after_park, 1);
}

// Each pool worker drives its own runtimes, so each uses its own stack cache; thread
// counts up to 21 per trial overflow the 16-stack cache, exercising the unmap path too.
TEST(DetRuntimeFiberTest, PoolWorkersDriveRuntimesConcurrently) {
  const std::function<std::string(std::uint64_t)> trial = [](std::uint64_t seed) {
    DetRuntime rt(MakeRandomSchedule(seed));
    auto mu = rt.CreateMutex();
    int counter = 0;
    const int threads = 2 + static_cast<int>(seed % 20);
    std::vector<std::unique_ptr<RtThread>> handles;
    for (int i = 0; i < threads; ++i) {
      handles.push_back(rt.StartThread("inc", [&] {
        for (int k = 0; k < 5; ++k) {
          RtLock lock(*mu);
          const int read = counter;
          rt.Yield();
          counter = read + 1;
        }
      }));
    }
    const DetRuntime::RunResult result = rt.Run();
    if (!result.completed) {
      return result.report;
    }
    return counter == threads * 5 ? std::string() : "lost update";
  };
  ParallelOptions serial;
  ParallelOptions pool;
  pool.jobs = 2;
  pool.chunk_seeds = 1;
  const ParallelSweepResult one = ParallelSweepSchedules(60, trial, 1, serial);
  const ParallelSweepResult two = ParallelSweepSchedules(60, trial, 1, pool);
  EXPECT_TRUE(one.outcome.AllPassed()) << one.outcome.first_failure;
  EXPECT_TRUE(two.outcome.AllPassed()) << two.outcome.first_failure;
  EXPECT_EQ(two.outcome.runs, 60);
  ASSERT_EQ(two.workers.size(), 2u);
  EXPECT_GT(two.workers[0].trials, 0);
  EXPECT_GT(two.workers[1].trials, 0);
}

// ---- What the context switch preserves -------------------------------------------------

// Round-robin, recording the rounding mode the driver sees at every decision.
class RoundingProbeSchedule : public Schedule {
 public:
  std::size_t Pick(const std::vector<SchedCandidate>& candidates, std::uint64_t step) override {
    if (fegetround() != FE_TONEAREST) {
      ++driver_saw_other_mode;
    }
    return inner_.Pick(candidates, step);
  }
  std::string Describe() const override { return "rounding-probe"; }

  int driver_saw_other_mode = 0;

 private:
  RoundRobinSchedule inner_;
};

// The FP control words belong to the context, as they did under swapcontext: a
// rounding mode one fiber sets stays invisible to its siblings and to the driver, and
// is still set when that fiber resumes.
TEST(DetRuntimeFiberTest, RoundingModeIsPerFiber) {
  auto owned = std::make_unique<RoundingProbeSchedule>();
  RoundingProbeSchedule* probe = owned.get();
  DetRuntime rt(std::move(owned));
  bool set = false;
  bool sibling_read = false;
  int sibling_mode = -1;
  int resumed_mode = -1;
  auto setter = rt.StartThread("setter", [&] {
    fesetround(FE_UPWARD);
    set = true;
    while (!sibling_read) {
      rt.Yield();
    }
    resumed_mode = fegetround();
  });
  auto sibling = rt.StartThread("sibling", [&] {
    while (!set) {
      rt.Yield();
    }
    sibling_mode = fegetround();
    sibling_read = true;
  });
  const DetRuntime::RunResult result = rt.Run();
  ASSERT_TRUE(result.completed) << result.report;
  EXPECT_EQ(sibling_mode, FE_TONEAREST);
  EXPECT_EQ(resumed_mode, FE_UPWARD);
  EXPECT_EQ(probe->driver_saw_other_mode, 0);
  EXPECT_EQ(fegetround(), FE_TONEAREST);
}

// A fiber's first step runs on its fresh entry frame. printf's SSE code and a 16-byte
// aligned local both rely on the alignment a call leaves, which that frame must copy.
TEST(DetRuntimeFiberTest, FirstStepRunsOnAnAlignedStack) {
  DetRuntime rt(std::make_unique<RoundRobinSchedule>());
  std::string formatted;
  std::uintptr_t misalignment = 1;
  auto first = rt.StartThread("first", [&] {
    alignas(16) char local[16];
    // Through a volatile, so the compiler cannot fold the check to the declared alignment.
    volatile std::uintptr_t address = reinterpret_cast<std::uintptr_t>(&local[0]);
    misalignment = address % 16;
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f", 2.5);
    formatted = buffer;
  });
  const DetRuntime::RunResult result = rt.Run();
  ASSERT_TRUE(result.completed) << result.report;
  EXPECT_EQ(misalignment, 0u);
  EXPECT_EQ(formatted, "2.500");
}

// Back-to-back runtimes on one thread reuse cached stacks, which still hold the frames
// (and, under ASan, the shadow) of their last fibers. Each runtime starts more fibers
// than the 16-stack cache holds and leaves one for the deadlock teardown to unwind.
TEST(DetRuntimeFiberTest, BackToBackRuntimesReuseCachedStacks) {
  for (std::uint64_t run = 1; run <= 64; ++run) {
    DetRuntime rt(MakeRandomSchedule(run));
    auto mu = rt.CreateMutex();
    auto cv = rt.CreateCondVar();
    int finished = 0;
    int unwound = 0;
    std::vector<std::unique_ptr<RtThread>> threads;
    for (int i = 0; i < 20; ++i) {
      threads.push_back(rt.StartThread("worker", [&, i] {
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "worker %d of run %llu", i,
                      static_cast<unsigned long long>(run));
        rt.Yield();
        finished += buffer[0] == 'w' ? 1 : 0;
      }));
    }
    threads.push_back(rt.StartThread("stuck", [&] {
      OnExit guard{[&] { ++unwound; }};
      RtLock lock(*mu);
      cv->Wait(*mu);  // Never notified.
    }));
    const DetRuntime::RunResult result = rt.Run();
    ASSERT_TRUE(result.deadlocked) << "run " << run << ": " << result.report;
    ASSERT_EQ(finished, 20) << "run " << run;
    ASSERT_EQ(unwound, 1) << "run " << run;
  }
}

TEST(SweepTest, OutcomeAggregatesCorrectly) {
  const SweepOutcome outcome = SweepSchedules(
      5, [](std::uint64_t seed) { return seed % 2 == 0 ? "even seed fails" : ""; },
      /*base_seed=*/1);
  EXPECT_EQ(outcome.runs, 5);
  EXPECT_EQ(outcome.failures, 2);  // Seeds 2 and 4.
  EXPECT_EQ(outcome.passes, 3);
  ASSERT_EQ(outcome.failing_seeds.size(), 2u);
  EXPECT_EQ(outcome.failing_seeds[0], 2u);
  EXPECT_DOUBLE_EQ(outcome.FailureRate(), 0.4);
  EXPECT_FALSE(outcome.AllPassed());
  EXPECT_NE(outcome.Summary().find("3/5"), std::string::npos);
}

// Regression: a trial that aborts (throws) mid-sweep must not desynchronize the rate
// denominators. Before the fix, the exception unwound out of SweepSchedules, losing the
// remaining seeds — FailureRate() and AnomalyRate() then described different subsets of
// the sweep depending on where the abort happened. Both must be fractions of `runs`,
// and `runs` must count every attempted seed.
TEST(SweepTest, AbortingTrialKeepsRateDenominatorsConsistent) {
  const SweepOutcome outcome = SweepSchedules(
      10,
      std::function<TrialReport(std::uint64_t)>([](std::uint64_t seed) {
        if (seed == 3) {
          throw std::runtime_error("workload wedged");  // Aborts, doesn't end the sweep.
        }
        TrialReport report;
        if (seed % 2 == 0) {
          report.anomalies.starvations = 1;  // Anomalous but passing trial.
        }
        return report;
      }),
      /*base_seed=*/1);
  EXPECT_EQ(outcome.runs, 10);  // Every seed attempted, abort included.
  EXPECT_EQ(outcome.failures, 1);
  EXPECT_EQ(outcome.passes, 9);
  ASSERT_EQ(outcome.failing_seeds.size(), 1u);
  EXPECT_EQ(outcome.failing_seeds[0], 3u);
  EXPECT_NE(outcome.first_failure.find("trial aborted: workload wedged"),
            std::string::npos);
  // Same denominator: 1 abort / 10 runs and 5 anomalous seeds / 10 runs.
  EXPECT_DOUBLE_EQ(outcome.FailureRate(), 0.1);
  EXPECT_DOUBLE_EQ(outcome.AnomalyRate(), 0.5);
}

TEST(OsRuntimeTest, BasicThreadingAndIds) {
  OsRuntime rt;
  auto mu = rt.CreateMutex();
  int counter = 0;
  std::vector<std::uint32_t> ids;
  std::vector<std::unique_ptr<RtThread>> threads;
  for (int i = 0; i < 4; ++i) {
    threads.push_back(rt.StartThread("t", [&] {
      for (int k = 0; k < 100; ++k) {
        RtLock lock(*mu);
        ++counter;
      }
      RtLock lock(*mu);
      ids.push_back(rt.CurrentThreadId());
    }));
  }
  for (auto& thread : threads) {
    thread->Join();
  }
  EXPECT_EQ(counter, 400);
  EXPECT_EQ(ids.size(), 4u);
  // Ids are distinct and nonzero.
  for (std::uint32_t id : ids) {
    EXPECT_NE(id, 0u);
  }
}

}  // namespace
}  // namespace syneval
