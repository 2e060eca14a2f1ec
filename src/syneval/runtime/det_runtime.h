// DetRuntime: a deterministic, cooperatively scheduled Runtime.
//
// Exactly one managed thread executes at any time; at every scheduling point (mutex
// acquire/release, condition wait/notify, explicit Yield) control returns to a driver
// which asks a pluggable Schedule which runnable thread proceeds. Because mechanisms in
// this library synchronize exclusively through Runtime primitives, the set of scheduling
// points covers every synchronization-relevant interleaving, and a (schedule, seed) pair
// fully determines the execution — any behaviour found by schedule search is replayable.
//
// DetRuntime also detects deadlock (no runnable threads while some are blocked) and
// livelock (step-limit exceeded) and reports the wait-for state of every stuck thread.
// This is what lets the test suite *exhibit* the nested-monitor-call deadlock of
// [Lister 77] discussed in Sections 2 and 5.2 of the paper, rather than merely assert
// that it would happen.
//
// Execution model. A managed thread is a fiber, not an OS thread: every fiber of a
// runtime runs on the OS thread that calls Run() (the driver), which switches into the
// chosen fiber and gets control back when that fiber reaches its next scheduling
// point. A step is therefore two context switches in user space, with no OS thread
// creation or wakeup anywhere in a trial. On x86-64 a switch is a register switch that
// makes no syscall: it saves the callee-saved registers and the FP control words, so
// the rounding mode is per fiber. Other architectures use swapcontext, which also
// saves the signal mask with a syscall. Each fiber gets a 256 KiB stack mapped on its
// first step, whose lowest page is a PROT_NONE guard, so a managed thread that
// overflows its stack dies of SIGSEGV (a crash record under the supervisor's sandbox)
// instead of corrupting a neighbouring mapping. Finished fibers return their stacks to
// a cache of 16 per OS thread, which serves the next trial on that thread. Teardown
// (deadlock, step limit, abort, or destroying a runtime whose threads have not all
// finished) resumes each parked fiber in thread-id order; it unwinds with an internal
// exception inside its own stack.
//
// Consequences for managed code:
//   - Fibers share their driver's thread_locals. The ones the library keeps —
//     g_trial_capture (core/conformance.cc), g_trial_abort_slot (runtime/supervisor.cc)
//     and the metrics shard slot (telemetry/metrics.cc) — are per driver thread, which
//     is correct: they describe the trial, not a logical thread, and only one fiber
//     runs at a time. Code that wants per-logical-thread state uses
//     CurrentThreadId().
//   - Managed code must not reach a scheduling point inside a `catch` handler. The C++
//     runtime keeps its caught-exception stack per OS thread, so a fiber parked in a
//     handler would see another fiber's exceptions pushed onto it. Destructors that run
//     during unwinding may reach scheduling points: an exception in flight is not on
//     that stack until a handler catches it.
//   - The signal mask is per OS thread, not per fiber: on x86-64 a fiber that changed
//     it would change it for every fiber of its driver. Nothing in src/ changes it.
//   - The runtime must be destroyed on the thread that called Run().
//
// Usage:
//   DetRuntime rt(std::make_unique<RandomSchedule>(seed));
//   auto t1 = rt.StartThread("producer", [&] { ... });
//   auto t2 = rt.StartThread("consumer", [&] { ... });
//   DetRuntime::RunResult result = rt.Run();   // Drives until completion or deadlock.
//   ASSERT_TRUE(result.completed) << result.report;

#ifndef SYNEVAL_RUNTIME_DET_RUNTIME_H_
#define SYNEVAL_RUNTIME_DET_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "syneval/fault/injector.h"
#include "syneval/runtime/runtime.h"
#include "syneval/runtime/schedule.h"

namespace syneval {

class DetRuntime : public Runtime {
 public:
  struct Options {
    // Abort the run (reporting step_limit) after this many scheduling steps; guards
    // against livelocks and starvation loops in exploratory tests.
    std::uint64_t max_steps = 2'000'000;
    // Insert a preemption point before every mutex acquisition (more interleavings).
    bool preempt_before_lock = true;
    // Insert a preemption point after notify operations (more interleavings).
    bool preempt_after_notify = true;
    // Run AnomalyDetector::DiagnoseStuck() when the step limit aborts the run, not only
    // on deadlock. At the limit every *blocked* thread is parked at a scheduling point,
    // so classifying those is still sound; the runnable threads that kept the clock
    // advancing (a livelock, or an injected stall burning the budget) are simply not
    // classified. Off by default: an exploratory step limit is usually a test
    // configuration artifact, not an anomaly. The chaos harness turns it on so stall
    // faults — which hang nothing but starve every blocked peer — become detectable.
    bool diagnose_on_step_limit = false;
  };

  struct RunResult {
    bool completed = false;    // All threads ran to completion.
    bool deadlocked = false;   // Some threads remained blocked with none runnable.
    bool step_limit = false;   // Options::max_steps exceeded.
    bool aborted = false;      // RequestAbort() ended the run before completion.
    std::uint64_t steps = 0;   // Scheduling steps taken.
    std::string report;        // Human-readable diagnosis when !completed.
  };

  explicit DetRuntime(std::unique_ptr<Schedule> schedule);
  DetRuntime(std::unique_ptr<Schedule> schedule, Options options);
  ~DetRuntime() override;

  DetRuntime(const DetRuntime&) = delete;
  DetRuntime& operator=(const DetRuntime&) = delete;

  // Runtime interface ------------------------------------------------------------------
  std::unique_ptr<RtMutex> CreateMutex() override;
  std::unique_ptr<RtCondVar> CreateCondVar() override;
  std::unique_ptr<RtThread> StartThread(std::string name, std::function<void()> body) override;
  void Yield() override;
  std::uint32_t CurrentThreadId() override;
  std::uint64_t NowNanos() override;
  const char* name() const override { return "det"; }
  bool Aborting() const override;

  // Drives the schedule until every managed thread finished, deadlock, or step limit.
  // Must be called from an unmanaged thread, at most once; every managed thread runs
  // on the calling thread. Threads may still be started from inside managed threads
  // while running.
  RunResult Run();

  // Asks the driver to end the run at its next scheduling decision: the run reports
  // `aborted` with a stuck-thread diagnosis (every blocked thread is parked at a
  // scheduling point when the driver holds control, so the classification is as sound
  // as the deadlock path's) and tears the remaining threads down exactly as a deadlock
  // would. Safe from any thread, any time; a no-op after the run ended. The one thing
  // it cannot interrupt is a managed thread wedged in non-synchronizing compute —
  // the driver only regains control at scheduling points (the process sandbox in
  // runtime/supervisor.h covers that case).
  void RequestAbort();

 private:
  struct Tcb;
  class DetMutex;
  class DetCondVar;
  class DetThread;

  // Thrown inside managed threads to unwind them during post-deadlock teardown.
  struct AbortException {};

  // Entry point of every fiber; finds its Tcb through the current-thread slot.
  static void FiberMain() noexcept;

  // Driver side: runs `tcb`'s fiber (mapping its stack on the first call) until it
  // reaches a scheduling point or finishes.
  void Resume(Tcb* tcb);

  // Transfers control from the calling managed thread back to the driver, leaving the
  // thread in `state` (kReady for a yield, blocked states otherwise); returns once the
  // driver resumes it. Throws AbortException when resumed for teardown.
  void SwitchOut(Tcb* tcb, int state, const void* wait_object, std::string_view wait_desc);

  // The finished transition: releases the thread's self-lock and wakes its joiners.
  void FinishThread(Tcb* tcb);

  // Sets the abort flag and resumes every unfinished thread in id order so it unwinds.
  void UnwindThreads();

  // Marks a blocked thread runnable.
  void MakeReady(Tcb* tcb);

  // Consults the attached fault injector (if any) at `site` for the calling thread.
  // Never fires during teardown.
  FaultDecision Decide(Tcb* tcb, FaultSite site);

  // Marks every timed waiter whose virtual deadline has passed runnable.
  void WakeExpiredTimedWaiters();

  // Requires a managed calling thread; returns its Tcb.
  Tcb* CurrentTcbChecked() const;

  std::string BuildStuckReport(const char* reason);

  std::unique_ptr<Schedule> schedule_;
  Options options_;

  std::vector<std::unique_ptr<Tcb>> threads_;
  std::uint64_t step_ = 0;
  bool running_ = false;
  bool abort_ = false;
  // RequestAbort() fired; the driver acts at the next step. The only state another OS
  // thread (a supervisor's reaper) touches.
  std::atomic<bool> abort_requested_{false};
  bool ran_ = false;
};

}  // namespace syneval

#endif  // SYNEVAL_RUNTIME_DET_RUNTIME_H_
