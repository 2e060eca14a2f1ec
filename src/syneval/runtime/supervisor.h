// Trial supervisor: deadlines, reaping, crash capture, retries, and quarantine.
//
// Bloom's methodology only pays off at scale — hundreds of seeds × problems ×
// mechanisms × fault plans — and at that scale a single genuinely-hung OsRuntime trial
// (the very deadlocks the suite exists to provoke) or one crashed worker must not
// stall or forfeit the whole sweep. This module hardens the evaluation harness itself:
//
//   * One abort seam. A supervised trial is a plain TrialReport(seed) function that
//     registers its own abort and observe callbacks through TrialAbortScope once its
//     runtime exists. The supervisor installs a TrialAbortSlot for each call and
//     starts the one reaper thread: at the deadline it captures a live postmortem
//     through the slot, then force-unwinds the trial through it — for the canned
//     OsRuntime trial, AnomalyDetector::SetAborting followed by
//     OsRuntime::RequestAbort, so every blocked thread throws TrialAborted and unwinds
//     through RAII guards that no-op behind the Runtime::Aborting() seam.
//   * For cells that cannot be unwound cooperatively, an opt-in fork()-based process
//     sandbox runs the trial in a child process: the child installs a slot too and
//     publishes heartbeats and live postmortems observed through it into a
//     shared-memory ring (per-slot seqlock, so the parent can harvest a consistent
//     snapshot from a wedged child), converts SIGSEGV / SIGABRT / SIGBUS / SIGFPE /
//     SIGILL / std::terminate / escaping exceptions into a structured TrialCrash
//     record in shared memory, and the parent SIGKILLs it at the deadline — a reap no
//     in-process mechanism can refuse.
//   * One retry/quarantine policy. RunSupervisedSeed is the only attempt loop: it
//     retries catastrophic attempts (reaped or crashed) with exponential backoff.
//     CellQuarantine is the only quarantine counter. SuperviseSweep and the chaos row
//     wrapper (fault/chaos.h) both build on the two, so a cell whose trials keep dying
//     is quarantined — its completed seeds folded, the rest skipped, its last crash
//     and postmortem reported in quarantine.json — and a sweep with broken cells
//     still terminates with every healthy cell's outcome bit-identical to a clean run.
//
// The process-wide ActiveTrials() gauge also feeds the OsRuntime watchdog's
// load-adaptive poll threshold (os_runtime.h): trials register through
// ActiveTrialScope, and the stuck-wait threshold scales with how many run at once.
//
// docs/RESILIENCE.md covers the supervisor, the sandbox protocol, the checkpoint
// format (runtime/checkpoint.h), and the quarantine semantics.

#ifndef SYNEVAL_RUNTIME_SUPERVISOR_H_
#define SYNEVAL_RUNTIME_SUPERVISOR_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "syneval/runtime/explore.h"

namespace syneval {

class OsRuntime;

// ---- Process-wide active-trial gauge ------------------------------------------------

// Number of trials currently executing in this process (supervised trials and
// parallel-sweep chunks). Consumed by the OsRuntime watchdog's load-adaptive
// threshold. Never returns less than 1: the caller asking is itself doing work.
int ActiveTrials();

// RAII registration of one running trial in the ActiveTrials() gauge.
class ActiveTrialScope {
 public:
  ActiveTrialScope();
  ~ActiveTrialScope();
  ActiveTrialScope(const ActiveTrialScope&) = delete;
  ActiveTrialScope& operator=(const ActiveTrialScope&) = delete;
};

// ---- Supervised trials and the abort seam -----------------------------------------

// A live observation of a running (possibly hung) trial, published to the supervisor
// by the trial's observe callback: the flight-recorder postmortem as of now.
struct TrialObservation {
  std::string cause;  // Postmortem::cause ("" when there is nothing to explain yet).
  std::string text;   // Postmortem::ToText().
};

// Canned abortable OsRuntime trial: each call constructs a fresh abortable OsRuntime
// with an AnomalyDetector and a trial-sized FlightRecorder attached, registers its
// abort (detector SetAborting, then runtime RequestAbort) and observe callbacks
// through a TrialAbortScope, runs `body` (which returns the oracle verdict: empty =
// pass), and folds detector counts and a postmortem into the TrialReport. The seed is
// ignored; the body decides what varies.
std::function<TrialReport(std::uint64_t)> MakeSupervisableOsTrial(
    std::function<std::string(OsRuntime&)> body);

// The seam is a per-thread slot. RunSupervisedSeed installs a TrialAbortSlot on the
// thread that runs one trial call, and the trial's internals register their
// abort/observe callbacks into whatever slot their thread has installed via
// TrialAbortScope — from deep inside the call, once the runtime they abort exists.
// Unsupervised runs install no slot, making the scope a no-op — which is what keeps a
// supervised healthy cell bit-identical to an unsupervised sweep of it. The slot and
// the one reaper that fires through it live in supervisor.cc.
class TrialAbortSlot;

// RAII registration of the calling trial's abort/observe callbacks into the thread's
// installed slot (no-op when none is installed). Construct it after everything the
// callbacks capture; destruction synchronizes with any in-flight reaper call, so the
// captures stay valid for exactly the scope's lifetime.
class TrialAbortScope {
 public:
  TrialAbortScope(std::function<void()> abort, std::function<TrialObservation()> observe);
  ~TrialAbortScope();
  TrialAbortScope(const TrialAbortScope&) = delete;
  TrialAbortScope& operator=(const TrialAbortScope&) = delete;

 private:
  TrialAbortSlot* slot_;
};

// ---- Supervision policy and results -------------------------------------------------

struct SupervisorOptions {
  // Wall-clock budget per attempt; past it the reaper fires. Zero disables reaping
  // (the trial still gets crash capture and retries).
  std::chrono::milliseconds trial_deadline{2000};
  // Attempts per seed: catastrophic attempts (reaped or crashed) are retried up to
  // max_attempts - 1 times. A trial that merely fails its oracle is a *result*, not a
  // malfunction — it is never retried.
  int max_attempts = 2;
  // Sleep before retry k is retry_backoff × 2^(k-1).
  std::chrono::milliseconds retry_backoff{10};
  // A cell (SuperviseSweep) or chaos row is quarantined once this many seeds end
  // catastrophic (after their retries). Quarantining stops sweeping the cell; seeds
  // already folded are kept, the rest are skipped.
  int quarantine_after = 2;
  // Run each attempt in a fork()ed child (POSIX only; ignored where unavailable).
  bool sandbox = false;
  // Parent-side waitpid poll period and child-side heartbeat period in sandbox mode.
  std::chrono::milliseconds sandbox_poll{2};
};

// Structured record of a crashed attempt (sandbox: fatal signal or std::terminate;
// in-process: an exception that escaped the trial).
struct TrialCrash {
  bool crashed = false;
  int signal_number = 0;  // 0 when the crash was an exception / std::terminate.
  std::string what;       // "signal 11 (SIGSEGV)", exception message, exit status.
  std::string postmortem_cause;  // Latest complete postmortem harvested from the
  std::string postmortem;        // shared-memory ring (sandbox) or observe().
};

// Counters a supervised sweep aggregates; rendered as the schema-v4 `supervisor`
// object by the bench reporter.
struct SupervisorStats {
  int reaped = 0;       // Attempts force-unwound at the deadline.
  int crashed = 0;      // Attempts that died (signal, terminate, escaped exception).
  int retried = 0;      // Retry attempts performed.
  int quarantined = 0;  // Cells quarantined.
  SupervisorStats& operator+=(const SupervisorStats& other);
};

struct SupervisedTrialResult {
  TrialReport report;  // The final attempt's report (synthesized when catastrophic).
  bool reaped = false;
  bool crashed = false;
  int attempts = 1;
  TrialCrash crash;  // Populated when crashed.

  // A malfunction of the trial itself (vs. a legitimate oracle failure).
  bool Catastrophic() const { return reaped || crashed; }
};

// The one attempt loop: runs trial(seed) under the deadline and crash capture —
// in-process with the thread's TrialAbortSlot and reaper, or in a fork()ed child when
// options.sandbox — and retries catastrophic attempts with backoff. A TrialAborted
// escaping a reaped trial counts as the reap, not a crash. `stats` (nullable)
// accumulates reaped/crashed/retried. max_attempts = 1 supervises a single attempt.
SupervisedTrialResult RunSupervisedSeed(const std::function<TrialReport(std::uint64_t)>& trial,
                                        std::uint64_t seed,
                                        const SupervisorOptions& options,
                                        SupervisorStats* stats);

// ---- Cell-level supervision and quarantine ------------------------------------------

// The one quarantine counter: a cell's supervision verdict, folded seed by seed from
// RunSupervisedSeed's results. Not thread-safe; a caller recording from a worker pool
// guards it with its own mutex (fault/chaos.cc does).
struct CellQuarantine {
  bool quarantined = false;
  std::string quarantine_reason;      // "" unless quarantined.
  int catastrophic_seeds = 0;         // Seeds that ended catastrophic after retries.
  TrialCrash last_crash;              // Last catastrophic seed's crash record.
  std::string last_postmortem_cause;  // Last non-empty postmortem of a catastrophic
  std::string last_postmortem;        // seed (the trial's own, or the reaper's).
  SupervisorStats stats;

  // Folds one seed: `attempts` (what RunSupervisedSeed accumulated for it) into
  // `stats`, and a catastrophic result into the counter. The cell is quarantined once
  // max(1, quarantine_after) seeds ended catastrophic.
  void Record(const SupervisedTrialResult& seed, const SupervisorStats& attempts,
              int quarantine_after);
};

// One risky sweep cell: a (problem, mechanism[, fault]) point whose seeds are swept
// under supervision. `id` must be unique within the sweep (it keys quarantine.json).
struct SupervisedCell {
  std::string id;
  std::function<TrialReport(std::uint64_t)> trial;
};

struct SupervisedCellResult : CellQuarantine {
  std::string id;
  // Folded through the same sweep_internal accumulation as every other sweep, so a
  // healthy cell's outcome is bit-identical to an unsupervised sweep of it.
  SweepOutcome outcome;
  int completed_seeds = 0;  // Seeds folded before quarantine (== runs).
};

struct SupervisedSweepReport {
  std::vector<SupervisedCellResult> cells;  // In input cell order.
  SupervisorStats totals;

  int QuarantinedCells() const;

  // Merge of the non-quarantined cells' outcomes in cell order — the "remaining
  // seeds" aggregate, bit-identical to a clean sweep over the same cells.
  SweepOutcome MergedHealthyOutcome() const;

  // quarantine.json: every cell's verdict, with crash records and per-cell
  // postmortems for the quarantined ones.
  std::string QuarantineJson() const;

  // Writes QuarantineJson() atomically (write "<path>.tmp", rename). False on I/O
  // failure.
  bool WriteQuarantineFile(const std::string& path) const;
};

// Sweeps seeds base_seed .. base_seed + num_seeds - 1 over every cell under
// supervision, quarantining cells per `options.quarantine_after`. Cells run in input
// order, seeds in seed order (supervised cells are the risky minority — OsRuntime,
// chaos, soak — and their trials own real threads already; the deterministic bulk
// belongs in ParallelSweepSchedules).
SupervisedSweepReport SuperviseSweep(const std::vector<SupervisedCell>& cells,
                                     int num_seeds, std::uint64_t base_seed,
                                     const SupervisorOptions& options);

}  // namespace syneval

#endif  // SYNEVAL_RUNTIME_SUPERVISOR_H_
