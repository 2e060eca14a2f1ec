// FaultInjector: deterministic replay of a FaultPlan through the Runtime seam.
//
// Both runtimes consult the injector (when one is attached via
// Runtime::AttachFaultInjector) at every synchronization site: lock acquisition
// (before and after), condition wait entry, and the two notify flavours. Decide()
// matches the site against the plan's specs, advances per-spec occurrence counters,
// draws from the plan-seeded RNG for probability triggers, and returns the first spec
// that fires — so at most one fault is injected per site visit.
//
// Every fired fault is recorded (kind, site, thread, timestamp) and mirrored into the
// attached telemetry as a kFaultFired flight event labelled "fault.<kind>" plus
// fault/* counters, so a Perfetto trace of a chaos run shows exactly what was injected
// where.
//
// Locking: the injector has its own leaf mutex. Decide() may be called with runtime
// scheduler locks held, so it must never call back into runtime or detector objects;
// timestamps are therefore passed *in* by the caller rather than read via
// Runtime::NowNanos(), and the only outward calls are to the MetricsRegistry and the
// FlightRecorder, which sit strictly later in the lock order.
//
// Determinism: under DetRuntime, sites are visited in schedule order, so
// (plan, schedule seed) fully determines the injection sequence. Under OsRuntime the
// occurrence counters race with real preemption and nth-triggers select a
// nondeterministic occurrence; probability triggers remain seed-reproducible only in
// distribution.

#ifndef SYNEVAL_FAULT_INJECTOR_H_
#define SYNEVAL_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <random>
#include <vector>

#include "syneval/fault/fault.h"

namespace syneval {

class Runtime;

// Result of one Decide() call. `fired` false means proceed normally; otherwise `kind`
// says what to do and `steps` carries the stall/delay length.
struct FaultDecision {
  bool fired = false;
  FaultKind kind = FaultKind::kDropSignal;
  std::uint64_t steps = 0;

  explicit operator bool() const { return fired; }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Called by Runtime::AttachFaultInjector; gives the injector access to the runtime's
  // telemetry attachments (never to its scheduler state).
  void BindRuntime(Runtime* runtime) { runtime_ = runtime; }

  // Consult the plan at `site`, visited by logical thread `thread` at `now_nanos`
  // (the caller's clock: scheduler steps × 1000 under DetRuntime, wall ns under OS).
  FaultDecision Decide(FaultSite site, std::uint32_t thread, std::uint64_t now_nanos);

  struct InjectedFault {
    FaultKind kind = FaultKind::kDropSignal;
    FaultSite site = FaultSite::kNotifyOne;
    std::uint32_t thread = 0;
    std::uint64_t now_nanos = 0;
  };

  // Everything that fired, in injection order.
  std::vector<InjectedFault> injected() const;
  int injected_count() const;
  int CountOf(FaultKind kind) const;

  // Timestamp of the first injection; 0 when nothing fired yet.
  std::uint64_t first_injection_nanos() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  struct SpecState {
    std::uint64_t occurrences = 0;  // Matching site visits seen so far.
    int fires = 0;                  // Times this spec fired.
  };

  FaultPlan plan_;
  Runtime* runtime_ = nullptr;

  mutable std::mutex mu_;
  std::mt19937_64 rng_;
  std::vector<SpecState> states_;
  std::vector<InjectedFault> injected_;
};

}  // namespace syneval

#endif  // SYNEVAL_FAULT_INJECTOR_H_
