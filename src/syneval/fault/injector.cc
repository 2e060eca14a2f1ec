#include "syneval/fault/injector.h"

#include <string>
#include <utility>

#include "syneval/runtime/runtime.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/metrics.h"

namespace syneval {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed), states_(plan_.specs.size()) {}

FaultDecision FaultInjector::Decide(FaultSite site, std::uint32_t thread,
                                    std::uint64_t now_nanos) {
  FaultDecision decision;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
      const FaultSpec& spec = plan_.specs[i];
      if ((spec.site_mask & SiteBit(site)) == 0) {
        continue;
      }
      if (spec.thread != 0 && spec.thread != thread) {
        continue;
      }
      SpecState& state = states_[i];
      ++state.occurrences;
      if (spec.max_fires != 0 && state.fires >= spec.max_fires) {
        continue;
      }
      bool fires = false;
      if (spec.trigger.nth > 0) {
        fires = state.occurrences == spec.trigger.nth;
      } else {
        // Draw exactly one variate per matching occurrence so the RNG stream — and
        // with it the whole injection sequence — is a function of visit order alone.
        std::uniform_real_distribution<double> uniform(0.0, 1.0);
        fires = uniform(rng_) < spec.trigger.probability;
      }
      if (!fires || decision.fired) {
        // Counters advance for every spec even once a fault was chosen this visit;
        // only the first firing spec wins (one fault per site visit).
        continue;
      }
      ++state.fires;
      decision.fired = true;
      decision.kind = spec.kind;
      decision.steps = spec.steps;
      injected_.push_back(InjectedFault{spec.kind, site, thread, now_nanos});
    }
  }
  if (decision.fired && runtime_ != nullptr) {
    // Telemetry sits after the injector in the lock order; emit outside mu_ so the
    // registry lock is a leaf here too.
    const std::string name = std::string("fault.") + FaultKindName(decision.kind);
    if (MetricsRegistry* metrics = runtime_->metrics()) {
      metrics->GetCounter("fault/injected_total").Add(1);
      metrics->GetCounter(name).Add(1);
    }
    if (FlightRecorder* flight = runtime_->flight_recorder()) {
      // arg = FaultKind so the postmortem can name the fault family even after the
      // label slot is evicted.
      flight->Record(thread, FlightEventType::kFaultFired, flight->InternLabel(name),
                     now_nanos, static_cast<std::uint64_t>(decision.kind));
    }
  }
  return decision;
}

std::vector<FaultInjector::InjectedFault> FaultInjector::injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_;
}

int FaultInjector::injected_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(injected_.size());
}

int FaultInjector::CountOf(FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  int count = 0;
  for (const InjectedFault& fault : injected_) {
    if (fault.kind == kind) {
      ++count;
    }
  }
  return count;
}

std::uint64_t FaultInjector::first_injection_nanos() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_.empty() ? 0 : injected_.front().now_nanos;
}

}  // namespace syneval
