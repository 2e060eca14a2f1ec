// DetRuntime probes for the runtime.det.* metrics, driven through DetRuntime's public
// API: the cost of one scheduling step when every thread only yields (1, 2, 4 and 8
// threads), and the cost of an empty trial — construct the runtime, start k threads
// with empty bodies, run and tear down.

#include <memory>

#include "bench.h"
#include "syneval/runtime/det_runtime.h"
#include "syneval/runtime/schedule.h"

namespace perfbench {
namespace {

using syneval::DetRuntime;

double YieldStepNs(int threads, int steps, std::uint64_t seed) {
  DetRuntime rt(syneval::MakeRandomSchedule(seed));
  const int per_thread = steps / threads;
  std::vector<std::unique_ptr<syneval::RtThread>> handles;
  for (int t = 0; t < threads; ++t) {
    handles.push_back(rt.StartThread("yielder", [&rt, per_thread] {
      for (int i = 0; i < per_thread; ++i) {
        rt.Yield();
      }
    }));
  }
  const std::int64_t start = NowNs();
  const DetRuntime::RunResult result = rt.Run();
  const std::int64_t elapsed = NowNs() - start;
  return result.steps == 0 ? 0.0
                           : static_cast<double>(elapsed) / static_cast<double>(result.steps);
}

double EmptyTrialUs(int threads, std::uint64_t seed) {
  const std::int64_t start = NowNs();
  {
    DetRuntime rt(syneval::MakeRandomSchedule(seed));
    std::vector<std::unique_ptr<syneval::RtThread>> handles;
    for (int t = 0; t < threads; ++t) {
      handles.push_back(rt.StartThread("empty", [] {}));
    }
    rt.Run();
  }
  return static_cast<double>(NowNs() - start) / 1e3;
}

}  // namespace

void RunDetProbes(const Config& config, Metrics& metrics) {
  const int steps = config.tiny ? 400 : 8000;
  const int repeats = config.tiny ? 1 : 3;
  const int trials = config.tiny ? 4 : 60;
  for (const int threads : {1, 2, 4, 8}) {
    std::vector<double> ns;
    for (int r = 0; r < repeats; ++r) {
      ns.push_back(YieldStepNs(threads, steps, config.seed + static_cast<std::uint64_t>(r)));
    }
    metrics.Set("runtime.det.step_ns.t" + std::to_string(threads), Median(ns), "ns");
  }
  for (const int threads : {2, 4}) {
    std::vector<double> us;
    for (int i = 0; i < trials; ++i) {
      us.push_back(EmptyTrialUs(threads, config.seed + static_cast<std::uint64_t>(i)));
    }
    metrics.Set("runtime.det.trial_setup_us.t" + std::to_string(threads), Median(us), "us");
  }
}

}  // namespace perfbench
