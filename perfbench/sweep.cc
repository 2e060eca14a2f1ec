// Workload `sweep`: every BuildConformanceSuite() case at workload_scale 1, each case's
// fixed seed range swept by ParallelSweepSchedules (the engine behind
// RunConformanceCase). A verdict is right when the case is AsExpected(). The seed range
// is fixed so every verdict is deterministic (a predicted violation must show inside
// it); the workload seed orders the cases.
//
// The sweeps take the library's serial path (one worker, the calling thread), and each
// pass and set-up runs pinned to one CPU, the next in turn. Every DetRuntime step hands
// control to another OS thread; on one CPU that thread is always ready to run there, so
// the vCPU never idles. With four pool workers, each pinned, the workers idled at the
// end of every case's sweep (about a tenth of the time), and on a shared host a vCPU
// that idles waits for the host to run it again: in a busy stretch a pass took 2.2x as
// long while its CPU time grew by a fifth, and /proc/stat counted up to 43% steal.

#include <functional>
#include <map>

#include "bench.h"
#include "syneval/core/conformance.h"
#include "syneval/runtime/parallel_sweep.h"

namespace perfbench {
namespace {

using syneval::ConformanceCase;
using syneval::ConformanceResult;
using syneval::ParallelSweepResult;
using syneval::TrialReport;

constexpr int kSeedsPerCase = 20;
constexpr int kTinySeedsPerCase = 8;

class SweepWorkload : public Workload {
 public:
  explicit SweepWorkload(const Config& config) : config_(config) {}

  void Setup() override {
    suite_ = syneval::BuildConformanceSuite(/*workload_scale=*/1);
    order_ = SeededOrder(static_cast<int>(suite_.size()), config_.seed);
    // Warm up with one trial of every case.
    const CpuSlot cpu;
    const std::function<TrialReport(std::uint64_t)> warm = [this](std::uint64_t i) {
      return suite_[static_cast<std::size_t>(i - 1)].trial(1);
    };
    syneval::ParallelSweepSchedules(static_cast<int>(suite_.size()), warm, 1, {});
  }

  PassResult RunPass(Tracer* tracer, Verdicts& verdicts) override {
    const int seeds = config_.tiny ? kTinySeedsPerCase : kSeedsPerCase;
    ItemLog items;
    anomalous_trials_ = 0;
    flight_evicted_ = 0;
    postmortems_ = 0;
    findings_ = 0;

    const CpuSlot cpu;
    const double cpu_start = ProcessCpuSeconds();
    const std::int64_t csw_start = ProcessContextSwitches();
    const std::int64_t start = NowNs();
    for (const int index : order_) {
      const ConformanceCase& spec = suite_[static_cast<std::size_t>(index)];
      SpanScope case_span(tracer, "core.conformance.case", 0, 0,
                          spec.problem + "/" + spec.display);
      const std::uint64_t parent = case_span.id();
      const std::uint64_t group = case_span.group();
      const std::function<TrialReport(std::uint64_t)> trial = [&](std::uint64_t seed) {
        SpanScope span(tracer, "core.conformance.trial", parent, group, spec.problem);
        const std::int64_t trial_start = NowNs();
        TrialReport report = spec.trial(seed);
        items.Add(static_cast<double>(NowNs() - trial_start) / 1e3);
        return report;
      };
      ParallelSweepResult sweep =
          syneval::ParallelSweepSchedules(seeds, trial, /*base_seed=*/1, {});

      ConformanceResult result;
      result.spec = spec;
      result.outcome = std::move(sweep.outcome);
      bool as_expected = result.AsExpected();
      if (config_.corrupt && index == 0) {
        as_expected = !as_expected;  // Deliberately wrong expectation (self-test).
      }
      verdicts.Check(as_expected, "sweep " + spec.problem + "/" + spec.display + ": " +
                                      result.outcome.Summary());
      anomalous_trials_ += static_cast<long>(result.outcome.anomalous_seeds.size());
      flight_evicted_ += static_cast<long>(result.outcome.flight_evicted);
      postmortems_ += result.outcome.postmortems_total;
      findings_ += result.outcome.anomalies.total();
    }
    PassResult pass;
    pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    pass.context_switches = ProcessContextSwitches() - csw_start;
    pass.item_us = items.Take();
    pass.items = static_cast<long>(pass.item_us.size());
    return pass;
  }

  void AddLayerMetrics(const std::vector<Span>& spans, Metrics& metrics) override {
    std::vector<double> all;
    std::map<std::string, std::vector<double>> by_problem;
    for (const ConformanceCase& spec : suite_) {
      by_problem[spec.problem];
    }
    for (const Span& span : spans) {
      if (std::string(span.name) != "core.conformance.trial") {
        continue;
      }
      const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      all.push_back(us);
      by_problem[span.label].push_back(us);
    }
    metrics.Set("core.conformance.trial_us_p50", Quantile(all, 0.5), "us");
    metrics.Set("core.conformance.trial_us_p99", Quantile(all, 0.99), "us");
    for (const auto& [problem, values] : by_problem) {
      metrics.Set("core.conformance.trial_us." + problem, Median(values), "us");
    }
    metrics.Set("core.conformance.anomalous_trials", static_cast<double>(anomalous_trials_),
                "count");
  }

  void AddCounts(long& flight_evicted, long& postmortems, long& findings) const override {
    flight_evicted += flight_evicted_;
    postmortems += postmortems_;
    findings += findings_;
  }

 private:
  const Config config_;
  std::vector<ConformanceCase> suite_;
  std::vector<int> order_;
  long anomalous_trials_ = 0;
  long flight_evicted_ = 0;
  long postmortems_ = 0;
  long findings_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSweep(const Config& config) {
  return std::make_unique<SweepWorkload>(config);
}

}  // namespace perfbench
