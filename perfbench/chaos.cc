// Workload `chaos`: BuildChaosSuite() × CalibrationFaultFamilies(), unsupervised, one
// ParallelSweepChaos call per row, at the calibration's plan seed (1) and schedule
// seeds 1–4, one seed per pool worker. Every trial (fault-on or fault-off) is one
// item, timed by wrapping the row's trial. The verdict of a row is the chaos_sweep
// gates: recall 1.0 on lost-signal rows with harmful runs, no fault-off false positive
// or failure, and every postmortem naming the injected family. The workload seed
// orders the rows.
//
// A stall row lasts as long as one trial that runs to the step limit, whatever the
// seed count, so a pass costs about one stall trial per case. The untraced run
// therefore sweeps one case of each mechanism (kTimedCases), so a pass lasts about
// three seconds and a run makes enough passes for their median to set aside a
// disturbed one. The traced run sweeps all twelve cases.

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>

#include "bench.h"
#include "syneval/fault/chaos.h"
#include "syneval/telemetry/telemetry.h"

namespace perfbench {
namespace {

using syneval::ChaosCase;
using syneval::ChaosFaultFamily;
using syneval::ChaosSweepOutcome;
using syneval::ChaosTrialOutcome;
using syneval::FaultPlan;

constexpr int kSeedsPerRow = 4;
constexpr std::uint64_t kBaseSeed = 1;
constexpr std::uint64_t kPlanSeed = 1;
// The cases of the untraced run (see the top of this file), by display name.
const char* const kTimedCases[] = {"Dijkstra bounded buffer", "region when has_item flips",
                                   "Readers-priority serializer", "Hoare alarm clock"};

struct RowRecord {
  std::string problem;
  std::string fault;
  ChaosSweepOutcome outcome;
  int cause_matched = 0;
};

class ChaosWorkload : public Workload {
 public:
  explicit ChaosWorkload(const Config& config) : config_(config) {}

  void Setup() override {
    suite_ = syneval::BuildChaosSuite(/*workload_scale=*/1);
    families_ = syneval::CalibrationFaultFamilies();
    plans_.clear();
    for (const ChaosFaultFamily& family : families_) {
      plans_.push_back(syneval::MustParseFaultPlan(family.plan_text, kPlanSeed));
    }
    if (!config_.trace) {
      std::erase_if(suite_, [](const ChaosCase& chaos_case) {
        return std::find(std::begin(kTimedCases), std::end(kTimedCases), chaos_case.display) ==
               std::end(kTimedCases);
      });
    }
    if (config_.tiny) {
      suite_.resize(2);
    }
    order_ = SeededOrder(static_cast<int>(suite_.size() * families_.size()), config_.seed);
    // Warm up with one fault-off trial of every case.
    const std::function<syneval::TrialReport(std::uint64_t)> warm = [this](std::uint64_t i) {
      const CpuSlot cpu;
      suite_[static_cast<std::size_t>(i - 1)].trial(1, nullptr);
      return syneval::TrialReport{};
    };
    syneval::ParallelSweepSchedules(static_cast<int>(suite_.size()), warm, 1,
                                    PoolOptions());
  }

  PassResult RunPass(Tracer* tracer, Verdicts& verdicts) override {
    const int seeds = config_.tiny ? 1 : kSeedsPerRow;
    ItemLog items;
    pool_ = {};
    rows_.clear();
    trials_.Reset();

    const double cpu_start = ProcessCpuSeconds();
    const std::int64_t csw_start = ProcessContextSwitches();
    const std::int64_t start = NowNs();
    for (const int row_index : order_) {
      const std::size_t index = static_cast<std::size_t>(row_index);
      const ChaosCase& chaos_case = suite_[index / families_.size()];
      const std::size_t f = index % families_.size();
      const ChaosFaultFamily& family = families_[f];
      SpanScope row_span(tracer, "fault.chaos.row", 0, 0,
                         chaos_case.problem + "/" + chaos_case.display + "/" + family.name);
      const std::uint64_t parent = row_span.id();
      const std::uint64_t group = row_span.group();
      const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)> trial =
          [&](std::uint64_t seed, const FaultPlan* plan) {
            SpanScope span(tracer, "fault.chaos.trial", parent, group,
                           plan == nullptr ? "fault-off" : family.name);
            const CpuSlot cpu;
            const std::int64_t trial_start = NowNs();
            ChaosTrialOutcome outcome = chaos_case.trial(seed, plan);
            const double us = static_cast<double>(NowNs() - trial_start) / 1e3;
            items.Add(us);
            span.set_count(static_cast<std::int64_t>(outcome.steps));
            trials_.Add(family.name, plan != nullptr, us, outcome);
            return outcome;
          };
      const syneval::ParallelChaosResult sweep =
          syneval::ParallelSweepChaos(seeds, trial, plans_[f], kBaseSeed, PoolOptions());
      pool_.AddSweep(sweep.jobs, sweep.wall_seconds, sweep.workers);
      RowRecord row{chaos_case.problem, family.name, sweep.outcome, 0};
      const bool flip = config_.corrupt && rows_.empty();
      verdicts.Check(Gates(row, family.name) != flip,
                     "chaos " + row.problem + "/" + chaos_case.display + " " + row.fault +
                         ": " + row.outcome.Summary());
      rows_.push_back(std::move(row));
    }
    PassResult pass;
    pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    pass.context_switches = ProcessContextSwitches() - csw_start;
    pass.item_us = items.Take();
    pass.items = static_cast<long>(pass.item_us.size());
    for (const double us : pass.item_us) {
      pool_.busy_s += us * 1e-6;
    }
    return pass;
  }

  void AddLayerMetrics(const std::vector<Span>& spans, Metrics& metrics) override {
    (void)spans;
    const TrialStats stats = trials_.Snapshot();
    int injected = 0;
    int harmful = 0;
    int false_positives = 0;
    int detected = 0;
    std::uint64_t detection_steps = 0;
    double recall_min = 1.0;
    for (const RowRecord& row : rows_) {
      injected += row.outcome.injected_runs;
      harmful += row.outcome.harmful;
      false_positives += row.outcome.clean_anomalies;
      detected += row.outcome.detected_harmful;
      detection_steps += row.outcome.detection_steps_total;
      if (row.outcome.harmful > 0) {
        recall_min = std::min(recall_min, row.outcome.Recall());
      }
    }
    metrics.Set("fault.chaos.trial_us.stall", Median(stats.fault_on_us.at("stall")), "us");
    metrics.Set("fault.chaos.trial_us.lost_signal", Median(stats.fault_on_us.at("lost-signal")),
                "us");
    metrics.Set("fault.chaos.ns_per_step",
                stats.steps == 0 ? 0.0 : stats.trial_us_total * 1e3 / stats.steps, "ns");
    metrics.Set("fault.chaos.steps", static_cast<double>(stats.steps), "count");
    metrics.Set("fault.chaos.injected_runs", injected, "count");
    metrics.Set("fault.chaos.harmful", harmful, "count");
    metrics.Set("fault.chaos.recall_min", recall_min, "ratio");
    metrics.Set("fault.chaos.false_positives", false_positives, "count");
    metrics.Set("fault.chaos.steps_to_detection",
                detected == 0 ? 0.0 : static_cast<double>(detection_steps) / detected, "steps");
  }

  PoolStats pool() const override { return pool_; }

  void AddCounts(long& flight_evicted, long& postmortems, long& findings) const override {
    for (const RowRecord& row : rows_) {
      flight_evicted += static_cast<long>(row.outcome.flight_evicted);
      postmortems += row.outcome.postmortems_total;
    }
    findings += trials_.Snapshot().findings;
  }

 private:
  struct TrialStats {
    std::map<std::string, std::vector<double>> fault_on_us{{"stall", {}}, {"lost-signal", {}}};
    double trial_us_total = 0;
    std::uint64_t steps = 0;
    long findings = 0;
  };

  // Per-trial accounting shared by the pool workers of a row's sweep.
  class TrialLog {
   public:
    void Add(const std::string& family, bool fault_on, double us,
             const ChaosTrialOutcome& outcome) {
      std::lock_guard<std::mutex> lock(mu_);
      if (fault_on) {
        stats_.fault_on_us[family].push_back(us);
      }
      stats_.trial_us_total += us;
      stats_.steps += outcome.steps;
      stats_.findings += outcome.anomalies;
    }
    TrialStats Snapshot() const {
      std::lock_guard<std::mutex> lock(mu_);
      return stats_;
    }
    void Reset() {
      std::lock_guard<std::mutex> lock(mu_);
      stats_ = {};
    }

   private:
    mutable std::mutex mu_;
    TrialStats stats_;  // Guarded by mu_.
  };

  // The chaos_sweep calibration gates for one row.
  static bool Gates(RowRecord& row, const std::string& family) {
    const ChaosSweepOutcome& o = row.outcome;
    int cause_total = 0;
    for (const auto& [cause, count] : o.postmortem_causes) {
      cause_total += count;
      if (cause == family) {
        row.cause_matched += count;
      }
    }
    bool ok = !(family == "lost-signal" && o.harmful > 0 && o.Recall() < 1.0);
    ok = ok && o.clean_anomalies == 0 && o.clean_failures == 0;
#if SYNEVAL_TELEMETRY_ENABLED
    ok = ok && row.cause_matched == cause_total;
#endif
    return ok;
  }

  const Config config_;
  std::vector<ChaosCase> suite_;
  std::vector<ChaosFaultFamily> families_;
  std::vector<FaultPlan> plans_;
  std::vector<int> order_;  // Row indices (case-major) in the order they run.
  std::vector<RowRecord> rows_;
  TrialLog trials_;
  PoolStats pool_;
};

}  // namespace

std::unique_ptr<Workload> MakeChaos(const Config& config) {
  return std::make_unique<ChaosWorkload>(config);
}

}  // namespace perfbench
