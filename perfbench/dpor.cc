// Workload `dpor`: BuildDporSuite() without the two rw-readers-priority cells, at
// default DporOptions, one cell per pool task (ExploreCell through the library's pool,
// exactly as ExploreDporSuite does). Every guided execution is one item, timed by
// wrapping DporCell::run. Correct cells must be proved with a reduction; each seeded
// bug's counterexample must be confirmed by ReplayDporCounterexample. run.py compares
// verdicts and execution counts with tests/golden/dpor_verdicts.json. The exploration
// is exhaustive, so the workload seed is unused.
//
// The untraced run leaves out the six largest cells (kTracedOnlyCells), which hold
// four fifths of the executions, so a pass lasts about three seconds and a run makes
// enough passes for their median to set aside a disturbed one. It keeps cells of the
// semaphore, serializer and conditional-region solutions and two seeded bugs. The
// traced run explores all 14 cells.

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>

#include "bench.h"
#include "syneval/analysis/dpor.h"

namespace perfbench {
namespace {

using syneval::DporCell;
using syneval::DporCellResult;
using syneval::DporOptions;
using syneval::DporRun;
using syneval::DporVerdict;

// The same judge as the syneval_dpor CLI: an independent replay must reproduce the
// claimed failure from nothing but the decision prefix.
bool ReplayConfirms(const std::string& reason, const syneval::DporReplay& replay) {
  if (replay.diverged) {
    return false;
  }
  if (reason == "deadlock") {
    return replay.deadlocked && replay.anomalies >= 1;
  }
  if (reason == "client-race") {
    return !replay.hb.races.empty();
  }
  if (reason == "uncertified-wakeup") {
    return !replay.hb.uncertified.empty();
  }
  if (reason == "oracle") {
    return !replay.oracle.empty();
  }
  return false;
}

std::string CellSlug(const DporCell& cell) {
  return std::string(syneval::MechanismName(cell.mechanism)) + "." + cell.problem +
         (cell.seeded_bug ? ".seeded-bug" : "");
}

// Explored only by the traced run (see the top of this file).
const char* const kTracedOnlyCells[] = {
    "monitor.bounded-buffer",   "monitor.dining",       "monitor.disk-scan",
    "semaphore.shared-counter", "serializer.disk-scan", "monitor.bounded-buffer.seeded-bug"};

struct CellRow {
  std::string display;
  bool seeded_bug = false;
  std::string verdict;
  std::uint64_t executions = 0;
  std::uint64_t naive_executions = 0;
  bool confirmed = false;

  bool operator==(const CellRow&) const = default;
};

class DporWorkload : public Workload {
 public:
  explicit DporWorkload(const Config& config) : config_(config) {}

  void Setup() override {
    cells_.clear();
    for (DporCell& cell : syneval::BuildDporSuite()) {
      const bool traced_only = std::find(std::begin(kTracedOnlyCells),
                                         std::end(kTracedOnlyCells),
                                         CellSlug(cell)) != std::end(kTracedOnlyCells);
      if (cell.problem != "rw-readers-priority" && (config_.trace || !traced_only)) {
        cells_.push_back(std::move(cell));
      }
    }
    // The self-test explores only the cells that finish in milliseconds.
    if (config_.tiny) {
      std::erase_if(cells_, [](const DporCell& cell) {
        return cell.display.find("Ordered-fork") == std::string::npos &&
               cell.display.find("CCR one-slot") == std::string::npos &&
               cell.display.find("Naive dining") == std::string::npos &&
               cell.display.find("Unguarded counter") == std::string::npos;
      });
    }
    // Warm up with one execution of every cell.
    const std::function<syneval::TrialReport(std::uint64_t)> warm =
        [this](std::uint64_t i) {
          const CpuSlot cpu;
          cells_[static_cast<std::size_t>(i - 1)].run({}, options_);
          return syneval::TrialReport{};
        };
    syneval::ParallelSweepSchedules(static_cast<int>(cells_.size()), warm, 1,
                                    PoolOptions());
  }

  PassResult RunPass(Tracer* tracer, Verdicts& verdicts) override {
    const std::size_t n = cells_.size();
    ItemLog items;
    std::vector<DporCellResult> results(n);
    std::vector<double> cell_seconds(n, 0.0);
    // Written by the pool task before ExploreCell, read by the runner wrapper that
    // ExploreCell calls on the same thread.
    std::vector<std::uint64_t> cell_span(n, 0);
    std::vector<std::uint64_t> cell_group(n, 0);
    std::atomic<long> evicted{0};
    std::atomic<long> findings{0};

    std::vector<DporCell> wrapped = cells_;
    for (std::size_t i = 0; i < n; ++i) {
      wrapped[i].run = [&, i, inner = cells_[i].run](const std::vector<std::uint32_t>& prefix,
                                                     const DporOptions& options) {
        SpanScope span(tracer, "analysis.dpor.execution", cell_span[i], cell_group[i]);
        const std::int64_t start = NowNs();
        DporRun run = inner(prefix, options);
        items.Add(static_cast<double>(NowNs() - start) / 1e3);
        span.set_count(static_cast<std::int64_t>(run.decisions.size()));
        evicted += static_cast<long>(run.evicted);
        findings += run.anomalies;
        return run;
      };
    }
    const std::function<syneval::TrialReport(std::uint64_t)> task = [&](std::uint64_t seed) {
      const std::size_t i = static_cast<std::size_t>(seed - 1);
      SpanScope span(tracer, "analysis.dpor.cell", 0, 0, CellSlug(cells_[i]));
      const CpuSlot cpu;
      cell_span[i] = span.id();
      cell_group[i] = span.group();
      const std::int64_t start = NowNs();
      results[i] = syneval::ExploreCell(wrapped[i], options_);
      cell_seconds[i] = static_cast<double>(NowNs() - start) / 1e9;
      span.set_count(static_cast<std::int64_t>(results[i].executions +
                                               results[i].naive_executions));
      return syneval::TrialReport{};
    };

    const double cpu_start = ProcessCpuSeconds();
    const std::int64_t csw_start = ProcessContextSwitches();
    const std::int64_t start = NowNs();
    const syneval::ParallelSweepResult sweep = syneval::ParallelSweepSchedules(
        static_cast<int>(n), task, /*base_seed=*/1, PoolOptions());
    std::vector<CellRow> rows;
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_back(Judge(cells_[i], results[i], i == 0 && config_.corrupt, verdicts));
    }
    PassResult pass;
    pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    pass.context_switches = ProcessContextSwitches() - csw_start;
    pass.item_us = items.Take();
    pass.items = static_cast<long>(pass.item_us.size());

    // Exhaustive exploration is deterministic: every pass must agree with the first.
    if (rows_.empty()) {
      rows_ = rows;
    } else {
      verdicts.Check(rows == rows_, "dpor: pass disagrees with the first pass");
    }
    pool_ = {};
    pool_.AddSweep(sweep.jobs, sweep.wall_seconds, sweep.workers);
    for (const double seconds : cell_seconds) {
      pool_.busy_s += seconds;
    }
    results_ = std::move(results);
    evicted_ = evicted.load();
    findings_ = findings.load();
    return pass;
  }

  void AddLayerMetrics(const std::vector<Span>& spans, Metrics& metrics) override {
    std::uint64_t executions = 0;
    std::uint64_t naive = 0;
    std::uint64_t transitions = 0;
    std::uint64_t redundant = 0;
    for (const DporCellResult& result : results_) {
      executions += result.executions;
      naive += result.naive_executions;
      transitions += result.transitions;
      redundant += result.redundant;
    }
    metrics.Set("analysis.dpor.executions", static_cast<double>(executions), "count");
    metrics.Set("analysis.dpor.naive_executions", static_cast<double>(naive), "count");
    metrics.Set("analysis.dpor.transitions", static_cast<double>(transitions), "count");
    metrics.Set("analysis.dpor.redundant_ratio",
                executions == 0 ? 0.0 : static_cast<double>(redundant) / executions, "ratio");
    metrics.Set("analysis.dpor.transitions_per_execution",
                executions == 0 ? 0.0 : static_cast<double>(transitions) / executions,
                "count");

    // Explorer self time: each cell span minus the runner spans it contains.
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> runs;
    std::vector<double> execution_us;
    for (const Span& span : spans) {
      if (std::string(span.name) == "analysis.dpor.execution") {
        runs[span.parent].push_back({span.start_ns, span.end_ns});
        execution_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
    metrics.Set("analysis.dpor.execution_us_p50", Quantile(execution_us, 0.5), "us");
    metrics.Set("analysis.dpor.execution_us_p99", Quantile(execution_us, 0.99), "us");
    double cell_ns = 0;
    double self_ns = 0;
    std::map<std::string, double> cell_seconds;
    for (const Span& span : spans) {
      if (std::string(span.name) != "analysis.dpor.cell") {
        continue;
      }
      const std::int64_t duration = span.end_ns - span.start_ns;
      cell_ns += static_cast<double>(duration);
      self_ns += static_cast<double>(
          duration - CoveredNs(span.start_ns, span.end_ns, std::move(runs[span.id])));
      cell_seconds[span.label] = static_cast<double>(duration) / 1e9;
    }
    for (const DporCell& cell : cells_) {
      metrics.Set("analysis.dpor.cell_s." + CellSlug(cell), cell_seconds[CellSlug(cell)], "s");
    }
    metrics.Set("analysis.dpor.explorer_self_share", cell_ns == 0 ? 0.0 : self_ns / cell_ns,
                "ratio");
  }

  PoolStats pool() const override { return pool_; }

  void AddCounts(long& flight_evicted, long& postmortems, long& findings) const override {
    (void)postmortems;
    flight_evicted += evicted_;
    findings += findings_;
  }

  std::string GoldenRowsJson() const override {
    std::string out = "\"dpor_cells\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const CellRow& row = rows_[i];
      out += (i == 0 ? "" : ", ") + std::string("{\"display\": ") + JsonString(row.display) +
             ", \"seeded_bug\": " + (row.seeded_bug ? "true" : "false") +
             ", \"verdict\": " + JsonString(row.verdict) +
             ", \"executions\": " + std::to_string(row.executions) +
             ", \"naive_executions\": " + std::to_string(row.naive_executions) +
             ", \"confirmed\": " + (row.confirmed ? "true" : "false") + "}";
    }
    return out + "]";
  }

 private:
  // Checks one cell's verdict the way syneval_dpor's self-validation does.
  CellRow Judge(const DporCell& cell, const DporCellResult& result, bool flip,
                Verdicts& verdicts) const {
    CellRow row;
    row.display = cell.display;
    row.seeded_bug = cell.seeded_bug;
    row.verdict = syneval::DporVerdictName(result.verdict);
    row.executions = result.executions;
    row.naive_executions = result.naive_executions;
    bool ok = false;
    if (cell.seeded_bug) {
      if (result.has_counterexample) {
        const syneval::DporReplay replay = syneval::ReplayDporCounterexample(
            cell, result.counterexample.prefix, options_);
        row.confirmed = ReplayConfirms(result.counterexample.reason, replay);
      }
      ok = result.verdict == DporVerdict::kCounterexample && row.confirmed;
    } else {
      ok = result.verdict == DporVerdict::kProvedDeadlockFree && result.reduction_ratio > 1.0;
    }
    if (flip) {
      ok = !ok;  // Deliberately wrong expectation (self-test).
    }
    verdicts.Check(ok, "dpor " + cell.display + ": " + row.verdict);
    return row;
  }

  const Config config_;
  const DporOptions options_{};
  std::vector<DporCell> cells_;
  std::vector<DporCellResult> results_;
  std::vector<CellRow> rows_;
  PoolStats pool_;
  long evicted_ = 0;
  long findings_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeDpor(const Config& config) {
  return std::make_unique<DporWorkload>(config);
}

}  // namespace perfbench
