// syneval_perfbench: measures one workload of the syneval benchmark and prints one JSON
// line for perfbench/run.py, which adds the golden-file checks and prints the result.
//
//   syneval_perfbench --workload=sweep|dpor|chaos|ops --seed=N --seconds=S --trace=0|1
//                     [--tiny] [--corrupt] [--span-out=PATH]
//
// Untraced (--trace=0): runs passes over the workload's fixed input until the next
// pass would overrun --seconds (at least one), setting the workload up once before
// each; setup_s is the median set-up. Every other figure is taken per pass,
// item percentiles included, and reported as the median over passes, so a disturbed
// pass cannot set a run's figure.
//
// Traced (--trace=1): an untraced and then a traced pass over the named workload's
// timed input (the untraced run's) give bench.trace.overhead_s, traced minus untraced
// wall time. Then one traced pass of every workload over its full input, plus the
// DetRuntime probes, so every per-layer metric is measured in every traced run. The
// spans of those passes are kept in memory and written to --span-out at the end.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"sweep", "dpor", "chaos", "ops"};

std::unique_ptr<Workload> Make(const std::string& name, const Config& config) {
  if (name == "sweep") {
    return MakeSweep(config);
  }
  if (name == "dpor") {
    return MakeDpor(config);
  }
  if (name == "chaos") {
    return MakeChaos(config);
  }
  if (name == "ops") {
    return MakeOps(config);
  }
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Config& config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--tiny") {
      config.tiny = true;
    } else if (key == "--corrupt") {
      config.corrupt = true;
    } else if (key == "--span-out") {
      config.span_out = value;
    } else {
      std::fprintf(stderr, "syneval_perfbench: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (config.seconds <= 0 || Make(config.workload, config) == nullptr) {
    std::fprintf(stderr, "syneval_perfbench: need --workload=sweep|dpor|chaos|ops and "
                         "--seconds > 0\n");
    return false;
  }
  return true;
}

double Timed(Workload& workload) {
  const std::int64_t start = NowNs();
  workload.Setup();
  return static_cast<double>(NowNs() - start) / 1e9;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) {
    if (!part.empty()) {
      out += ", " + part;
    }
  }
  return out;
}

void Untraced(const Config& config, Verdicts& verdicts, Metrics& metrics,
              std::vector<std::string>& golden, long& samples, long& passes) {
  const std::unique_ptr<Workload> workload = Make(config.workload, config);
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> rate;
  std::vector<double> rss_mb;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  samples = 0;
  const std::int64_t start = NowNs();
  while (true) {
    const std::int64_t iteration_start = NowNs();
    // Set-ups are spread over the run, not made all at its start: on a shared host the
    // time of one changes by about half from one stretch of seconds to the next.
    setup_s.push_back(Timed(*workload));
    ResetPeakRss();
    const PassResult pass = workload->RunPass(nullptr, verdicts);
    rss_mb.push_back(PeakRssMb());
    wall_s.push_back(pass.wall_s);
    cpu_s.push_back(pass.cpu_s);
    rate.push_back(pass.wall_s > 0 ? static_cast<double>(pass.items) / pass.wall_s : 0);
    p50_us.push_back(Quantile(pass.item_us, 0.5));
    p99_us.push_back(Quantile(pass.item_us, 0.99));
    samples += static_cast<long>(pass.item_us.size());
    const std::int64_t now = NowNs();
    const double elapsed = static_cast<double>(now - start) / 1e9;
    const double iteration = static_cast<double>(now - iteration_start) / 1e9;
    if (config.tiny || elapsed + iteration > config.seconds) {
      break;
    }
  }
  passes = static_cast<long>(wall_s.size());
  std::printf("%s: %ld pass(es), %ld item times; pass wall s:", config.workload.c_str(), passes,
              samples);
  for (const double wall : wall_s) {
    std::printf(" %.3f", wall);
  }
  std::printf("\n");
  metrics.Set("setup_s", Median(setup_s), "s");
  metrics.Set("wall_s", Median(wall_s), "s");
  metrics.Set("items_per_s", Median(rate), "1/s");
  metrics.Set("item_us_p50", Median(p50_us), "us");
  metrics.Set("item_us_p99", Median(p99_us), "us");
  metrics.Set("cpu_s", Median(cpu_s), "s");
  metrics.Set("peak_rss_mb", Median(rss_mb), "MB");
  golden.push_back(workload->GoldenRowsJson());
}

void Traced(const Config& config, Verdicts& verdicts, Metrics& metrics,
            std::vector<std::string>& golden, long& samples) {
  Config timed = config;
  timed.trace = false;
  const std::unique_ptr<Workload> named = Make(config.workload, timed);
  named->Setup();
  const double untraced_wall = named->RunPass(nullptr, verdicts).wall_s;
  Tracer overhead_tracer;
  const double traced_wall = named->RunPass(&overhead_tracer, verdicts).wall_s;

  Tracer tracer;
  PoolStats pool;
  std::int64_t det_csw = 0;
  long det_items = 0;
  long flight_evicted = 0;
  long postmortems = 0;
  long findings = 0;
  samples = 0;
  for (const char* name : kWorkloads) {
    const std::unique_ptr<Workload> workload = Make(name, config);
    workload->Setup();
    const PassResult pass = workload->RunPass(&tracer, verdicts);
    std::printf("traced %s: %.3f s, %ld items\n", name, pass.wall_s, pass.items);
    workload->AddLayerMetrics(tracer.Snapshot(), metrics);
    workload->AddCounts(flight_evicted, postmortems, findings);
    golden.push_back(workload->GoldenRowsJson());
    if (std::strcmp(name, "ops") != 0) {  // The DetRuntime workloads.
      pool.Merge(workload->pool());
      det_csw += pass.context_switches;
      det_items += static_cast<long>(pass.item_us.size());
    }
    if (config.workload == name) {
      samples = static_cast<long>(pass.item_us.size());
    }
  }
  RunDetProbes(config, metrics);
  metrics.Set("runtime.det.csw_per_item",
              det_items == 0 ? 0.0 : static_cast<double>(det_csw) / det_items, "count");

  double max_worker = 0;
  double min_worker = 0;
  for (std::size_t i = 0; i < pool.worker_wall_s.size(); ++i) {
    const double wall = pool.worker_wall_s[i];
    max_worker = i == 0 ? wall : std::max(max_worker, wall);
    min_worker = i == 0 ? wall : std::min(min_worker, wall);
  }
  metrics.Set("runtime.pool.busy_share", pool.capacity_s == 0 ? 0.0 : pool.busy_s / pool.capacity_s,
              "ratio");
  metrics.Set("runtime.pool.imbalance", min_worker == 0 ? 0.0 : max_worker / min_worker, "ratio");
  metrics.Set("runtime.pool.steals", static_cast<double>(pool.steals), "count");
  metrics.Set("runtime.pool.merge_s", pool.merge_s, "s");
  metrics.Set("telemetry.flight.evicted", static_cast<double>(flight_evicted), "count");
  metrics.Set("telemetry.postmortems", static_cast<double>(postmortems), "count");
  metrics.Set("anomaly.findings", static_cast<double>(findings), "count");
  metrics.Set("bench.trace.overhead_s", traced_wall - untraced_wall, "s");
  metrics.Set("bench.trace.spans", static_cast<double>(tracer.size()), "count");
  std::printf("tracing overhead on %s: traced %.3f s - untraced %.3f s = %.3f s\n",
              config.workload.c_str(), traced_wall, untraced_wall, traced_wall - untraced_wall);
  if (!config.span_out.empty()) {
    if (tracer.WriteChromeJson(config.span_out)) {
      std::printf("wrote %zu spans to %s\n", tracer.size(), config.span_out.c_str());
    } else {
      std::fprintf(stderr, "syneval_perfbench: cannot write spans to %s\n",
                   config.span_out.c_str());
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  if (!ParseArgs(argc, argv, config)) {
    return 2;
  }
  Verdicts verdicts;
  Metrics metrics;
  std::vector<std::string> golden;
  long samples = 0;
  long passes = 1;
  if (config.trace) {
    Traced(config, verdicts, metrics, golden, samples);
  } else {
    Untraced(config, verdicts, metrics, golden, samples, passes);
  }
  std::string failures = "[";
  for (std::size_t i = 0; i < verdicts.failures().size(); ++i) {
    failures += (i == 0 ? "" : ", ") + JsonString(verdicts.failures()[i]);
  }
  failures += "]";
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"passes\": %ld, "
              "\"item_samples\": %ld, \"failures\": %s, \"metrics\": %s%s}\n",
              verdicts.failed() == 0 ? "true" : "false", verdicts.attempted(), verdicts.failed(),
              passes, samples, failures.c_str(), metrics.ToJson().c_str(), Join(golden).c_str());
  return 0;
}
