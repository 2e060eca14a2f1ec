// Experiment E10a: bounded-buffer and one-slot-buffer throughput per mechanism under
// real threads. Validates the oracle on every measured run (a throughput number from a
// broken buffer would be meaningless), then prints items/second.
//
// Timing/repeats/JSON output come from the shared harness (bench/harness.h); pass
// --json=<path> for machine-readable results, --repeats/--warmup to control sampling.

#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "syneval/core/scorecard.h"
#include "syneval/problems/oracles.h"
#include "syneval/problems/workloads.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/perfetto.h"
#include "syneval/solutions/ccr_solutions.h"
#include "syneval/solutions/csp_solutions.h"
#include "syneval/solutions/monitor_solutions.h"
#include "syneval/solutions/pathexpr_solutions.h"
#include "syneval/solutions/semaphore_solutions.h"
#include "syneval/solutions/serializer_solutions.h"

namespace {

using namespace syneval;

struct Measured {
  double items_per_second = 0;
  std::string oracle;
};

// One repetition: returns elapsed seconds, records the oracle verdict (any repetition
// failing the oracle poisons the reported verdict — a fast broken buffer is worthless).
template <typename Buffer>
double RunBounded(int capacity, int producers, int consumers, int items,
                  std::string* oracle) {
  OsRuntime rt;
  TraceRecorder trace;
  Buffer buffer(rt, capacity);
  BufferWorkloadParams params;
  params.producers = producers;
  params.consumers = consumers;
  params.items_per_producer = items;
  params.work = 0;
  bench::Stopwatch watch;
  ThreadList threads = SpawnBoundedBufferWorkload(rt, buffer, trace, params);
  JoinAll(threads);
  const double seconds = watch.Seconds();
  const std::string verdict = CheckBoundedBuffer(trace.Events(), capacity);
  if (!verdict.empty()) {
    *oracle = verdict;
  }
  return seconds;
}

template <typename Buffer>
double RunOneSlot(int producers, int consumers, int items, std::string* oracle) {
  OsRuntime rt;
  TraceRecorder trace;
  Buffer buffer(rt);
  BufferWorkloadParams params;
  params.producers = producers;
  params.consumers = consumers;
  params.items_per_producer = items;
  params.work = 0;
  bench::Stopwatch watch;
  ThreadList threads = SpawnOneSlotBufferWorkload(rt, buffer, trace, params);
  JoinAll(threads);
  const double seconds = watch.Seconds();
  const std::string verdict = CheckOneSlotBuffer(trace.Events());
  if (!verdict.empty()) {
    *oracle = verdict;
  }
  return seconds;
}

template <typename Buffer>
Measured MeasureBounded(const bench::Options& options, int capacity, int producers,
                        int consumers, int items) {
  Measured measured;
  const bench::RepeatStats stats = bench::Repeat(options, [&] {
    return RunBounded<Buffer>(capacity, producers, consumers, items, &measured.oracle);
  });
  measured.items_per_second =
      static_cast<double>(producers) * items / stats.median_seconds;
  return measured;
}

template <typename Buffer>
Measured MeasureOneSlot(const bench::Options& options, int producers, int consumers,
                        int items) {
  Measured measured;
  const bench::RepeatStats stats = bench::Repeat(options, [&] {
    return RunOneSlot<Buffer>(producers, consumers, items, &measured.oracle);
  });
  measured.items_per_second =
      static_cast<double>(producers) * items / stats.median_seconds;
  return measured;
}

std::vector<std::string> Row(const char* name, const Measured& measured) {
  char rate[32];
  std::snprintf(rate, sizeof rate, "%.0f", measured.items_per_second);
  return {name, rate, measured.oracle.empty() ? "ok" : measured.oracle};
}

void Report(bench::Reporter& reporter, const char* mechanism, const char* problem,
            const Measured& measured) {
  reporter.Add(mechanism, problem, "throughput", measured.items_per_second, "items/s");
  reporter.Add(mechanism, problem, "oracle_ok", measured.oracle.empty() ? 1 : 0, "bool");
}

// --trace=<path>: one extra (untimed) monitor bounded-buffer pass with a flight
// recorder attached, exported as Chrome trace_event JSON for ui.perfetto.dev; the
// recorder's signal→wakeup pairs become the trace's flow arrows. Kept out of the
// measured runs.
void ExportSampleTrace(const std::string& path) {
  BufferWorkloadParams params;
  params.producers = 2;
  params.consumers = 2;
  params.items_per_producer = 200;
  params.work = 0;
  OsRuntime rt;
  // One ring per worker, first segment sized at eight events per item; rings grow
  // if the run records more.
  FlightRecorder flight(FlightRecorder::Options::ForWorkload(
      params.producers + params.consumers, 8 * params.items_per_producer));
  rt.AttachFlightRecorder(&flight);
  TraceRecorder trace;
  MonitorBoundedBuffer buffer(rt, 8);
  ThreadList threads = SpawnBoundedBufferWorkload(rt, buffer, trace, params);
  JoinAll(threads);
  ChromeTraceOptions trace_options;
  trace_options.process_name = "buffer_throughput";
  if (WriteChromeTrace(path, trace.Events(), &flight, nullptr, trace_options)) {
    std::printf("wrote Perfetto trace to %s (load at ui.perfetto.dev)\n", path.c_str());
  } else {
    std::printf("failed to write Perfetto trace to %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::ParseArgs(argc, argv, "buffer_throughput");
  bench::Reporter reporter(options);
  std::printf("=== E10a: buffer throughput per mechanism (OsRuntime, oracle-checked) ===\n\n");
  const int items = 4000;

  std::printf("Bounded buffer (capacity 8, 2 producers + 2 consumers, %d items each):\n",
              items);
  std::vector<std::string> header = {"mechanism", "items/s", "oracle"};
  std::vector<std::vector<std::string>> rows;
  {
    const char* problem = "bounded_buffer";
    Measured m;
    m = MeasureBounded<SemaphoreBoundedBuffer>(options, 8, 2, 2, items);
    rows.push_back(Row("semaphore", m));
    Report(reporter, "semaphore", problem, m);
    m = MeasureBounded<MonitorBoundedBuffer>(options, 8, 2, 2, items);
    rows.push_back(Row("monitor", m));
    Report(reporter, "monitor", problem, m);
    m = MeasureBounded<PathBoundedBuffer>(options, 8, 2, 2, items);
    rows.push_back(Row("path expression", m));
    Report(reporter, "path_expression", problem, m);
    m = MeasureBounded<SerializerBoundedBuffer>(options, 8, 2, 2, items);
    rows.push_back(Row("serializer", m));
    Report(reporter, "serializer", problem, m);
    m = MeasureBounded<CcrBoundedBuffer>(options, 8, 2, 2, items);
    rows.push_back(Row("cond region", m));
    Report(reporter, "cond_region", problem, m);
    m = MeasureBounded<CspBoundedBuffer>(options, 8, 2, 2, items);
    rows.push_back(Row("csp channels", m));
    Report(reporter, "csp_channels", problem, m);
  }
  std::printf("%s\n", syneval::RenderTable(header, rows).c_str());

  std::printf("One-slot buffer (1 producer + 1 consumer, %d items):\n", items);
  rows.clear();
  {
    const char* problem = "one_slot_buffer";
    Measured m;
    m = MeasureOneSlot<SemaphoreOneSlotBuffer>(options, 1, 1, items);
    rows.push_back(Row("semaphore", m));
    Report(reporter, "semaphore", problem, m);
    m = MeasureOneSlot<MonitorOneSlotBuffer>(options, 1, 1, items);
    rows.push_back(Row("monitor", m));
    Report(reporter, "monitor", problem, m);
    m = MeasureOneSlot<PathOneSlotBuffer>(options, 1, 1, items);
    rows.push_back(Row("path expression", m));
    Report(reporter, "path_expression", problem, m);
    m = MeasureOneSlot<SerializerOneSlotBuffer>(options, 1, 1, items);
    rows.push_back(Row("serializer", m));
    Report(reporter, "serializer", problem, m);
    m = MeasureOneSlot<CcrOneSlotBuffer>(options, 1, 1, items);
    rows.push_back(Row("cond region", m));
    Report(reporter, "cond_region", problem, m);
    m = MeasureOneSlot<CspOneSlotBuffer>(options, 1, 1, items);
    rows.push_back(Row("csp channels", m));
    Report(reporter, "csp_channels", problem, m);
  }
  std::printf("%s\n", syneval::RenderTable(header, rows).c_str());

  std::printf("Expected shape: the semaphore baseline is fastest, the higher-level\n"
              "mechanisms trade throughput for structure (Section 5.2's cost remark).\n");
  if (!options.trace_path.empty()) {
    ExportSampleTrace(options.trace_path);
  }
  return reporter.Finish() ? 0 : 1;
}
