// Shared pieces of the syneval benchmark: run configuration, verdict accounting,
// metric collection, item timing, bench-side tracing spans and small statistics.
//
// The benchmark drives the library only through its public entry points and measures
// each layer from outside: item times come from wrapping the callbacks the library
// invokes (trial functions, DPOR runners), and the traced run records one span per
// layer-boundary call from these files, never from inside the library.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "syneval/runtime/parallel_sweep.h"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test knobs (perfbench/selftest.py): a tiny input size, and a deliberately
  // wrong expected verdict that the correctness gate must catch.
  bool tiny = false;
  bool corrupt = false;
  std::string span_out;  // Traced run: where the spans are written.
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU of the whole process and its context switches (voluntary and
// involuntary), from getrusage.
double ProcessCpuSeconds();
std::int64_t ProcessContextSwitches();
// Peak resident memory in MB since the last ResetPeakRss(), which first returns the
// allocator's free memory to the system so every pass starts from the same floor.
double PeakRssMb();
void ResetPeakRss();

// Quantile with linear interpolation between closest ranks (q in [0, 1]); 0 for an
// empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Deterministic permutation of 0..n-1 from a seed.
std::vector<int> SeededOrder(int n, std::uint64_t seed);

// Correctness accounting: every verdict the workload checks is one attempted
// operation; a wrong verdict is a failed one.
class Verdicts {
 public:
  void Check(bool ok, const std::string& what);
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;  // First few, for the log.
};

// Named metrics with units, in insertion order of first Set().
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

// One bench-side span: a layer-boundary call. Spans of one trial, cell, row or series
// share `group` (the id of the outermost span of that unit).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t group = 0;
  const char* name = "";
  std::string label;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t count = 0;  // Work counted at the boundary (steps, executions, ops).
  int thread = 0;
};

// In-memory span store, written out once when the run ends.
class Tracer {
 public:
  std::uint64_t NewId();
  void Record(Span span);
  std::vector<Span> Snapshot() const;
  std::size_t size() const;
  // Chrome trace_event JSON (opens in Perfetto); false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
  std::uint64_t next_id_ = 0;  // Guarded by mu_.
};

// Small stable index of the calling thread (for span output).
int ThreadIndex();

// RAII span; a no-op when `tracer` is null (the untraced run).
class SpanScope {
 public:
  // `group` 0 makes this span the head of its own group.
  SpanScope(Tracer* tracer, const char* name, std::uint64_t parent, std::uint64_t group,
            std::string label = {});
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return span_.id; }
  std::uint64_t group() const { return span_.group; }
  void set_count(std::int64_t count) { span_.count = count; }

 private:
  Tracer* tracer_;
  Span span_;
};

// Time covered by `children` inside [start, end) (overlaps counted once).
std::int64_t CoveredNs(std::int64_t start, std::int64_t end,
                       std::vector<std::pair<std::int64_t, std::int64_t>> children);

// Durations of items (trials, executions, op batches) completed by any thread,
// collected from the callbacks the library invokes.
class ItemLog {
 public:
  void Add(double micros);
  std::vector<double> Take();

 private:
  std::mutex mu_;
  std::vector<double> micros_;  // Guarded by mu_.
};

// What one pass over a workload's fixed input measured.
struct PassResult {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> item_us;
  // Items completed: one per entry of item_us, except on ops, where an item is one
  // operation and item_us holds one per-operation mean per batch.
  long items = 0;
  std::int64_t context_switches = 0;
};

// Pool telemetry summed over the library's parallel sweeps of a pass.
struct PoolStats {
  double busy_s = 0;          // Σ time inside pool tasks.
  double capacity_s = 0;      // Σ jobs × sweep wall.
  double merge_s = 0;         // Σ (sweep wall − slowest worker wall).
  long steals = 0;
  std::vector<double> worker_wall_s;  // Summed per worker index.

  void AddSweep(int jobs, double wall_seconds,
                const std::vector<syneval::WorkerTelemetry>& workers);
  void Merge(const PoolStats& other);
};

// Pins the calling thread to one CPU that no other live CpuSlot holds, and restores its
// CPU mask when it goes. The threads a DetRuntime trial starts inherit the mask, so
// every handoff of the trial is a switch on one CPU: the pool's workers then run side
// by side without waking each other's threads across CPUs, whose cost on a shared
// host follows the host's load rather than the program. Slots are handed out in turn,
// so successive single slots visit every CPU. With more concurrent slots than CPUs,
// the extra ones leave their thread as it was.
class CpuSlot {
 public:
  CpuSlot();
  ~CpuSlot();

  CpuSlot(const CpuSlot&) = delete;
  CpuSlot& operator=(const CpuSlot&) = delete;

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

// The library's pool at the 4 workers the dpor and chaos workloads are sized for.
syneval::ParallelOptions PoolOptions();

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the input (suite, mechanisms) and warms up with one trial or execution per
  // case. Timed and repeated by the caller; must leave the workload ready for RunPass.
  // The library's pool starts and joins its threads on every sweep call, so the timed
  // passes pay that start too.
  virtual void Setup() = 0;
  // One pass over the fixed input, checking every verdict. `tracer` is null in the
  // untraced run.
  virtual PassResult RunPass(Tracer* tracer, Verdicts& verdicts) = 0;
  // After a traced pass: this workload's per-layer metrics.
  virtual void AddLayerMetrics(const std::vector<Span>& spans, Metrics& metrics) = 0;
  // Pool use of the last pass (empty for workloads that bypass the pool).
  virtual PoolStats pool() const { return {}; }
  // Deterministic counts of the last pass for the telemetry/anomaly layers.
  virtual void AddCounts(long& flight_evicted, long& postmortems, long& findings) const {
    (void)flight_evicted;
    (void)postmortems;
    (void)findings;
  }
  // JSON fragment ("key": value) with verdict rows for the golden comparison, or "".
  virtual std::string GoldenRowsJson() const { return ""; }
};

std::unique_ptr<Workload> MakeSweep(const Config& config);
std::unique_ptr<Workload> MakeDpor(const Config& config);
std::unique_ptr<Workload> MakeChaos(const Config& config);
std::unique_ptr<Workload> MakeOps(const Config& config);

// DetRuntime probes (runtime.det.*): yield-only step cost and empty-trial set-up.
void RunDetProbes(const Config& config, Metrics& metrics);

std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
