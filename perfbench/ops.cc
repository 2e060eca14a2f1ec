// Workload `ops`: closed-loop mechanism operations on OsRuntime in the E7
// configuration (MetricsRegistry and FlightRecorder attached). The timed pass runs
// uncontended read, write and bounded-buffer round trip on the solutions
// mechanism_overhead measures. Each (mechanism, op) series gets a fresh runtime,
// registry and recorder, and the series order is reshuffled every round, so no series
// inherits state or position from another. The workload seed only orders the series.
// Each timed pass runs pinned to the next CPU in turn: on a shared host one vCPU can
// run 10-30% slower than another for minutes, so a run samples all of them alike
// instead of following the one its thread happens to stay on.
// An item is one operation. Operations are timed in batches, so clock reads do not
// dominate a ~300 ns operation, and each batch gives one item time: its mean.
//
// The traced pass then runs the series that hand off between threads (CSP server
// round trips, contended reads at 2 and 4 threads on semaphore, monitor and
// serializer) and climbs the cost ladder on the semaphore solutions: std::mutex floor,
// bare OsRuntime, then + MetricsRegistry, + FlightRecorder, + AnomalyDetector,
// + FaultInjector with an empty plan, each rung a fresh series.

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "bench.h"
#include "syneval/anomaly/detector.h"
#include "syneval/fault/injector.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/solutions/ccr_solutions.h"
#include "syneval/solutions/csp_solutions.h"
#include "syneval/solutions/monitor_solutions.h"
#include "syneval/solutions/pathexpr_solutions.h"
#include "syneval/solutions/semaphore_solutions.h"
#include "syneval/solutions/serializer_solutions.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/metrics.h"

namespace perfbench {
namespace {

using syneval::BoundedBufferIface;
using syneval::ReadersWritersIface;
using syneval::Runtime;

// Attachment rungs, cumulative: each adds one layer to the one before. kFlight is the
// E7 configuration the workload measures.
enum class Rung { kFloor, kBare, kMetrics, kFlight, kDetector, kInjector };

constexpr int kBufferCapacity = 16;
constexpr int kSlow = 4;

// A fresh runtime with the rung's attachments, which are declared first so they
// outlive the runtime and the mechanism built on it.
struct Env {
  explicit Env(Rung rung) {
    if (rung >= Rung::kMetrics) {
      rt.AttachMetrics(&registry);
    }
    if (rung >= Rung::kFlight) {
      rt.AttachFlightRecorder(&flight);
    }
    if (rung >= Rung::kDetector) {
      rt.AttachAnomalyDetector(&detector);
    }
    if (rung >= Rung::kInjector) {
      rt.AttachFaultInjector(&injector);
    }
  }

  syneval::MetricsRegistry registry;
  syneval::FlightRecorder flight;
  syneval::AnomalyDetector detector;
  syneval::FaultInjector injector{syneval::FaultPlan{}};
  syneval::OsRuntime rt;
};

// One mechanism under test with a check of its state after the loop.
class Target {
 public:
  virtual ~Target() = default;
  virtual void Op() = 0;
  // `ops` operations completed: did the mechanism do exactly that much work?
  virtual bool FinalStateOk(long ops) const = 0;
};

class RwTarget : public Target {
 public:
  RwTarget(std::unique_ptr<ReadersWritersIface> rw, bool write)
      : rw_(std::move(rw)), write_(write) {}
  void Op() override {
    if (write_) {
      rw_->Write(body_, nullptr);
    } else {
      rw_->Read(body_, nullptr);
    }
  }
  bool FinalStateOk(long ops) const override { return accesses_.load() == ops; }

 private:
  std::unique_ptr<ReadersWritersIface> rw_;
  const bool write_;
  std::atomic<long> accesses_{0};
  const std::function<void()> body_ = [this] {
    accesses_.fetch_add(1, std::memory_order_relaxed);
  };
};

// Deposit then remove one item; the item must come back (single-threaded use).
class BufferTarget : public Target {
 public:
  explicit BufferTarget(std::unique_ptr<BoundedBufferIface> buffer)
      : buffer_(std::move(buffer)) {}
  void Op() override {
    buffer_->Deposit(next_, nullptr);
    if (buffer_->Remove(nullptr) != next_) {
      ++mismatches_;
    }
    ++next_;
  }
  bool FinalStateOk(long ops) const override { return mismatches_ == 0 && next_ == ops; }

 private:
  std::unique_ptr<BoundedBufferIface> buffer_;
  std::int64_t next_ = 0;
  long mismatches_ = 0;
};

// The floor rung: the same operation written directly on std::mutex.
class FloorTarget : public Target {
 public:
  explicit FloorTarget(bool buffer) : buffer_(buffer) {}
  void Op() override {
    if (!buffer_) {
      std::lock_guard<std::mutex> lock(mu_);
      ++accesses_;
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(next_);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.front() != next_) {
      ++mismatches_;
    }
    items_.pop_front();
    ++next_;
  }
  bool FinalStateOk(long ops) const override {
    return buffer_ ? mismatches_ == 0 && next_ == ops : accesses_ == ops;
  }

 private:
  const bool buffer_;
  std::mutex mu_;
  long accesses_ = 0;             // Guarded by mu_.
  std::deque<std::int64_t> items_;  // Guarded by mu_.
  std::int64_t next_ = 0;
  long mismatches_ = 0;
};

using Factory = std::function<std::unique_ptr<Target>(Runtime&)>;

template <typename Solution, typename... Args>
Factory Rw(bool write, Args... args) {
  return [=](Runtime& rt) -> std::unique_ptr<Target> {
    return std::make_unique<RwTarget>(std::make_unique<Solution>(rt, args...), write);
  };
}

template <typename Solution>
Factory Buffer() {
  return [](Runtime& rt) -> std::unique_ptr<Target> {
    return std::make_unique<BufferTarget>(std::make_unique<Solution>(rt, kBufferCapacity));
  };
}

struct Series {
  std::string metric;  // Per-layer metric the series reports.
  int threads = 1;
  Rung rung = Rung::kFlight;
  Factory make;
  // Series whose operations block (contended reads, CSP server round trips) run
  // batches this many times smaller, so every series costs about the same time.
  int slow = 1;
};

struct Sizes {
  int rounds;
  int batches;
  int batch_ops;
};

// What one run of a series measured.
struct SeriesRun {
  double ns_per_op = 0;
  long timed_ops = 0;
  std::vector<double> batch_us;  // Per-batch mean op time, in microseconds.
  bool ok = false;
};

// The timed series: uncontended operations, which only compute and never wait for
// another thread, so their cost does not swing with how fast the host wakes threads.
std::vector<Series> UncontendedSeries() {
  std::vector<Series> series;
  const auto rw = [&series](const std::string& mechanism, const Factory& read,
                            const Factory& write) {
    series.push_back({mechanism + ".read_ns", 1, Rung::kFlight, read});
    series.push_back({mechanism + ".write_ns", 1, Rung::kFlight, write});
  };
  rw("semaphore", Rw<syneval::SemaphoreRwReadersPriority>(false),
     Rw<syneval::SemaphoreRwReadersPriority>(true));
  rw("monitor", Rw<syneval::MonitorRwReadersPriority>(false),
     Rw<syneval::MonitorRwReadersPriority>(true));
  rw("pathexpr_fig1", Rw<syneval::PathExprRwFigure1>(false),
     Rw<syneval::PathExprRwFigure1>(true));
  rw("pathexpr_predicates", Rw<syneval::PathExprRwPredicates>(false),
     Rw<syneval::PathExprRwPredicates>(true));
  rw("serializer", Rw<syneval::SerializerRwReadersPriority>(false),
     Rw<syneval::SerializerRwReadersPriority>(true));
  rw("cond_region", Rw<syneval::CcrRwReadersPriority>(false),
     Rw<syneval::CcrRwReadersPriority>(true));
  series.push_back({"semaphore.buffer_rt_ns", 1, Rung::kFlight,
                    Buffer<syneval::SemaphoreBoundedBuffer>()});
  series.push_back(
      {"monitor.buffer_rt_ns", 1, Rung::kFlight, Buffer<syneval::MonitorBoundedBuffer>()});
  series.push_back(
      {"pathexpr.buffer_rt_ns", 1, Rung::kFlight, Buffer<syneval::PathBoundedBuffer>()});
  series.push_back({"serializer.buffer_rt_ns", 1, Rung::kFlight,
                    Buffer<syneval::SerializerBoundedBuffer>()});
  series.push_back(
      {"cond_region.buffer_rt_ns", 1, Rung::kFlight, Buffer<syneval::CcrBoundedBuffer>()});
  return series;
}

// Series whose operations hand off between threads: CSP server round trips and
// contended reads. Their cost is set by how fast the host wakes a thread, which moved
// ops' p99 by 29% across ten runs on a loaded host, so they run in the traced pass
// only and report per-layer metrics.
std::vector<Series> BlockingSeries() {
  using syneval::CspReadersWriters;
  const auto csp = CspReadersWriters::Policy::kReadersPriority;
  std::vector<Series> series = {
      {"csp_channels.read_ns", 1, Rung::kFlight, Rw<CspReadersWriters>(false, csp), kSlow},
      {"csp_channels.write_ns", 1, Rung::kFlight, Rw<CspReadersWriters>(true, csp), kSlow},
      {"csp_channels.buffer_rt_ns", 1, Rung::kFlight, Buffer<syneval::CspBoundedBuffer>(),
       kSlow},
  };
  for (const int threads : {2, 4}) {
    const std::string suffix = ".read_contended" + std::to_string(threads) + "_ns";
    series.push_back({"semaphore" + suffix, threads, Rung::kFlight,
                      Rw<syneval::SemaphoreRwReadersPriority>(false), kSlow});
    series.push_back({"monitor" + suffix, threads, Rung::kFlight,
                      Rw<syneval::MonitorRwReadersPriority>(false), kSlow});
    series.push_back({"serializer" + suffix, threads, Rung::kFlight,
                      Rw<syneval::SerializerRwReadersPriority>(false), kSlow});
  }
  return series;
}

// Cost ladder on the semaphore solutions, one series per (op, rung).
std::vector<Series> LadderSeries() {
  struct OpFactories {
    std::string op;
    Factory mechanism;
    bool buffer;
  };
  const std::vector<OpFactories> ops = {
      {"read", Rw<syneval::SemaphoreRwReadersPriority>(false), false},
      {"write", Rw<syneval::SemaphoreRwReadersPriority>(true), false},
      {"buffer_rt", Buffer<syneval::SemaphoreBoundedBuffer>(), true},
  };
  const std::vector<std::pair<Rung, std::string>> rungs = {
      {Rung::kFloor, "runtime.os.floor_ns."},        {Rung::kBare, "runtime.os.bare_ns."},
      {Rung::kMetrics, "telemetry.metrics.rung_ns."}, {Rung::kFlight, "telemetry.flight.rung_ns."},
      {Rung::kDetector, "anomaly.detector.rung_ns."}, {Rung::kInjector, "fault.injector.rung_ns."},
  };
  std::vector<Series> series;
  for (const OpFactories& op : ops) {
    for (const auto& [rung, prefix] : rungs) {
      Factory make = op.mechanism;
      if (rung == Rung::kFloor) {
        const bool buffer = op.buffer;
        make = [buffer](Runtime&) -> std::unique_ptr<Target> {
          return std::make_unique<FloorTarget>(buffer);
        };
      }
      series.push_back({prefix + op.op, 1, rung, make});
    }
  }
  return series;
}

// Runs one series on a fresh environment: a warm-up batch, then the timed batches,
// then the final-state check.
SeriesRun RunSeries(const Series& series, const Sizes& sizes, Tracer* tracer) {
  SpanScope series_span(tracer, "ops.series", 0, 0, series.metric);
  Env env(series.rung);
  const std::unique_ptr<Target> target = series.make(env.rt);
  const int batch_ops = std::max(1, sizes.batch_ops / series.slow);
  // Contenders share the series' batches, so a contended series does no more work
  // than an uncontended one.
  const int batches = std::max(1, sizes.batches / series.threads);
  for (int i = 0; i < batch_ops; ++i) {
    target->Op();
  }

  std::mutex mu;
  SeriesRun run;
  const auto timed_batches = [&] {
    std::vector<double> batch_us;
    for (int b = 0; b < batches; ++b) {
      SpanScope span(tracer, "ops.batch", series_span.id(), series_span.group());
      span.set_count(batch_ops);
      const std::int64_t start = NowNs();
      for (int i = 0; i < batch_ops; ++i) {
        target->Op();
      }
      batch_us.push_back(static_cast<double>(NowNs() - start) / 1e3 / batch_ops);
    }
    std::lock_guard<std::mutex> lock(mu);
    run.batch_us.insert(run.batch_us.end(), batch_us.begin(), batch_us.end());
  };

  std::int64_t wall_ns = 0;
  if (series.threads == 1) {
    const std::int64_t start = NowNs();
    timed_batches();
    wall_ns = NowNs() - start;
  } else {
    // Contenders start together: each spins until every thread is up.
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::unique_ptr<syneval::RtThread>> threads;
    for (int t = 0; t < series.threads; ++t) {
      threads.push_back(env.rt.StartThread("contender", [&] {
        ready.fetch_add(1);
        while (!go.load()) {
          std::this_thread::yield();
        }
        timed_batches();
      }));
    }
    while (ready.load() < series.threads) {
      std::this_thread::yield();
    }
    const std::int64_t start = NowNs();
    go.store(true);
    for (auto& thread : threads) {
      thread->Join();
    }
    wall_ns = NowNs() - start;
  }
  const long timed_ops = static_cast<long>(series.threads) * batches * batch_ops;
  run.ns_per_op = static_cast<double>(wall_ns) / static_cast<double>(timed_ops);
  run.timed_ops = timed_ops;
  run.ok = target->FinalStateOk(timed_ops + batch_ops);
  series_span.set_count(timed_ops);
  return run;
}

class OpsWorkload : public Workload {
 public:
  explicit OpsWorkload(const Config& config)
      : config_(config),
        sizes_(config.tiny ? Sizes{1, 2, 32} : Sizes{3, 20, 256}),
        series_(UncontendedSeries()) {}

  void Setup() override {
    // Construct every mechanism once in the E7 configuration and warm it up.
    Env env(Rung::kFlight);
    for (const Series& series : series_) {
      const std::unique_ptr<Target> target = series.make(env.rt);
      for (int i = 0; i < sizes_.batch_ops; ++i) {
        target->Op();
      }
    }
  }

  PassResult RunPass(Tracer* tracer, Verdicts& verdicts) override {
    values_.clear();
    PassResult pass;
    const double cpu_start = ProcessCpuSeconds();
    const std::int64_t csw_start = ProcessContextSwitches();
    const std::int64_t start = NowNs();
    {
      const CpuSlot cpu;  // The next CPU in turn (see the top of this file).
      pass.items = RunRounds(series_, tracer, verdicts, pass.item_us);
    }
    pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    pass.context_switches = ProcessContextSwitches() - csw_start;
    if (tracer != nullptr) {
      // The blocking series and the cost ladder belong to the traced pass only, after
      // its timed section.
      std::vector<double> untimed_items;
      RunRounds(BlockingSeries(), tracer, verdicts, untimed_items);
      RunRounds(LadderSeries(), tracer, verdicts, untimed_items);
    }
    return pass;
  }

  void AddLayerMetrics(const std::vector<Span>& spans, Metrics& metrics) override {
    (void)spans;
    std::map<std::string, double> median;
    for (const auto& [metric, values] : values_) {
      median[metric] = Median(values);
    }
    for (const std::vector<Series>& group : {series_, BlockingSeries()}) {
      for (const Series& series : group) {
        metrics.Set(series.metric, median[series.metric], "ns");
      }
    }
    // Each rung's tax is its median minus the median of the rung below it.
    for (const std::string op : {"read", "write", "buffer_rt"}) {
      metrics.Set("runtime.os.floor_ns." + op, median["runtime.os.floor_ns." + op], "ns");
      metrics.Set("runtime.os.bare_ns." + op, median["runtime.os.bare_ns." + op], "ns");
      std::string below = "runtime.os.bare_ns." + op;
      for (const std::string layer :
           {"telemetry.metrics", "telemetry.flight", "anomaly.detector", "fault.injector"}) {
        const std::string rung = layer + ".rung_ns." + op;
        metrics.Set(layer + ".tax_ns." + op, median[rung] - median[below], "ns");
        below = rung;
      }
    }
  }

 private:
  // `rounds` passes over `series`, each in its own seeded order. Returns the number of
  // timed operations.
  long RunRounds(const std::vector<Series>& series, Tracer* tracer, Verdicts& verdicts,
                 std::vector<double>& item_us) {
    long ops = 0;
    for (int round = 0; round < sizes_.rounds; ++round) {
      const std::vector<int> order = SeededOrder(static_cast<int>(series.size()),
                                                 config_.seed * 7919 + round_counter_++);
      for (const int index : order) {
        const Series& s = series[static_cast<std::size_t>(index)];
        const SeriesRun run = RunSeries(s, sizes_, tracer);
        const bool flip = config_.corrupt && &series == &series_ && index == 0 && round == 0;
        verdicts.Check(run.ok != flip, "ops " + s.metric + ": final state after the loop");
        values_[s.metric].push_back(run.ns_per_op);
        item_us.insert(item_us.end(), run.batch_us.begin(), run.batch_us.end());
        ops += run.timed_ops;
      }
    }
    return ops;
  }

  const Config config_;
  const Sizes sizes_;
  const std::vector<Series> series_;
  std::uint64_t round_counter_ = 0;
  std::map<std::string, std::vector<double>> values_;  // ns/op per series run.
};

}  // namespace

std::unique_ptr<Workload> MakeOps(const Config& config) {
  return std::make_unique<OpsWorkload>(config);
}

}  // namespace perfbench
