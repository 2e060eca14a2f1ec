#include "bench.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <random>

namespace perfbench {

namespace {

rusage SelfUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

double ProcessCpuSeconds() {
  const rusage usage = SelfUsage();
  return Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
}

std::int64_t ProcessContextSwitches() {
  const rusage usage = SelfUsage();
  return static_cast<std::int64_t>(usage.ru_nvcsw) + static_cast<std::int64_t>(usage.ru_nivcsw);
}

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so a
// small process started from a larger one would report its parent's peak.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<int> SeededOrder(int n, std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

void Verdicts::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) {
      failures_.push_back(what);
    }
  }
}

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second] = {name, value, unit};
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back({name, value, unit});
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += (i == 0 ? "" : ", ") + JsonString(e.name) + ": {\"value\": " +
           FormatNumber(e.value) + ", \"unit\": " + JsonString(e.unit) + "}";
  }
  return out + "}";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) {
    origin = std::min(origin, span.start_ns);
  }
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << (i == 0 ? "" : ",\n") << "{\"name\":" << JsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << "," << times
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"group\":" << s.group << ",\"count\":" << s.count
        << ",\"label\":" << JsonString(s.label) << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

SpanScope::SpanScope(Tracer* tracer, const char* name, std::uint64_t parent,
                     std::uint64_t group, std::string label)
    : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.group = group == 0 ? span_.id : group;
  span_.name = name;
  span_.label = std::move(label);
  span_.thread = ThreadIndex();
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) {
    return;
  }
  span_.end_ns = NowNs();
  tracer_->Record(std::move(span_));
}

std::int64_t CoveredNs(std::int64_t start, std::int64_t end,
                       std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t cursor = start;
  for (auto [child_start, child_end] : children) {
    child_start = std::max(child_start, cursor);
    child_end = std::min(child_end, end);
    if (child_end > child_start) {
      covered += child_end - child_start;
      cursor = child_end;
    }
  }
  return covered;
}

void ItemLog::Add(double micros) {
  std::lock_guard<std::mutex> lock(mu_);
  micros_.push_back(micros);
}

std::vector<double> ItemLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  out.swap(micros_);
  return out;
}

void PoolStats::AddSweep(int jobs, double wall_seconds,
                         const std::vector<syneval::WorkerTelemetry>& workers) {
  double slowest = 0;
  for (const syneval::WorkerTelemetry& worker : workers) {
    slowest = std::max(slowest, worker.wall_seconds);
    steals += worker.steals;
    if (worker_wall_s.size() <= static_cast<std::size_t>(worker.worker)) {
      worker_wall_s.resize(static_cast<std::size_t>(worker.worker) + 1, 0.0);
    }
    worker_wall_s[static_cast<std::size_t>(worker.worker)] += worker.wall_seconds;
  }
  capacity_s += jobs * wall_seconds;
  merge_s += std::max(0.0, wall_seconds - slowest);
}

void PoolStats::Merge(const PoolStats& other) {
  busy_s += other.busy_s;
  capacity_s += other.capacity_s;
  merge_s += other.merge_s;
  steals += other.steals;
  if (worker_wall_s.size() < other.worker_wall_s.size()) {
    worker_wall_s.resize(other.worker_wall_s.size(), 0.0);
  }
  for (std::size_t i = 0; i < other.worker_wall_s.size(); ++i) {
    worker_wall_s[i] += other.worker_wall_s[i];
  }
}

namespace {

std::mutex cpu_slots_mu;
std::deque<int> free_cpus;  // Guarded by cpu_slots_mu; filled on first use.
bool cpus_listed = false;    // Guarded by cpu_slots_mu.

}  // namespace

CpuSlot::CpuSlot() {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(cpu_slots_mu);
    if (!cpus_listed) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &saved_)) {
          free_cpus.push_back(cpu);
        }
      }
      cpus_listed = true;
    }
    if (free_cpus.empty()) {
      return;  // More concurrent slots than CPUs: leave this thread unpinned.
    }
    cpu_ = free_cpus.front();
    free_cpus.pop_front();
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu_, &one);
  sched_setaffinity(0, sizeof one, &one);
}

CpuSlot::~CpuSlot() {
  if (cpu_ < 0) {
    return;
  }
  sched_setaffinity(0, sizeof saved_, &saved_);
  std::lock_guard<std::mutex> lock(cpu_slots_mu);
  free_cpus.push_back(cpu_);
}

syneval::ParallelOptions PoolOptions() {
  syneval::ParallelOptions parallel;
  parallel.jobs = 4;
  return parallel;
}

}  // namespace perfbench
