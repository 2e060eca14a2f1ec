// syneval_postmortem: replay one (problem, mechanism, seed) trial and explain it.
//
// The sweeps (table_conformance, chaos_sweep) print which seeds went wrong; this tool
// re-runs a single such trial under the same DetRuntime schedule with the flight
// recorder and anomaly detector attached, then prints the reconstructed postmortem —
// the causal narrative (wait-for cycle with per-edge acquisition events, dropped
// signal and its victims, starving admission sequence) plus the tail of the event
// window. Deterministic: the same triple always yields the same narrative.
//
//   syneval_postmortem --problem=dining-philosophers --mechanism=semaphore --seed=7
//   syneval_postmortem --problem=bounded-buffer --mechanism=monitor
//       --fault=lost-signal --seed=3        # chaos replay with the injector attached
//   syneval_postmortem --demo=abba          # canned two-mutex AB-BA deadlock
//
// --json writes the schema-v3 "postmortem" entry (with the structured narrative under
// "detail"); --trace exports a Perfetto trace with the postmortem track overlaid.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "bench/harness.h"
#include "syneval/anomaly/detector.h"
#include "syneval/core/conformance.h"
#include "syneval/fault/chaos.h"
#include "syneval/runtime/det_runtime.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/perfetto.h"
#include "syneval/telemetry/postmortem.h"

namespace {

using namespace syneval;

void PrintExtraUsage() {
  std::fprintf(stderr,
               "syneval_postmortem flags (besides the harness flags):\n"
               "  --problem=<id>      canonical problem id (e.g. bounded-buffer)\n"
               "  --mechanism=<name>  mechanism name (semaphore, monitor, "
               "path-expression,\n"
               "                      serializer, cond-region, csp-channels)\n"
               "  --seed=<n>          schedule seed to replay (default 1)\n"
               "  --fault=<family>    replay the chaos cell with this fault family\n"
               "                      attached (lost-signal, stall); omit for a\n"
               "                      fault-free conformance replay\n"
               "  --case=<substr>     disambiguate when several solutions share a\n"
               "                      (problem, mechanism) cell: substring of the\n"
               "                      display name (e.g. 'Naive forks')\n"
               "  --demo=abba         canned two-mutex AB-BA deadlock demo\n");
}

std::optional<Mechanism> ParseMechanism(const std::string& name) {
  for (int i = 0; i < kNumMechanisms; ++i) {
    const Mechanism mechanism = static_cast<Mechanism>(i);
    if (name == MechanismName(mechanism)) {
      return mechanism;
    }
  }
  return std::nullopt;
}

// The canned deadlock: two DetRuntime threads acquire two mutexes in opposite orders,
// each waiting (via Yield) until the other holds its first lock, so every schedule
// seed deadlocks with the full AB-BA wait-for cycle on record.
ConformanceReplay RunAbbaDemo(std::uint64_t seed) {
  ConformanceReplay replay;
  DetRuntime runtime(MakeRandomSchedule(seed));
  AnomalyDetector detector;
  FlightRecorder flight;
  runtime.AttachAnomalyDetector(&detector);
  runtime.AttachFlightRecorder(&flight);

  auto lock_a = runtime.CreateMutex();
  auto lock_b = runtime.CreateMutex();
  std::atomic<bool> a_held{false};
  std::atomic<bool> b_held{false};

  auto t1 = runtime.StartThread("abba-1", [&] {
    lock_a->Lock();
    a_held.store(true);
    while (!b_held.load()) {
      runtime.Yield();
    }
    lock_b->Lock();  // Never succeeds: abba-2 holds B and is blocked on A.
    lock_b->Unlock();
    lock_a->Unlock();
  });
  auto t2 = runtime.StartThread("abba-2", [&] {
    lock_b->Lock();
    b_held.store(true);
    while (!a_held.load()) {
      runtime.Yield();
    }
    lock_a->Lock();
    lock_a->Unlock();
    lock_b->Unlock();
  });

  const DetRuntime::RunResult result = runtime.Run();
  replay.report.message = result.completed ? "" : "runtime: " + result.report;
  replay.report.anomalies = detector.counts();
  replay.report.anomaly_report = detector.Report("; ");
  replay.postmortem = BuildPostmortem(flight, &detector);
  replay.report.postmortem_cause = replay.postmortem.cause;
  replay.report.postmortem = replay.postmortem.ToText();
  return replay;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> extras;
  bench::Options options = bench::ParseArgs(argc, argv, "syneval_postmortem", &extras);
  bench::Reporter reporter(options);

  const std::string demo = extras.count("demo") ? extras["demo"] : "";
  const std::string problem = extras.count("problem") ? extras["problem"] : "";
  const std::string mechanism_name = extras.count("mechanism") ? extras["mechanism"] : "";
  const bool chaos = extras.count("fault") != 0;
  const std::string fault = chaos ? extras["fault"] : "";
  std::uint64_t seed = 1;
  if (extras.count("seed")) {
    seed = std::strtoull(extras["seed"].c_str(), nullptr, 10);
  }

  ConformanceReplay replay;
  std::string label_mechanism;
  std::string label_problem;
  if (demo == "abba") {
    replay = RunAbbaDemo(seed);
    label_mechanism = "mutex";
    label_problem = "abba-deadlock";
  } else if (!demo.empty()) {
    std::fprintf(stderr, "syneval_postmortem: unknown --demo '%s' (try abba)\n",
                 demo.c_str());
    return 2;
  } else if (problem.empty() || mechanism_name.empty()) {
    PrintExtraUsage();
    return 2;
  } else {
    const std::optional<Mechanism> mechanism = ParseMechanism(mechanism_name);
    if (!mechanism.has_value()) {
      std::fprintf(stderr, "syneval_postmortem: unknown --mechanism '%s'\n",
                   mechanism_name.c_str());
      return 2;
    }
    label_mechanism = mechanism_name;
    label_problem = chaos ? problem + " [" + fault + "]" : problem;
    if (chaos) {
      std::optional<ChaosReplayResult> chaos_replay =
          ReplayChaosTrial(problem, *mechanism, fault, seed);
      if (!chaos_replay.has_value()) {
        std::fprintf(stderr,
                     "syneval_postmortem: no chaos cell %s/%s with fault '%s'\n",
                     problem.c_str(), mechanism_name.c_str(), fault.c_str());
        return 1;
      }
      replay.report.message = chaos_replay->outcome.report;
      replay.report.postmortem_cause = chaos_replay->outcome.postmortem_cause;
      replay.report.postmortem = chaos_replay->outcome.postmortem;
      replay.events = std::move(chaos_replay->events);
      replay.postmortem = std::move(chaos_replay->postmortem);
    } else {
      const std::string case_filter = extras.count("case") ? extras["case"] : "";
      const std::vector<ConformanceCase> suite = BuildConformanceSuite();
      const ConformanceCase* found = nullptr;
      for (const ConformanceCase& conformance_case : suite) {
        if (conformance_case.problem != problem ||
            conformance_case.mechanism != *mechanism) {
          continue;
        }
        if (!case_filter.empty() &&
            conformance_case.display.find(case_filter) == std::string::npos) {
          continue;
        }
        found = &conformance_case;
        break;
      }
      if (found == nullptr) {
        std::fprintf(stderr, "syneval_postmortem: no conformance case %s/%s%s%s\n",
                     problem.c_str(), mechanism_name.c_str(),
                     case_filter.empty() ? "" : " matching ",
                     case_filter.c_str());
        return 1;
      }
      label_problem += " (" + found->display + ")";
      replay = ReplayConformanceTrial(*found, seed);
    }
  }

  std::printf("=== %s / %s, seed %llu ===\n", label_problem.c_str(),
              label_mechanism.c_str(), static_cast<unsigned long long>(seed));
  if (!replay.report.message.empty()) {
    std::printf("trial result: %s\n", replay.report.message.c_str());
  } else {
    std::printf("trial result: completed cleanly\n");
  }
  if (replay.postmortem.empty()) {
    std::printf("no postmortem: the trial raised no anomaly.\n");
  } else {
    std::printf("\n%s\n", replay.postmortem.ToText().c_str());
  }

  if (!options.trace_path.empty()) {
    ChromeTraceOptions trace_options;
    trace_options.process_name =
        "syneval_postmortem " + label_problem + "/" + label_mechanism;
    if (WriteChromeTrace(options.trace_path, replay.events, nullptr, &replay.postmortem,
                         trace_options)) {
      std::printf("wrote Perfetto trace to %s\n", options.trace_path.c_str());
    } else {
      std::printf("failed to write Perfetto trace to %s\n", options.trace_path.c_str());
    }
  }
  if (!replay.postmortem.empty()) {
    bench::Reporter::PostmortemEntry entry;
    entry.mechanism = label_mechanism;
    entry.problem = label_problem;
    entry.seed = seed;
    entry.cause = replay.postmortem.cause;
    entry.text = replay.postmortem.ToText();
    entry.detail_json = replay.postmortem.ToJson();
    reporter.AddPostmortem(std::move(entry));
  }
  return reporter.Finish() ? 0 : 1;
}
