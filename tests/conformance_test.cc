// The solution-matrix conformance sweep: every (mechanism, problem) solution is run
// under a set of deterministic schedules and checked against its oracle. Cases the
// paper predicts to violate their oracle (Figure 1; arbitrary-selection FCFS) must
// violate it; everything else must be clean.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "syneval/core/conformance.h"
#include "syneval/solutions/registry.h"
#include "syneval/telemetry/metrics.h"

namespace syneval {
namespace {

constexpr int kSeeds = 12;

class ConformanceTest : public ::testing::TestWithParam<std::size_t> {};

// CI sets SYNEVAL_POSTMORTEM_DIR so that an unexpected failure leaves its postmortems
// behind as JSON artifacts (one file per stored postmortem, named for exact replay via
// bench/syneval_postmortem) in addition to the assertion message. No-op locally.
void WritePostmortemArtifacts(std::size_t case_index, const ConformanceCase& spec,
                              const SweepOutcome& outcome) {
  const char* dir = std::getenv("SYNEVAL_POSTMORTEM_DIR");
  if (dir == nullptr || *dir == '\0') {
    return;
  }
  for (const SeedPostmortem& pm : outcome.postmortems) {
    const std::string path = std::string(dir) + "/conformance_case" +
                             std::to_string(case_index) + "_seed" +
                             std::to_string(pm.seed) + ".json";
    std::ofstream out(path);
    if (!out) {
      continue;
    }
    out << "{\"display\":\"" << JsonEscape(spec.display) << "\",\"problem\":\""
        << JsonEscape(spec.problem) << "\",\"mechanism\":\""
        << MechanismName(spec.mechanism) << "\",\"seed\":" << pm.seed
        << ",\"cause\":\"" << JsonEscape(pm.cause) << "\",\"text\":\""
        << JsonEscape(pm.text) << "\"}\n";
  }
}

TEST_P(ConformanceTest, SolutionBehavesAsPredicted) {
  const std::vector<ConformanceCase> suite = BuildConformanceSuite(/*workload_scale=*/1);
  ASSERT_LT(GetParam(), suite.size());
  const ConformanceCase& conformance_case = suite[GetParam()];
  const ConformanceResult result = RunConformanceCase(conformance_case, kSeeds);
  if (conformance_case.expect_violations) {
    EXPECT_GT(result.outcome.failures, 0)
        << conformance_case.display << ": the paper predicts violations, none observed in "
        << kSeeds << " schedules";
  } else {
    // On an unexpected failure the sweep's stored flight-recorder postmortems are the
    // fastest route to a diagnosis; each carries the seed for exact replay via
    // bench/syneval_postmortem.
    if (result.outcome.failures != 0) {
      WritePostmortemArtifacts(GetParam(), conformance_case, result.outcome);
    }
    EXPECT_EQ(result.outcome.failures, 0)
        << conformance_case.display << ": " << result.outcome.Summary()
        << result.outcome.PostmortemDump();
  }
  // Ring autotuning: the grow-on-evict trial recorder (Options::ForTrial) must retain
  // every event of a default conformance sweep — an eviction here means a postmortem
  // window was silently truncated and the sizing heuristics need retuning.
  EXPECT_EQ(result.outcome.flight_evicted, 0u)
      << conformance_case.display << ": flight-ring evictions truncated postmortems";
}

std::string CaseName(const ::testing::TestParamInfo<std::size_t>& info) {
  const std::vector<ConformanceCase> suite = BuildConformanceSuite(1);
  std::string name = std::string(MechanismName(suite[info.index].mechanism)) + "_" +
                     suite[info.index].problem;
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  // Distinguish multiple cases of the same cell (e.g. two pathexpr readers-priority).
  name += "_" + std::to_string(info.index);
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSolutions, ConformanceTest,
                         ::testing::Range<std::size_t>(0, BuildConformanceSuite(1).size()),
                         CaseName);

TEST(ConformanceSuiteTest, CoversEveryRegisteredMechanismProblemPair) {
  // Every solution in the registry should be exercised by at least one conformance case
  // (rw-fair and rw-fcfs are monitor/serializer-only, matching the registry).
  const std::vector<ConformanceCase> suite = BuildConformanceSuite(1);
  int matched = 0;
  for (const SolutionInfo& info : AllSolutionInfos()) {
    for (const ConformanceCase& c : suite) {
      if (c.mechanism == info.mechanism && c.problem == info.problem) {
        ++matched;
        break;
      }
    }
  }
  // Semaphore rw-fcfs/rw-fair are intentionally absent from the registry; all present
  // registry entries must be covered.
  EXPECT_EQ(matched, static_cast<int>(AllSolutionInfos().size()));
}

}  // namespace
}  // namespace syneval
