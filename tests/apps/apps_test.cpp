// apps_test.cpp — behavioural checks of the four workload models: each
// must exhibit the properties its substitution is required to preserve
// (DESIGN.md §2): realistic structure, growing remote traffic with node
// count, deterministic re-execution, and the phase-bearing time variation
// the paper's detectors feed on.
#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "sim/machine.hpp"

namespace dsm::apps {
namespace {

sim::RunSummary run(const std::string& name, unsigned nodes) {
  MachineConfig cfg = default_config(nodes);
  cfg.phase.interval_instructions = scaled_interval(name, Scale::kTest);
  sim::Machine m(cfg);
  return m.run(app_by_name(name).factory(Scale::kTest));
}

class AppBehaviourTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AppBehaviourTest, RunsToCompletionAndRecordsIntervals) {
  const auto r = run(GetParam(), 4);
  EXPECT_GE(r.min_intervals(), 3u) << "too few intervals to analyze";
  for (unsigned p = 0; p < 4; ++p) {
    EXPECT_GT(r.instructions[p], 0u);
    EXPECT_GT(r.cpi(p), 0.0);
    EXPECT_LT(r.cpi(p), 1000.0);
  }
}

TEST_P(AppBehaviourTest, AllProcessorsDoComparableWork) {
  const auto r = run(GetParam(), 4);
  InstrCount lo = r.instructions[0], hi = r.instructions[0];
  for (unsigned p = 1; p < 4; ++p) {
    lo = std::min(lo, r.instructions[p]);
    hi = std::max(hi, r.instructions[p]);
  }
  EXPECT_LT(static_cast<double>(hi) / static_cast<double>(lo), 4.0);
}

TEST_P(AppBehaviourTest, CpiVariesAcrossIntervals) {
  // Phase detection is pointless on a flat CPI profile; every workload
  // must show time variation.
  const auto r = run(GetParam(), 4);
  double lo = 1e300, hi = 0.0;
  for (const auto& rec : r.procs[0].intervals) {
    lo = std::min(lo, rec.cpi);
    hi = std::max(hi, rec.cpi);
  }
  EXPECT_GT(hi / lo, 1.05) << "CPI profile too flat";
}

TEST_P(AppBehaviourTest, DeterministicAcrossRuns) {
  const auto a = run(GetParam(), 2);
  const auto b = run(GetParam(), 2);
  EXPECT_EQ(a.final_cycles[0], b.final_cycles[0]);
  EXPECT_EQ(a.instructions[0], b.instructions[0]);
  EXPECT_EQ(a.net_messages[1], b.net_messages[1]);
}

TEST_P(AppBehaviourTest, DdvVectorsPopulated) {
  const auto r = run(GetParam(), 4);
  bool any_remote_f = false;
  for (const auto& rec : r.procs[1].intervals) {
    ASSERT_EQ(rec.f().size(), 4u);
    for (NodeId j = 0; j < 4; ++j) {
      if (j != 1 && rec.f()[j] > 0) any_remote_f = true;
      EXPECT_GE(rec.c()[j], rec.f()[j]);  // C aggregates everyone
    }
  }
  EXPECT_TRUE(any_remote_f) << "workload never touches remote homes";
}

INSTANTIATE_TEST_SUITE_P(PaperApps, AppBehaviourTest,
                         ::testing::Values("LU", "FMM", "Art", "Equake"));

TEST(AppScalingTest, RemoteShareOfMissesGrowsWithNodes) {
  // The DSM effect the paper's §III-A analysis rests on: with more nodes,
  // a larger share of off-chip traffic is remote.
  for (const char* name : {"LU", "Equake"}) {
    const auto r2 = run(name, 2);
    const auto r8 = run(name, 8);
    auto remote_share = [](const sim::RunSummary& r) {
      double rem = 0, tot = 0;
      for (unsigned p = 0; p < r.coherence.size(); ++p) {
        const auto& c = r.coherence[p];
        rem += static_cast<double>(c.remote_mem + c.cache_to_cache);
        tot += static_cast<double>(c.remote_mem + c.cache_to_cache +
                                   c.local_mem);
      }
      return tot == 0 ? 0.0 : rem / tot;
    };
    EXPECT_GT(remote_share(r8), remote_share(r2)) << name;
  }
}

TEST(AppRegistryTest, LookupByNameCaseInsensitive) {
  EXPECT_EQ(app_by_name("lu").name, "LU");
  EXPECT_EQ(app_by_name("EQUAKE").name, "Equake");
  EXPECT_EQ(paper_apps().size(), 4u);
}

TEST(AppRegistryTest, ScaledIntervalShrinksWithScale) {
  for (const auto& app : paper_apps()) {
    const auto paper = scaled_interval(app.name, Scale::kPaper);
    const auto bench = scaled_interval(app.name, Scale::kBench);
    const auto test = scaled_interval(app.name, Scale::kTest);
    EXPECT_EQ(paper, 3'000'000u) << app.name;
    EXPECT_LT(bench, paper) << app.name;
    EXPECT_LE(test, bench) << app.name;
    EXPECT_GE(test, 20'000u) << app.name;  // floor
  }
}

TEST(AppRegistryTest, Table2InputStringsMatchPaper) {
  EXPECT_EQ(app_by_name("LU").input_paper, "512x512 matrix, 16x16 block");
  EXPECT_EQ(app_by_name("FMM").input_paper, "65,536 particles");
  EXPECT_NE(app_by_name("Art").input_paper.find("MinneSPEC-Large"),
            std::string::npos);
  EXPECT_NE(app_by_name("Equake").input_paper.find("MinneSPEC-Large"),
            std::string::npos);
}

}  // namespace
}  // namespace dsm::apps
