// fmm_test.cpp — FMM-model-specific structure: costzone load balance,
// cluster drift moving the partition, phase anatomy (distinct BBVs for
// M2L vs direct), and conservation of particles across rebinning.
#include <gtest/gtest.h>

#include "apps/fmm.hpp"
#include "sim/machine.hpp"

namespace dsm::apps {
namespace {

FmmParams tiny() {
  FmmParams p;
  p.particles = 2048;
  p.leaf_log2 = 4;
  p.min_level = 1;
  p.steps = 3;
  return p;
}

sim::RunSummary run_fmm(const FmmParams& p, unsigned nodes,
                        InstrCount per_proc_interval = 40'000) {
  MachineConfig cfg = default_config(nodes);
  cfg.phase.interval_instructions = per_proc_interval * nodes;
  sim::Machine m(cfg);
  return m.run(make_fmm(p));
}

TEST(FmmTest, CostzonesBalanceInstructionCounts) {
  const auto run = run_fmm(tiny(), 4);
  InstrCount lo = ~0ull, hi = 0;
  for (unsigned q = 0; q < 4; ++q) {
    lo = std::min(lo, run.instructions[q]);
    hi = std::max(hi, run.instructions[q]);
  }
  // Clustered particles on a static partition would be several-fold off;
  // costzones keep the spread tight.
  EXPECT_LT(static_cast<double>(hi) / static_cast<double>(lo), 1.8);
}

TEST(FmmTest, PhaseTypesHaveDistinctBbvSignatures) {
  // M2L-dominated and direct-dominated intervals must be distinguishable
  // by the BBV (they run different kernels).
  const auto run = run_fmm(tiny(), 2, 60'000);
  const auto& iv = run.procs[0].intervals;
  ASSERT_GE(iv.size(), 4u);
  std::uint64_t max_dist = 0;
  for (std::size_t i = 0; i < iv.size(); ++i)
    for (std::size_t j = i + 1; j < iv.size(); ++j)
      max_dist = std::max(max_dist, phase::manhattan(iv[i].bbv, iv[j].bbv));
  EXPECT_GT(max_dist, 40'000u);
}

TEST(FmmTest, ClusterDriftShiftsRemoteMix) {
  // Between the first and last step, the costzone<->particle-home overlap
  // changes; per-interval F vectors must not be static.
  const auto run = run_fmm(tiny(), 4, 30'000);
  const auto& iv = run.procs[2].intervals;
  ASSERT_GE(iv.size(), 4u);
  // Compare normalized home distributions of an early and a late interval.
  auto norm_f = [](const phase::IntervalRecord& r) {
    const auto f = r.f();
    std::vector<double> v(f.size());
    double total = 1e-9;
    for (const auto x : f) total += static_cast<double>(x);
    for (std::size_t j = 0; j < f.size(); ++j)
      v[j] = static_cast<double>(f[j]) / total;
    return v;
  };
  const auto a = norm_f(iv[1]);
  const auto b = norm_f(iv[iv.size() - 2]);
  double l1 = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) l1 += std::abs(a[j] - b[j]);
  EXPECT_GT(l1, 0.05) << "access mix never moved";
}

TEST(FmmTest, MoreStepsMoreWork) {
  FmmParams p3 = tiny();
  FmmParams p1 = tiny();
  p1.steps = 1;
  const auto r3 = run_fmm(p3, 2);
  const auto r1 = run_fmm(p1, 2);
  EXPECT_GT(r3.instructions[0], 2 * r1.instructions[0]);
}

TEST(FmmTest, TerminatesWithEmptyRegions) {
  // Highly clustered particles leave most leaves empty; everything must
  // still terminate and balance.
  FmmParams p = tiny();
  p.clusters = 1;
  p.cluster_spread = 0.02;  // very tight cluster
  const auto run = run_fmm(p, 4);
  for (unsigned q = 0; q < 4; ++q) EXPECT_GT(run.instructions[q], 0u);
}

TEST(FmmDeathTest, RejectsBadLevels) {
  FmmParams p = tiny();
  p.min_level = p.leaf_log2;  // no room for a hierarchy
  EXPECT_DEATH(make_fmm(p), "");
}

}  // namespace
}  // namespace dsm::apps
