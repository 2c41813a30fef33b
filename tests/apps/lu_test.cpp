// lu_test.cpp — LU-model-specific structure: 2-D scatter ownership,
// owner-local block placement, the shrinking-parallelism phase anatomy,
// and the instruction-volume accounting the interval math relies on.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/lu.hpp"
#include "sim/machine.hpp"
#include "sim/thread_ctx.hpp"

namespace dsm::apps {
namespace {

sim::RunSummary run_lu(const LuParams& p, unsigned nodes,
                       InstrCount per_proc_interval = 50'000) {
  MachineConfig cfg = default_config(nodes);
  cfg.phase.interval_instructions = per_proc_interval * nodes;
  sim::Machine m(cfg);
  return m.run(make_lu(p));
}

LuParams tiny() {
  LuParams p;
  p.n = 64;
  p.block = 8;
  return p;
}

TEST(LuTest, InstructionVolumeMatchesFlopModel) {
  // Total modeled instructions ~= instr_per_flop * (2/3) n^3 for the
  // factorization (+ init overhead). Check within 30%.
  const LuParams p = tiny();
  const auto run = run_lu(p, 2);
  std::uint64_t total = 0;
  for (unsigned q = 0; q < 2; ++q) total += run.instructions[q];
  const double flops = 2.0 / 3.0 * std::pow(p.n, 3);
  EXPECT_NEAR(static_cast<double>(total), p.instr_per_flop * flops,
              0.35 * p.instr_per_flop * flops);
}

TEST(LuTest, WorkSharesFollowScatterOwnership) {
  // With a 1x2 processor grid on a 8x8 block matrix, columns alternate
  // owners; total instructions must split nearly evenly.
  const auto run = run_lu(tiny(), 2);
  const double ratio = static_cast<double>(run.instructions[0]) /
                       static_cast<double>(run.instructions[1]);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(LuTest, CpiRisesAsParallelismShrinks) {
  // Late factorization steps idle most processors: the tail intervals'
  // CPI must exceed the early (interior-dominated) ones at 4+ nodes.
  LuParams p;
  p.n = 128;
  p.block = 8;
  const auto run = run_lu(p, 4, 60'000);
  const auto& iv = run.procs[0].intervals;
  ASSERT_GE(iv.size(), 6u);
  double early = 0.0, late = 0.0;
  const std::size_t k = iv.size() / 3;
  for (std::size_t i = 1; i <= k; ++i) early += iv[i].cpi;         // skip init
  for (std::size_t i = iv.size() - k; i < iv.size(); ++i) late += iv[i].cpi;
  EXPECT_GT(late / k, early / k);
}

TEST(LuTest, BlocksAreHomedAtTheirOwners) {
  // Owner-compute => the dominant home in each proc's F vector is itself.
  const auto run = run_lu(tiny(), 4, 20'000);
  for (unsigned q = 0; q < 4; ++q) {
    std::vector<std::uint64_t> f(4, 0);
    for (const auto& rec : run.procs[q].intervals)
      for (unsigned j = 0; j < 4; ++j) f[j] += rec.f()[j];
    std::uint64_t own = f[q], max_other = 0;
    for (unsigned j = 0; j < 4; ++j)
      if (j != q) max_other = std::max(max_other, f[j]);
    EXPECT_GT(own, max_other) << "proc " << q;
  }
}

TEST(LuTest, DdsDeclinesWithFactorizationProgress) {
  // The active window shrinks => fewer accesses per interval to remote
  // perimeter homes => DDS trends down over the run.
  LuParams p;
  p.n = 128;
  p.block = 8;
  const auto run = run_lu(p, 4, 60'000);
  const auto& iv = run.procs[1].intervals;
  ASSERT_GE(iv.size(), 6u);
  const std::size_t k = iv.size() / 3;
  double early = 0.0, late = 0.0;
  for (std::size_t i = 1; i <= k; ++i) early += iv[i].dds;
  for (std::size_t i = iv.size() - k; i < iv.size(); ++i) late += iv[i].dds;
  EXPECT_GT(early, late);
}

TEST(LuDeathTest, RejectsIndivisibleBlocking) {
  LuParams p;
  p.n = 100;
  p.block = 16;
  EXPECT_DEATH(make_lu(p), "");
}

}  // namespace
}  // namespace dsm::apps
