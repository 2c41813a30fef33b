// micro_test.cpp — the synthetic micro-workloads have *provable* phase
// structure; these tests pin the detector-facing properties the
// integration suite builds on.
#include <gtest/gtest.h>

#include "apps/micro.hpp"
#include "sim/machine.hpp"

namespace dsm::apps {
namespace {

MicroParams small() {
  MicroParams p;
  p.repeats = 4;
  p.iters_per_segment = 4000;
  return p;
}

sim::RunSummary run(const sim::AppFn& fn, unsigned nodes,
                    InstrCount per_proc_interval = 20'000) {
  MachineConfig cfg = default_config(nodes);
  cfg.phase.interval_instructions = per_proc_interval * nodes;
  sim::Machine m(cfg);
  return m.run(fn);
}

TEST(MicroTest, UniformHasFlatProfile) {
  const auto r = run(make_uniform(small()), 4);
  const auto& iv = r.procs[0].intervals;
  ASSERT_GE(iv.size(), 4u);
  double lo = 1e300, hi = 0.0;
  // Skip the first interval: cold caches inflate it in any workload.
  for (std::size_t i = 1; i < iv.size(); ++i) {
    lo = std::min(lo, iv[i].cpi);
    hi = std::max(hi, iv[i].cpi);
  }
  EXPECT_LT(hi / lo, 1.8) << "uniform workload should be nearly flat";
}

TEST(MicroTest, TwoPhaseHasTwoRecurringBbvSignatures) {
  const auto r = run(make_two_phase(small()), 2);
  const auto& iv = r.procs[0].intervals;
  ASSERT_GE(iv.size(), 6u);
  // The trace must contain two *recurring* BBV clusters: pick the first
  // interval as one anchor, find a distant interval as the other anchor,
  // and verify every interval is close to one of them (mixed boundary
  // intervals may fall between; require 70%).
  const auto& anchor_a = iv.front().bbv;
  const phase::BbvVector* anchor_b = nullptr;
  for (const auto& rec : iv) {
    if (phase::manhattan(anchor_a, rec.bbv) > 60'000) {
      anchor_b = &rec.bbv;
      break;
    }
  }
  ASSERT_NE(anchor_b, nullptr) << "never saw a second BBV signature";
  unsigned close = 0;
  for (const auto& rec : iv) {
    const auto da = phase::manhattan(anchor_a, rec.bbv);
    const auto db = phase::manhattan(*anchor_b, rec.bbv);
    close += (std::min(da, db) < 20'000);
  }
  EXPECT_GT(close * 10, iv.size() * 7);
}

TEST(MicroTest, HotHomeSegmentsShareBbvButNotDds) {
  // The paper's premise in its purest form.
  const auto r = run(make_hot_home(small()), 4, 30'000);
  const auto& iv = r.procs[2].intervals;  // a remote processor
  ASSERT_GE(iv.size(), 4u);
  // Halves alternate with the barrier; locate intervals by their dominant
  // home: hot intervals put most F-weight on home 0.
  std::vector<double> hot_dds, local_dds;
  for (const auto& rec : iv) {
    std::uint64_t total = 0;
    for (const auto f : rec.f()) total += f;
    if (total == 0) continue;
    if (rec.f()[0] > total / 2) hot_dds.push_back(rec.dds);
    else local_dds.push_back(rec.dds);
  }
  ASSERT_GE(hot_dds.size(), 2u);
  ASSERT_GE(local_dds.size(), 2u);
  // Identical BBVs across all intervals...
  for (std::size_t i = 1; i < iv.size(); ++i)
    EXPECT_LT(phase::manhattan(iv[0].bbv, iv[i].bbv), 3000u);
  // ...but DDS separates the segments: every hot interval's DDS exceeds
  // every local interval's (the gap scales with the contention on home 0).
  double hot_min = 1e300, local_max = 0.0;
  for (const double d : hot_dds) hot_min = std::min(hot_min, d);
  for (const double d : local_dds) local_max = std::max(local_max, d);
  EXPECT_GT(hot_min, 1.2 * local_max);
}

TEST(MicroTest, HotHomeRemoteProcsPayMoreInHotSegments) {
  const auto r = run(make_hot_home(small()), 4, 30'000);
  const auto& iv = r.procs[3].intervals;
  double hot_cpi = 0, local_cpi = 0;
  unsigned hot_n = 0, local_n = 0;
  for (const auto& rec : iv) {
    std::uint64_t total = 0;
    for (const auto f : rec.f()) total += f;
    if (total == 0) continue;
    if (rec.f()[0] > total / 2) {
      hot_cpi += rec.cpi;
      ++hot_n;
    } else {
      local_cpi += rec.cpi;
      ++local_n;
    }
  }
  ASSERT_GT(hot_n, 0u);
  ASSERT_GT(local_n, 0u);
  EXPECT_GT(hot_cpi / hot_n, 1.2 * (local_cpi / local_n));
}

TEST(MicroTest, ImbalanceRotatesSlowProcessors) {
  const auto r = run(make_imbalance(small()), 4, 50'000);
  // Everyone ends at the same barrier-released cycle.
  for (unsigned p = 1; p < 4; ++p)
    EXPECT_EQ(r.final_cycles[p], r.final_cycles[0]);
  // But per-round sync waits are nonzero (the heavy third rotates).
  EXPECT_GT(r.barrier_wait_mean, 0.0);
}

}  // namespace
}  // namespace dsm::apps
