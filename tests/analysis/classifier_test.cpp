#include "analysis/classifier.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/curve.hpp"
#include "apps/registry.hpp"
#include "common/rng.hpp"
#include "phase/detector.hpp"
#include "sim/machine.hpp"

namespace dsm::analysis {
namespace {

phase::IntervalRecord rec(unsigned bucket, double dds, double cpi) {
  phase::IntervalRecord r;
  r.bbv.assign(32, 0);
  r.bbv[bucket] = 65536;
  r.dds = dds;
  r.cpi = cpi;
  r.instructions = 1000;
  r.cycles = static_cast<Cycle>(cpi * 1000);
  return r;
}

TEST(ClassifierTest, CountsDistinctPhases) {
  std::vector<phase::IntervalRecord> trace;
  for (int i = 0; i < 10; ++i) trace.push_back(rec(i % 2, 0, 1.0));
  const auto c = classify_trace(trace, false, 32, {.bbv = 100, .dds = 0});
  EXPECT_EQ(c.distinct_phases, 2u);
  ASSERT_EQ(c.assignment.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(c.assignment[i], i % 2);
}

TEST(ClassifierTest, OfflineReplayEqualsOnlineDetector) {
  // The offline sweep must reproduce the *online* hardware decision
  // sequence bit for bit, LRU churn included.
  Rng rng(99);
  std::vector<phase::IntervalRecord> trace;
  for (int i = 0; i < 400; ++i) {
    trace.push_back(rec(static_cast<unsigned>(rng.next_below(8)),
                        rng.uniform_real(0, 1000),
                        rng.uniform_real(0.2, 4.0)));
  }
  const phase::Thresholds t{.bbv = 40'000, .dds = 300.0};

  // Online, with a small table to force LRU replacements.
  phase::BbvDdvDetector online(4, t);
  std::vector<PhaseId> online_ids;
  for (const auto& r : trace) online_ids.push_back(online.classify(r).phase);

  const auto offline = classify_trace(trace, true, 4, t);
  EXPECT_EQ(offline.assignment, online_ids);
  EXPECT_GT(offline.footprint_replacements, 0u);
}

/// Runs `trace` through the online `Detector` at `t` and checks that the
/// replay made the same decisions; returns the replay's replacements.
template <class Detector>
std::uint64_t expect_online_equals(
    const std::vector<phase::IntervalRecord>& trace, unsigned capacity,
    phase::Thresholds t, const ClassifiedTrace& replayed) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + ", bbv " +
               std::to_string(t.bbv) + ", dds " + std::to_string(t.dds));
  Detector online(capacity, t);
  std::vector<PhaseId> ids;
  for (const auto& r : trace) ids.push_back(online.classify(r).phase);
  EXPECT_EQ(replayed.assignment, ids);
  EXPECT_EQ(replayed.distinct_phases,
            static_cast<unsigned>(online.table().phases_issued()));
  EXPECT_EQ(replayed.distinct_phases,
            std::set<PhaseId>(ids.begin(), ids.end()).size());
  EXPECT_EQ(replayed.footprint_replacements, online.table().replacements());
  return replayed.footprint_replacements;
}

/// The curves' replay of a simulated app equals the online detectors at
/// every BBV threshold of the sweep, and at every DDS setting of every
/// 10th one, with the paper's table and with a 4-entry one.
void expect_sweep_equals_online(const std::string& app) {
  MachineConfig cfg = default_config(8);
  cfg.phase.interval_instructions =
      apps::scaled_interval(app, apps::Scale::kTest);
  sim::Machine m(cfg);
  const auto run = m.run(apps::app_by_name(app).factory(apps::Scale::kTest));
  const CurveParams cp;
  const auto bbv = bbv_sweep(cp);
  ASSERT_EQ(bbv.size(), 200u);
  for (const unsigned capacity : {cp.footprint_capacity, 4u}) {
    std::uint64_t replacements = 0;
    for (const auto& proc : run.procs) {
      ASSERT_FALSE(proc.intervals.empty());
      TraceReplay bbv_only(proc.intervals, /*use_dds=*/false, capacity);
      TraceReplay bbv_ddv(proc.intervals, /*use_dds=*/true, capacity);
      const auto dds = dds_sweep(proc.intervals, cp);
      ASSERT_EQ(dds.size(), 12u);
      for (std::size_t i = 0; i < bbv.size(); ++i) {
        const phase::Thresholds t{.bbv = bbv[i], .dds = 0.0};
        replacements += expect_online_equals<phase::BbvDetector>(
            proc.intervals, capacity, t, bbv_only.classify(t));
        if (i % 10 != 0) continue;
        for (const double d : dds) {
          const phase::Thresholds td{.bbv = bbv[i], .dds = d};
          replacements += expect_online_equals<phase::BbvDdvDetector>(
              proc.intervals, capacity, td, bbv_ddv.classify(td));
        }
      }
    }
    if (capacity == 4) {
      EXPECT_GT(replacements, 0u) << "LRU never ran";
    }
  }
}

TEST(ClassifierTest, SweepReplayEqualsOnlineDetectorsOnLu) {
  expect_sweep_equals_online("LU");
}

TEST(ClassifierTest, SweepReplayEqualsOnlineDetectorsOnFmm) {
  expect_sweep_equals_online("FMM");
}

TEST(ClassifierTest, DdsOnlyMattersWhenEnabled) {
  std::vector<phase::IntervalRecord> trace{rec(0, 0, 1), rec(0, 1e9, 1)};
  const phase::Thresholds t{.bbv = 100, .dds = 10.0};
  EXPECT_EQ(classify_trace(trace, false, 32, t).distinct_phases, 1u);
  EXPECT_EQ(classify_trace(trace, true, 32, t).distinct_phases, 2u);
}

TEST(ClassifierTest, EmptyTrace) {
  const auto c = classify_trace({}, true, 32, {});
  EXPECT_EQ(c.distinct_phases, 0u);
  EXPECT_TRUE(c.assignment.empty());
}

}  // namespace
}  // namespace dsm::analysis
