// interval_snapshot_test.cpp — the interval-scoped snapshot mechanism
// (obs/metrics.hpp enable_intervals/end_interval) at two levels: the bare
// registry ring (delta capture, re-baselining, overwrite-oldest wrap,
// tail), and the Machine-level contract that the phase-attributed
// timeline is exactly reconcilable against the end-of-run snapshot when
// nothing dropped, for every protocol. (Its byte-identity across
// --threads/--shards is the bench/obs_equivalence ctest.)
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "common/config.hpp"
#include "obs/metrics.hpp"
#include "report/json_value.hpp"

namespace dsm {
namespace {

obs::IntervalMeta meta_at(std::uint64_t cycle, std::uint64_t seq,
                          std::int32_t phase) {
  obs::IntervalMeta m;
  m.end_cycle = cycle;
  m.seq = seq;
  m.node = 0;
  m.phase = phase;
  return m;
}

TEST(IntervalRingTest, CapturesDeltasAndRebaselines) {
  obs::MetricsRegistry reg;
  obs::CounterHandle a = reg.counter("coh.a");
  obs::CounterHandle b = reg.counter("coh.b");

  a.add(5);
  reg.enable_intervals(8);
  ASSERT_TRUE(reg.intervals_enabled());
  ASSERT_EQ(reg.interval_slot_names(),
            (std::vector<std::string>{"coh.a", "coh.b"}));

  // enable_intervals() baselines at the current values: the pre-enable
  // increment must not leak into the first captured interval.
  a.add(3);
  b.inc();
  reg.end_interval(meta_at(100, 0, 2));
  a.add(10);
  reg.end_interval(meta_at(200, 1, -1));
  b.add(7);  // open tail

  EXPECT_EQ(reg.intervals_captured(), 2u);
  EXPECT_EQ(reg.intervals_dropped(), 0u);
  const std::vector<obs::CapturedInterval> rows = reg.captured_intervals();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].meta.end_cycle, 100u);
  EXPECT_EQ(rows[0].meta.phase, 2);
  EXPECT_EQ(rows[0].deltas, (std::vector<std::uint64_t>{3, 1}));
  EXPECT_EQ(rows[1].meta.phase, -1);
  EXPECT_EQ(rows[1].deltas, (std::vector<std::uint64_t>{10, 0}));
  EXPECT_EQ(reg.interval_tail(), (std::vector<std::uint64_t>{0, 7}));
}

TEST(IntervalRingTest, FullRingOverwritesOldestAndCountsDropped) {
  obs::MetricsRegistry reg;
  obs::CounterHandle a = reg.counter("coh.a");
  reg.enable_intervals(2);

  for (std::uint64_t i = 1; i <= 5; ++i) {
    a.add(i);
    reg.end_interval(meta_at(i * 10, i - 1, static_cast<std::int32_t>(i)));
  }

  EXPECT_EQ(reg.intervals_captured(), 5u);
  EXPECT_EQ(reg.intervals_dropped(), 3u);
  EXPECT_EQ(reg.interval_capacity(), 2u);
  // Survivors are the two newest rows, oldest first.
  const std::vector<obs::CapturedInterval> rows = reg.captured_intervals();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].meta.end_cycle, 40u);
  EXPECT_EQ(rows[0].deltas, (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(rows[1].meta.end_cycle, 50u);
  EXPECT_EQ(rows[1].deltas, (std::vector<std::uint64_t>{5}));
}

TEST(IntervalRingTest, JsonEmptyBeforeEnableAndWellFormedAfter) {
  obs::MetricsRegistry reg;
  obs::CounterHandle a = reg.counter("net.x");
  EXPECT_EQ(reg.intervals_json(), "");

  reg.enable_intervals(4);
  a.add(2);
  reg.end_interval(meta_at(7, 0, 0));
  a.add(9);  // tail

  report::JsonValue v;
  std::string err;
  ASSERT_TRUE(report::parse_json(reg.intervals_json(), &v, &err)) << err;
  EXPECT_EQ(v.at("capacity").unsigned_int(), 4u);
  EXPECT_EQ(v.at("captured").unsigned_int(), 1u);
  EXPECT_EQ(v.at("dropped").unsigned_int(), 0u);
  ASSERT_EQ(v.at("slots").items().size(), 1u);
  EXPECT_EQ(v.at("slots").item(0).string(), "net.x");
  // Row layout: [node, seq, phase, end_cycle, d0, ...].
  ASSERT_EQ(v.at("intervals").items().size(), 1u);
  const report::JsonValue& row = v.at("intervals").item(0);
  ASSERT_EQ(row.items().size(), 5u);
  EXPECT_EQ(row.item(3).unsigned_int(), 7u);
  EXPECT_EQ(row.item(4).unsigned_int(), 2u);
  ASSERT_EQ(v.at("tail").items().size(), 1u);
  EXPECT_EQ(v.at("tail").item(0).unsigned_int(), 9u);
}

// ---- Machine-level contract ----

sim::RunSummary run_with_intervals(Protocol protocol) {
  ObsConfig obs;
  obs.intervals = true;  // implies stats: the record carries both fields
  return bench::run_workload(apps::app_by_name("LU"), apps::Scale::kTest,
                             /*nodes=*/4, /*verbose=*/false, /*seed=*/0x0b5u,
                             protocol, obs);
}

class IntervalDeterminismTest : public ::testing::TestWithParam<Protocol> {};

// Summed ring rows plus the open tail must equal the end-of-run snapshot
// exactly for every tracked counter when nothing dropped — the property
// `dsm_report timeline` re-checks offline on every record.
TEST_P(IntervalDeterminismTest, RowsPlusTailReconcileWithSnapshot) {
  const sim::RunSummary run = run_with_intervals(GetParam());

  report::JsonValue iv, snap;
  std::string err;
  ASSERT_TRUE(report::parse_json(run.obs_intervals_json, &iv, &err)) << err;
  ASSERT_TRUE(report::parse_json(run.obs_json, &snap, &err)) << err;
  ASSERT_EQ(iv.at("dropped").unsigned_int(), 0u)
      << "test workload overflows the ring; widen Machine::kIntervalRows";

  const auto& slots = iv.at("slots").items();
  ASSERT_FALSE(slots.empty());
  std::vector<std::uint64_t> sums(slots.size(), 0);
  for (const report::JsonValue& row : iv.at("intervals").items()) {
    ASSERT_EQ(row.items().size(), 4 + slots.size());
    for (std::size_t s = 0; s < slots.size(); ++s)
      sums[s] += row.item(4 + s).unsigned_int();
  }
  const auto& tail = iv.at("tail").items();
  ASSERT_EQ(tail.size(), slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s)
    sums[s] += tail[s].unsigned_int();

  const report::JsonValue& counters = snap.at("counters");
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const report::JsonValue* c = counters.find(slots[s].string());
    ASSERT_NE(c, nullptr) << slots[s].string();
    EXPECT_EQ(sums[s], c->unsigned_int()) << slots[s].string();
  }
}

// The online detector attributes intervals to phases: a multi-phase app
// must yield more than one distinct phase id in the timeline.
TEST_P(IntervalDeterminismTest, TimelineCarriesDetectedPhases) {
  const sim::RunSummary run = run_with_intervals(GetParam());
  report::JsonValue iv;
  std::string err;
  ASSERT_TRUE(report::parse_json(run.obs_intervals_json, &iv, &err)) << err;

  std::map<std::int64_t, unsigned> phases;
  for (const report::JsonValue& row : iv.at("intervals").items()) {
    const std::string& raw = row.item(2).raw_number();
    ++phases[std::stoll(raw)];
  }
  EXPECT_GT(phases.size(), 1u);
  for (const auto& [phase, n] : phases) EXPECT_GE(phase, 0) << "unclassified";
}

INSTANTIATE_TEST_SUITE_P(Protocols, IntervalDeterminismTest,
                         ::testing::Values(Protocol::kMsi, Protocol::kMesi,
                                           Protocol::kMoesi),
                         [](const auto& info) {
                           switch (info.param) {
                             case Protocol::kMsi: return "msi";
                             case Protocol::kMesi: return "mesi";
                             case Protocol::kMoesi: return "moesi";
                           }
                           return "unknown";
                         });

// Interval capture must not move simulated results: same guarantee the
// rest of the observability layer makes, re-checked for the new hook.
TEST(IntervalPerturbationTest, EnablingIntervalsDoesNotPerturbSimulation) {
  const auto totals = [](bool intervals) {
    ObsConfig obs;
    obs.intervals = intervals;
    sim::RunSummary run = bench::run_workload(
        apps::app_by_name("FMM"), apps::Scale::kTest, /*nodes=*/4,
        /*verbose=*/false, /*seed=*/0x0b5u, Protocol::kMesi, obs);
    std::uint64_t instrs = 0, cycles = 0;
    for (unsigned p = 0; p < 4; ++p) {
      instrs += run.instructions[p];
      cycles += run.final_cycles[p];
    }
    return std::make_pair(instrs, cycles);
  };
  EXPECT_EQ(totals(false), totals(true));
}

}  // namespace
}  // namespace dsm
