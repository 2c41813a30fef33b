// experiment_runner_test.cpp — the three contracts the parallel sweep
// driver must honor: spec-order determinism under many threads, clean
// failure propagation out of the pool, and bit-identical results between
// a 1-thread driver run and the hand-rolled serial loop the bench mains
// used before the refactor (micro workload, test-sized input).
#include "driver/experiment_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "apps/micro.hpp"
#include "driver/result_sink.hpp"
#include "driver/sweep_spec.hpp"
#include "sim/machine.hpp"

namespace dsm::driver {
namespace {

// Runs fn over points through map_reduce with an identity reduction and
// collects the emitted results, which arrive in spec order.
template <typename R>
std::vector<R> collect(const ExperimentRunner& runner,
                       const std::vector<SpecPoint>& points,
                       const std::function<R(const SpecPoint&)>& fn) {
  std::vector<R> out;
  runner.map_reduce<R, R>(
      points, fn, [](const SpecPoint&, R&& r) { return std::move(r); },
      [&](const SpecPoint&, R&& r) { out.push_back(std::move(r)); });
  return out;
}

TEST(SweepSpecTest, ExpandsAppMajorWithSequentialIndices) {
  SweepSpec spec;
  spec.apps = {"LU", "FMM"};
  spec.node_counts = {2, 8, 32};
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0].app, "LU");
  EXPECT_EQ(points[0].nodes, 2u);
  EXPECT_EQ(points[2].app, "LU");
  EXPECT_EQ(points[2].nodes, 32u);
  EXPECT_EQ(points[3].app, "FMM");
  EXPECT_EQ(points[3].nodes, 2u);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i);
}

TEST(SweepSpecTest, EmptyAxesContributeOneDefaultElement) {
  SweepSpec spec;  // all axes empty
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].app, "");
  EXPECT_EQ(points[0].nodes, 0u);
}

TEST(SweepSpecTest, SeedDependsOnContentNotPosition) {
  SpecPoint a;
  a.app = "LU";
  a.nodes = 8;
  a.index = 0;
  SpecPoint b = a;
  b.index = 17;  // position must not matter
  EXPECT_EQ(spec_seed(a), spec_seed(b));

  SpecPoint c = a;
  c.nodes = 32;
  EXPECT_NE(spec_seed(a), spec_seed(c));
  SpecPoint d = a;
  d.app = "FMM";
  EXPECT_NE(spec_seed(a), spec_seed(d));
  SpecPoint e = a;
  e.threshold = 0.5;
  EXPECT_NE(spec_seed(a), spec_seed(e));
  SpecPoint f = a;
  f.scale = apps::Scale::kTest;
  EXPECT_NE(spec_seed(a), spec_seed(f));
  EXPECT_NE(spec_seed(a), 0u);
}

TEST(SweepSpecTest, SeedSchemeIsPinned) {
  // Golden values: every published bench table depends on these seeds.
  // If this test fails, the seed scheme changed and ALL figure/table
  // outputs silently shift — bump these constants only as a deliberate,
  // documented decision.
  SpecPoint p;
  p.app = "LU";
  p.nodes = 8;
  p.scale = apps::Scale::kBench;
  EXPECT_EQ(spec_seed(p), 0x7282ca7fbd6f6445ull);
  SpecPoint q;
  q.app = "FMM";
  q.nodes = 32;
  q.detector = "torus2d";
  q.threshold = 0.5;
  q.scale = apps::Scale::kTest;
  EXPECT_EQ(spec_seed(q), 0x57b3abad0f9c8867ull);
}

TEST(ExperimentRunnerTest, ResultsArriveInSpecOrderUnderEightThreads) {
  SweepSpec spec;
  spec.node_counts = {0};
  for (int i = 0; i < 64; ++i) spec.thresholds.push_back(i);
  const auto points = spec.expand();

  const ExperimentRunner runner(8);
  // Stagger completion: later items finish *earlier* than earlier ones.
  const auto results = collect<int>(runner, points, [](const SpecPoint& pt) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(500 - 5 * static_cast<int>(pt.threshold)));
    return static_cast<int>(pt.threshold) * 3 + 1;
  });
  ASSERT_EQ(results.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[i], i * 3 + 1);
}

TEST(ExperimentRunnerTest, ThrowingConfigurationPropagatesWithoutDeadlock) {
  SweepSpec spec;
  for (int i = 0; i < 32; ++i) spec.thresholds.push_back(i);
  const auto points = spec.expand();

  const ExperimentRunner runner(8);
  EXPECT_THROW(collect<int>(runner, points,
                           [](const SpecPoint& pt) -> int {
                             if (static_cast<int>(pt.threshold) == 11)
                               throw std::runtime_error("config 11 exploded");
                             return 0;
                           }),
               std::runtime_error);
}

TEST(ExperimentRunnerTest, SerialPathAlsoPropagatesExceptions) {
  const ExperimentRunner runner(1);
  EXPECT_THROW(runner.run_indexed(
                   3, [](std::size_t i) {
                     if (i == 1) throw std::logic_error("boom");
                   }),
               std::logic_error);
}

TEST(ExperimentRunnerTest, ZeroThreadsResolvesToHardware) {
  EXPECT_GE(ExperimentRunner::resolve_threads(0), 1u);
  EXPECT_EQ(ExperimentRunner::resolve_threads(3), 3u);
}

TEST(OrderedEmitterTest, EmitsInIndexOrderRegardlessOfPutOrder) {
  std::vector<std::pair<std::size_t, int>> emitted;
  OrderedEmitter<int> sink(5, [&](std::size_t i, int&& v) {
    emitted.emplace_back(i, v);
  });
  sink.put(2, 20);
  sink.put(1, 10);
  EXPECT_TRUE(emitted.empty());  // 0 still outstanding
  sink.put(0, 0);
  ASSERT_EQ(emitted.size(), 3u);  // 0 released the buffered 1 and 2
  sink.put(4, 40);
  EXPECT_EQ(emitted.size(), 3u);
  EXPECT_FALSE(sink.drained());
  sink.put(3, 30);
  ASSERT_EQ(emitted.size(), 5u);
  EXPECT_TRUE(sink.drained());
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    EXPECT_EQ(emitted[i].first, i);
    EXPECT_EQ(emitted[i].second, static_cast<int>(i) * 10);
  }
}

// The memory contract behind map_reduce: the raw result is reduced and
// destroyed on the worker that produced it — no raw result ever waits
// for spec order (only reduced values do), so at no instant can more
// raws be alive than there are workers.
struct CountedRaw {
  static std::atomic<int> live;
  static std::atomic<int> max_live;
  CountedRaw() { bump(); }
  CountedRaw(const CountedRaw&) { bump(); }
  CountedRaw(CountedRaw&&) { bump(); }
  ~CountedRaw() { --live; }
  static void bump() {
    const int now = ++live;
    int prev = max_live.load();
    while (now > prev && !max_live.compare_exchange_weak(prev, now)) {
    }
  }
};
std::atomic<int> CountedRaw::live{0};
std::atomic<int> CountedRaw::max_live{0};

TEST(ExperimentRunnerTest, MapReduceDropsRawResultsInWorkers) {
  SweepSpec spec;
  for (int i = 0; i < 48; ++i) spec.thresholds.push_back(i);
  const auto points = spec.expand();

  constexpr unsigned kThreads = 4;
  CountedRaw::live = 0;
  CountedRaw::max_live = 0;
  const ExperimentRunner runner(kThreads);
  std::vector<double> emitted;
  runner.map_reduce<CountedRaw, double>(
      points,
      [](const SpecPoint&) {
        // Stagger completions so emission genuinely runs behind.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return CountedRaw{};
      },
      [](const SpecPoint& pt, CountedRaw&&) { return pt.threshold; },
      [&](const SpecPoint& pt, double&& v) {
        EXPECT_EQ(v, pt.threshold);
        emitted.push_back(v);
      });

  ASSERT_EQ(emitted.size(), points.size());
  for (std::size_t i = 0; i < emitted.size(); ++i)
    EXPECT_EQ(emitted[i], static_cast<double>(i));  // spec order
  EXPECT_EQ(CountedRaw::live.load(), 0);
  // Transients during move-from-run-into-reduce allow a couple of copies
  // per worker, but never anything proportional to the sweep size.
  EXPECT_LE(CountedRaw::max_live.load(), static_cast<int>(3 * kThreads));
}

TEST(ExperimentRunnerTest, MapReduceWorksOnShardSubsetsWithGlobalIndices) {
  SweepSpec spec;
  for (int i = 0; i < 10; ++i) spec.thresholds.push_back(i);
  auto points = spec.expand();
  // Keep only the odd global indices, as ShardPlan{1,2} would.
  std::vector<SpecPoint> local;
  for (const auto& pt : points)
    if (pt.index % 2 == 1) local.push_back(pt);

  const ExperimentRunner runner(4);
  std::vector<std::size_t> seen;
  runner.map_reduce<int, int>(
      local, [](const SpecPoint& pt) { return static_cast<int>(pt.index); },
      [](const SpecPoint&, int&& v) { return v; },
      [&](const SpecPoint& pt, int&& v) {
        EXPECT_EQ(static_cast<std::size_t>(v), pt.index);
        seen.push_back(pt.index);
      });
  ASSERT_EQ(seen.size(), 5u);
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 2 * i + 1);  // global indices, ascending
}

// The workhorse equivalence check: the driver with 1 thread must produce
// exactly what a plain serial for-loop over the same per-point run body
// produces (the shape the pre-refactor bench mains had), and the driver
// with 8 threads must match the driver with 1 thread bit-for-bit. Note
// the *numbers* intentionally differ from the seed=1 pre-refactor
// baseline — configurations are now seeded by spec_seed(point); the
// SeedSchemeIsPinned golden below guards that scheme against silent
// drift. Runs the micro two-phase workload at a test-sized input on 4
// nodes across a small parameter sweep.
sim::RunSummary run_micro(const SpecPoint& pt) {
  MachineConfig cfg = default_config(4);
  cfg.seed = spec_seed(pt);
  apps::MicroParams p;
  p.repeats = 2;
  p.iters_per_segment = 300 + static_cast<unsigned>(pt.threshold);
  cfg.phase.interval_instructions = 80'000;
  sim::Machine machine(cfg);
  return machine.run(apps::make_two_phase(p));
}

void expect_identical(const sim::RunSummary& a, const sim::RunSummary& b) {
  ASSERT_EQ(a.procs.size(), b.procs.size());
  ASSERT_EQ(a.final_cycles, b.final_cycles);
  ASSERT_EQ(a.instructions, b.instructions);
  ASSERT_EQ(a.barrier_episodes, b.barrier_episodes);
  for (std::size_t p = 0; p < a.procs.size(); ++p) {
    const auto& ia = a.procs[p].intervals;
    const auto& ib = b.procs[p].intervals;
    ASSERT_EQ(ia.size(), ib.size());
    for (std::size_t k = 0; k < ia.size(); ++k) {
      EXPECT_EQ(ia[k].bbv, ib[k].bbv);
      EXPECT_EQ(ia[k].counts, ib[k].counts);
      EXPECT_EQ(ia[k].cycles, ib[k].cycles);
      EXPECT_EQ(ia[k].instructions, ib[k].instructions);
      // Bit-level equality, deliberately: determinism is the contract.
      EXPECT_EQ(ia[k].dds, ib[k].dds);
      EXPECT_EQ(ia[k].cpi, ib[k].cpi);
    }
  }
}

TEST(ExperimentRunnerTest, OneThreadMatchesSerialLoopOnMicroAtTestScale) {
  SweepSpec spec;
  spec.thresholds = {0.0, 100.0, 200.0};
  const auto points = spec.expand();

  // Pre-refactor shape: a plain serial loop over the configurations.
  std::vector<sim::RunSummary> serial;
  for (const auto& pt : points) serial.push_back(run_micro(pt));

  const ExperimentRunner one(1);
  const auto driven = collect<sim::RunSummary>(one, points, run_micro);

  ASSERT_EQ(driven.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    expect_identical(serial[i], driven[i]);
}

TEST(ExperimentRunnerTest, EightThreadsMatchesOneThreadOnMicro) {
  SweepSpec spec;
  spec.thresholds = {0.0, 100.0, 200.0, 300.0};
  const auto points = spec.expand();

  const ExperimentRunner one(1);
  const ExperimentRunner eight(8);
  const auto a = collect<sim::RunSummary>(one, points, run_micro);
  const auto b = collect<sim::RunSummary>(eight, points, run_micro);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

}  // namespace
}  // namespace dsm::driver
