// obs_determinism_test.cpp — the observability layer's central promise,
// regression-tested at the Machine level: the deterministic metrics
// snapshot AND the per-node trace event sequences are bit-identical
// across repeat runs and sensible across every protocol, because both
// are recorded only at simulated-event sites (misses, directory
// transitions, evictions, phase boundaries) that execute in the same
// order regardless of how the host schedules the work. The harness-level
// --threads/--shards axes are covered by the bench/obs_equivalence ctest,
// which byte-compares whole NDJSON streams.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "common/config.hpp"
#include "obs/trace.hpp"

namespace dsm {
namespace {

struct ObsRun {
  std::string snapshot;      ///< RunSummary::obs_json
  obs::TraceFileData trace;  ///< parsed post-run dump
};

ObsRun run_with_obs(const char* app, Protocol protocol,
                    const std::string& trace_path) {
  ObsConfig obs;
  obs.stats = true;
  obs.trace = true;
  obs.trace_path = trace_path;

  sim::RunSummary run =
      bench::run_workload(apps::app_by_name(app), apps::Scale::kTest,
                          /*nodes=*/4, /*verbose=*/false, /*seed=*/0x0b5u,
                          protocol, obs);

  ObsRun r;
  r.snapshot = std::move(run.obs_json);
  std::string err;
  EXPECT_TRUE(obs::read_trace_file(trace_path, &r.trace, &err)) << err;
  std::remove(trace_path.c_str());
  return r;
}

void expect_identical_traces(const obs::TraceFileData& a,
                             const obs::TraceFileData& b) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    EXPECT_EQ(a.nodes[n].dropped, b.nodes[n].dropped) << "node " << n;
    ASSERT_EQ(a.nodes[n].events.size(), b.nodes[n].events.size())
        << "node " << n;
    for (std::size_t i = 0; i < a.nodes[n].events.size(); ++i) {
      ASSERT_EQ(std::memcmp(&a.nodes[n].events[i], &b.nodes[n].events[i],
                            sizeof(obs::TraceEvent)),
                0)
          << "node " << n << " event " << i << " ("
          << obs::trace_kind_name(a.nodes[n].events[i].kind) << " vs "
          << obs::trace_kind_name(b.nodes[n].events[i].kind) << ")";
    }
  }
}

class ObsDeterminismTest : public ::testing::TestWithParam<Protocol> {};

// Re-running the same configuration must reproduce the same snapshot and
// trace byte-for-byte — the property that lets CI compare runs at all.
TEST_P(ObsDeterminismTest, RepeatRunsAreBitIdentical) {
  const Protocol protocol = GetParam();
  const std::string dir = ::testing::TempDir();
  const ObsRun one = run_with_obs("LU", protocol, dir + "obs_det_r1.trace");
  const ObsRun two = run_with_obs("LU", protocol, dir + "obs_det_r2.trace");

  ASSERT_FALSE(one.snapshot.empty());
  EXPECT_EQ(one.snapshot, two.snapshot);
  // The deterministic snapshot carries the coherence and network lanes.
  EXPECT_NE(one.snapshot.find("coh.trans."), std::string::npos);
  EXPECT_NE(one.snapshot.find("net.link"), std::string::npos);
  EXPECT_NE(one.snapshot.find("dir.probe_len"), std::string::npos);

  expect_identical_traces(one.trace, two.trace);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ObsDeterminismTest,
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

// Simulated results must not move when observability is switched on: the
// layer observes the machine, it never feeds back into it.
TEST(ObsDeterminismTest2, EnablingObservabilityDoesNotPerturbSimulation) {
  const auto run_sum = [](const ObsConfig& obs) {
    sim::RunSummary run = bench::run_workload(
        apps::app_by_name("LU"), apps::Scale::kTest, /*nodes=*/4,
        /*verbose=*/false, /*seed=*/0x0b5u, Protocol::kMesi, obs);
    std::uint64_t instrs = 0, cycles = 0;
    for (unsigned p = 0; p < 4; ++p) {
      instrs += run.instructions[p];
      cycles += run.final_cycles[p];
    }
    return std::make_pair(instrs, cycles);
  };

  ObsConfig off;
  ObsConfig on;
  on.stats = true;
  on.trace = true;
  on.trace_path = ::testing::TempDir() + "obs_det_perturb.trace";
  const auto plain = run_sum(off);
  const auto observed = run_sum(on);
  std::remove(on.trace_path.c_str());
  EXPECT_EQ(plain, observed);
}

}  // namespace
}  // namespace dsm
