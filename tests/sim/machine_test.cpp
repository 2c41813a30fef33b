// machine_test.cpp — end-to-end behaviour of the simulated DSM machine:
// interval recording semantics, CPI accounting, DDV wiring, determinism,
// and the synchronization-instruction exclusion rule from the paper.
#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "sim/thread_ctx.hpp"

namespace dsm::sim {
namespace {

MachineConfig small_cfg(unsigned nodes, InstrCount interval = 80'000) {
  MachineConfig cfg = default_config(nodes);
  cfg.phase.interval_instructions = interval * nodes;  // per-proc interval
  return cfg;
}

TEST(MachineTest, RecordsIntervalsOfRequestedLength) {
  Machine m(small_cfg(2, 10'000));
  const auto run = m.run([](ThreadCtx& ctx) {
    for (int i = 0; i < 3500; ++i) ctx.bb(sim::bb_id("t"), 9);
  });
  // 3500 * 10 instr = 35'000 per proc -> 3 full intervals of ~10k.
  ASSERT_EQ(run.procs.size(), 2u);
  EXPECT_EQ(run.procs[0].intervals.size(), 3u);
  for (const auto& rec : run.procs[0].intervals) {
    EXPECT_GE(rec.instructions, 10'000u);
    EXPECT_LT(rec.instructions, 10'010u);  // bounded overshoot
    EXPECT_GT(rec.cycles, 0u);
    EXPECT_NEAR(rec.cpi,
                static_cast<double>(rec.cycles) / rec.instructions, 1e-12);
  }
}

TEST(MachineTest, CpiReflectsComputeBound) {
  Machine m(small_cfg(1, 60'000));
  const auto run = m.run([](ThreadCtx& ctx) {
    for (int i = 0; i < 2000; ++i) ctx.bb(sim::bb_id("c"), 59);
  });
  // Pure 6-wide integer code: CPI must hover near 1/6 plus branch costs.
  EXPECT_GT(run.cpi(0), 0.15);
  EXPECT_LT(run.cpi(0), 0.30);
}

TEST(MachineTest, MemoryStallsRaiseCpi) {
  auto body_compute = [](ThreadCtx& ctx) {
    for (int i = 0; i < 5000; ++i) ctx.bb(sim::bb_id("x"), 19);
  };
  Machine m1(small_cfg(1));
  const double cpi_compute = m1.run(body_compute).cpi(0);

  auto body_memory = [](ThreadCtx& ctx) {
    const Addr base = ctx.alloc(8u << 20);  // 8 MB: exceeds L2
    for (int i = 0; i < 5000; ++i) {
      ctx.load(base + (static_cast<Addr>(i) * 4099 * 32) % (8u << 20));
      ctx.bb(sim::bb_id("x"), 18);
    }
  };
  Machine m2(small_cfg(1));
  const double cpi_memory = m2.run(body_memory).cpi(0);
  EXPECT_GT(cpi_memory, cpi_compute * 2);
}

TEST(MachineTest, SyncCyclesCountButSyncInstructionsDoNot) {
  // Paper: intervals are defined over committed *non-synchronization*
  // instructions; waiting still burns cycles (raising CPI).
  Machine m(small_cfg(2, 5'000));
  const auto run = m.run([](ThreadCtx& ctx) {
    for (int r = 0; r < 4; ++r) {
      // Node 1 does triple work; node 0 waits at the barrier.
      const int iters = ctx.self() == 1 ? 1500 : 500;
      for (int i = 0; i < iters; ++i) ctx.bb(sim::bb_id("w"), 9);
      ctx.barrier();
    }
  });
  // Node 0 committed 4*5000 = 20k instructions, node 1 60k.
  EXPECT_EQ(run.instructions[0], 20'000u);
  EXPECT_EQ(run.instructions[1], 60'000u);
  // Both finish at the same cycle (last barrier), so node 0's CPI is ~3x.
  EXPECT_EQ(run.final_cycles[0], run.final_cycles[1]);
  EXPECT_GT(run.cpi(0), 2.5 * run.cpi(1));
  EXPECT_GT(run.sync_cycles[0], run.sync_cycles[1]);
}

TEST(MachineTest, IntervalRecordsCarryDdvVectors) {
  Machine m(small_cfg(4, 4'000));
  const auto run = m.run([](ThreadCtx& ctx) {
    // Every node hammers node-0-homed memory.
    static Addr hot = 0;
    if (ctx.self() == 0) hot = ctx.alloc_on(1u << 16, 0);
    ctx.barrier();
    for (int i = 0; i < 3000; ++i) {
      ctx.load(hot + static_cast<Addr>(ctx.rng().next_below(1u << 16)));
      ctx.bb(sim::bb_id("m"), 3);
    }
  });
  const auto& rec = run.procs[1].intervals.at(0);
  ASSERT_EQ(rec.counts.size(), 8u);
  const auto f = rec.f();
  // Node 1's own accesses concentrate on home 0.
  EXPECT_GT(f[0], f[1] + f[2] + f[3]);
  // Contention vector aggregates everyone: C[0] >= own F[0].
  EXPECT_GE(rec.c()[0], f[0]);
  EXPECT_GT(rec.dds, 0.0);
}

TEST(MachineTest, DdvTrafficIsRecorded) {
  Machine m(small_cfg(4, 4'000));
  const auto run = m.run([](ThreadCtx& ctx) {
    for (int i = 0; i < 2000; ++i) ctx.bb(sim::bb_id("d"), 9);
  });
  const std::size_t intervals = run.procs[0].intervals.size();
  ASSERT_GT(intervals, 0u);
  // Each interval end: (n-1) requests + (n-1) replies.
  EXPECT_EQ(run.net_messages[3] % (2 * 3), 0u);
  EXPECT_GE(run.net_messages[3], intervals * 2 * 3);
}

TEST(MachineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Machine m(small_cfg(4, 8'000));
    return m.run([](ThreadCtx& ctx) {
      const Addr base = ctx.self() == 0 ? ctx.alloc_distributed(1u << 18)
                                        : 0;
      static Addr shared_base = 0;
      if (ctx.self() == 0) shared_base = base;
      ctx.barrier();
      for (int i = 0; i < 4000; ++i) {
        ctx.load(shared_base +
                 static_cast<Addr>(ctx.rng().next_below(1u << 18)));
        ctx.bb(sim::bb_id("det"), 7);
      }
      ctx.barrier();
    });
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.procs.size(), b.procs.size());
  for (unsigned p = 0; p < a.procs.size(); ++p) {
    EXPECT_EQ(a.final_cycles[p], b.final_cycles[p]) << p;
    ASSERT_EQ(a.procs[p].intervals.size(), b.procs[p].intervals.size());
    for (std::size_t i = 0; i < a.procs[p].intervals.size(); ++i) {
      EXPECT_EQ(a.procs[p].intervals[i].cycles,
                b.procs[p].intervals[i].cycles);
      EXPECT_EQ(a.procs[p].intervals[i].bbv, b.procs[p].intervals[i].bbv);
      EXPECT_EQ(a.procs[p].intervals[i].counts,
                b.procs[p].intervals[i].counts);
    }
  }
}

TEST(MachineTest, AppExceptionSurfacesFromRun) {
  // Processor 1 throws while the others wait at the barrier: run() stops
  // and rethrows on the caller's thread.
  Machine m(small_cfg(4));
  const auto app = [](ThreadCtx& ctx) {
    if (ctx.self() == 1) {
      const Addr base = ctx.alloc(1u << 12);
      for (Addr a = 0; a < (1u << 12); a += 64) ctx.load(base + a);
      throw std::runtime_error("boom");
    }
    ctx.barrier();
  };
  EXPECT_THROW(
      {
        try {
          m.run(app);
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "boom");
          throw;
        }
      },
      std::runtime_error);
}

TEST(MachineTest, BbvSnapshotsReflectBlockMix) {
  Machine m(small_cfg(1, 30'000));
  const auto run = m.run([](ThreadCtx& ctx) {
    // Interval 0: pure block A; interval 1: pure block B.
    for (int i = 0; i < 1000; ++i) ctx.bb(sim::bb_id("A"), 29);
    for (int i = 0; i < 1000; ++i) ctx.bb(sim::bb_id("B"), 29);
  });
  ASSERT_GE(run.procs[0].intervals.size(), 2u);
  const auto& v0 = run.procs[0].intervals[0].bbv;
  const auto& v1 = run.procs[0].intervals[1].bbv;
  EXPECT_GT(phase::manhattan(v0, v1), 100'000u);  // nearly disjoint
}

// The branch address every app block closes with, as the core's
// predictor and the BBV see it: (fnv1a64(block) << 2) | 0x400000. The
// values are that formula's, taken before ThreadCtx computed it inline.
TEST(MachineTest, BranchPcOfABlockIsPinned) {
  static_assert(branch_pc(bb_id("lu.inner")) == 0xe5c8945d85e03cd8ull);
  EXPECT_EQ(branch_pc(bb_id("fmm.direct")), 0x4ba077aac361ed64ull);
}

TEST(MachineTest, RemoteFractionGrowsWithHotRemoteData) {
  Machine m(small_cfg(4, 8'000));
  const auto run = m.run([](ThreadCtx& ctx) {
    static Addr hot = 0;
    if (ctx.self() == 0) hot = ctx.alloc_on(1u << 16, 0);
    ctx.barrier();
    for (int i = 0; i < 3000; ++i) {
      ctx.load(hot + static_cast<Addr>(ctx.rng().next_below(1u << 16)));
      ctx.bb(sim::bb_id("r"), 4);
    }
  });
  // Node 0 reads locally; node 3 reads remotely (via directory/c2c).
  EXPECT_LT(run.remote_access_fraction(0), 0.5);
  EXPECT_GT(run.remote_access_fraction(3), 0.5);
}

TEST(MachineTest, LocksSerializeCriticalSections) {
  Machine m(small_cfg(4, 1'000'000));
  const auto run = m.run([](ThreadCtx& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.lock(1);
      ctx.compute(1000, 0.0);
      ctx.unlock(1);
    }
  });
  // 40 critical sections of ~167 cycles each serialize: the last thread
  // through the lock finishes after 40 * ~160 cycles.
  const Cycle last =
      *std::max_element(run.final_cycles.begin(), run.final_cycles.end());
  EXPECT_GT(last, 40u * 160u);
}

TEST(MachineDeathTest, MachineRunsOnlyOnce) {
  Machine m(small_cfg(1));
  m.run([](ThreadCtx&) {});
  EXPECT_DEATH(m.run([](ThreadCtx&) {}), "one application");
}

}  // namespace
}  // namespace dsm::sim
