#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dsm::sim {
namespace {

TEST(SchedulerTest, RunsEveryThreadOnce) {
  Scheduler s(4);
  std::vector<int> ran(4, 0);
  s.run([&](unsigned tid) { ++ran[tid]; });
  for (const int r : ran) EXPECT_EQ(r, 1);
}

TEST(SchedulerTest, MinCycleFirstOrdering) {
  // Threads advance different amounts per yield; the execution trace must
  // interleave in min-cycle order.
  Scheduler s(2);
  std::vector<std::pair<unsigned, Cycle>> trace;
  s.run([&](unsigned tid) {
    for (int i = 0; i < 5; ++i) {
      trace.emplace_back(tid, s.cycle(tid));
      s.advance(tid, tid == 0 ? 10 : 25);  // thread 0 is "faster"
      s.yield(tid);
    }
  });
  // At every trace point, the running thread's cycle must be <= the cycle
  // the other thread resumed with next.
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    EXPECT_LE(trace[i].second, trace[i + 1].second + 25)
        << "entry " << i;  // bounded skew
  }
  // Thread 0 (cheaper steps) must run more often early on.
  unsigned zeros_in_first_half = 0;
  for (std::size_t i = 0; i < trace.size() / 2; ++i)
    zeros_in_first_half += (trace[i].first == 0);
  EXPECT_GE(zeros_in_first_half, trace.size() / 4);
}

TEST(SchedulerTest, DeterministicInterleaving) {
  auto run_once = [] {
    Scheduler s(4);
    std::vector<unsigned> order;
    s.run([&](unsigned tid) {
      for (int i = 0; i < 8; ++i) {
        order.push_back(tid);
        s.advance(tid, (tid + 1) * 7);
        s.yield(tid);
      }
    });
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SchedulerTest, BlockUnblockHandshake) {
  Scheduler s(2);
  bool woke = false;
  s.run([&](unsigned tid) {
    if (tid == 0) {
      s.block(tid);  // sleeps until thread 1 unblocks us
      woke = true;
    } else {
      s.advance(tid, 100);
      s.unblock(0);
      s.set_cycle(0, 150);
    }
  });
  EXPECT_TRUE(woke);
}

TEST(SchedulerTest, CycleAccessors) {
  Scheduler s(2);
  s.run([&](unsigned tid) {
    if (tid == 1) {
      s.advance(tid, 42);
      EXPECT_EQ(s.cycle(tid), 42u);
      s.set_cycle(tid, 1000);
      EXPECT_EQ(s.cycle(tid), 1000u);
    }
  });
}

TEST(SchedulerTest, ContextSwitchesCounted) {
  Scheduler s(2);
  s.run([&](unsigned tid) {
    for (int i = 0; i < 3; ++i) {
      s.advance(tid, 1);
      s.yield(tid);
    }
  });
  // At least one dispatch per thread turn.
  EXPECT_GE(s.context_switches(), 8u);
}

TEST(SchedulerDeathTest, DeadlockAborts) {
  // Every thread blocks and nobody unblocks: run() must abort with a
  // diagnostic rather than hang.
  EXPECT_DEATH(
      {
        Scheduler s(2);
        s.run([&](unsigned tid) { s.block(tid); });
      },
      "deadlock");
}

// At least 1 KiB of stack per call: the volatile frame is read after the
// recursive call returns, so the compiler can neither fold the frames nor
// turn the recursion into a loop.
std::size_t recurse(std::size_t depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return 0;
  return recurse(depth - 1) + static_cast<std::size_t>(frame[0]);
}

TEST(SchedulerDeathTest, StackOverflowHitsGuardPage) {
  // Processor 1 needs about 1.5x its stack. Without the guard page below
  // it, the overflow would write into processor 0's stack and return.
  EXPECT_DEATH(
      {
        Scheduler s(2);
        s.run([](unsigned tid) {
          if (tid == 1) recurse(Scheduler::kStackBytes * 3 / 2 / 1024);
        });
      },
      "");
}

}  // namespace
}  // namespace dsm::sim
