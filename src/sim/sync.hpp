// sync.hpp — synchronization primitives over the cooperative scheduler:
// sense-reversing barrier and FIFO ticket lock.
//
// Timing: a barrier costs base + per-stage * ceil(log2(n)) cycles after the
// last arrival; a contended lock hands off with a transfer delay. These
// stalls are *cycles without instructions*, which is exactly how parallel
// imbalance shows up in per-interval CPI — the signal the paper's CoV
// metric quantifies.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/scheduler.hpp"

namespace dsm::sim {

class SimBarrier {
 public:
  SimBarrier(Scheduler& sched, unsigned participants, const SyncConfig& cfg);

  /// Blocks `tid` until all participants arrive; on release every waiter's
  /// clock advances to (max arrival + barrier cost).
  void wait(unsigned tid);

  std::uint64_t episodes() const { return episodes_; }
  /// Mean cycles a participant waits at the barrier (imbalance measure).
  const RunningStat& wait_stat() const { return wait_stat_; }

 private:
  Cycle release_cost() const;

  Scheduler* sched_;
  unsigned n_;
  SyncConfig cfg_;
  unsigned arrived_ = 0;
  Cycle max_arrival_ = 0;
  std::vector<unsigned> waiters_;
  std::uint64_t episodes_ = 0;
  RunningStat wait_stat_;
};

class SimLock {
 public:
  SimLock(Scheduler& sched, const SyncConfig& cfg);

  void acquire(unsigned tid);
  void release(unsigned tid);
  bool held() const { return held_; }

  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t contended() const { return contended_; }

 private:
  Scheduler* sched_;
  SyncConfig cfg_;
  bool held_ = false;
  unsigned owner_ = 0;
  Cycle release_cycle_ = 0;
  std::deque<unsigned> waiters_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_ = 0;
};

}  // namespace dsm::sim
