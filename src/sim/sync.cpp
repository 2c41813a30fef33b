#include "sim/sync.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace dsm::sim {

SimBarrier::SimBarrier(Scheduler& sched, unsigned participants,
                       const SyncConfig& cfg)
    : sched_(&sched), n_(participants), cfg_(cfg) {
  DSM_ASSERT(n_ >= 1);
  waiters_.reserve(n_);
}

Cycle SimBarrier::release_cost() const {
  const unsigned stages =
      n_ <= 1 ? 0 : std::bit_width(std::uint32_t{n_ - 1});  // ceil(log2 n)
  return cfg_.barrier_base_cycles + cfg_.barrier_per_stage_cycles * stages;
}

void SimBarrier::wait(unsigned tid) {
  const Cycle arrival = sched_->cycle(tid);
  max_arrival_ = std::max(max_arrival_, arrival);
  ++arrived_;

  if (arrived_ < n_) {
    waiters_.push_back(tid);
    sched_->block(tid);
    // Released: the last arriver already set our clock.
    return;
  }

  // Last arrival: release everyone at max arrival + cost.
  const Cycle release = max_arrival_ + release_cost();
  ++episodes_;
  for (const unsigned w : waiters_) {
    wait_stat_.add(static_cast<double>(release - sched_->cycle(w)));
    sched_->set_cycle(w, release);
    sched_->unblock(w);
  }
  wait_stat_.add(static_cast<double>(release - arrival));
  waiters_.clear();
  arrived_ = 0;
  max_arrival_ = 0;
  sched_->set_cycle(tid, release);
}

SimLock::SimLock(Scheduler& sched, const SyncConfig& cfg)
    : sched_(&sched), cfg_(cfg) {}

void SimLock::acquire(unsigned tid) {
  ++acquisitions_;
  if (!held_) {
    held_ = true;
    owner_ = tid;
    // A thread whose local clock lags the lock's last release acquires at
    // the release time, not "in the past" — the cooperative scheduler lets
    // threads run skewed, but lock occupancy intervals must never overlap
    // in simulated time.
    if (sched_->cycle(tid) < release_cycle_)
      sched_->set_cycle(tid, release_cycle_);
    sched_->advance(tid, cfg_.lock_acquire_cycles);
    return;
  }
  ++contended_;
  waiters_.push_back(tid);
  sched_->block(tid);
  // Woken by release(): owner_ and clock already set by the releaser.
  DSM_ASSERT(owner_ == tid);
}

void SimLock::release(unsigned tid) {
  DSM_ASSERT_MSG(held_ && owner_ == tid, "release by non-owner");
  release_cycle_ = sched_->cycle(tid);
  if (waiters_.empty()) {
    held_ = false;
    return;
  }
  const unsigned next = waiters_.front();
  waiters_.pop_front();
  owner_ = next;
  const Cycle start = std::max(release_cycle_ + cfg_.lock_transfer_cycles,
                               sched_->cycle(next));
  sched_->set_cycle(next, start);
  sched_->unblock(next);
}

}  // namespace dsm::sim
