// scheduler.hpp — deterministic cooperative scheduling of simulated
// processors.
//
// Each simulated processor runs as a fiber on the thread that calls run(),
// so exactly one is ever executing: the dispatch loop switches to the
// runnable fiber with the smallest local cycle count (ties by id), which
// runs until it yields, blocks, or finishes. Min-cycle-first keeps the
// per-processor clocks in near-lockstep, so the memory-controller and
// network contention models observe requests in approximately global time
// order — and every run is bit-reproducible.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace dsm::sim {

class Scheduler {
 public:
  using ThreadFn = std::function<void(unsigned tid)>;

  /// Stack bytes per fiber, above a PROT_NONE guard page. Deepest use
  /// measured (lowest byte touched, all four apps on 2, 8 and 32 nodes):
  /// 4,008 B in Release at paper scale, 48,000 B (FMM) under ASan/UBSan at
  /// bench scale. The stacks are MAP_NORESERVE: untouched pages cost nothing.
  static constexpr std::size_t kStackBytes = 256 * 1024;

  explicit Scheduler(unsigned num_threads);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Runs `fn(tid)` on every simulated processor to completion, on the
  /// calling thread. May be called once per Scheduler instance. If `fn`
  /// throws, run() dispatches no more and rethrows. The other processors
  /// are abandoned without unwinding: objects their frames own are never
  /// destroyed, and their stacks are unmapped with the Scheduler.
  void run(const ThreadFn& fn);

  // ---- calls from inside simulated threads ----

  /// Local clock of thread `tid` (readable/advanceable by its own code and
  /// by releasers at sync points).
  Cycle cycle(unsigned tid) const;
  void advance(unsigned tid, Cycle dc);
  void set_cycle(unsigned tid, Cycle c);

  /// Stable pointer to `tid`'s clock slot, for flattened per-op loops
  /// (sim::Machine) that read/advance the clock millions of times per
  /// run: same memory every cycle()/advance() call touches, minus the
  /// bounds check and call per op. The slot lives as long as the
  /// Scheduler and is only ever written by the running thread (or by a
  /// releaser at a sync point, exactly like advance()).
  Cycle* cycle_slot(unsigned tid) {
    DSM_ASSERT(tid < n_);
    return &cycles_[tid];
  }

  /// Cooperatively hand control back; the thread stays runnable and will
  /// resume when it again holds the minimum clock.
  void yield(unsigned tid);

  /// Mark self blocked and hand control back; resumes only after another
  /// thread calls unblock(tid).
  void block(unsigned tid);

  /// Make a blocked thread runnable again (called by the running thread
  /// performing the release).
  void unblock(unsigned tid);

  std::uint64_t context_switches() const { return switches_; }

 private:
  enum class State : std::uint8_t { kRunnable, kBlocked, kFinished };

  /// Picks the runnable thread with the minimum (cycle, tid); -1 if none.
  int pick() const;
  static void trampoline(int tid);  ///< every fiber's entry point

  unsigned n_;
  std::vector<Cycle> cycles_;
  std::vector<State> states_;
  std::vector<ucontext_t> fibers_;
  ucontext_t dispatcher_{};
  std::size_t page_bytes_;
  char* stacks_ = nullptr;  ///< one mapping: n_ x (guard page + stack)
  const ThreadFn* fn_ = nullptr;
  std::exception_ptr error_;
  const void* host_stack_ = nullptr;  ///< the dispatching stack, for ASan
  std::size_t host_stack_bytes_ = 0;
  std::uint64_t switches_ = 0;
  bool ran_ = false;
};

}  // namespace dsm::sim
