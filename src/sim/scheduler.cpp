#include "sim/scheduler.hpp"

#include <sys/mman.h>
#include <unistd.h>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/common_interface_defs.h>
#endif

#include "common/assert.hpp"

namespace dsm::sim {
namespace {

/// The Scheduler dispatching on this thread: makecontext passes only ints,
/// so a fiber finds its Scheduler here.
thread_local Scheduler* tls_current = nullptr;

/// Switches from `from` to `to`, whose stack starts at `bottom`, until
/// something switches back. ASan must hear of every switch, or an
/// exception on a fiber unpoisons the wrong stack.
void switch_to(ucontext_t& from, const ucontext_t& to,
               [[maybe_unused]] const void* bottom,
               [[maybe_unused]] std::size_t bytes) {
#ifdef __SANITIZE_ADDRESS__
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, bottom, bytes);
  swapcontext(&from, &to);
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#else
  swapcontext(&from, &to);
#endif
}

}  // namespace

Scheduler::Scheduler(unsigned num_threads)
    : n_(num_threads),
      cycles_(num_threads, 0),
      states_(num_threads, State::kRunnable),
      fibers_(num_threads),
      page_bytes_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
  DSM_ASSERT(n_ > 0);
  stacks_ = static_cast<char*>(
      mmap(nullptr, n_ * (page_bytes_ + kStackBytes), PROT_READ | PROT_WRITE,
           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0));
  DSM_ASSERT_MSG(stacks_ != MAP_FAILED, "cannot map the fiber stacks");
  for (ucontext_t& f : fibers_) getcontext(&f);
  for (unsigned tid = 0; tid < n_; ++tid) {
    char* const guard = stacks_ + tid * (page_bytes_ + kStackBytes);
    DSM_ASSERT_MSG(mprotect(guard, page_bytes_, PROT_NONE) == 0,
                   "cannot protect a fiber's guard page");
    fibers_[tid].uc_stack.ss_sp = guard + page_bytes_;
    fibers_[tid].uc_stack.ss_size = kStackBytes;
    makecontext(&fibers_[tid], reinterpret_cast<void (*)()>(&trampoline), 1,
                static_cast<int>(tid));
  }
}

Scheduler::~Scheduler() { munmap(stacks_, n_ * (page_bytes_ + kStackBytes)); }

void Scheduler::run(const ThreadFn& fn) {
  DSM_ASSERT_MSG(!ran_, "a Scheduler instance runs once");
  ran_ = true;
  fn_ = &fn;

  // Dispatch loop: switch to the min-cycle runnable thread until none is
  // left or one has thrown.
  Scheduler* const outer = tls_current;
  tls_current = this;
  for (int next = pick(); next >= 0 && !error_; next = pick()) {
    ++switches_;
    ucontext_t& f = fibers_[static_cast<unsigned>(next)];
    switch_to(dispatcher_, f, f.uc_stack.ss_sp, f.uc_stack.ss_size);
  }
  tls_current = outer;

  if (error_) std::rethrow_exception(error_);
  for (const State s : states_)
    DSM_ASSERT_MSG(s == State::kFinished,
                   "simulated deadlock: blocked threads but none runnable");
}

void Scheduler::trampoline(int tid) {
  Scheduler& s = *tls_current;
#ifdef __SANITIZE_ADDRESS__
  // Only a fiber's first entry names the dispatching stack; a later
  // switch back from the dispatch loop would name the fiber's own.
  __sanitizer_finish_switch_fiber(nullptr, &s.host_stack_,
                                  &s.host_stack_bytes_);
#endif
  try {
    (*s.fn_)(static_cast<unsigned>(tid));
  } catch (...) {
    s.error_ = std::current_exception();
  }
  s.states_[static_cast<unsigned>(tid)] = State::kFinished;
#ifdef __SANITIZE_ADDRESS__
  // A null save slot: this fiber never runs again.
  __sanitizer_start_switch_fiber(nullptr, s.host_stack_, s.host_stack_bytes_);
#endif
  setcontext(&s.dispatcher_);
}

int Scheduler::pick() const {
  int best = -1;
  for (unsigned i = 0; i < n_; ++i) {
    if (states_[i] != State::kRunnable) continue;
    if (best < 0 || cycles_[i] < cycles_[static_cast<unsigned>(best)])
      best = static_cast<int>(i);
  }
  return best;
}

Cycle Scheduler::cycle(unsigned tid) const {
  DSM_ASSERT(tid < n_);
  return cycles_[tid];
}

void Scheduler::advance(unsigned tid, Cycle dc) {
  DSM_ASSERT(tid < n_);
  cycles_[tid] += dc;
}

void Scheduler::set_cycle(unsigned tid, Cycle c) {
  DSM_ASSERT(tid < n_);
  cycles_[tid] = c;
}

void Scheduler::yield(unsigned tid) {
  DSM_ASSERT(tid < n_);
  DSM_ASSERT(states_[tid] == State::kRunnable);
  switch_to(fibers_[tid], dispatcher_, host_stack_, host_stack_bytes_);
}

void Scheduler::block(unsigned tid) {
  DSM_ASSERT(tid < n_);
  states_[tid] = State::kBlocked;
  switch_to(fibers_[tid], dispatcher_, host_stack_, host_stack_bytes_);
  DSM_ASSERT(states_[tid] == State::kRunnable);
}

void Scheduler::unblock(unsigned tid) {
  DSM_ASSERT(tid < n_);
  DSM_ASSERT_MSG(states_[tid] == State::kBlocked,
                 "unblock of a non-blocked thread");
  states_[tid] = State::kRunnable;
}

}  // namespace dsm::sim
