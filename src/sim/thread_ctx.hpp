// thread_ctx.hpp — the API application kernels program against. One
// ThreadCtx per simulated processor; all methods execute on that
// processor's behalf and advance its local clock.
//
// Conventions:
//  * load/store/compute/branch commit *instructions* (counted toward the
//    sampling interval); barrier/lock operations cost cycles but no
//    instructions (the paper counts non-synchronization instructions).
//  * bb(id, n, fp) is the basic-block helper: n instructions of straight-
//    line work terminated by a taken branch at a synthetic address derived
//    from `id` — this is what feeds the BBV accumulator.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/machine.hpp"

namespace dsm::sim {

/// Stable synthetic basic-block id from a source-site name; use distinct
/// names per loop/branch site in an app kernel.
constexpr BlockId bb_id(std::string_view site) {
  // FNV-1a over the site name.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Synthetic address of the branch closing `block`: what the core's
/// predictor and the BBV accumulator see.
constexpr Addr branch_pc(BlockId block) {
  return (fnv1a64(block) << 2) | 0x400000ull;
}

class ThreadCtx {
 public:
  ThreadCtx(Machine& m, unsigned tid) : m_(&m), tid_(tid) {}

  NodeId self() const { return tid_; }
  unsigned nprocs() const { return m_->config().num_nodes; }
  Cycle now() const { return m_->scheduler().cycle(tid_); }
  const MachineConfig& config() const { return m_->config(); }

  // ---- committed instructions ----
  void load(Addr a) { m_->op_mem(tid_, a, /*write=*/false); }
  void store(Addr a) { m_->op_mem(tid_, a, /*write=*/true); }
  /// `n` non-memory instructions, `fp_frac` of them floating-point.
  void compute(InstrCount n, double fp_frac = 0.0) {
    m_->op_compute(tid_, n, fp_frac);
  }
  /// A conditional branch at the synthetic address of `block`. The
  /// address and its BBV hash are computed here, inline, so both fold to
  /// constants for an app's constexpr block ids.
  void branch(BlockId block, bool taken = true) {
    const Addr pc = branch_pc(block);
    m_->op_branch(tid_, pc, fnv1a64(pc), taken);
  }
  /// Basic block: n straight-line instructions closed by a taken branch.
  void bb(BlockId block, InstrCount n, double fp_frac = 0.0) {
    if (n > 0) m_->op_compute(tid_, n, fp_frac);
    branch(block, true);
  }

  // ---- synchronization (cycles, no instructions) ----
  void barrier() { m_->op_barrier(tid_); }
  void lock(unsigned id) { m_->lock_by_id(id).acquire(tid_); }
  void unlock(unsigned id) { m_->lock_by_id(id).release(tid_); }

  // ---- memory management ----
  Addr alloc(std::uint64_t bytes) { return m_->allocator().alloc(bytes); }
  Addr alloc_on(std::uint64_t bytes, NodeId node) {
    return m_->allocator().alloc_on(bytes, node);
  }
  Addr alloc_distributed(std::uint64_t bytes, NodeId first = 0) {
    return m_->allocator().alloc_distributed(bytes, first);
  }

  /// Deterministic per-processor random stream.
  Rng& rng() { return m_->procs_.at(tid_)->rng; }

  Machine& machine() { return *m_; }

 private:
  Machine* m_;
  unsigned tid_;
};

}  // namespace dsm::sim
