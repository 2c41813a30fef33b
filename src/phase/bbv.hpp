// bbv.hpp — the basic-block-vector accumulator of Sherwood et al. (paper
// Fig. 1): an array of hardware counters hashed by branch instruction
// address, each incremented by the number of instructions committed since
// the last branch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "common/types.hpp"

namespace dsm::phase {

/// A normalized BBV snapshot: entries rescaled to sum to `norm` so that
/// Manhattan distances are comparable across intervals regardless of the
/// exact committed-instruction count.
using BbvVector = std::vector<std::uint32_t>;

/// Manhattan (L1) distance between two equal-length vectors.
std::uint64_t manhattan(std::span<const std::uint32_t> a,
                        std::span<const std::uint32_t> b);

/// Manhattan distance with an early exit: returns any value > cap as soon
/// as the running sum exceeds `cap` (the footprint search only cares
/// whether the distance is under the threshold); the exact distance is
/// returned whenever it is <= cap. The exit is checked once per 4-wide
/// unrolled block, so the over-cap return value may differ from the
/// scalar loop's — callers must only compare it against cap.
std::uint64_t manhattan_capped(std::span<const std::uint32_t> a,
                               std::span<const std::uint32_t> b,
                               std::uint64_t cap);

class BbvAccumulator {
 public:
  /// `entries` hardware counters (paper: 32). `norm` is the fixed total
  /// weight snapshots are rescaled to (config: 1<<16).
  BbvAccumulator(unsigned entries, std::uint32_t norm);

  /// Commits a branch at address `branch_addr` that retired with
  /// `instrs_since_last_branch` instructions since the previous branch
  /// (including itself): accumulator[hash(addr)] += count.
  void record_branch(Addr branch_addr, InstrCount instrs_since_last_branch) {
    record_hashed(fnv1a64(branch_addr), instrs_since_last_branch);
  }

  /// record_branch() for a caller that already holds the address's hash,
  /// `pc_hash` == fnv1a64(branch_addr): the simulated core computes it
  /// where the block id is a compile-time constant.
  void record_hashed(std::uint64_t pc_hash,
                     InstrCount instrs_since_last_branch) {
    raw_[slot_of(pc_hash)] += instrs_since_last_branch;
    total_ += instrs_since_last_branch;
  }

  /// Normalized snapshot of the accumulator (does not reset).
  BbvVector snapshot() const;

  /// Clears all counters for the next interval.
  void reset();

  unsigned entries() const { return static_cast<unsigned>(raw_.size()); }
  std::uint64_t total_weight() const { return total_; }
  std::span<const std::uint64_t> raw() const { return raw_; }

  /// The accumulator's hash: FNV-1a of the branch address folded into the
  /// table size (a power of two is not required).
  unsigned index_of(Addr branch_addr) const {
    return slot_of(fnv1a64(branch_addr));
  }

 private:
  /// `pc_hash` folded into the table: a mask when the entry count is a
  /// power of two, else the remainder (the same slot either way).
  unsigned slot_of(std::uint64_t pc_hash) const {
    return static_cast<unsigned>(mask_ != kNoMask ? pc_hash & mask_
                                                  : pc_hash % raw_.size());
  }

  static constexpr std::uint64_t kNoMask = ~std::uint64_t{0};
  std::vector<std::uint64_t> raw_;
  std::uint64_t mask_;  ///< entries - 1 for a power of two, else kNoMask
  std::uint64_t total_ = 0;
  std::uint32_t norm_;
};

}  // namespace dsm::phase
