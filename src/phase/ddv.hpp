// ddv.hpp — the paper's data distribution vector (§III-B): per-processor
// frequency matrix F, pre-programmed distance matrix D, contention vector
// C, and the scalar data distribution score
//
//     DDS_i = sum_j  F[i][j] * D[i][j] * C[j]
//
// where F[i][j] counts processor i's committed loads/stores to lines with
// home node j during i's current interval, and C[j] is the system-wide
// access count to home j over the same window.
//
// Hardware semantics (paper): each processor p keeps one n-entry frequency
// vector per processor k in the system (F^p[k][*]), incremented on every
// commit and zeroed when k gathers it, so counts line up with *k's*
// interval boundaries even though intervals are local to each processor.
//
// Implementation note: the n^3 on-behalf counters are never stored. Each
// processor p keeps one cumulative counter A^p[j] (O(1) per access), and
// F^p[k][j] is A^p[j] minus its value at k's last gather. A gather by i
// needs only two sums of those: its own row, F^i[i][j] = A^i[j] - R[i][j],
// and the column, C[j] = sum_p F^p[i][j] = sum_p A^p[j] - T[i][j], where
// R and T are i's snapshots of its own row and of the column totals at
// its last gather. That is 3n^2 counters (A, R, T) instead of n^2 + n^3,
// and every F and C stays an exact integer difference. The tests
// (`ddv_test.cpp`) replay random sequences against a literal n^3 model
// of the paper's formulation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace dsm::phase {

/// One interval's DDV counts as processor i's gather delivers them:
/// F[i][*] (i's accesses per home) then C[*] (system-wide accesses per
/// home), 2n 32-bit counts, the width of the paper's counters.
struct DdvCounts {
  std::vector<std::uint32_t> counts;

  std::span<const std::uint32_t> f() const {
    return {counts.data(), counts.size() / 2};
  }
  std::span<const std::uint32_t> c() const {
    return {counts.data() + counts.size() / 2, counts.size() / 2};
  }
};

class DdvFabric {
 public:
  /// `distance_matrix`: row-major n*n, the paper's D (D[i][i] == 1).
  DdvFabric(unsigned nodes, std::vector<std::uint32_t> distance_matrix);

  unsigned nodes() const { return nodes_; }

  /// Processor `p` committed a load/store to a line homed at `home`.
  void record_access(NodeId p, NodeId home);

  /// Flattened form of record_access for per-access inner loops: p's row
  /// of the cumulative counter matrix; `row[home]++` is exactly
  /// record_access(p, home). Stable for the fabric's lifetime.
  std::uint64_t* observe_row(NodeId p) {
    DSM_ASSERT(p < nodes_);
    return &cumulative_[idx(p, 0)];
  }

  std::uint32_t distance(NodeId i, NodeId j) const;

  /// Result of processor i's end-of-interval gather. Machine moves the
  /// counts into the interval's IntervalRecord.
  struct GatherResult : DdvCounts {
    double dds = 0.0;
  };

  /// Executes the end-of-interval exchange for processor i: collects every
  /// F^p[i][*] vector, sums them into C, computes DDS from i's own vector,
  /// and zeroes all on-behalf-of-i counts (starting i's next interval).
  /// Aborts if a count outgrows its 32-bit counter.
  GatherResult gather(NodeId i);

  /// The gather's wire sizes: one query message, and one 32-bit count
  /// per home in each reply vector.
  static constexpr unsigned kRequestBytes = 8;
  static constexpr unsigned kCounterBytes = 4;

  /// Payload bytes one processor of an n-node machine moves per gather:
  /// (n-1) requests plus (n-1) n-entry count vectors — the traffic of the
  /// paper's §III-B overhead estimate.
  static constexpr std::uint64_t gather_payload_bytes(unsigned nodes) {
    if (nodes <= 1) return 0;
    return std::uint64_t{nodes - 1} *
           (kRequestBytes + std::uint64_t{nodes} * kCounterBytes);
  }

  void reset();

 private:
  std::size_t idx(NodeId a, NodeId b) const { return std::size_t{a} * nodes_ + b; }

  unsigned nodes_;
  std::vector<std::uint32_t> dist_;        ///< n*n row-major
  std::vector<std::uint64_t> cumulative_;  ///< A^p[j], n*n row-major
  /// R[i][j]: A^i[j] at i's last gather; n*n row-major.
  std::vector<std::uint64_t> own_snapshot_;
  /// T[i][j]: sum_p A^p[j] at i's last gather; n*n row-major.
  std::vector<std::uint64_t> total_snapshot_;
};

}  // namespace dsm::phase
