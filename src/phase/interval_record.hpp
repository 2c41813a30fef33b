// interval_record.hpp — everything a detector could want to know about one
// sampling interval of one processor. The simulator records these; the
// analysis module replays classification over them for 200 threshold
// values without re-simulating (methodologically identical to the paper,
// which evaluates many thresholds on the same execution).
//
// F and C are one block of 2n 32-bit counts (DdvCounts), as the paper's
// DDV hardware keeps them (one 4-byte counter per home node, §III-B): a
// run holds one record per interval per processor until analysis ends,
// and at 32 nodes 64-bit counts would be most of a record's host memory.
// A count cannot outgrow 32 bits unseen: DdvFabric::gather aborts first.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "phase/bbv.hpp"
#include "phase/ddv.hpp"

namespace dsm::phase {

/// The inherited DdvCounts hold F[i][*] (f(): this processor's committed
/// loads/stores per home node) and C[*] (c(): system-wide accesses per
/// home node over this interval).
struct IntervalRecord : DdvCounts {
  /// Normalized BBV snapshot at interval end.
  BbvVector bbv;
  /// DDS under the machine's distance matrix (analysis can recompute under
  /// ablated D/C from the raw counts).
  double dds = 0.0;
  /// Committed non-synchronization instructions (the interval length).
  InstrCount instructions = 0;
  /// Core cycles the interval took, including synchronization stalls.
  Cycle cycles = 0;
  /// cycles / instructions — the statistic whose per-phase CoV the paper's
  /// evaluation plots.
  double cpi = 0.0;
};

/// The full per-processor trace of a run.
struct ProcessorTrace {
  NodeId node = 0;
  std::vector<IntervalRecord> intervals;
};

}  // namespace dsm::phase
