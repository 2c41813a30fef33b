// core_model.hpp — approximate timing model of the Table I superscalar
// core (6-wide fetch/issue/commit, 6 ALU + 4 FPU, 128/128 registers,
// gshare front end).
//
// We do not simulate an out-of-order window instruction by instruction;
// instead each basic block is charged the maximum of its structural
// bounds (issue width, ALU throughput, FPU throughput), branches pay a
// front-end refill penalty on gshare mispredictions, and long-latency
// memory stalls are partially hidden by a calibrated memory-level-
// parallelism overlap factor. This reproduces the CPI *variation* that
// phase detection feeds on, which is what the paper's evaluation measures.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/types.hpp"
#include "cpu/gshare.hpp"

namespace dsm::cpu {

class CoreModel {
 public:
  CoreModel(const CoreConfig& core, const PredictorConfig& pred);

  /// Cycles to execute `n` non-memory instructions of which `fp_frac`
  /// (0..1) occupy the FPUs. Fractional cycles accumulate in a residue so
  /// long runs are exact.
  Cycle compute_cycles(InstrCount n, double fp_frac);

  /// Resolves a branch at `pc` with direction `taken`; returns the
  /// front-end penalty (0 when predicted correctly).
  Cycle branch_cycles(Addr pc, bool taken);

  /// Exposed stall for a memory access whose full latency is `latency`:
  /// hits at L1 speed pass through (inline); longer latencies are
  /// shortened by the MLP overlap factor.
  Cycle exposed_memory_stall(Cycle latency, Cycle l1_latency) const {
    return latency <= l1_latency ? latency
                                 : overlapped_stall(latency, l1_latency);
  }

  const GsharePredictor& predictor() const { return predictor_; }
  std::uint64_t branches() const { return predictor_.predictions(); }

  void reset();

 private:
  /// exposed_memory_stall() beyond the L1 latency.
  Cycle overlapped_stall(Cycle latency, Cycle l1_latency) const;

  CoreConfig core_;
  GsharePredictor predictor_;
  double residue_ = 0.0;  ///< sub-cycle carry for compute_cycles
};

}  // namespace dsm::cpu
