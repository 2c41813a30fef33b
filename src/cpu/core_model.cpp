#include "cpu/core_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace dsm::cpu {

CoreModel::CoreModel(const CoreConfig& core, const PredictorConfig& pred)
    : core_(core), predictor_(pred) {}

Cycle CoreModel::compute_cycles(InstrCount n, double fp_frac) {
  DSM_ASSERT(fp_frac >= 0.0 && fp_frac <= 1.0);
  if (n == 0) return 0;
  const auto dn = static_cast<double>(n);
  const double issue_bound = dn / core_.issue_width;
  const double alu_bound = dn * (1.0 - fp_frac) / core_.num_alu;
  const double fpu_bound = dn * fp_frac / core_.num_fpu;
  const double cycles = std::max({issue_bound, alu_bound, fpu_bound});

  residue_ += cycles;
  const auto whole = static_cast<Cycle>(residue_);
  residue_ -= static_cast<double>(whole);
  return whole;
}

Cycle CoreModel::branch_cycles(Addr pc, bool taken) {
  const bool correct = predictor_.update(pc, taken);
  return correct ? 0 : core_.mispredict_penalty;
}

Cycle CoreModel::overlapped_stall(Cycle latency, Cycle l1_latency) const {
  const double beyond =
      static_cast<double>(latency - l1_latency) * (1.0 - core_.mlp_overlap);
  return l1_latency + static_cast<Cycle>(std::llround(beyond));
}

void CoreModel::reset() {
  predictor_.reset();
  residue_ = 0.0;
}

}  // namespace dsm::cpu
