// machine.hpp — the simulated DSM multiprocessor: cores, cache hierarchies,
// directories, memory controllers, interconnect, the DDV hardware, and the
// per-processor interval recorder, driven by application kernels through
// ThreadCtx (thread_ctx.hpp).
//
// Per-interval recording (what the paper's detectors consume):
//   * BBV accumulator snapshot (normalized),
//   * own frequency vector F[i][*] and contention vector C from the DDV
//     gather at the interval boundary,
//   * DDS under the topology's distance matrix,
//   * CPI = cycles / committed non-synchronization instructions.
// Intervals are *local* to each processor (paper §III-B), 3M/n instructions
// by default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coherence/fabric.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "cpu/core_model.hpp"
#include "memory/home_map.hpp"
#include "network/network.hpp"
#include "obs/observability.hpp"
#include "phase/bbv.hpp"
#include "phase/ddv.hpp"
#include "phase/detector.hpp"
#include "phase/interval_record.hpp"
#include "sim/allocator.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"

namespace dsm::sim {

class ThreadCtx;
using AppFn = std::function<void(ThreadCtx&)>;

/// Everything an experiment wants back from one run.
struct RunSummary {
  MachineConfig cfg;
  std::vector<phase::ProcessorTrace> procs;       ///< per-proc intervals
  std::vector<coh::NodeCoherenceStats> coherence; ///< per-node protocol stats
  std::vector<Cycle> final_cycles;                ///< per-proc finish time
  std::vector<InstrCount> instructions;           ///< per-proc non-sync instrs
  std::vector<double> mispredict_rate;            ///< per-proc gshare
  std::uint64_t net_messages[net::kNumTrafficClasses] = {};
  std::uint64_t net_bytes[net::kNumTrafficClasses] = {};
  std::uint64_t barrier_episodes = 0;
  double barrier_wait_mean = 0.0;  ///< cycles per participant per episode
  /// Per-proc cycle breakdown: where the time went.
  std::vector<Cycle> mem_stall_cycles;
  std::vector<Cycle> compute_cycles;
  std::vector<Cycle> branch_cycles;
  std::vector<Cycle> sync_cycles;
  /// Deterministic metrics snapshot (obs/metrics.hpp JSON), "" when
  /// cfg.obs.stats was off. Identical across --threads/--shards.
  std::string obs_json;
  /// Phase-attributed interval timeline (obs/metrics.hpp intervals_json),
  /// "" when cfg.obs.intervals was off. Every phase-detector interval
  /// boundary captures the machine-wide counter deltas since the previous
  /// boundary, tagged with the online-detected phase id — identical
  /// across --threads/--shards like obs_json.
  std::string obs_intervals_json;

  /// Aggregate CPI of processor p (cycles / instructions).
  double cpi(unsigned p) const;
  /// Fraction of p's committed accesses that were homed remotely.
  double remote_access_fraction(unsigned p) const;
  /// Minimum interval count over all processors.
  std::size_t min_intervals() const;
};

class Machine {
 public:
  /// Rows of the --obs-intervals ring (one delta per counter each).
  static constexpr std::uint32_t kIntervalRows = 4096;

  explicit Machine(const MachineConfig& cfg);

  /// Runs the SPMD application (all processors execute `app`) and returns
  /// the recording. One run per Machine instance.
  RunSummary run(const AppFn& app);

  const MachineConfig& config() const { return cfg_; }
  obs::Observability& observability() { return obs_; }
  net::Network& network() { return network_; }
  coh::CoherenceFabric& fabric() { return fabric_; }
  mem::HomeMap& home_map() { return home_map_; }
  SimAllocator& allocator() { return alloc_; }
  phase::DdvFabric& ddv() { return ddv_; }
  Scheduler& scheduler() { return sched_; }

 private:
  friend class ThreadCtx;

  struct ProcState {
    phase::BbvAccumulator bbv;
    InstrCount instr_in_interval = 0;
    InstrCount instr_since_branch = 0;
    InstrCount total_instructions = 0;
    Cycle interval_start = 0;
    Cycle last_yield = 0;
    // Cycle breakdown (diagnostics + tests).
    Cycle mem_stall_cycles = 0;
    Cycle compute_cycles = 0;
    Cycle branch_cycles = 0;
    Cycle sync_cycles = 0;
    std::vector<phase::IntervalRecord> intervals;
    Rng rng;
    ProcState(const PhaseConfig& pc, std::uint64_t seed)
        : bbv(pc.bbv_entries, pc.bbv_norm), rng(seed) {}
  };

  /// Flattened per-processor hot lane: the pointers every committed
  /// instruction touches (proc state, core model, scheduler clock slot,
  /// DDV observe row), resolved once at construction so the op_* inner
  /// loops do no unique_ptr chase, no bounds-checked scheduler call, and
  /// no DDV index arithmetic per access. All four point into containers
  /// that never reallocate after the constructor.
  struct HotLane {
    ProcState* ps = nullptr;
    cpu::CoreModel* core = nullptr;
    Cycle* clock = nullptr;           ///< Scheduler::cycle_slot(tid)
    std::uint64_t* ddv_row = nullptr; ///< DdvFabric::observe_row(tid)
  };

  // ---- operations invoked via ThreadCtx ----
  void op_mem(unsigned tid, Addr addr, bool write);
  void op_compute(unsigned tid, InstrCount n, double fp_frac);
  /// A branch at `pc`; `pc_hash` is fnv1a64(pc), the BBV accumulator's
  /// hash, which ThreadCtx computes where the block id is a constant.
  void op_branch(unsigned tid, Addr pc, std::uint64_t pc_hash, bool taken);
  void op_barrier(unsigned tid);
  SimLock& lock_by_id(unsigned id);

  void count_instr(unsigned tid, InstrCount n);
  void end_interval(unsigned tid);
  void maybe_yield(unsigned tid);

  MachineConfig cfg_;
  /// Constructed before network_/fabric_ so both can register their
  /// counters into it; registration order (links, then fabric hooks) is
  /// part of the deterministic snapshot schema.
  obs::Observability obs_;
  net::Network network_;
  mem::HomeMap home_map_;
  coh::CoherenceFabric fabric_;
  phase::DdvFabric ddv_;
  Scheduler sched_;
  SimAllocator alloc_;
  SimBarrier global_barrier_;
  std::unordered_map<unsigned, std::unique_ptr<SimLock>> locks_;
  std::vector<std::unique_ptr<cpu::CoreModel>> cores_;
  std::vector<std::unique_ptr<ProcState>> procs_;
  std::vector<HotLane> lanes_;  ///< one per processor, see HotLane
  /// Per-processor online detectors for phase-attributed interval capture
  /// (cfg.obs.intervals). classify() is pure w.r.t. simulated state —
  /// phase ids only label captured intervals and trace events, so the
  /// observability non-perturbation contract holds.
  std::vector<phase::BbvDetector> obs_detectors_;
  InstrCount interval_len_;
  bool ran_ = false;
};

}  // namespace dsm::sim
