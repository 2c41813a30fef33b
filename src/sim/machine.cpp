#include "sim/machine.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"
#include "sim/thread_ctx.hpp"

namespace dsm::sim {

double RunSummary::cpi(unsigned p) const {
  DSM_ASSERT(p < final_cycles.size());
  if (instructions[p] == 0) return 0.0;
  return static_cast<double>(final_cycles[p]) /
         static_cast<double>(instructions[p]);
}

double RunSummary::remote_access_fraction(unsigned p) const {
  DSM_ASSERT(p < coherence.size());
  const auto& s = coherence[p];
  const std::uint64_t mem = s.local_mem + s.remote_mem + s.cache_to_cache;
  if (mem == 0) return 0.0;
  return static_cast<double>(s.remote_mem + s.cache_to_cache) /
         static_cast<double>(mem);
}

std::size_t RunSummary::min_intervals() const {
  std::size_t m = procs.empty() ? 0 : procs.front().intervals.size();
  for (const auto& p : procs) m = std::min(m, p.intervals.size());
  return m;
}

Machine::Machine(const MachineConfig& cfg)
    : cfg_(cfg),
      obs_(cfg_.obs, cfg_.num_nodes),
      network_(cfg_, &obs_),
      home_map_(cfg_.num_nodes, cfg_.memory.page_bytes),
      fabric_(cfg_, network_, home_map_, &obs_),
      ddv_(cfg_.num_nodes, network_.topology().ddv_distance_matrix()),
      sched_(cfg_.num_nodes),
      alloc_(home_map_),
      global_barrier_(sched_, cfg_.num_nodes, cfg_.sync),
      interval_len_(cfg_.interval_per_processor()) {
  const std::string err = cfg_.validate();
  DSM_ASSERT_MSG(err.empty(), err.c_str());
  cores_.reserve(cfg_.num_nodes);
  procs_.reserve(cfg_.num_nodes);
  for (unsigned i = 0; i < cfg_.num_nodes; ++i) {
    cores_.push_back(
        std::make_unique<cpu::CoreModel>(cfg_.core, cfg_.predictor));
    procs_.push_back(std::make_unique<ProcState>(
        cfg_.phase, cfg_.seed * 0x9e3779b9u + i + 1));
  }
  lanes_.reserve(cfg_.num_nodes);
  for (unsigned i = 0; i < cfg_.num_nodes; ++i)
    lanes_.push_back(HotLane{procs_[i].get(), cores_[i].get(),
                             sched_.cycle_slot(i), ddv_.observe_row(i)});
  if (cfg_.obs.intervals) {
    obs_detectors_.assign(
        cfg_.num_nodes, phase::BbvDetector(cfg_.phase.footprint_vectors,
                                           {.bbv = cfg_.phase.bbv_norm / 8}));
    // All registrants (network links, fabric hooks) ran in the member
    // initializers above, so the tracked-slot set is final.
    obs_.metrics().enable_intervals(kIntervalRows);
  }
}

void Machine::maybe_yield(unsigned tid) {
  HotLane& ln = lanes_[tid];
  if (*ln.clock - ln.ps->last_yield >= cfg_.scheduler_quantum_cycles) {
    sched_.yield(tid);
    ln.ps->last_yield = *ln.clock;
  }
}

void Machine::count_instr(unsigned tid, InstrCount n) {
  ProcState& ps = *lanes_[tid].ps;
  ps.instr_in_interval += n;
  ps.instr_since_branch += n;
  ps.total_instructions += n;
  if (ps.instr_in_interval >= interval_len_) end_interval(tid);
}

void Machine::end_interval(unsigned tid) {
  ProcState& ps = *lanes_[tid].ps;
  const Cycle now = *lanes_[tid].clock;

  // The DDV gather: processor tid queries every peer for its on-behalf
  // frequency vector. The traffic is recorded (it is the subject of the
  // paper's §III-B overhead estimate); the latency is off the critical
  // path — the exchange overlaps execution in dedicated hardware.
  auto gather = ddv_.gather(tid);
  const unsigned vec_bytes = phase::DdvFabric::kCounterBytes * cfg_.num_nodes;
  for (NodeId p = 0; p < cfg_.num_nodes; ++p) {
    if (p == tid) continue;
    network_.message_latency(tid, p, phase::DdvFabric::kRequestBytes, now,
                             net::TrafficClass::kDdv);
    network_.message_latency(p, tid, vec_bytes, now,
                             net::TrafficClass::kDdv);
  }

  phase::IntervalRecord rec;
  rec.bbv = ps.bbv.snapshot();
  rec.counts = std::move(gather.counts);
  rec.dds = gather.dds;
  rec.instructions = ps.instr_in_interval;
  rec.cycles = now - ps.interval_start;
  rec.cpi = rec.instructions == 0
                ? 0.0
                : static_cast<double>(rec.cycles) /
                      static_cast<double>(rec.instructions);
  // Online phase classification (cfg.obs.intervals): label the interval
  // before the record is moved into the trace. Pure observation — the
  // detected id feeds the metrics timeline and the trace event only.
  PhaseId det_phase = kNoPhase;
  if (!obs_detectors_.empty())
    det_phase = obs_detectors_[tid].classify(rec).phase;
  ps.intervals.push_back(std::move(rec));

  if (obs_.intervals_enabled()) {
    obs::IntervalMeta meta;
    meta.end_cycle = now;
    meta.seq = ps.intervals.size() - 1;
    meta.node = tid;
    meta.phase = det_phase;
    obs_.metrics().end_interval(meta);
  }

  if (obs::TraceBuffer* tb = obs_.trace()) {
    obs::TraceEvent ev;
    ev.ts = now;
    ev.arg = ps.intervals.size() - 1;  // interval index just closed
    ev.kind = obs::TraceEvent::kPhaseBoundary;
    ev.node = static_cast<std::uint8_t>(tid);
    // Detected phase id + 1 (0 = detection off / unclassified) so
    // timeline overlays can color boundaries by phase.
    ev.aux = static_cast<std::uint32_t>(det_phase + 1);
    tb->record(ev);
  }

  // Start the next interval. Instructions committed since the last branch
  // stay pending and will be credited by that branch when it commits —
  // exactly what the accumulator hardware does at an interval boundary.
  ps.bbv.reset();
  ps.instr_in_interval = 0;
  ps.interval_start = now;
}

void Machine::op_mem(unsigned tid, Addr addr, bool write) {
  HotLane& ln = lanes_[tid];
  const Cycle now = *ln.clock;
  const auto out = fabric_.access(tid, addr, write, now);
  ++ln.ddv_row[out.home];  // == ddv_.record_access(tid, out.home)
  const Cycle stall =
      ln.core->exposed_memory_stall(out.latency, cfg_.l1.latency_cycles);
  *ln.clock = now + stall;
  ln.ps->mem_stall_cycles += stall;
  count_instr(tid, 1);
  maybe_yield(tid);
}

void Machine::op_compute(unsigned tid, InstrCount n, double fp_frac) {
  if (n == 0) return;
  HotLane& ln = lanes_[tid];
  const Cycle c = ln.core->compute_cycles(n, fp_frac);
  *ln.clock += c;
  ln.ps->compute_cycles += c;
  count_instr(tid, n);
  maybe_yield(tid);
}

void Machine::op_branch(unsigned tid, Addr pc, std::uint64_t pc_hash,
                        bool taken) {
  HotLane& ln = lanes_[tid];
  const Cycle c = 1 + ln.core->branch_cycles(pc, taken);
  *ln.clock += c;
  ln.ps->branch_cycles += c;
  count_instr(tid, 1);
  // The BBV accumulator: entry[hash(branch pc)] += instructions since the
  // previous branch (including this one).
  ProcState& ps = *ln.ps;
  ps.bbv.record_hashed(pc_hash, ps.instr_since_branch);
  ps.instr_since_branch = 0;
  maybe_yield(tid);
}

void Machine::op_barrier(unsigned tid) {
  HotLane& ln = lanes_[tid];
  const Cycle before = *ln.clock;
  global_barrier_.wait(tid);
  ln.ps->sync_cycles += *ln.clock - before;
  ln.ps->last_yield = *ln.clock;
}

SimLock& Machine::lock_by_id(unsigned id) {
  auto it = locks_.find(id);
  if (it == locks_.end()) {
    it = locks_.emplace(id, std::make_unique<SimLock>(sched_, cfg_.sync))
             .first;
  }
  return *it->second;
}

RunSummary Machine::run(const AppFn& app) {
  DSM_ASSERT_MSG(!ran_, "a Machine instance runs one application");
  ran_ = true;

  sched_.run([this, &app](unsigned tid) {
    ThreadCtx ctx(*this, tid);
    app(ctx);
  });

  RunSummary sum;
  sum.cfg = cfg_;
  sum.procs.reserve(cfg_.num_nodes);
  for (unsigned p = 0; p < cfg_.num_nodes; ++p) {
    phase::ProcessorTrace t;
    t.node = p;
    t.intervals = std::move(procs_[p]->intervals);
    sum.procs.push_back(std::move(t));
    sum.coherence.push_back(fabric_.stats(p));
    sum.final_cycles.push_back(sched_.cycle(p));
    sum.instructions.push_back(procs_[p]->total_instructions);
    sum.mispredict_rate.push_back(
        cores_[p]->predictor().misprediction_rate());
    sum.mem_stall_cycles.push_back(procs_[p]->mem_stall_cycles);
    sum.compute_cycles.push_back(procs_[p]->compute_cycles);
    sum.branch_cycles.push_back(procs_[p]->branch_cycles);
    sum.sync_cycles.push_back(procs_[p]->sync_cycles);
  }
  for (unsigned c = 0; c < net::kNumTrafficClasses; ++c) {
    const auto cls = static_cast<net::TrafficClass>(c);
    sum.net_messages[c] = network_.messages_sent(cls);
    sum.net_bytes[c] = network_.bytes_sent(cls);
  }
  sum.barrier_episodes = global_barrier_.episodes();
  sum.barrier_wait_mean = global_barrier_.wait_stat().mean();
  sum.obs_json = obs_.snapshot_json();
  sum.obs_intervals_json = obs_.intervals_json();
  if (cfg_.obs.trace && !cfg_.obs.trace_path.empty()) {
    std::string err;
    if (!obs_.trace_buffer().dump(cfg_.obs.trace_path, &err))
      std::fprintf(stderr, "warning: trace dump failed: %s\n", err.c_str());
  }
  return sum;
}

}  // namespace dsm::sim
