// config.hpp — architecture configuration, defaulted to Table I of the paper.
//
//   Processor Frequency   2 GHz
//   Functional Units      6 ALU, 4 FPU
//   Fetch/Issue/Commit    6/6/6
//   Register File         128 Int, 128 FP
//   Branch Predictor      2,048-entry gshare
//   L1                    16 kB, direct-mapped, 1 cycle
//   L2                    2 MB, 8-way, 32 B, 12 cycles
//   Memory                SDRAM interleaved, 75 ns, 2.6 GB/s
//   Network               Hypercube, wormhole, 400 MHz pipelined router,
//                         16 ns pin-to-pin
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace dsm {

/// Largest machine: the full-map directory keeps one sharer bit per node
/// in a 64-bit word.
inline constexpr unsigned kMaxNodes = 64;

/// Core pipeline parameters (Table I, processor rows).
struct CoreConfig {
  std::uint64_t frequency_hz = 2'000'000'000;  ///< 2 GHz
  unsigned fetch_width = 6;
  unsigned issue_width = 6;
  unsigned commit_width = 6;
  unsigned num_alu = 6;
  unsigned num_fpu = 4;
  unsigned int_regs = 128;
  unsigned fp_regs = 128;
  unsigned mispredict_penalty = 14;  ///< cycles to refill the front end
  /// Fraction of a long-latency memory stall hidden by out-of-order
  /// overlap (memory-level parallelism). 0 = fully exposed, 1 = fully
  /// hidden. Calibrated so local L2 misses cost ~full latency and the
  /// 128-entry window hides a modest share.
  double mlp_overlap = 0.25;
};

/// Branch-predictor parameters (Table I: 2,048-entry gshare).
struct PredictorConfig {
  unsigned table_entries = 2048;  ///< must be a power of two
  unsigned history_bits = 11;     ///< log2(table_entries)
};

/// One cache level. Table I: L1 16 kB direct-mapped 1 cycle;
/// L2 2 MB 8-way 32 B lines 12 cycles.
struct CacheConfig {
  std::uint64_t size_bytes = 16 * 1024;
  unsigned associativity = 1;
  unsigned line_bytes = 32;
  unsigned latency_cycles = 1;
};

/// Main-memory parameters (Table I: SDRAM interleaved, 75 ns, 2.6 GB/s).
struct MemoryConfig {
  double access_ns = 75.0;             ///< row access latency
  double bandwidth_gbps = 2.6;         ///< per-controller sustained GB/s
  unsigned banks = 8;                  ///< interleaved SDRAM banks per node
  std::uint64_t page_bytes = 4096;     ///< home-assignment granularity
  /// Memory-controller occupancy per request in controller cycles; derives
  /// queueing (the contention the paper's C vector observes).
  double controller_occupancy_ns = 12.0;
  /// Directory SRAM lookup latency at the home node, in core cycles.
  unsigned directory_latency_cycles = 10;
};

/// Network parameters (Table I: hypercube, wormhole, 400 MHz pipelined
/// router, 16 ns pin-to-pin).
enum class Topology : std::uint8_t { kHypercube, kMesh2D, kTorus2D, kRing };

/// Coherence protocol run by the directory fabric. MESI is the paper's
/// baseline; MSI and MOESI are table-driven variants of the same fabric
/// (src/coherence/policy.hpp) selected once at machine construction.
enum class Protocol : std::uint8_t { kMsi, kMesi, kMoesi };

struct NetworkConfig {
  Topology topology = Topology::kHypercube;
  double router_frequency_hz = 400e6;  ///< one flit per router cycle
  double pin_to_pin_ns = 16.0;         ///< per-hop wire + pipeline latency
  unsigned link_bytes_per_flit = 8;
  unsigned header_flits = 1;
  /// Payload bytes of a coherence control message (requests, invalidations,
  /// acks, upgrade grants) — everything on the wire that is not a data
  /// line. Previously a constant inline in the fabric.
  unsigned control_bytes = 8;
  /// Epoch length (in processor cycles) for link-utilization tracking used
  /// by the analytical contention model.
  Cycle contention_epoch_cycles = 8192;
  /// Queueing sensitivity: extra per-hop delay = alpha * utilization /
  /// (1 - utilization), in router cycles (M/M/1-style).
  double contention_alpha = 1.0;
};

/// Phase-detector parameters (Section III-A/III-B of the paper).
struct PhaseConfig {
  unsigned bbv_entries = 32;        ///< accumulator size
  unsigned footprint_vectors = 32;  ///< footprint-table capacity (LRU)
  /// Sampling interval in committed non-synchronization instructions for a
  /// 1-processor system; each processor uses interval_instructions / n.
  /// Paper: 3M.
  InstrCount interval_instructions = 3'000'000;
  /// Normalize BBV accumulators to this total weight before distance
  /// comparison so thresholds are scale-free.
  std::uint32_t bbv_norm = 1u << 16;
};

/// Observability switches (src/obs). Plain data here — not in dsm_obs —
/// so MachineConfig carries it without a common→obs dependency cycle.
/// Both default OFF; when OFF the instrumented layers hold null handles
/// and simulated output is bit-identical to a build without the layer.
struct ObsConfig {
  /// Register + increment the deterministic metrics registry; the
  /// snapshot flows into RunSummary::obs_json (and record envelopes).
  bool stats = false;
  /// Record typed events into per-node preallocated ring buffers.
  bool trace = false;
  /// Ring capacity in events per node (32 B each). Overflow overwrites
  /// the oldest event and counts it as dropped — never allocates.
  std::uint32_t trace_events_per_node = 1u << 15;
  /// When set (and trace is on), Machine::run dumps the binary trace
  /// here after the application finishes.
  std::string trace_path;
  /// Capture interval-scoped metric snapshots at the phase detector's
  /// interval boundaries (implies stats). Each boundary stores the
  /// machine-wide counter deltas since the previous one, attributed to
  /// the online-detected phase id of the processor that closed it; the
  /// timeline flows into RunSummary::obs_intervals_json. The online
  /// detector is a BBV-only one at threshold phase.bbv_norm / 8; the ring
  /// holds sim::Machine::kIntervalRows rows and, when full, overwrites
  /// the oldest and counts it as dropped.
  bool intervals = false;
};

/// Synchronization-primitive costs (barrier tree, lock handoff). The
/// barrier pays its base plus one network diameter of hops per stage.
struct SyncConfig {
  Cycle barrier_base_cycles = 100;
  Cycle barrier_per_stage_cycles = 60;  ///< multiplied by log2(n) stages
  Cycle lock_acquire_cycles = 40;
  Cycle lock_transfer_cycles = 120;     ///< handoff to a waiting processor
};

/// Whole-machine configuration.
struct MachineConfig {
  unsigned num_nodes = 8;  ///< paper studies 2, 8, 32
  Protocol protocol = Protocol::kMesi;  ///< coherence protocol variant
  CoreConfig core;
  PredictorConfig predictor;
  CacheConfig l1;        ///< Table I defaults
  CacheConfig l2;        ///< overridden to L2 values in default_config()
  MemoryConfig memory;
  NetworkConfig network;
  PhaseConfig phase;
  SyncConfig sync;
  ObsConfig obs;  ///< observability switches (default: everything off)
  /// Cooperative-scheduler quantum: a simulated thread runs at most this
  /// many cycles past the others before yielding (keeps local clocks in
  /// approximate lockstep for the contention models).
  Cycle scheduler_quantum_cycles = 20'000;
  std::uint64_t seed = 1;

  /// Cycles per nanosecond at the core clock.
  double cycles_per_ns() const {
    return static_cast<double>(core.frequency_hz) / 1e9;
  }
  /// Converts a wall-clock latency into core cycles (rounded up).
  Cycle ns_to_cycles(double ns) const;
  /// Per-processor sampling interval (paper: 3M / num_nodes).
  InstrCount interval_per_processor() const;
  /// Validates invariants (a node count the topology can build, at most
  /// kMaxNodes; power-of-two structures, nonzero sizes...); returns an
  /// error description, or empty when valid.
  std::string validate() const;
};

/// Table I architecture with `nodes` processors.
MachineConfig default_config(unsigned nodes);

/// Human-readable rendering of the configuration in the shape of Table I.
std::string format_table1(const MachineConfig& cfg);

const char* topology_name(Topology t);

/// Lower-case sweepable name: "msi" | "mesi" | "moesi".
const char* protocol_name(Protocol p);

/// Inverse of protocol_name (case-sensitive); false on an unknown name.
bool protocol_from_name(const std::string& name, Protocol* out);

}  // namespace dsm
