#include "common/config.hpp"

#include <cmath>
#include <sstream>

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm {

Cycle MachineConfig::ns_to_cycles(double ns) const {
  return static_cast<Cycle>(std::ceil(ns * cycles_per_ns()));
}

InstrCount MachineConfig::interval_per_processor() const {
  DSM_ASSERT(num_nodes > 0);
  return phase.interval_instructions / num_nodes;
}

std::string MachineConfig::validate() const {
  std::ostringstream err;
  if (num_nodes == 0) err << "num_nodes must be > 0; ";
  if (num_nodes > kMaxNodes)
    err << "at most " << kMaxNodes << " nodes (full-map directory); ";
  if (network.topology == Topology::kHypercube && !is_pow2(num_nodes))
    err << "hypercube requires a power-of-two node count; ";
  if (network.topology == Topology::kMesh2D ||
      network.topology == Topology::kTorus2D) {
    const auto side = static_cast<unsigned>(std::lround(std::sqrt(num_nodes)));
    if (side * side != num_nodes)
      err << "mesh/torus requires a square node count; ";
  }
  if (!is_pow2(predictor.table_entries))
    err << "gshare table must be a power of two; ";
  for (const CacheConfig* c : {&l1, &l2}) {
    if (!is_pow2(c->line_bytes)) err << "cache line size must be pow2; ";
    if (!is_pow2(c->size_bytes)) err << "cache size must be pow2; ";
    if (c->associativity == 0) err << "associativity must be > 0; ";
    if (c->size_bytes % (static_cast<std::uint64_t>(c->line_bytes) *
                         c->associativity) != 0)
      err << "cache size not divisible by line*assoc; ";
  }
  if (l1.line_bytes != l2.line_bytes)
    err << "L1/L2 line sizes must match (no sub-blocking support); ";
  if (!is_pow2(memory.page_bytes)) err << "page size must be pow2; ";
  if (memory.page_bytes < l2.line_bytes)
    err << "page must be at least a cache line; ";
  if (phase.bbv_entries == 0) err << "bbv_entries must be > 0; ";
  if (phase.footprint_vectors == 0) err << "footprint_vectors must be > 0; ";
  if (phase.interval_instructions < num_nodes)
    err << "interval too small for node count; ";
  if (core.issue_width == 0 || core.commit_width == 0)
    err << "pipeline widths must be > 0; ";
  if (core.mlp_overlap < 0.0 || core.mlp_overlap >= 1.0)
    err << "mlp_overlap must be in [0,1); ";
  if (memory.bandwidth_gbps <= 0.0) err << "bandwidth must be positive; ";
  if (network.control_bytes == 0)
    err << "control_bytes must be > 0; ";
  if (network.control_bytes > l2.line_bytes)
    err << "control message larger than a data line; ";
  return err.str();
}

MachineConfig default_config(unsigned nodes) {
  MachineConfig cfg;
  cfg.num_nodes = nodes;
  // L1 defaults already match Table I; fill in the L2 row.
  cfg.l2.size_bytes = 2 * 1024 * 1024;
  cfg.l2.associativity = 8;
  cfg.l2.line_bytes = 32;
  cfg.l2.latency_cycles = 12;
  cfg.l1.line_bytes = 32;  // match L2 line size (Table I lists 32 B lines)
  DSM_ASSERT_MSG(cfg.validate().empty(), "default config must validate");
  return cfg;
}

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kMsi: return "msi";
    case Protocol::kMesi: return "mesi";
    case Protocol::kMoesi: return "moesi";
  }
  return "?";
}

bool protocol_from_name(const std::string& name, Protocol* out) {
  for (const Protocol p :
       {Protocol::kMsi, Protocol::kMesi, Protocol::kMoesi}) {
    if (name == protocol_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

const char* topology_name(Topology t) {
  switch (t) {
    case Topology::kHypercube: return "Hypercube";
    case Topology::kMesh2D: return "2-D Mesh";
    case Topology::kTorus2D: return "2-D Torus";
    case Topology::kRing: return "Ring";
  }
  return "?";
}

std::string format_table1(const MachineConfig& cfg) {
  std::ostringstream os;
  const auto ghz = static_cast<double>(cfg.core.frequency_hz) / 1e9;
  os << "Parameter            | Value\n";
  os << "---------------------+------------------------------------------\n";
  os << "Processor Frequency  | " << ghz << "GHz\n";
  os << "Functional Units     | " << cfg.core.num_alu << " ALU, "
     << cfg.core.num_fpu << " FPU\n";
  os << "Fetch/Issue/Commit   | " << cfg.core.fetch_width << "/"
     << cfg.core.issue_width << "/" << cfg.core.commit_width << "\n";
  os << "Register File        | " << cfg.core.int_regs << " Int, "
     << cfg.core.fp_regs << " FP\n";
  os << "Branch Predictor     | " << cfg.predictor.table_entries
     << "-entry gshare\n";
  os << "L1                   | " << cfg.l1.size_bytes / 1024 << "kB, "
     << (cfg.l1.associativity == 1
             ? std::string("direct-mapped")
             : std::to_string(cfg.l1.associativity) + "-way")
     << ", " << cfg.l1.latency_cycles << " cycle\n";
  os << "L2                   | " << cfg.l2.size_bytes / (1024 * 1024)
     << "MB, " << cfg.l2.associativity << "-way, " << cfg.l2.line_bytes
     << "B, " << cfg.l2.latency_cycles << " cycles\n";
  os << "Memory               | SDRAM interleaved, " << cfg.memory.access_ns
     << "ns, " << cfg.memory.bandwidth_gbps << "GB/s\n";
  os << "Network              | " << topology_name(cfg.network.topology)
     << ", wormhole, "
     << cfg.network.router_frequency_hz / 1e6 << "MHz pipelined router, "
     << cfg.network.pin_to_pin_ns << "ns pin-to-pin\n";
  return os.str();
}

}  // namespace dsm
