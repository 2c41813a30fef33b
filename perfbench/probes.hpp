// probes.hpp — per-layer microbenchmarks for the traced benchmark run.
//
// Each probe drives one layer through its public interface on inputs made
// from the workload seed, sized to the Table I machine at the workload's
// node counts, and reports host nanoseconds per call. The probes
// approximate the layers as the simulator exercises them; the traced run
// multiplies them by the simulated counts to show how much of
// Machine::run they explain (sim.unattributed_s).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "phase/interval_record.hpp"

namespace perfbench {

struct ProbeResults {
  /// mem::Cache::lookup_for_fill + fill_at/touch on a Table I L2, working
  /// set twice the cache.
  double cache_lookup_ns = 0.0;
  /// coh::Directory::entry on present lines of a slice holding one node's
  /// worth of L2 lines.
  double dir_entry_ns = 0.0;
  /// phase::BbvAccumulator::record_branch over a pool of branch sites.
  double bbv_record_ns = 0.0;
  /// phase::BbvDdvDetector::classify replaying recorded intervals.
  double classify_ns = 0.0;
  std::uint64_t classify_calls = 0;
  /// Per node count: coh::CoherenceFabric::access on a mixed private/shared
  /// stream, net::Network::message_latency between random node pairs, and
  /// phase::DdvFabric::gather after a burst of recorded accesses.
  std::map<unsigned, double> access_ns;
  std::map<unsigned, double> msg_ns;
  std::map<unsigned, double> gather_ns;
};

/// Runs every probe. `intervals` are the traced pass's own recorded
/// processor traces (the classify probe replays them).
ProbeResults run_probes(const std::vector<unsigned>& node_counts,
                        std::uint64_t seed,
                        const std::vector<dsm::phase::ProcessorTrace>& intervals);

/// Mean of a per-node-count probe (0 when empty).
double mean_ns(const std::map<unsigned, double>& per_nodes);

}  // namespace perfbench
