// ablation_protocol.cpp — protocol × topology × nodes ablation over the
// CohPolicy seam (src/coherence/policy.hpp). The paper's machine runs
// MESI; this harness re-runs the same workload under MSI (no Exclusive —
// every private read pays an upgrade on first write) and MOESI (Owned —
// dirty lines forward cache-to-cache with no sharing writeback) across
// interconnects, to show how much of the phase signal's memory component
// the protocol choice moves.
//
// The protocol rides the SweepSpec's protocol axis (innermost), the
// topology rides the variant axis; both are ablated axes, so the seed is
// derived from the point WITHOUT them — every row of one app × nodes
// group replays the identical instruction stream and the deltas are pure
// protocol/topology effects. Runs on the experiment driver (--threads=N,
// --shard=i/N, --shards=N); the protocol renderer in src/report groups
// rows into one table per app × node count — live or offline.
#include <stdexcept>
#include <string>

#include "bench/bench_util.hpp"
#include "sim/machine.hpp"

namespace {

using namespace dsm;

constexpr Topology kTopologies[] = {Topology::kHypercube, Topology::kMesh2D};

// The variant axis carries the topology by name; map it back rather
// than inferring from the point's index.
Topology topology_of(const driver::SpecPoint& pt) {
  for (const Topology topo : kTopologies)
    if (pt.detector == topology_name(topo)) return topo;
  throw std::runtime_error("unknown topology variant: " + pt.detector);
}

// Seed from the point WITHOUT the ablated axes: every protocol × topology
// row of an app × nodes group must share one RNG stream, or the
// comparison would mislabel seed-induced variation as a protocol effect.
std::uint64_t protocol_seed(const driver::SpecPoint& pt) {
  driver::SpecPoint seed_pt = pt;
  seed_pt.detector.clear();
  seed_pt.protocol.clear();
  return driver::spec_seed(seed_pt);
}

/// One row: machine-wide coherence traffic plus mean CPI.
struct ProtocolRow {
  double mean_cpi = 0.0;
  std::uint64_t cache_to_cache = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t remote_mem = 0;
};

}  // namespace

int main(int argc, char** argv) {
  auto parsed = bench::parse_options(argc, argv);
  // Every --nodes entry must build on every topology of the sweep (a
  // square for the mesh), checked before any run or worker starts.
  for (const Topology topo : kTopologies)
    parsed = bench::check_node_counts(std::move(parsed), topo);
  if (!parsed.ok) return bench::usage_error(parsed);
  if (const auto rc = bench::maybe_orchestrate(argc, argv, parsed))
    return *rc;
  auto& opt = parsed.options;
  if (opt.app_names.empty()) opt.app_names = {"LU"};
  if (opt.node_counts.empty()) opt.node_counts = {4, 16};
  // Ablate all three protocols unless --protocol narrowed the set (note
  // parse_options folds an explicit {mesi} into "unswept"; put it back —
  // here the protocol IS the subject, so it is always a real axis).
  if (opt.protocols.empty()) opt.protocols = {"msi", "mesi", "moesi"};

  driver::SweepSpec spec;
  spec.apps = opt.app_names;
  spec.node_counts = opt.node_counts;
  for (const Topology topo : kTopologies)
    spec.detectors.push_back(topology_name(topo));
  spec.protocols = opt.protocols;
  spec.scale = opt.scale;

  return bench::machine_sweep<ProtocolRow>(
      spec.expand(), opt, "ablation_protocol",
      [&opt](const driver::SpecPoint& pt, const ObsConfig& obs) {
        const auto& app = apps::app_by_name(pt.app);
        MachineConfig cfg = default_config(pt.nodes);
        cfg.network.topology = topology_of(pt);
        cfg.protocol = bench::protocol_of_point(pt);
        cfg.phase.interval_instructions =
            apps::scaled_interval(app.name, pt.scale);
        cfg.seed = protocol_seed(pt);
        cfg.obs = obs;
        sim::Machine machine(cfg);
        sim::RunSummary run = machine.run(app.factory(pt.scale));
        if (opt.verbose) machine.fabric().check_invariants();
        return run;
      },
      [](const driver::SpecPoint& pt, sim::RunSummary&& run) {
        ProtocolRow row;
        double cpi = 0.0;
        for (unsigned p = 0; p < pt.nodes; ++p) cpi += run.cpi(p);
        row.mean_cpi = cpi / pt.nodes;
        for (const auto& s : run.coherence) {
          row.cache_to_cache += s.cache_to_cache;
          row.upgrades += s.upgrades;
          row.invalidations += s.invalidations_sent;
          row.writebacks += s.writebacks;
          row.remote_mem += s.remote_mem;
        }
        return row;
      },
      protocol_seed,
      [](const driver::SpecPoint&, const ProtocolRow& row) {
        return shard::JsonObject()
            .add("mean_cpi", row.mean_cpi)
            .add("cache_to_cache", row.cache_to_cache)
            .add("upgrades", row.upgrades)
            .add("invalidations", row.invalidations)
            .add("writebacks", row.writebacks)
            .add("remote_mem", row.remote_mem)
            .str();
      });
}
