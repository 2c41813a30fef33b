// ablation_topology.cpp — the DDV's distance matrix D is "a matrix of
// pre-programmed constants" derived from the interconnect. This harness
// runs the same workload on a 16-node hypercube, 2-D mesh, 2-D torus, and
// ring (all supported by the network model), and reports how topology —
// and with it D's structure and the machine's latency spread — shifts
// both detectors' operating points.
//
// The app × topology product runs on the experiment driver (--threads=N,
// --shard=i/N, --shards=N) with the topology carried on the SweepSpec's
// variant axis; each run is reduced to one row carried in the stream
// record. The topology renderer in src/report groups rows into one table
// per app — live or offline.
#include <stdexcept>
#include <string>

#include "analysis/curve.hpp"
#include "bench/bench_util.hpp"
#include "sim/machine.hpp"

namespace {

using namespace dsm;

constexpr unsigned kNodes = 16;
constexpr Topology kTopologies[] = {Topology::kHypercube, Topology::kTorus2D,
                                    Topology::kMesh2D, Topology::kRing};

// The variant axis carries the topology by name; map it back rather
// than inferring from the point's index.
Topology topology_of(const driver::SpecPoint& pt) {
  for (const Topology topo : kTopologies)
    if (pt.detector == topology_name(topo)) return topo;
  throw std::runtime_error("unknown topology variant: " + pt.detector);
}

// Seed from the point WITHOUT the ablated axis: all four topology rows of
// an app must share one RNG stream, or the comparison would mislabel
// seed-induced variation as a topology effect.
std::uint64_t topology_seed(const driver::SpecPoint& pt) {
  driver::SpecPoint seed_pt = pt;
  seed_pt.detector.clear();
  return driver::spec_seed(seed_pt);
}

struct TopologyRow {
  unsigned diameter = 0;
  double mean_cpi = 0.0;
  double bbv15 = 0.0;
  double ddv15 = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  auto parsed = bench::reject_axes(
      bench::parse_options(argc, argv),
      {bench::Axis::kNodes, bench::Axis::kProtocol},
      "ablation_topology runs each topology on 16 nodes under MESI");
  if (!parsed.ok) return bench::usage_error(parsed);
  if (const auto rc = bench::maybe_orchestrate(argc, argv, parsed))
    return *rc;
  auto& opt = parsed.options;
  if (opt.app_names.empty()) opt.app_names = {"LU"};

  analysis::CurveParams cp;

  driver::SweepSpec spec;
  spec.apps = opt.app_names;
  spec.node_counts = {kNodes};
  for (const Topology topo : kTopologies)
    spec.detectors.push_back(topology_name(topo));
  spec.scale = opt.scale;

  return bench::machine_sweep<TopologyRow>(
      spec.expand(), opt, "ablation_topology",
      [](const driver::SpecPoint& pt, const ObsConfig& obs) {
        const auto& app = apps::app_by_name(pt.app);
        MachineConfig cfg = default_config(pt.nodes);
        cfg.network.topology = topology_of(pt);
        cfg.phase.interval_instructions =
            apps::scaled_interval(app.name, pt.scale);
        cfg.seed = topology_seed(pt);
        cfg.obs = obs;
        sim::Machine machine(cfg);
        return machine.run(app.factory(pt.scale));
      },
      [&cp](const driver::SpecPoint& pt, sim::RunSummary&& run) {
        const auto bbv = analysis::bbv_cov_curve(run.procs, cp);
        const auto ddv = analysis::bbv_ddv_cov_curve(run.procs, cp);
        TopologyRow row;
        row.diameter = net::TopologyModel(topology_of(pt), kNodes).diameter();
        row.bbv15 = analysis::cov_at_phases(bbv, 15);
        row.ddv15 = analysis::cov_at_phases(ddv, 15);
        double cpi = 0.0;
        for (unsigned p = 0; p < kNodes; ++p) cpi += run.cpi(p);
        row.mean_cpi = cpi / kNodes;
        return row;
      },
      topology_seed,
      [](const driver::SpecPoint&, const TopologyRow& row) {
        return shard::JsonObject()
            .add("diameter", static_cast<std::uint64_t>(row.diameter))
            .add("mean_cpi", row.mean_cpi)
            .add("bbv_cov15", row.bbv15)
            .add("ddv_cov15", row.ddv15)
            .str();
      });
}
