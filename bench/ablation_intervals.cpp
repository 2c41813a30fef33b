// ablation_intervals.cpp — sensitivity of detection quality to the
// sampling-interval length. The paper fixes 3M instructions (footnote 3:
// chosen for the reduced input sets, vs "real-world" 100M); this harness
// sweeps the interval around that choice and reports how both detectors'
// operating points move.
//
// The app × nodes × factor product runs on the experiment driver
// (--threads=N, --shard=i/N, --shards=N) with the factor carried on the
// SweepSpec's numeric axis; each point builds its own Machine with the
// rescaled interval and is reduced to one row carried in the stream
// record. The intervals renderer in src/report groups rows into one
// table per (app, nodes) — live or offline.
#include "analysis/curve.hpp"
#include "bench/bench_util.hpp"
#include "sim/machine.hpp"

namespace {

using namespace dsm;

struct IntervalRow {
  InstrCount interval = 0;
  std::uint64_t intervals_per_proc = 0;
  double bbv10 = 0.0;
  double ddv10 = 0.0;
  double bbv25 = 0.0;
  double ddv25 = 0.0;
};

// Seed from the point WITHOUT the ablated axis: every interval-length row
// of an (app, nodes) pair shares one RNG stream so the rows differ only
// by the sampling interval under study.
std::uint64_t interval_seed(const driver::SpecPoint& pt) {
  driver::SpecPoint seed_pt = pt;
  seed_pt.threshold = 0.0;
  return driver::spec_seed(seed_pt);
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = bench::reject_axes(
      bench::parse_options(argc, argv), {bench::Axis::kProtocol},
      "ablation_intervals runs every interval length under MESI");
  if (!parsed.ok) return bench::usage_error(parsed);
  if (const auto rc = bench::maybe_orchestrate(argc, argv, parsed))
    return *rc;
  auto& opt = parsed.options;
  if (opt.app_names.empty()) opt.app_names = {"LU"};
  if (opt.node_counts.empty()) opt.node_counts = {8};

  analysis::CurveParams cp;

  driver::SweepSpec spec;
  spec.apps = opt.app_names;
  spec.node_counts = opt.node_counts;
  spec.thresholds = {0.5, 1.0, 2.0, 4.0};  // interval-length factors
  spec.scale = opt.scale;

  return bench::machine_sweep<IntervalRow>(
      spec.expand(), opt, "ablation_intervals",
      [](const driver::SpecPoint& pt, const ObsConfig& obs) {
        const auto& app = apps::app_by_name(pt.app);
        const InstrCount base = apps::scaled_interval(app.name, pt.scale);
        MachineConfig cfg = default_config(pt.nodes);
        cfg.phase.interval_instructions = static_cast<InstrCount>(
            static_cast<double>(base) * pt.threshold);
        cfg.seed = interval_seed(pt);
        cfg.obs = obs;
        sim::Machine machine(cfg);
        return machine.run(app.factory(pt.scale));
      },
      [&cp](const driver::SpecPoint& pt, sim::RunSummary&& run) {
        const auto bbv = analysis::bbv_cov_curve(run.procs, cp);
        const auto ddv = analysis::bbv_ddv_cov_curve(run.procs, cp);
        IntervalRow row;
        row.interval = run.cfg.phase.interval_instructions;
        row.intervals_per_proc = run.procs[0].intervals.size();
        row.bbv10 = analysis::cov_at_phases(bbv, 10);
        row.ddv10 = analysis::cov_at_phases(ddv, 10);
        row.bbv25 = analysis::cov_at_phases(bbv, 25);
        row.ddv25 = analysis::cov_at_phases(ddv, 25);
        (void)pt;
        return row;
      },
      interval_seed,
      [](const driver::SpecPoint&, const IntervalRow& row) {
        return shard::JsonObject()
            .add("interval", static_cast<std::uint64_t>(row.interval))
            .add("intervals_per_proc", row.intervals_per_proc)
            .add("bbv_cov10", row.bbv10)
            .add("ddv_cov10", row.ddv10)
            .add("bbv_cov25", row.bbv25)
            .add("ddv_cov25", row.ddv25)
            .str();
      });
}
