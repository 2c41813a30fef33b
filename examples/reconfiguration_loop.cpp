// reconfiguration_loop.cpp — the full phase-adaptive loop of the paper's
// §II: detector -> predictor -> reconfiguration module, closed over a real
// simulated execution.
//
// The reconfiguration module here tunes a hypothetical adaptive resource
// with four settings whose payoff depends on the interval's memory
// intensity (think: L2 prefetch aggressiveness / DRAM power states). For
// every *new* phase the controller trial-runs each setting for one
// interval (the paper's trial-and-error tuning, which is why fewer phases
// mean less tuning overhead), then locks the best one and applies it
// whenever the predictor forecasts that phase.
//
// Output: energy-delay-style payoff with (a) no adaptation, (b) oracle
// per-interval tuning, (c) the phase-adaptive loop with BBV only, and
// (d) with BBV+DDV — showing detection quality turning into end value.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "common/config.hpp"
#include "driver/sweep_spec.hpp"
#include "phase/detector.hpp"
#include "phase/predictor.hpp"
#include "sim/machine.hpp"

namespace {

using namespace dsm;

/// Payoff of running one interval under config k (0..3): how much of the
/// interval's memory-stall time the setting recovers, minus a fixed cost.
/// The best k depends on the interval's CPI regime.
double payoff(const phase::IntervalRecord& rec, unsigned k) {
  const double mem_weight = std::min(1.0, rec.cpi / 4.0);  // stall share
  const double aggression = k / 3.0;
  // Aggressive settings help memory-bound intervals, hurt compute-bound.
  return aggression * (mem_weight - 0.35) - 0.05 * aggression;
}

struct LoopResult {
  double total_payoff = 0.0;
  unsigned phases_tuned = 0;
  unsigned tuning_intervals = 0;
};

/// Runs the §II loop over a recorded trace with the given detector.
LoopResult run_loop(const std::vector<phase::IntervalRecord>& trace,
                    phase::PhaseDetector& detector) {
  phase::MarkovPhasePredictor predictor;
  struct Tuning {
    unsigned next_trial = 0;       // < 4: still trying configs
    double best_payoff = -1e300;
    unsigned best_config = 0;
  };
  std::map<PhaseId, Tuning> tunings;
  LoopResult out;

  PhaseId predicted = kNoPhase;
  for (const auto& rec : trace) {
    // Configuration for this interval was chosen from the *prediction*
    // made at the end of the previous interval.
    unsigned config = 0;
    bool counts_as_trial = false;
    if (predicted != kNoPhase) {
      Tuning& t = tunings[predicted];
      if (t.next_trial < 4) {
        config = t.next_trial;  // trial-and-error tuning
        counts_as_trial = true;
      } else {
        config = t.best_config;
      }
    }

    const double p = payoff(rec, config);
    out.total_payoff += p;

    // Detector classifies the interval that just finished.
    const auto c = detector.classify(rec);
    if (c.new_phase) ++out.phases_tuned;
    if (counts_as_trial && predicted == c.phase) {
      // The trial ran on the phase we thought it would: record it.
      Tuning& t = tunings[c.phase];
      if (p > t.best_payoff) {
        t.best_payoff = p;
        t.best_config = config;
      }
      ++t.next_trial;
      ++out.tuning_intervals;
    }
    predictor.observe(c.phase);
    predicted = predictor.predict();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;

  // Shared sweep flags (--scale, --nodes, --threads, --verbose) via the
  // experiment driver; the loop itself stays a single-configuration study.
  auto parsed = bench::parse_options(argc, argv);
  if (!parsed.ok) return bench::usage_error(parsed);
  auto& opt = parsed.options;
  if (!parsed.scale_set) opt.scale = apps::Scale::kBench;  // historic default
  if (opt.node_counts.empty()) opt.node_counts = {8};

  // Single-configuration study: first named app (default Equake) on the
  // first node count. Extra --apps/--nodes entries would be silently
  // ignored, so reject them rather than mislabel the results.
  if (opt.app_names.size() > 1 || opt.node_counts.size() > 1) {
    std::fprintf(stderr, "error: this example studies exactly one "
                         "app/node-count; pass at most one of each\n");
    return 2;
  }
  if (!opt.csv_dir.empty()) {
    std::fprintf(stderr,
                 "error: --csv is not supported by this example\n");
    return 2;
  }
  // Same reasoning for the sharding flags: a single-configuration study
  // has nothing to shard, and silently running the full study N times
  // would corrupt a stream merge.
  if (opt.shard_set || opt.shards > 0) {
    std::fprintf(stderr, "error: --shard/--shards are not supported by "
                         "this example\n");
    return 2;
  }
  // Copy the pointer out: the vector named_apps returns is a temporary,
  // but the AppInfo it points at lives in the registry.
  const apps::AppInfo* const app = bench::named_apps(opt, {"Equake"}).front();

  std::printf("simulating %s on %u nodes...\n", app->name.c_str(),
              opt.node_counts[0]);
  // Seeded like a one-point sweep, so the study matches the sweep
  // harnesses' run of the same configuration bit for bit.
  driver::SweepSpec spec;
  spec.apps = {app->name};
  spec.node_counts = {opt.node_counts[0]};
  spec.scale = opt.scale;
  const sim::RunSummary run =
      bench::run_workload(*app, opt.scale, opt.node_counts[0], opt.verbose,
                          driver::spec_seed(spec.expand().front()));
  const MachineConfig& cfg = run.cfg;
  const auto& trace = run.procs[0].intervals;
  std::printf("%zu intervals recorded on proc 0\n\n", trace.size());

  // (a) static best single config, (b) oracle per-interval.
  double static_best = -1e300;
  for (unsigned k = 0; k < 4; ++k) {
    double s = 0.0;
    for (const auto& rec : trace) s += payoff(rec, k);
    static_best = std::max(static_best, s);
  }
  double oracle = 0.0;
  for (const auto& rec : trace) {
    double best = -1e300;
    for (unsigned k = 0; k < 4; ++k) best = std::max(best, payoff(rec, k));
    oracle += best;
  }

  // (c)/(d) the adaptive loop under each detector.
  double dds_span = 0.0;
  {
    double lo = 1e300, hi = -1e300;
    for (const auto& r : trace) {
      lo = std::min(lo, r.dds);
      hi = std::max(hi, r.dds);
    }
    dds_span = hi - lo;
  }
  phase::Thresholds t;
  t.bbv = cfg.phase.bbv_norm / 8;
  t.dds = dds_span / 6.0;
  phase::BbvDetector bbv(cfg.phase.footprint_vectors, t);
  phase::BbvDdvDetector ddv(cfg.phase.footprint_vectors, t);
  const auto r_bbv = run_loop(trace, bbv);
  const auto r_ddv = run_loop(trace, ddv);

  std::printf("policy                    payoff   phases  tuning intervals\n");
  std::printf("best static config      %8.2f        -   -\n", static_best);
  std::printf("oracle per interval     %8.2f        -   -\n", oracle);
  std::printf("phase-adaptive, BBV     %8.2f   %6u   %u\n",
              r_bbv.total_payoff, r_bbv.phases_tuned, r_bbv.tuning_intervals);
  std::printf("phase-adaptive, BBV+DDV %8.2f   %6u   %u\n",
              r_ddv.total_payoff, r_ddv.phases_tuned, r_ddv.tuning_intervals);
  std::printf("\nBetter phase homogeneity means trial results transfer to "
              "the rest of the\nphase — detection quality becomes payoff "
              "(§II's motivation for the CoV metric).\n");
  return 0;
}
