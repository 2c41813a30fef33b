// table2_applications.cpp — reproduces Table II of the paper
// ("Applications used in the experiments") and augments it with measured
// workload characteristics from a quick 8-processor run of each program,
// so the reader can verify the models behave like the programs they stand
// in for (instruction volume, memory intensity, remote-access growth).
//
// The four characterization runs execute on the experiment driver
// (--threads=N, --shard=i/N, --shards=N); each RunSummary is reduced to
// its table row inside the worker and serialized into the stream record,
// which the table2 renderer in src/report assembles into the measured
// table in Table II order — live or offline.
#include "bench/bench_util.hpp"

namespace {

struct AppRow {
  double instr_m = 0.0;
  std::uint64_t intervals = 0;
  double cpi = 0.0;
  double mem_pct = 0.0;
  double remote_frac = 0.0;
  double mispredict_pct = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  auto parsed = bench::reject_axes(
      bench::parse_options(argc, argv),
      {bench::Axis::kApps, bench::Axis::kNodes},
      "table2_applications runs all four apps on 8 nodes");
  if (!parsed.ok) return bench::usage_error(parsed);
  if (const auto rc = bench::maybe_orchestrate(argc, argv, parsed))
    return *rc;
  auto& opt = parsed.options;
  // Default to the reduced scale here: this bench is a characterization
  // table, not a figure reproduction, and kTest keeps it under a minute.
  if (!parsed.scale_set) opt.scale = apps::Scale::kTest;

  // All four apps regardless of --apps: the table documents the full set.
  std::vector<const apps::AppInfo*> all;
  for (const auto& app : apps::paper_apps()) all.push_back(&app);
  return bench::run_reduced_sweep<AppRow>(
      all, {8}, opt, "table2_applications",
      [](const driver::SpecPoint&, sim::RunSummary&& run) {
        const auto& c = run.coherence[0];
        AppRow row;
        row.instr_m = static_cast<double>(run.instructions[0]) / 1e6;
        row.intervals = run.procs[0].intervals.size();
        row.cpi = run.cpi(0);
        row.mem_pct = 100.0 * static_cast<double>(c.loads + c.stores) /
                      static_cast<double>(run.instructions[0]);
        row.remote_frac = run.remote_access_fraction(0);
        row.mispredict_pct = 100.0 * run.mispredict_rate[0];
        return row;
      },
      [](const driver::SpecPoint&, const AppRow& row) {
        return shard::JsonObject()
            .add("instr_m", row.instr_m)
            .add("intervals", row.intervals)
            .add("cpi", row.cpi)
            .add("mem_instr_pct", row.mem_pct)
            .add("remote_frac", row.remote_frac)
            .add("mispredict_pct", row.mispredict_pct)
            .str();
      });
}
