// perf_sim.cpp — driver-native throughput harness for the FULL simulation
// loop: sim::Machine::run (cpu timing + scheduler + sync + BBV/DDV phase
// hardware + coherence fabric + network), timed end-to-end per
// `app × nodes` configuration, where perf_hotpath isolates the
// fabric+network slice. Together the two JSON trajectories say both how
// fast the memory system is AND how fast the experiments the figures are
// made of actually run — so perf PRs can see which layer they moved.
//
// Output split (same contract as perf_hotpath): stdout carries the
// record-driven deterministic table (simulated instructions / cycles /
// intervals / network traffic — bit-identical across optimization PRs by
// construction); wall-clock numbers are a live-only measurement and go
// to stderr, plus the JSON file --json=PATH names, with the measuring
// host's cpu/cores/governor recorded alongside so trajectory points from
// different machines stay interpretable.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/table_writer.hpp"
#include "driver/sweep_spec.hpp"

namespace {

using namespace dsm;

struct SimResult {
  // Deterministic simulation checksums — identical before/after any
  // mechanical optimization of the simulator.
  std::uint64_t instructions = 0;  ///< committed non-sync instrs, all procs
  std::uint64_t cycles = 0;        ///< sum of per-proc finish times
  std::uint64_t intervals = 0;     ///< recorded intervals, all procs
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  // Live-only measurement.
  double seconds = 0.0;
  /// Deterministic metrics snapshot ("" unless --obs-stats) and interval
  /// timeline ("" unless --obs-intervals).
  std::string obs_json;
  std::string obs_intervals_json;

  double sim_mips() const {
    return seconds > 0.0 ? static_cast<double>(instructions) / seconds / 1e6
                         : 0.0;
  }
};

SimResult time_config(const apps::AppInfo& app, apps::Scale scale,
                      unsigned nodes, std::uint64_t seed,
                      const ObsConfig& obs) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::RunSummary run =
      bench::run_workload(app, scale, nodes, /*verbose=*/false, seed,
                          Protocol::kMesi, obs);
  const auto t1 = std::chrono::steady_clock::now();

  SimResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.obs_json = std::move(run.obs_json);
  r.obs_intervals_json = std::move(run.obs_intervals_json);
  for (unsigned p = 0; p < nodes; ++p) {
    r.instructions += run.instructions[p];
    r.cycles += run.final_cycles[p];
    r.intervals += run.procs[p].intervals.size();
  }
  for (unsigned c = 0; c < net::kNumTrafficClasses; ++c) {
    r.net_messages += run.net_messages[c];
    r.net_bytes += run.net_bytes[c];
  }
  return r;
}

void write_json(const std::string& path, apps::Scale scale,
                const std::vector<driver::SpecPoint>& points,
                const std::vector<SimResult>& results) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  f << "{\n";
  f << "  \"bench\": \"perf_sim\",\n";
  f << "  \"scale\": \"" << apps::scale_name(scale) << "\",\n";
  f << "  \"host\": " << bench::host_context_json() << ",\n";
  f << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"app\": \"%s\", \"nodes\": %u, "
                  "\"sim_mips\": %.3f, \"seconds\": %.3f, "
                  "\"instructions\": %llu, \"cycles\": %llu, "
                  "\"net_messages\": %llu, \"net_bytes\": %llu}%s\n",
                  points[i].app.c_str(), points[i].nodes,
                  r.sim_mips(), r.seconds,
                  static_cast<unsigned long long>(r.instructions),
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.net_messages),
                  static_cast<unsigned long long>(r.net_bytes),
                  i + 1 < results.size() ? "," : "");
    f << buf;
  }
  f << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  // --json=PATH is ours; everything else goes through the shared parser.
  std::optional<std::string> json_path;  // no flag, no file
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  auto res = bench::reject_axes(
      bench::parse_options(static_cast<int>(args.size()), args.data()),
      {bench::Axis::kProtocol}, "perf_sim times its machines under MESI");
  if (!res.ok) return bench::usage_error(res);
  if (json_path && (res.options.shard_set || res.options.shards > 0)) {
    std::fprintf(stderr, "error: --json is not available in sharded runs "
                         "(the NDJSON stream carries the deterministic "
                         "counters)\n");
    return 2;
  }
  if (const auto rc = bench::maybe_orchestrate(
          static_cast<int>(args.size()), args.data(), res))
    return *rc;
  const bench::BenchOptions& opt = res.options;
  const bool stream = bench::stream_mode(opt);

  const auto apps_selected = bench::selected_apps(opt);
  const std::vector<unsigned> nodes =
      opt.node_counts.empty() ? std::vector<unsigned>{2, 8, 32}
                              : opt.node_counts;

  driver::SweepSpec spec;
  for (const auto* app : apps_selected) spec.apps.push_back(app->name);
  spec.node_counts = nodes;
  spec.scale = opt.scale;
  const auto points = spec.expand();

  // Wall-clock is a live-only measurement (stderr + JSON trajectory);
  // the record-driven stdout table carries the deterministic counters.
  std::vector<driver::SpecPoint> done_points;
  std::vector<SimResult> results;
  const int rc = bench::sharded_sweep<SimResult, SimResult>(
      points, opt, "perf_sim",
      [&](const driver::SpecPoint& pt) {
        return time_config(apps::app_by_name(pt.app), pt.scale, pt.nodes,
                           driver::spec_seed(pt),
                           bench::obs_config_for_point(opt, pt,
                                                       points.size() > 1));
      },
      [](const driver::SpecPoint&, SimResult&& r) { return r; },
      [](const driver::SpecPoint& pt) { return driver::spec_seed(pt); },
      [](const driver::SpecPoint&, const SimResult& r) {
        // Deterministic checksums only: wall-clock would break the
        // merged-vs-serial byte comparison.
        return shard::JsonObject()
            .add("instructions", r.instructions)
            .add("cycles", r.cycles)
            .add("intervals", r.intervals)
            .add("net_messages", r.net_messages)
            .add("net_bytes", r.net_bytes)
            .str();
      },
      [&](const driver::SpecPoint& pt, const SimResult& r) {
        done_points.push_back(pt);
        results.push_back(r);
      },
      [](const driver::SpecPoint&, const SimResult& r) {
        return r.obs_json;
      },
      [](const driver::SpecPoint&, const SimResult& r) {
        return r.obs_intervals_json;
      });
  if (stream) return rc;

  TableWriter wall({"app", "nodes", "sim MIPS", "seconds"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    wall.add_row({done_points[i].app, std::to_string(done_points[i].nodes),
                  TableWriter::fmt(results[i].sim_mips(), 3),
                  TableWriter::fmt(results[i].seconds, 3)});
  }
  std::fprintf(stderr, "wall-clock (live-only, varies run to run):\n%s\n",
               wall.to_text().c_str());
  if (json_path) write_json(*json_path, opt.scale, done_points, results);
  return rc;
}
