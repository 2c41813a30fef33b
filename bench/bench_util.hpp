// bench_util.hpp — shared plumbing for the figure/table harnesses: flag
// parsing, parallel/sharded sweep execution through the experiment driver,
// and the record→renderer bridge that makes live human output a replay of
// the same stream records `dsm_report render` consumes offline.
//
// Every harness runs its sweep through sharded_sweep()/run_reduced_sweep()
// and therefore supports four execution modes from one code path:
//
//   * default            — in-process sweep on --threads=N workers; each
//                          reduced configuration is serialized to its
//                          stream record and immediately replayed through
//                          the harness's renderer (src/report registry),
//                          so the live tables are byte-identical to
//                          `dsm_report render` over the collected records
//                          at any thread count.
//   * --shard=i/N        — shard worker: runs only its round-robin slice
//                          of the spec and writes one NDJSON record per
//                          completed configuration to stdout (spec order,
//                          flushed per record); human output is suppressed.
//   * --pull=fd:K|host:port — pull worker: leases spec-index ranges from
//                          a fleet coordinator and streams the same
//                          records back over that transport.
//   * --shards=N         — coordinator, the one fleet launcher: forks N
//                          workers of this binary with --pull=fd:3 (or,
//                          with --listen=PORT, accepts N --pull=host:PORT
//                          workers), leases them spec-index ranges, and
//                          merges their records in spec order onto
//                          stdout. Merged output is byte-identical to
//                          `--shards=1` (and to an offline `dsm_report
//                          merge` over --shard=i/N workers' collected
//                          files): records carry only
//                          configuration-content-derived, deterministic
//                          values.
//
// The in-worker reducer is the memory story: each RunSummary (which holds
// every interval record of every processor) is collapsed to the harness's
// curve/table rows on the worker that simulated it and destroyed there —
// nothing downstream ever holds a raw trace.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/curve.hpp"
#include "apps/registry.hpp"
#include "common/config.hpp"
#include "driver/experiment_runner.hpp"
#include "driver/sweep_spec.hpp"
#include "report/record_reader.hpp"
#include "report/renderer.hpp"
#include "shard/coordinator.hpp"
#include "shard/fleet_msg.hpp"
#include "shard/lease.hpp"
#include "shard/orchestrator.hpp"
#include "shard/pull_worker.hpp"
#include "shard/shard_plan.hpp"
#include "shard/stream_sink.hpp"
#include "shard/transport.hpp"
#include "sim/machine.hpp"

namespace dsm::bench {

struct BenchOptions {
  apps::Scale scale = apps::Scale::kPaper;  ///< Table II inputs fit in minutes
  std::vector<std::string> app_names;  ///< empty = all four paper apps
  std::vector<unsigned> node_counts;   ///< empty = the bench's defaults
  std::string csv_dir;                 ///< when set, also dump CSV files
  /// Coherence protocols to sweep (--protocol=msi,mesi,moesi). Empty =
  /// protocol not swept: the machines run the default (MESI) and records
  /// carry no protocol field. parse_options() normalizes an explicit
  /// {"mesi"} to empty, so --protocol=mesi is byte-identical to no flag.
  std::vector<std::string> protocols;
  unsigned threads = 1;                ///< sweep workers; 0 = one per core
  /// --obs-stats: run every machine with the deterministic metrics
  /// registry on and attach the snapshot to each record as the envelope's
  /// "obs" field. Off by default — records stay byte-identical to seeds.
  bool obs_stats = false;
  /// --trace=FILE: dump each machine's binary event trace here (multi-
  /// point sweeps suffix ".<spec_index>"). Empty = tracing off.
  std::string trace_path;
  /// --obs-intervals: run every machine with phase-attributed interval
  /// capture (implies the metrics registry) and attach the timeline to
  /// each record as the envelope's "obs_intervals" field (`dsm_report
  /// timeline`). Off by default — records stay byte-identical to seeds.
  bool obs_intervals = false;
  /// --heartbeat=FILE (with --shards=N): the coordinator tees each
  /// worker slot's in-band progress heartbeats to FILE.<slot>
  /// (src/shard/heartbeat.hpp; view with `dsm_report progress`).
  std::string heartbeat_path;
  bool verbose = false;
  shard::ShardPlan shard;              ///< --shard=i/N (worker mode)
  bool shard_set = false;              ///< --shard appeared: stream mode
  unsigned shards = 0;                 ///< --shards=N (coordinator); 0 = off
  /// --pull=fd:K|host:port: pull-worker mode — connect to a fleet
  /// coordinator, lease spec-index ranges, stream records back over the
  /// transport. Human output is suppressed like --shard. Empty = off.
  std::string pull_endpoint;
  /// --listen=PORT (with --shards=N): the coordinator accepts its N
  /// workers over TCP instead of forking them (multi-host fleets; start
  /// workers with --pull=host:PORT). 0 = fork mode.
  unsigned listen_port = 0;
  /// --resume=FILE (with --shards=N): scan this NDJSON store, re-emit its
  /// complete records, and lease only the gap spec indices.
  std::string resume_store;
  /// --lease-log=FILE (with --shards=N): append the coordinator's lease
  /// ledger (leased/retrying/dead/done per worker) as NDJSON; view with
  /// `dsm_report progress --lease=FILE`.
  std::string lease_log;
  /// --inject-fault=kind@spec_index (with --shards=N): deterministic
  /// chaos harness — the coordinator arms the fault on the first lease
  /// containing spec_index and the worker dies that way, exactly once.
  shard::FaultKind fault = shard::FaultKind::kNone;
  std::size_t fault_spec = 0;
  /// Fleet timing knobs: --lease-timeout-ms, --hb-interval-ms,
  /// --backoff-ms.
  shard::FleetTuning tuning;
};

/// True when this invocation is a shard or pull worker: the sweep emits
/// NDJSON records (to stdout for --shard, over the transport for --pull)
/// and the harness must suppress its human output (headers, tables, CSV)
/// — a merged multi-process stream has no place for per-worker prose.
inline bool stream_mode(const BenchOptions& opt) {
  return opt.shard_set || !opt.pull_endpoint.empty();
}

/// Outcome of command-line parsing. Mains check `ok` and bail with
/// usage_error() on failure instead of the library calling exit() — which
/// kept parse_options untestable and would kill a multi-sweep driver
/// mid-flight.
struct ParseResult {
  BenchOptions options;
  bool ok = true;
  bool scale_set = false;  ///< --scale appeared (mains with non-paper
                           ///< defaults check this before overriding)
  std::string error;  ///< set when !ok
};

/// Parses the flags usage_text() lists, plus google-benchmark-style
/// --benchmark* flags, which it ignores. Never exits; malformed input
/// comes back as ParseResult{ok=false, error}. Every --nodes entry must
/// build a hypercube machine (check_node_counts).
ParseResult parse_options(int argc, char** argv);

/// Sweep axes a harness may hold fixed.
enum class Axis { kApps, kNodes, kProtocol };

/// Fails `r` when it sets one of the `fixed` axes: the harness would
/// ignore that flag and write the stream it writes without it.
/// `what_runs` ends the diagnostic with what the harness runs instead
/// ("table2_applications runs all four apps on 8 nodes").
ParseResult reject_axes(ParseResult r, std::initializer_list<Axis> fixed,
                        const char* what_runs);

/// Fails `r` when one of its --nodes entries cannot build a Table I
/// machine on `topo` (MachineConfig::validate(): at most kMaxNodes, a
/// power of two for the hypercube, a square for mesh and torus). A
/// harness that sweeps more topologies than the default hypercube checks
/// each one this way before any run starts.
ParseResult check_node_counts(ParseResult r, Topology topo);

/// The flag reference printed under parse errors.
const char* usage_text();

/// Prints `r.error` plus usage to stderr; returns the conventional exit
/// code 2 so mains can `return bench::usage_error(r);`.
int usage_error(const ParseResult& r);

/// Coordinator entry point, called by every main straight after parsing:
/// when --shards=N was given, runs the pull-based fleet coordinator
/// (shard/coordinator.hpp) — N re-invocations of this binary as
/// --pull=fd:3 workers over socketpairs (or N TCP workers with
/// --listen), dynamic spec-index leases, heartbeat-deadline failure
/// detection with bounded respawn, optional resume-from-store and
/// deterministic fault injection — and merges the record streams in spec
/// order onto stdout, byte-identical to `--shards=1`. Returns the exit
/// code for main to return, or nullopt when not in coordinator mode.
/// Workers inherit --threads: total parallelism is shards × threads.
std::optional<int> maybe_orchestrate(int argc, char** argv,
                                     const ParseResult& parsed);

/// Runs `app` on a Table I machine with `nodes` processors at `scale`,
/// with the sampling interval scaled to the workload per DESIGN.md and the
/// machine's RNG streams seeded from `seed` (pass spec_seed(point) inside
/// sweeps so parallel and serial runs agree bit-for-bit). `protocol`
/// selects the coherence-policy tables the fabric runs (default MESI).
/// `obs` configures the observability layer (metrics registry / event
/// trace); the default runs with everything off, which is byte-identical
/// to the pre-observability simulator.
sim::RunSummary run_workload(const apps::AppInfo& app, apps::Scale scale,
                             unsigned nodes, bool verbose,
                             std::uint64_t seed,
                             Protocol protocol = Protocol::kMesi,
                             const ObsConfig& obs = ObsConfig{});

/// The per-point ObsConfig for opt: stats from --obs-stats, trace from
/// --trace=FILE (suffixed ".<spec_index>" when the sweep has more than
/// one point, so dumps never overwrite each other).
ObsConfig obs_config_for_point(const BenchOptions& opt,
                               const driver::SpecPoint& pt,
                               bool multi_point);

/// SpecPoint::protocol -> Protocol: empty means "not swept" (MESI).
/// Throws on a name protocol_from_name() rejects.
Protocol protocol_of_point(const driver::SpecPoint& pt);

/// Apps selected by --apps, in Table II order (default: all four).
std::vector<const apps::AppInfo*> selected_apps(const BenchOptions& opt);

/// Apps in command-line order with per-bench defaults (the ablation
/// harnesses iterate in the order the user named them).
std::vector<const apps::AppInfo*> named_apps(
    const BenchOptions& opt, const std::vector<std::string>& defaults);

/// Serializes a CoV curve as the metrics-array layout the offline
/// renderers rebuild tables and CSV exports from:
/// [[mean_phases, mean_cov, tuning_fraction, bbv_threshold, dds], ...].
std::string curve_json(const std::vector<analysis::CurvePoint>& curve);

/// Best-effort JSON object describing the measuring host — cpu model
/// (/proc/cpuinfo), online core count, and cpufreq governor when
/// readable ("unknown" otherwise): {"cpu": "...", "cores": N,
/// "governor": "..."}. Written into every BENCH_*.json so wall-clock
/// trajectory points recorded on different machines stay interpretable.
std::string host_context_json();

/// Pull-worker handshake for an empty sweep: connect, announce total 0,
/// drain the fin. Without this a coordinator would wait out its
/// handshake deadline on a worker that had nothing to do.
int pull_empty_sweep(const BenchOptions& opt, const char* bench_name);

/// Exit path for a pull worker that lost its coordinator mid-lease:
/// stderr diagnostic, then _exit(1) — there is nobody left to stream
/// records to, and the coordinator side already treats the closed
/// connection as this worker's death.
[[noreturn]] void pull_abort(const char* msg);

/// Builds the full stream record for one reduced configuration: context
/// envelope (the spec point's content plus the scale) wrapping the
/// harness metrics under "m". This is THE formatting point for records —
/// stream mode emits exactly these bytes and the live renderer path
/// replays exactly these bytes, which is what makes the two byte-compare.
template <typename R>
shard::StreamRecord make_stream_record(
    const driver::SpecPoint& pt, const R& reduced,
    const std::function<std::uint64_t(const driver::SpecPoint&)>& seed_of,
    const std::function<std::string(const driver::SpecPoint&, const R&)>&
        metrics,
    const std::string& obs_json = {},
    const std::string& obs_intervals_json = {}) {
  shard::StreamRecord rec;
  rec.spec_index = pt.index;
  rec.key = driver::spec_label(pt);
  rec.seed = seed_of(pt);
  shard::JsonObject ctx;
  ctx.add("app", pt.app)
      .add("nodes", static_cast<std::uint64_t>(pt.nodes))
      .add("variant", pt.detector)
      .add("param", pt.threshold);
  // Protocol rides in the envelope only when the sweep varies it, so
  // every pre-existing stream stays byte-identical (readers default the
  // absent field to "mesi").
  if (!pt.protocol.empty()) ctx.add("protocol", pt.protocol);
  ctx.add("scale", std::string(apps::scale_name(pt.scale)));
  // The deterministic metrics snapshot, present only under --obs-stats —
  // same optional-field precedent as protocol above. Likewise the
  // phase-attributed interval timeline under --obs-intervals.
  if (!obs_json.empty()) ctx.add_raw("obs", obs_json);
  if (!obs_intervals_json.empty())
    ctx.add_raw("obs_intervals", obs_intervals_json);
  rec.metrics = ctx.add_raw("m", metrics(pt, reduced)).str();
  return rec;
}

/// The generic sharded, streaming sweep core. `run` simulates one point
/// and `reduce` collapses the raw result, both on a pool worker (the raw
/// result is destroyed in the worker — this is the Reducer hook that
/// bounds per-configuration memory). Then, in spec order:
///   * stream mode: one NDJSON record per point — key spec_label(pt),
///     seed seed_of(pt), metrics wrapped by make_stream_record — onto
///     stdout;
///   * otherwise: the record is replayed through the renderer registered
///     for `bench_name` in src/report (the single formatting point for
///     human output, shared with `dsm_report render`); `live_observe`,
///     when set, sees each reduced result first — for live-only side
///     products like perf_hotpath's wall-clock JSON, which have no place
///     in deterministic records.
/// `obs_of`, when set, supplies the record's optional "obs" envelope
/// field (the machine's deterministic metrics snapshot); return "" for
/// no field. `obs_intervals_of` does the same for the optional
/// "obs_intervals" field (the phase-attributed interval timeline).
/// Returns the exit code (the renderer's finish() verdict; 0 in stream
/// mode). Template arguments are explicit at call sites (lambdas do not
/// deduce through std::function).
template <typename Raw, typename R>
int sharded_sweep(
    const std::vector<driver::SpecPoint>& points, const BenchOptions& opt,
    const char* bench_name,
    const std::function<Raw(const driver::SpecPoint&)>& run,
    const std::function<R(const driver::SpecPoint&, Raw&&)>& reduce,
    const std::function<std::uint64_t(const driver::SpecPoint&)>& seed_of,
    const std::function<std::string(const driver::SpecPoint&, const R&)>&
        metrics,
    const std::function<void(const driver::SpecPoint&, const R&)>&
        live_observe = {},
    const std::function<std::string(const driver::SpecPoint&, const R&)>&
        obs_of = {},
    const std::function<std::string(const driver::SpecPoint&, const R&)>&
        obs_intervals_of = {}) {
  const auto local = opt.shard.select(points);
  const driver::ExperimentRunner runner(opt.threads);
  const std::function<Raw(const driver::SpecPoint&)> guarded =
      [&](const driver::SpecPoint& pt) -> Raw {
    try {
      return run(pt);
    } catch (const std::exception& e) {
      // Name the configuration: in a parallel sweep "which point failed"
      // is otherwise lost.
      throw std::runtime_error(driver::spec_label(pt) + ": " + e.what());
    }
  };
  const auto record_of = [&](const driver::SpecPoint& pt, const R& r) {
    return make_stream_record<R>(
        pt, r, seed_of, metrics, obs_of ? obs_of(pt, r) : std::string(),
        obs_intervals_of ? obs_intervals_of(pt, r) : std::string());
  };
  if (!opt.pull_endpoint.empty()) {
    // Pull-worker mode: lease spec-index ranges from the coordinator and
    // stream each completed record back over the transport — the same
    // formatted bytes --shard workers write to stdout, which is what
    // keeps the coordinator's merged output byte-identical to --shards=1.
    const auto ep = shard::parse_endpoint(opt.pull_endpoint);
    if (!ep)
      throw std::runtime_error("bad --pull endpoint: " + opt.pull_endpoint);
    shard::PullWorker worker(*ep, bench_name, points.size());
    if (!worker.ok()) return 1;
    while (const auto lease = worker.next_lease()) {
      std::vector<driver::SpecPoint> slice;
      for (const auto& pt : points)
        if (pt.index >= lease->lo && pt.index < lease->hi)
          slice.push_back(pt);
      const shard::FaultKind fault = worker.fault();
      const std::size_t fault_spec = worker.fault_spec();
      runner.map_reduce<Raw, R>(
          slice, guarded, reduce,
          [&](const driver::SpecPoint& pt, R&& r) {
            const std::string line =
                shard::format_record(bench_name, record_of(pt, r));
            if (fault != shard::FaultKind::kNone && pt.index == fault_spec) {
              // The coordinator armed a deterministic fault on this very
              // spec index (chaos harness) — die the requested way.
              switch (fault) {
                case shard::FaultKind::kWorkerExit: worker.fault_exit();
                case shard::FaultKind::kWorkerHang: worker.fault_hang();
                case shard::FaultKind::kTruncatedRecord:
                  worker.fault_truncate(line);
                case shard::FaultKind::kDroppedHeartbeat:
                  worker.drop_heartbeats();
                  break;
                default: break;
              }
            }
            if (!worker.emit_record(line, pt.index))
              pull_abort("coordinator connection lost mid-lease");
          });
    }
    return worker.transport_lost() ? 1 : 0;
  }
  if (stream_mode(opt)) {
    shard::StreamSink sink(stdout, bench_name);
    runner.map_reduce<Raw, R>(
        local, guarded, reduce, [&](const driver::SpecPoint& pt, R&& r) {
          sink.emit(record_of(pt, r));
        });
    return 0;
  }
  report::RenderOptions ropt;
  ropt.csv_dir = opt.csv_dir;
  const auto renderer = report::make_renderer(bench_name, ropt);
  if (renderer == nullptr)
    throw std::logic_error(std::string("no renderer registered for '") +
                           bench_name + "' (src/report/renderers.cpp)");
  runner.map_reduce<Raw, R>(
      local, guarded, reduce, [&](const driver::SpecPoint& pt, R&& r) {
        if (live_observe) live_observe(pt, r);
        const std::string line =
            shard::format_record(bench_name, record_of(pt, r));
        report::RecordView view;
        std::string err;
        if (!report::read_record(line, &view, &err))
          throw std::logic_error(
              "internal: generated stream record failed validation: " + err);
        renderer->record(view);
      });
  return renderer->finish();
}

/// sharded_sweep over whole machines: `run` simulates one point on a
/// machine configured with the ObsConfig it is handed (the point's
/// --obs-stats/--obs-intervals/--trace, from obs_config_for_point), and
/// the machine's "obs" snapshot and "obs_intervals" timeline ride past
/// the harness reducer, which neither knows nor cares about them, into
/// the record envelope. Both are "" when the flags are off, so the
/// default streams carry no extra bytes.
template <typename R>
int machine_sweep(
    const std::vector<driver::SpecPoint>& points, const BenchOptions& opt,
    const char* bench_name,
    const std::function<sim::RunSummary(const driver::SpecPoint&,
                                        const ObsConfig&)>& run,
    const std::function<R(const driver::SpecPoint&, sim::RunSummary&&)>&
        reduce,
    const std::function<std::uint64_t(const driver::SpecPoint&)>& seed_of,
    const std::function<std::string(const driver::SpecPoint&, const R&)>&
        metrics) {
  struct Wrapped {
    R r;
    std::string obs;
    std::string obs_intervals;
  };
  const bool multi = points.size() > 1;
  return sharded_sweep<sim::RunSummary, Wrapped>(
      points, opt, bench_name,
      [&run, &opt, multi](const driver::SpecPoint& pt) {
        return run(pt, obs_config_for_point(opt, pt, multi));
      },
      [&reduce](const driver::SpecPoint& pt, sim::RunSummary&& summary) {
        std::string obs = std::move(summary.obs_json);
        std::string intervals = std::move(summary.obs_intervals_json);
        return Wrapped{reduce(pt, std::move(summary)), std::move(obs),
                       std::move(intervals)};
      },
      seed_of,
      [&metrics](const driver::SpecPoint& pt, const Wrapped& w) {
        return metrics(pt, w.r);
      },
      /*live_observe=*/{},
      [](const driver::SpecPoint&, const Wrapped& w) { return w.obs; },
      [](const driver::SpecPoint&, const Wrapped& w) {
        return w.obs_intervals;
      });
}

/// machine_sweep over the standard app × nodes product on Table I
/// machines: bench_util supplies the run step (run_workload with
/// spec_seed seeds); the harness supplies only its reducer and metrics
/// serializer (its renderer lives in the src/report registry).
template <typename R>
int run_reduced_sweep(
    const std::vector<const apps::AppInfo*>& apps_selected,
    const std::vector<unsigned>& nodes, const BenchOptions& opt,
    const char* bench_name,
    const std::function<R(const driver::SpecPoint&, sim::RunSummary&&)>&
        reduce,
    const std::function<std::string(const driver::SpecPoint&, const R&)>&
        metrics) {
  // An empty selection is an empty sweep (the pre-refactor loops printed
  // zero rows) — never a default "" spec point. A pull worker must still
  // tell its coordinator so, or the fleet would wait out a deadline.
  if (apps_selected.empty() || nodes.empty())
    return opt.pull_endpoint.empty() ? 0
                                     : pull_empty_sweep(opt, bench_name);
  driver::SweepSpec spec;
  for (const auto* app : apps_selected) spec.apps.push_back(app->name);
  spec.node_counts = nodes;
  spec.protocols = opt.protocols;
  spec.scale = opt.scale;
  return machine_sweep<R>(
      spec.expand(), opt, bench_name,
      [&opt](const driver::SpecPoint& pt, const ObsConfig& obs) {
        return run_workload(apps::app_by_name(pt.app), pt.scale, pt.nodes,
                            opt.verbose, driver::spec_seed(pt),
                            protocol_of_point(pt), obs);
      },
      reduce,
      [](const driver::SpecPoint& pt) { return driver::spec_seed(pt); },
      metrics);
}

}  // namespace dsm::bench
