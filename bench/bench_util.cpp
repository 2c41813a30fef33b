#include "bench/bench_util.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/log.hpp"
#include "common/parse.hpp"

namespace dsm::bench {
namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep))
    if (!item.empty()) out.push_back(item);
  return out;
}

ParseResult fail(ParseResult r, std::string msg) {
  r.ok = false;
  r.error = std::move(msg);
  return r;
}

constexpr unsigned long kMaxThreads = 4096;

}  // namespace

const char* usage_text() {
  return
      "options:\n"
      "  --scale=paper|bench|test   workload size (default paper)\n"
      "  --apps=LU,FMM,Art,Equake   subset of applications\n"
      "  --nodes=2,8,32             subset of node counts\n"
      "  --protocol=msi,mesi,moesi  coherence protocols to sweep (default:\n"
      "                             mesi only, not recorded as an axis)\n"
      "  --csv=DIR                  dump full-resolution CSV (live runs;\n"
      "                             sharded: dsm_report render --csv=DIR)\n"
      "  --threads=N                sweep worker threads (0 = one per core,\n"
      "                             default 1)\n"
      "  --shards=N                 run the pull-fleet coordinator: fork N\n"
      "                             workers, lease them spec-index ranges,\n"
      "                             survive worker deaths, and merge the\n"
      "                             record streams in spec order\n"
      "  --shard=i/N                run shard i of N only, emitting NDJSON\n"
      "                             records instead of tables (static\n"
      "                             worker mode, for collected-file flows)\n"
      "  --pull=fd:K|host:port      pull-worker mode: lease work from a\n"
      "                             fleet coordinator over this transport\n"
      "  --listen=PORT              with --shards=N: accept the N workers\n"
      "                             over TCP instead of forking (start them\n"
      "                             with --pull=host:PORT)\n"
      "  --resume=FILE              with --shards=N: scan this NDJSON store,\n"
      "                             re-emit its complete records, and lease\n"
      "                             only the gap spec indices\n"
      "  --lease-log=FILE           with --shards=N: append the lease ledger\n"
      "                             (leased/retrying/dead/done) as NDJSON;\n"
      "                             view with `dsm_report progress --lease=`\n"
      "  --inject-fault=KIND@SPEC   with --shards=N: deterministically kill\n"
      "                             the worker running spec index SPEC\n"
      "                             (KIND: worker-exit, worker-hang,\n"
      "                             truncated-record, dropped-heartbeat)\n"
      "  --lease-timeout-ms=N       heartbeat deadline before a leased\n"
      "                             worker is declared dead (default 30000)\n"
      "  --hb-interval-ms=N         worker heartbeat cadence (default 1000)\n"
      "  --backoff-ms=N             respawn backoff base, doubled per\n"
      "                             attempt (default 250, capped at 8000)\n"
      "  --obs-stats                attach each machine's deterministic\n"
      "                             metrics snapshot to its record (the\n"
      "                             envelope's \"obs\" field; view with\n"
      "                             `dsm_report stats`)\n"
      "  --obs-intervals            capture phase-attributed interval\n"
      "                             metric snapshots (implies --obs-stats;\n"
      "                             the envelope's \"obs_intervals\" field;\n"
      "                             view with `dsm_report timeline`)\n"
      "  --heartbeat=FILE           append worker progress heartbeats to\n"
      "                             FILE (stream mode; with --shards=N each\n"
      "                             worker i writes FILE.<i>; view with\n"
      "                             `dsm_report progress`)\n"
      "  --trace=FILE               dump the per-node binary event trace to\n"
      "                             FILE (multi-point sweeps: FILE.<index>);\n"
      "                             convert with `dsm_report trace`\n"
      "  --verbose                  progress logging\n";
}

int usage_error(const ParseResult& r) {
  std::fprintf(stderr, "error: %s\n%s", r.error.c_str(), usage_text());
  return 2;
}

ParseResult parse_options(int argc, char** argv) {
  ParseResult res;
  BenchOptions& opt = res.options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--scale=", 0) == 0) {
      const std::string v = value("--scale=");
      if (v == "paper") opt.scale = apps::Scale::kPaper;
      else if (v == "bench") opt.scale = apps::Scale::kBench;
      else if (v == "test") opt.scale = apps::Scale::kTest;
      else return fail(std::move(res), "unknown --scale value: " + v);
      res.scale_set = true;
    } else if (arg.rfind("--apps=", 0) == 0) {
      opt.app_names = split(value("--apps="), ',');
      for (const auto& n : opt.app_names)
        if (apps::find_app(n) == nullptr)
          return fail(std::move(res),
                      "unknown app: " + n + " (valid: LU,FMM,Art,Equake)");
    } else if (arg.rfind("--nodes=", 0) == 0) {
      for (const auto& n : split(value("--nodes="), ',')) {
        unsigned long v = 0;
        if (!parse_unsigned(n, 1, std::numeric_limits<unsigned>::max(), v))
          return fail(std::move(res), "bad --nodes entry: " + n);
        opt.node_counts.push_back(static_cast<unsigned>(v));
      }
    } else if (arg.rfind("--protocol=", 0) == 0) {
      opt.protocols = split(value("--protocol="), ',');
      Protocol p;
      for (const auto& n : opt.protocols)
        if (!protocol_from_name(n, &p))
          return fail(std::move(res),
                      "unknown protocol: " + n + " (valid: msi,mesi,moesi)");
      if (opt.protocols.empty())
        return fail(std::move(res), "empty --protocol list");
      // The machine default: drop the axis entirely so --protocol=mesi is
      // byte-identical (seeds, records, output) to not passing the flag.
      if (opt.protocols == std::vector<std::string>{"mesi"})
        opt.protocols.clear();
    } else if (arg.rfind("--threads=", 0) == 0) {
      const std::string v = value("--threads=");
      unsigned long t = 0;
      if (!parse_unsigned(v, 0, kMaxThreads, t))
        return fail(std::move(res), "bad --threads value: " + v);
      opt.threads = static_cast<unsigned>(t);
    } else if (arg.rfind("--shards=", 0) == 0) {
      const std::string v = value("--shards=");
      unsigned long n = 0;
      if (!parse_unsigned(v, 1, shard::kMaxShards, n))
        return fail(std::move(res), "bad --shards value: " + v);
      opt.shards = static_cast<unsigned>(n);
    } else if (arg.rfind("--shard=", 0) == 0) {
      const std::string v = value("--shard=");
      const auto plan = shard::parse_shard(v);
      if (!plan)
        return fail(std::move(res),
                    "bad --shard value (want i/N with 0 <= i < N): " + v);
      opt.shard = *plan;
      opt.shard_set = true;
    } else if (arg.rfind("--pull=", 0) == 0) {
      const std::string v = value("--pull=");
      if (!shard::parse_endpoint(v))
        return fail(std::move(res),
                    "bad --pull endpoint (want fd:K or host:port): " + v);
      opt.pull_endpoint = v;
    } else if (arg.rfind("--listen=", 0) == 0) {
      const std::string v = value("--listen=");
      unsigned long p = 0;
      if (!parse_unsigned(v, 1, 65535, p))
        return fail(std::move(res), "bad --listen port: " + v);
      opt.listen_port = static_cast<unsigned>(p);
    } else if (arg.rfind("--resume=", 0) == 0) {
      opt.resume_store = value("--resume=");
      if (opt.resume_store.empty())
        return fail(std::move(res), "empty --resume path");
    } else if (arg.rfind("--lease-log=", 0) == 0) {
      opt.lease_log = value("--lease-log=");
      if (opt.lease_log.empty())
        return fail(std::move(res), "empty --lease-log path");
    } else if (arg.rfind("--inject-fault=", 0) == 0) {
      const std::string v = value("--inject-fault=");
      if (!shard::parse_fault_spec(v, &opt.fault, &opt.fault_spec))
        return fail(std::move(res),
                    "bad --inject-fault value (want KIND@SPEC with KIND one "
                    "of worker-exit, worker-hang, truncated-record, "
                    "dropped-heartbeat): " +
                        v);
    } else if (arg.rfind("--lease-timeout-ms=", 0) == 0) {
      const std::string v = value("--lease-timeout-ms=");
      unsigned long ms = 0;
      if (!parse_unsigned(v, 1, 86400000, ms))
        return fail(std::move(res), "bad --lease-timeout-ms value: " + v);
      opt.tuning.heartbeat_deadline_ms = ms;
    } else if (arg.rfind("--hb-interval-ms=", 0) == 0) {
      const std::string v = value("--hb-interval-ms=");
      unsigned long ms = 0;
      if (!parse_unsigned(v, 1, 3600000, ms))
        return fail(std::move(res), "bad --hb-interval-ms value: " + v);
      opt.tuning.heartbeat_interval_ms = ms;
    } else if (arg.rfind("--backoff-ms=", 0) == 0) {
      const std::string v = value("--backoff-ms=");
      unsigned long ms = 0;
      if (!parse_unsigned(v, 1, 3600000, ms))
        return fail(std::move(res), "bad --backoff-ms value: " + v);
      opt.tuning.backoff_base_ms = ms;
      if (opt.tuning.backoff_max_ms < ms) opt.tuning.backoff_max_ms = ms;
    } else if (arg.rfind("--csv=", 0) == 0) {
      opt.csv_dir = value("--csv=");
    } else if (arg == "--obs-stats") {
      opt.obs_stats = true;
    } else if (arg == "--obs-intervals") {
      opt.obs_intervals = true;
    } else if (arg.rfind("--heartbeat=", 0) == 0) {
      opt.heartbeat_path = value("--heartbeat=");
      if (opt.heartbeat_path.empty())
        return fail(std::move(res), "empty --heartbeat path");
    } else if (arg.rfind("--trace=", 0) == 0) {
      opt.trace_path = value("--trace=");
      if (opt.trace_path.empty())
        return fail(std::move(res), "empty --trace path");
    } else if (arg == "--verbose") {
      opt.verbose = true;
      set_log_level(LogLevel::kInfo);
    } else if (arg.rfind("--benchmark", 0) == 0) {
      // google-benchmark flag: not ours, ignore.
    } else {
      return fail(std::move(res), "unknown option: " + arg);
    }
  }
  if (opt.shard_set && opt.shards > 0)
    return fail(std::move(res),
                "--shard (worker) and --shards (orchestrator) are mutually "
                "exclusive");
  if (!opt.pull_endpoint.empty() && (opt.shard_set || opt.shards > 0))
    return fail(std::move(res),
                "--pull (fleet worker) is mutually exclusive with --shard "
                "and --shards");
  // Coordinator-only flags: these shape the fleet the coordinator runs,
  // so a worker (or plain local run) accepting them silently would hide
  // a misconfigured launch script.
  if (opt.shards == 0) {
    const char* stray = nullptr;
    if (opt.listen_port != 0) stray = "--listen";
    else if (!opt.resume_store.empty()) stray = "--resume";
    else if (!opt.lease_log.empty()) stray = "--lease-log";
    else if (opt.fault != shard::FaultKind::kNone) stray = "--inject-fault";
    if (stray != nullptr)
      return fail(std::move(res), std::string(stray) +
                                      " only makes sense on the coordinator: "
                                      "add --shards=N");
  }
  // CSV files are written by the renderer, which stream mode suppresses;
  // silently producing no files would be worse than refusing. The records
  // carry the full-resolution curves, so the offline renderer recovers
  // the same files from the collected stream.
  if (!opt.csv_dir.empty() &&
      (opt.shard_set || opt.shards > 0 || !opt.pull_endpoint.empty()))
    return fail(std::move(res),
                "--csv is not available in sharded runs: collect the NDJSON "
                "stream and run `dsm_report render --csv=DIR` over it");
  return check_node_counts(std::move(res), Topology::kHypercube);
}

ParseResult check_node_counts(ParseResult r, Topology topo) {
  if (!r.ok) return r;
  for (const unsigned n : r.options.node_counts) {
    MachineConfig cfg = default_config(1);
    cfg.num_nodes = n;
    cfg.network.topology = topo;
    const std::string err = cfg.validate();
    if (err.empty()) continue;
    std::string msg = "bad --nodes entry ";
    msg += std::to_string(n);
    msg += " for a ";
    msg += topology_name(topo);
    msg += ": ";
    msg += err;
    return fail(std::move(r), std::move(msg));
  }
  return r;
}

std::optional<int> maybe_orchestrate(int argc, char** argv,
                                     const ParseResult& parsed) {
  if (!parsed.ok || parsed.options.shards == 0) return std::nullopt;
  const BenchOptions& bo = parsed.options;
  shard::FleetOptions o;
  o.binary = shard::self_exe(argc > 0 ? argv[0] : nullptr);
  // Coordinator-only flags are consumed here, not forwarded: workers get
  // the sweep-shaping flags plus a `--pull=` endpoint the coordinator
  // appends per spawn. (`--heartbeat` becomes per-worker socket
  // heartbeats the coordinator tees into FILE.<i> itself.)
  static const char* kCoordinatorOnly[] = {
      "--shards=",         "--heartbeat=",      "--resume=",
      "--lease-log=",      "--inject-fault=",   "--lease-timeout-ms=",
      "--hb-interval-ms=", "--backoff-ms=",     "--listen=",
  };
  for (int i = 1; i < argc; ++i) {
    bool skip = false;
    for (const char* p : kCoordinatorOnly)
      skip |= (std::strncmp(argv[i], p, std::strlen(p)) == 0);
    if (!skip) o.args.push_back(argv[i]);
  }
  o.workers = bo.shards;
  o.tuning = bo.tuning;
  o.heartbeat_path = bo.heartbeat_path;
  o.lease_log = bo.lease_log;
  o.resume_store = bo.resume_store;
  o.fault = bo.fault;
  o.fault_spec = bo.fault_spec;
  o.listen_port = bo.listen_port;
  return shard::run_fleet(o, stdout);
}

int pull_empty_sweep(const BenchOptions& opt, const char* bench_name) {
  // The worker's spec selection is empty (e.g. a filter matched nothing),
  // but the coordinator still expects the hello/pull/fin handshake; a
  // silent exit would read as a death and trigger pointless respawns.
  const auto ep = shard::parse_endpoint(opt.pull_endpoint);
  if (!ep) {
    std::fprintf(stderr, "pull worker: bad endpoint %s\n",
                 opt.pull_endpoint.c_str());
    return 1;
  }
  shard::PullWorker worker(*ep, bench_name, 0);
  if (!worker.ok()) return 1;
  while (worker.next_lease()) {
    // No specs: any lease would be a coordinator bug; drain to fin.
  }
  return worker.transport_lost() ? 1 : 0;
}

void pull_abort(const char* msg) {
  // Called from inside map_reduce's emit callback: throwing there would
  // unwind through the runner's worker threads, so die directly. The
  // coordinator sees the closed socket and re-leases our indices.
  std::fprintf(stderr, "pull worker: %s\n", msg);
  ::_exit(1);
}

Protocol protocol_of_point(const driver::SpecPoint& pt) {
  Protocol p = Protocol::kMesi;
  if (!pt.protocol.empty() && !protocol_from_name(pt.protocol, &p))
    throw std::runtime_error("unknown protocol: " + pt.protocol);
  return p;
}

ObsConfig obs_config_for_point(const BenchOptions& opt,
                               const driver::SpecPoint& pt,
                               bool multi_point) {
  ObsConfig obs;
  obs.stats = opt.obs_stats;
  obs.intervals = opt.obs_intervals;
  if (!opt.trace_path.empty()) {
    obs.trace = true;
    obs.trace_path = multi_point
                         ? opt.trace_path + "." + std::to_string(pt.index)
                         : opt.trace_path;
  }
  return obs;
}

sim::RunSummary run_workload(const apps::AppInfo& app, apps::Scale scale,
                             unsigned nodes, bool verbose,
                             std::uint64_t seed, Protocol protocol,
                             const ObsConfig& obs) {
  MachineConfig cfg = default_config(nodes);
  cfg.phase.interval_instructions = apps::scaled_interval(app.name, scale);
  cfg.protocol = protocol;
  cfg.seed = seed;
  cfg.obs = obs;
  const auto t0 = std::chrono::steady_clock::now();
  sim::Machine machine(cfg);
  sim::RunSummary run = machine.run(app.factory(scale));
  if (verbose) {
    const auto dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    DSM_LOG_INFO("%s @ %uP (%s): %zu intervals/proc0, CPI %.2f, %.1fs",
                 app.name.c_str(), nodes, apps::scale_name(scale),
                 run.procs[0].intervals.size(), run.cpi(0), dt);
  }
  return run;
}

std::vector<const apps::AppInfo*> selected_apps(const BenchOptions& opt) {
  std::vector<const apps::AppInfo*> out;
  for (const auto& app : apps::paper_apps()) {
    if (!opt.app_names.empty()) {
      bool want = false;
      // Case-insensitive via the registry lookup (parse_options has
      // already rejected unknown names).
      for (const auto& n : opt.app_names) want |= (apps::find_app(n) == &app);
      if (!want) continue;
    }
    out.push_back(&app);
  }
  return out;
}

std::vector<const apps::AppInfo*> named_apps(
    const BenchOptions& opt, const std::vector<std::string>& defaults) {
  const auto& names = opt.app_names.empty() ? defaults : opt.app_names;
  std::vector<const apps::AppInfo*> out;
  for (const auto& n : names) out.push_back(&apps::app_by_name(n));
  return out;
}

std::string host_context_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string ln; std::getline(cpuinfo, ln);) {
    if (ln.rfind("model name", 0) == 0) {
      const auto colon = ln.find(':');
      if (colon != std::string::npos) {
        cpu = ln.substr(colon + 1);
        while (!cpu.empty() && cpu.front() == ' ') cpu.erase(cpu.begin());
      }
      break;
    }
  }
  std::string governor = "unknown";
  std::ifstream gov("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (gov) {
    std::getline(gov, governor);
    if (governor.empty()) governor = "unknown";
  }
  return shard::JsonObject()
      .add("cpu", cpu)
      .add("cores",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .add("governor", governor)
      .str();
}

std::string curve_json(const std::vector<analysis::CurvePoint>& curve) {
  shard::JsonArray arr;
  for (const auto& pt : curve) {
    arr.add_raw(shard::JsonArray()
                    .add(pt.mean_phases)
                    .add(pt.mean_cov)
                    .add(pt.tuning_fraction)
                    .add(static_cast<std::uint64_t>(pt.thresholds.bbv))
                    .add(pt.thresholds.dds)
                    .str());
  }
  return arr.str();
}

}  // namespace dsm::bench
