// perfbench.cpp — the repository benchmark: one process runs one workload
// for a measured stretch of passes and prints its metrics by name, with
// units, as a JSON object on the last line of stdout.
//
//   dsm_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--spans=FILE]
//   dsm_perfbench --workload=NAME --print-reference
//   dsm_perfbench --self-test
//
// Workloads (README.md says why each exists): sim_mem, sim_core, fig4,
// fig2_mt. A pass runs every configuration of the workload once through
// driver::ExperimentRunner::map_reduce — Machine construction and run, the
// fabric invariant check, then for the figure workloads the CoV-curve
// analysis, the stream record, and the figure renderer. Passes repeat until
// --seconds have elapsed, at least twice; end-to-end metrics are taken over
// the passes without the first once there are three: wall_s from the fastest
// pass, sim_mips from each configuration's fastest run, the rest as medians.
// With --trace=1 one more pass runs with the deterministic metrics
// registry on and spans recorded around every layer call, followed by the
// layer probes (probes.hpp); the run then prints the per-layer metrics.
//
// Correctness: every configuration's deterministic checksums (instructions,
// cycles, intervals, network messages and bytes; for the figure workloads
// also a hash of the stream record, which carries the curves) must match
// the reference file at the default seed and the first pass at any seed,
// and the traced pass must match the untraced ones. A mismatch, a failed
// invariant check or a throw is counted against the configuration and
// printed with its key; the pass carries on.
#include <sched.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/curve.hpp"
#include "bench/bench_util.hpp"
#include "probes.hpp"

namespace {

using namespace dsm;
using Clock = std::chrono::steady_clock;

/// At this seed every configuration runs with the seed its figure harness
/// gives it (driver::spec_seed), so the checksums can be held against the
/// committed reference file.
constexpr std::uint64_t kDefaultSeed = 1;

/// Relative to the repository root, where the benchmark runs.
constexpr const char* kReferencePath = "perfbench/reference.txt";

const Clock::time_point g_process_start = Clock::now();

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---------------------------------------------------------------- workloads

enum class Kind { kSim, kFig4, kFig2 };

struct Workload {
  std::string name;
  Kind kind;
  std::vector<std::string> apps;
  std::vector<unsigned> nodes;
  unsigned threads;
  apps::Scale scale;
};

/// The CPUs this process may run on, highest first, at most 4: the driver
/// pool of fig2_mt gets one worker per CPU and never more.
const std::vector<int>& usable_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      for (int c = CPU_SETSIZE - 1; c >= 0 && v.size() < 4; --c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  return cpus;
}

/// Pins the calling thread to the `slot`-th usable CPU. A Machine's
/// processor threads inherit the mask of the thread that runs it, so one
/// machine's cooperative hand-offs stay on one CPU. Unpinned, the waiting
/// processor threads spin on every CPU of the host: on a shared virtual
/// machine that doubled pass times and made them swing with the host's
/// steal time.
void pin_thread(unsigned slot) {
  const auto& cpus = usable_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::vector<Workload> workloads() {
  const std::vector<std::string> all = {"LU", "FMM", "Art", "Equake"};
  return {
      {"sim_mem", Kind::kSim, {"LU", "Equake"}, {8, 32}, 1,
       apps::Scale::kBench},
      {"sim_core", Kind::kSim, {"FMM", "Art"}, {2}, 1, apps::Scale::kBench},
      {"fig4", Kind::kFig4, all, {8, 32}, 1, apps::Scale::kBench},
      {"fig2_mt", Kind::kFig2, all, {2, 8, 32},
       static_cast<unsigned>(std::max<std::size_t>(1, usable_cpus().size())),
       apps::Scale::kBench},
  };
}

std::vector<driver::SpecPoint> expand(const Workload& w) {
  driver::SweepSpec spec;
  spec.apps = w.apps;
  spec.node_counts = w.nodes;
  spec.scale = w.scale;
  return spec.expand();
}

const char* bench_name(Kind k) {
  return k == Kind::kFig4 ? "fig4_bbv_ddv" : "fig2_bbv_baseline";
}

/// The MachineConfig::seed a configuration runs with: its harness seed at
/// kDefaultSeed, a distinct stream for every other workload seed.
std::uint64_t config_seed(const driver::SpecPoint& pt, std::uint64_t seed) {
  return driver::spec_seed(pt) + (seed - kDefaultSeed) * 0x9e3779b97f4a7c15ull;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---------------------------------------------------------------- checksums

struct Checksum {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t intervals = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t record = 0;  ///< FNV-1a of the stream record; 0 for sim_*
  bool operator==(const Checksum&) const = default;

  std::string str() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "instr=%llu cycles=%llu intervals=%llu msgs=%llu "
                  "bytes=%llu record=%016llx",
                  static_cast<unsigned long long>(instructions),
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(intervals),
                  static_cast<unsigned long long>(net_messages),
                  static_cast<unsigned long long>(net_bytes),
                  static_cast<unsigned long long>(record));
    return buf;
  }
};

/// workload -> config key -> checksum, from the reference file. Lines:
///   <workload> <key> instr=N cycles=N intervals=N msgs=N bytes=N record=HEX
using Reference = std::map<std::string, std::map<std::string, Checksum>>;

std::optional<Reference> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Reference ref;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string workload, key, field;
    ss >> workload >> key;
    Checksum c;
    while (ss >> field) {
      const auto eq = field.find('=');
      if (eq == std::string::npos) return std::nullopt;
      const std::string name = field.substr(0, eq);
      const std::string v = field.substr(eq + 1);
      const std::uint64_t x = std::stoull(v, nullptr, name == "record" ? 16 : 10);
      if (name == "instr") c.instructions = x;
      else if (name == "cycles") c.cycles = x;
      else if (name == "intervals") c.intervals = x;
      else if (name == "msgs") c.net_messages = x;
      else if (name == "bytes") c.net_bytes = x;
      else if (name == "record") c.record = x;
      else return std::nullopt;
    }
    ref[workload][key] = c;
  }
  return ref;
}

// ------------------------------------------------------------------- passes

/// One configuration of one pass: its checksums, the host seconds of each
/// layer call, and the simulated counts the per-layer ratios are made of.
struct ConfigResult {
  Checksum sum;
  std::uint64_t cfg_seed = 0;  ///< MachineConfig::seed the machine ran with
  double ctor_s = 0, run_s = 0, check_s = 0;
  double bbv_curve_s = 0, grid_s = 0, envelope_s = 0;
  double format_s = 0, read_s = 0, render_s = 0;
  double task_t0 = 0, task_t1 = 0;  ///< run+reduce, seconds into the pass
  std::thread::id worker;
  std::uint64_t accesses = 0, l1_hits = 0, l2_hits = 0;
  std::uint64_t mem_served = 0, remote = 0, c2c = 0, invals = 0;
  std::uint64_t probe_len_sum = 0, probe_len_n = 0;
  std::uint64_t classify_calls = 0;
  std::string error;
};

struct Span {
  const char* name;
  std::size_t config;
  std::thread::id worker;
  double t0, t1;  ///< seconds into the pass
};

/// Spans of the traced pass, kept in memory and written once at the end.
class SpanLog {
 public:
  void add(const char* name, std::size_t config, double t0, double t1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, config, std::this_thread::get_id(), t0, t1});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

struct PassResult {
  double wall_s = 0;
  double rss_mb = 0;  ///< peak resident set during the pass
  double finish_s = 0;  ///< renderer finish()
  int render_rc = 0;
  std::vector<ConfigResult> configs;
};

struct Curves {
  std::vector<analysis::CurvePoint> bbv, ddv;
};

// The per-config metrics the figure harnesses put into their records
// (bench/fig4_bbv_ddv.cpp, bench/fig2_bbv_baseline.cpp).
std::string fig4_metrics(const driver::SpecPoint&, const Curves& c) {
  const double bbv25 = analysis::cov_at_phases(c.bbv, 25.0);
  const double ddv25 = analysis::cov_at_phases(c.ddv, 25.0);
  return shard::JsonObject()
      .add("bbv_cov_at_25", bbv25)
      .add("ddv_cov_at_25", ddv25)
      .add("bbv_phases_at_cov", analysis::phases_for_cov(c.bbv, bbv25))
      .add("ddv_phases_at_cov", analysis::phases_for_cov(c.ddv, bbv25))
      .add_raw("bbv_curve", bench::curve_json(c.bbv))
      .add_raw("ddv_curve", bench::curve_json(c.ddv))
      .str();
}

std::string fig2_metrics(const driver::SpecPoint&, const Curves& c) {
  return shard::JsonObject()
      .add("cov_at_7", analysis::cov_at_phases(c.bbv, 7.0))
      .add("cov_at_25", analysis::cov_at_phases(c.bbv, 25.0))
      .add("phases_for_cov20", analysis::phases_for_cov(c.bbv, 0.20))
      .add("curve_points", static_cast<std::uint64_t>(c.bbv.size()))
      .add_raw("curve", bench::curve_json(c.bbv))
      .str();
}

void tally(const sim::RunSummary& run, ConfigResult& r) {
  for (std::size_t p = 0; p < run.procs.size(); ++p) {
    r.sum.instructions += run.instructions[p];
    r.sum.cycles += run.final_cycles[p];
    r.sum.intervals += run.procs[p].intervals.size();
  }
  for (unsigned c = 0; c < net::kNumTrafficClasses; ++c) {
    r.sum.net_messages += run.net_messages[c];
    r.sum.net_bytes += run.net_bytes[c];
  }
  for (const auto& s : run.coherence) {
    r.accesses += s.loads + s.stores;
    r.l1_hits += s.l1_hits;
    r.l2_hits += s.l2_hits;
    r.mem_served += s.local_mem + s.remote_mem + s.cache_to_cache;
    r.remote += s.remote_mem + s.cache_to_cache;
    r.c2c += s.cache_to_cache;
    r.invals += s.invalidations_sent;
  }
}

/// Runs every configuration of `w` once. `spans` non-null makes this the
/// traced pass: the metrics registry is on, every layer call is recorded as
/// a span, and the processor traces are copied into `kept` for the
/// classify probe.
PassResult run_pass(const Workload& w,
                    const std::vector<driver::SpecPoint>& points,
                    std::uint64_t seed, SpanLog* spans,
                    std::vector<phase::ProcessorTrace>* kept) {
  PassResult pr;
  pr.configs.resize(points.size());
  std::mutex kept_mu;
  std::atomic<unsigned> next_cpu{0};
  const auto t0 = Clock::now();
  auto since = [&] { return seconds(Clock::now() - t0); };
  auto timed = [&](std::size_t i, const char* name, double& acc, auto&& fn) {
    const double a = since();
    fn();
    const double b = since();
    acc += b - a;
    if (spans != nullptr) spans->add(name, i, a, b);
  };

  std::unique_ptr<report::Renderer> renderer;
  if (w.kind != Kind::kSim)
    renderer = report::make_renderer(bench_name(w.kind), {});
  const analysis::CurveParams cp;

  const driver::ExperimentRunner runner(w.threads);
  runner.map_reduce<sim::RunSummary, Curves>(
      points,
      [&](const driver::SpecPoint& pt) {
        ConfigResult& r = pr.configs[pt.index];
        r.worker = std::this_thread::get_id();
        // Pool workers are fresh threads every pass; each takes its own CPU.
        thread_local bool pinned = false;
        if (w.threads > 1 && !pinned) {
          pin_thread(next_cpu.fetch_add(1));
          pinned = true;
        }
        r.task_t0 = since();
        sim::RunSummary run;
        try {
          MachineConfig cfg = default_config(pt.nodes);
          cfg.phase.interval_instructions =
              apps::scaled_interval(pt.app, pt.scale);
          cfg.seed = config_seed(pt, seed);
          cfg.obs.stats = spans != nullptr;
          const sim::AppFn app = apps::app_by_name(pt.app).factory(pt.scale);
          std::optional<sim::Machine> m;
          timed(pt.index, "sim.ctor", r.ctor_s, [&] { m.emplace(cfg); });
          timed(pt.index, "sim.run", r.run_s, [&] { run = m->run(app); });
          timed(pt.index, "sim.check", r.check_s,
                [&] { m->fabric().check_invariants(); });
          r.cfg_seed = run.cfg.seed;
          if (spans != nullptr) {
            const auto hist =
                m->observability().metrics().histogram_values("dir.probe_len");
            for (std::size_t b = 0; b < hist.size(); ++b) {
              r.probe_len_sum += b * hist[b];
              r.probe_len_n += hist[b];
            }
          }
        } catch (const std::exception& e) {
          r.error = e.what();
        }
        return run;
      },
      [&](const driver::SpecPoint& pt, sim::RunSummary&& run) {
        ConfigResult& r = pr.configs[pt.index];
        Curves c;
        if (r.error.empty()) {
          tally(run, r);
          if (kept != nullptr) {
            std::lock_guard<std::mutex> lock(kept_mu);
            kept->insert(kept->end(), run.procs.begin(), run.procs.end());
          }
          try {
            if (w.kind != Kind::kSim) {
              timed(pt.index, "analysis.bbv_curve", r.bbv_curve_s,
                    [&] { c.bbv = analysis::bbv_cov_curve(run.procs, cp); });
              r.classify_calls += cp.bbv_steps * r.sum.intervals;
            }
            if (w.kind == Kind::kFig4) {
              std::vector<analysis::CurvePoint> grid;
              timed(pt.index, "analysis.grid", r.grid_s, [&] {
                grid = analysis::bbv_ddv_cov_points(run.procs, cp);
              });
              timed(pt.index, "analysis.envelope", r.envelope_s, [&] {
                c.ddv = analysis::lower_envelope(std::move(grid));
              });
              r.classify_calls +=
                  std::uint64_t{cp.bbv_steps} * cp.dds_steps * r.sum.intervals;
            }
          } catch (const std::exception& e) {
            r.error = std::string("analysis: ") + e.what();
          }
        }
        r.task_t1 = since();
        return c;
      },
      [&](const driver::SpecPoint& pt, Curves&& c) {
        ConfigResult& r = pr.configs[pt.index];
        if (!renderer || !r.error.empty()) return;
        const std::uint64_t rec_seed = r.cfg_seed;
        std::string line;
        timed(pt.index, "report.format", r.format_s, [&] {
          line = shard::format_record(
              bench_name(w.kind),
              bench::make_stream_record<Curves>(
                  pt, c, [rec_seed](const driver::SpecPoint&) { return rec_seed; },
                  w.kind == Kind::kFig4 ? fig4_metrics : fig2_metrics));
        });
        r.sum.record = fnv1a(line);
        report::RecordView view;
        std::string err;
        bool ok = false;
        timed(pt.index, "report.read", r.read_s,
              [&] { ok = report::read_record(line, &view, &err); });
        if (!ok) {
          r.error = "stream record failed validation: " + err;
          return;
        }
        timed(pt.index, "report.render", r.render_s,
              [&] { renderer->record(view); });
      });
  if (renderer) {
    timed(points.size(), "report.render", pr.finish_s,
          [&] { pr.render_rc = renderer->finish(); });
  }
  pr.wall_s = since();
  return pr;
}

/// Counts the configurations of `pr` that failed: a throw or invariant
/// failure, a machine that did not run with the workload's seed, or
/// checksums that differ from `ref` (when given) or from `first` (when
/// given). Each failure is printed to stderr with its config key.
std::size_t check_pass(const std::vector<driver::SpecPoint>& points,
                       std::uint64_t seed, const PassResult& pr,
                       const std::map<std::string, Checksum>* ref,
                       const PassResult* first, const char* pass_label) {
  std::size_t failed = 0;
  auto fail = [&](const driver::SpecPoint& pt, const std::string& why) {
    ++failed;
    std::fprintf(stderr, "FAIL %s [%s]: %s\n", driver::spec_label(pt).c_str(),
                 pass_label, why.c_str());
  };
  for (const auto& pt : points) {
    const ConfigResult& r = pr.configs[pt.index];
    if (!r.error.empty()) {
      fail(pt, r.error);
      continue;
    }
    if (r.cfg_seed != config_seed(pt, seed)) {
      fail(pt, "machine ran with seed " + std::to_string(r.cfg_seed));
      continue;
    }
    if (ref != nullptr) {
      const auto it = ref->find(driver::spec_label(pt));
      if (it == ref->end()) {
        fail(pt, "no reference checksum");
        continue;
      }
      if (!(it->second == r.sum)) {
        fail(pt, "checksum " + r.sum.str() + " != reference " +
                     it->second.str());
        continue;
      }
    }
    if (first != nullptr && first->configs[pt.index].error.empty() &&
        !(first->configs[pt.index].sum == r.sum)) {
      fail(pt, "checksum " + r.sum.str() + " != first pass " +
                   first->configs[pt.index].sum.str());
    }
  }
  if (pr.render_rc != 0) {
    ++failed;
    std::fprintf(stderr, "FAIL renderer [%s]: finish() returned %d\n",
                 pass_label, pr.render_rc);
  }
  return failed;
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Resets the kernel's peak-RSS mark, so the next peak_rss_mb() covers only
/// what runs after this call.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident set (VmHWM) since the last reset_peak_rss(), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
  return 0.0;
}

double pass_setup_s(const PassResult& p) {
  double s = 0;
  for (const auto& c : p.configs) s += c.ctor_s;
  return s;
}

double pass_mips(const PassResult& p) {
  double instr = 0, run = 0;
  for (const auto& c : p.configs) {
    instr += static_cast<double>(c.sum.instructions);
    run += c.run_s;
  }
  return ratio(instr, run) / 1e6;
}

/// The passes the metrics are taken over: all but the first once there are
/// three, since the first pays the process's one-time costs (code and data
/// page-ins, lazily built tables).
std::span<const PassResult> measured(const std::vector<PassResult>& passes) {
  const std::size_t skip = passes.size() >= 3 ? 1 : 0;
  return {passes.data() + skip, passes.size() - skip};
}

/// Σ instructions ÷ Σ of each configuration's fastest Machine::run over
/// `passes`, in MIPS. The host alternates for seconds at a time between a
/// fast state and one about 1.9× slower; interference only ever adds time,
/// so each configuration's fastest run is its least-disturbed one, and a
/// run needs each configuration once in the fast state rather than a whole
/// pass.
double best_mips(std::span<const PassResult> passes) {
  if (passes.empty()) return 0.0;
  double instr = 0, run = 0;
  for (std::size_t i = 0; i < passes.front().configs.size(); ++i) {
    double best = passes.front().configs[i].run_s;
    for (const auto& p : passes) best = std::min(best, p.configs[i].run_s);
    instr += static_cast<double>(passes.front().configs[i].sum.instructions);
    run += best;
  }
  return ratio(instr, run) / 1e6;
}

std::vector<Metric> end_to_end_metrics(const std::vector<PassResult>& passes,
                                       double startup_s,
                                       std::size_t attempted,
                                       std::size_t failed) {
  std::vector<double> wall, setup, rss;
  for (const auto& p : measured(passes)) {
    wall.push_back(p.wall_s);
    setup.push_back(pass_setup_s(p));
    rss.push_back(p.rss_mb);
  }
  // The fastest pass, for the reason best_mips gives.
  const double best_wall =
      wall.empty() ? 0.0 : *std::min_element(wall.begin(), wall.end());
  return {
      {"wall_s", best_wall, "s"},
      {"sim_mips", best_mips(measured(passes)), "MIPS"},
      {"setup_s", startup_s + median(setup), "s"},
      {"peak_rss_mb", median(rss), "MB"},
      {"success_rate",
       1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "fraction"},
  };
}

/// Length of the union of the spans' [t0, t1] intervals.
double covered_s(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.t0 < b.t0; });
  double covered = 0, hi = -1;
  for (const auto& s : spans) {
    if (s.t1 <= hi) continue;
    covered += s.t1 - std::max(s.t0, hi);
    hi = s.t1;
  }
  return covered;
}

std::vector<Metric> per_layer_metrics(const Workload& w,
                                      const std::vector<driver::SpecPoint>& points,
                                      const PassResult& traced,
                                      double untraced_wall_s,
                                      const SpanLog& spans,
                                      const perfbench::ProbeResults& probes) {
  ConfigResult t;  // sums over the traced pass's configurations
  double task_sum = 0, critical = 0, explained = 0;
  std::map<std::thread::id, double> last_end;
  for (const auto& pt : points) {
    const ConfigResult& c = traced.configs[pt.index];
    t.ctor_s += c.ctor_s;
    t.run_s += c.run_s;
    t.check_s += c.check_s;
    t.bbv_curve_s += c.bbv_curve_s;
    t.grid_s += c.grid_s;
    t.envelope_s += c.envelope_s;
    t.format_s += c.format_s;
    t.read_s += c.read_s;
    t.render_s += c.render_s;
    t.sum.instructions += c.sum.instructions;
    t.sum.intervals += c.sum.intervals;
    t.sum.net_messages += c.sum.net_messages;
    t.sum.net_bytes += c.sum.net_bytes;
    t.accesses += c.accesses;
    t.l1_hits += c.l1_hits;
    t.l2_hits += c.l2_hits;
    t.mem_served += c.mem_served;
    t.remote += c.remote;
    t.c2c += c.c2c;
    t.invals += c.invals;
    t.probe_len_sum += c.probe_len_sum;
    t.probe_len_n += c.probe_len_n;
    t.classify_calls += c.classify_calls;
    const double task = c.task_t1 - c.task_t0;
    task_sum += task;
    critical = std::max(critical, task);
    last_end[c.worker] = std::max(last_end[c.worker], c.task_t1);
    explained += probes.access_ns.at(pt.nodes) * 1e-9 *
                     static_cast<double>(c.accesses) +
                 probes.gather_ns.at(pt.nodes) * 1e-9 *
                     static_cast<double>(c.sum.intervals);
  }
  const double wall = traced.wall_s;
  // Idle worker-seconds after each worker's last task; workers that never
  // got a task idle for the whole pass.
  double tail_idle = static_cast<double>(w.threads - last_end.size()) * wall;
  for (const auto& [id, end] : last_end) tail_idle += wall - end;
  const double acc = static_cast<double>(t.accesses);
  const double analysis_s = t.bbv_curve_s + t.grid_s;
  return {
      {"sim.ctor_s", t.ctor_s, "s"},
      {"sim.run_s", t.run_s, "s"},
      {"sim.run_share", ratio(t.run_s, wall), "fraction"},
      {"sim.check_s", t.check_s, "s"},
      {"sim.instructions", static_cast<double>(t.sum.instructions), "count"},
      {"sim.mem_accesses", acc, "count"},
      {"sim.intervals", static_cast<double>(t.sum.intervals), "count"},
      {"sim.ns_per_access", ratio(t.run_s * 1e9, acc), "ns"},
      {"sim.unattributed_s", t.run_s - explained, "s"},
      {"memory.l1_hit_ratio", ratio(static_cast<double>(t.l1_hits), acc),
       "fraction"},
      {"memory.l2_hit_ratio",
       ratio(static_cast<double>(t.l2_hits),
             acc - static_cast<double>(t.l1_hits)),
       "fraction"},
      {"memory.lookup_ns", probes.cache_lookup_ns, "ns"},
      {"coherence.remote_frac",
       ratio(static_cast<double>(t.remote), static_cast<double>(t.mem_served)),
       "fraction"},
      {"coherence.c2c_per_kacc", ratio(1e3 * static_cast<double>(t.c2c), acc),
       "1/kacc"},
      {"coherence.inval_per_kacc",
       ratio(1e3 * static_cast<double>(t.invals), acc), "1/kacc"},
      {"coherence.dir_probe_len_mean",
       ratio(static_cast<double>(t.probe_len_sum),
             static_cast<double>(t.probe_len_n)),
       "slots"},
      {"coherence.access_ns", perfbench::mean_ns(probes.access_ns), "ns"},
      {"coherence.dir_entry_ns", probes.dir_entry_ns, "ns"},
      {"network.msgs_per_kinstr",
       ratio(1e3 * static_cast<double>(t.sum.net_messages),
             static_cast<double>(t.sum.instructions)),
       "1/kinstr"},
      {"network.bytes_per_msg",
       ratio(static_cast<double>(t.sum.net_bytes),
             static_cast<double>(t.sum.net_messages)),
       "B"},
      {"network.msg_ns", perfbench::mean_ns(probes.msg_ns), "ns"},
      {"phase.bbv_record_ns", probes.bbv_record_ns, "ns"},
      {"phase.ddv_gather_ns", perfbench::mean_ns(probes.gather_ns), "ns"},
      {"phase.classify_ns", probes.classify_ns, "ns"},
      {"analysis.bbv_curve_s", t.bbv_curve_s, "s"},
      {"analysis.grid_s", t.grid_s, "s"},
      {"analysis.grid_share", ratio(t.grid_s, wall), "fraction"},
      {"analysis.envelope_s", t.envelope_s, "s"},
      {"analysis.classify_calls", static_cast<double>(t.classify_calls),
       "count"},
      {"analysis.ns_per_interval",
       ratio(analysis_s * 1e9, static_cast<double>(t.classify_calls)), "ns"},
      {"report.format_s", t.format_s, "s"},
      {"report.read_s", t.read_s, "s"},
      {"report.render_s", t.render_s + traced.finish_s, "s"},
      {"driver.busy_frac", ratio(task_sum, w.threads * wall), "fraction"},
      {"driver.critical_path_s", critical, "s"},
      {"driver.tail_idle_s", tail_idle, "s"},
      {"trace.overhead_frac", ratio(wall, untraced_wall_s) - 1.0, "fraction"},
      {"trace.unattributed_frac", 1.0 - ratio(covered_s(spans.spans()), wall),
       "fraction"},
  };
}

/// Every metric name the benchmark can print (the self-test checks them).
std::vector<std::string> all_metric_names() {
  std::vector<std::string> names;
  for (const auto& m : end_to_end_metrics({}, 0, 1, 0)) names.push_back(m.name);
  const Workload w{"none", Kind::kSim, {}, {}, 1, apps::Scale::kTest};
  for (const auto& m :
       per_layer_metrics(w, {}, PassResult{}, 1, SpanLog{}, {}))
    names.push_back(m.name);
  return names;
}

bool valid_metric_name(const std::string& s) {
  if (s.empty() || s.size() > 64) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

void write_spans(const std::string& path, const SpanLog& log,
                 const std::vector<driver::SpecPoint>& points) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::map<std::thread::id, unsigned> tid;
  shard::JsonArray events;
  for (const auto& s : log.spans()) {
    const auto it = tid.emplace(s.worker, static_cast<unsigned>(tid.size())).first;
    events.add_raw(
        shard::JsonObject()
            .add("name", std::string(s.name))
            .add("ph", std::string("X"))
            .add("ts", s.t0 * 1e6)
            .add("dur", (s.t1 - s.t0) * 1e6)
            .add("pid", std::uint64_t{0})
            .add("tid", static_cast<std::uint64_t>(it->second))
            .add_raw("args",
                     shard::JsonObject()
                         .add("config", s.config < points.size()
                                            ? driver::spec_label(points[s.config])
                                            : std::string("pass"))
                         .str())
            .str());
  }
  f << "{\"traceEvents\":" << events.str() << "}\n";
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::fflush(stdout);
  std::printf("\n%s\n", out.c_str());
  std::fflush(stdout);
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& m : metrics)
    std::fprintf(stderr, "  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
}

// ---------------------------------------------------------------- self-test

int self_test() {
  int bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::fprintf(stderr, "%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    bad += ok ? 0 : 1;
  };

  std::map<std::string, int> seen;
  const auto names = all_metric_names();
  for (const auto& n : names)
    expect(valid_metric_name(n) && ++seen[n] == 1,
           "metric name '" + n + "' matches [A-Za-z0-9_.-]+ and is unique");

  // A checksum that disagrees with the reference is counted, not fatal.
  const Workload tiny{"smoke", Kind::kFig2, {"LU"}, {2}, 1, apps::Scale::kTest};
  const auto tiny_pts = expand(tiny);
  const PassResult p = run_pass(tiny, tiny_pts, kDefaultSeed, nullptr, nullptr);
  std::map<std::string, Checksum> ref;
  for (const auto& pt : tiny_pts)
    ref[driver::spec_label(pt)] = p.configs[pt.index].sum;
  expect(check_pass(tiny_pts, kDefaultSeed, p, &ref, nullptr, "smoke") == 0,
         "matching reference: no failure");
  ref.begin()->second.instructions += 1;
  const std::size_t f =
      check_pass(tiny_pts, kDefaultSeed, p, &ref, nullptr, "smoke-injected");
  const auto e2e = end_to_end_metrics({p}, 0, tiny_pts.size(), f);
  expect(f == 1 && e2e.back().value < 1.0,
         "injected checksum mismatch lowers success_rate (fail_rate " +
             std::to_string(1.0 - e2e.back().value) + ")");

  // The workload seed reaches every configuration's machine.
  const Workload two{"seeds", Kind::kSim, {"LU", "FMM"}, {2}, 2,
                     apps::Scale::kTest};
  const auto pts = expand(two);
  const PassResult a = run_pass(two, pts, 7, nullptr, nullptr);
  const PassResult b = run_pass(two, pts, 8, nullptr, nullptr);
  for (const auto& pt : pts) {
    const auto& ra = a.configs[pt.index];
    const auto& rb = b.configs[pt.index];
    expect(ra.error.empty() && ra.cfg_seed == config_seed(pt, 7) &&
               rb.cfg_seed == config_seed(pt, 8) && ra.cfg_seed != rb.cfg_seed,
           "seed reaches " + driver::spec_label(pt));
  }
  expect(check_pass(pts, 7, a, nullptr, nullptr, "seeds") == 0,
         "seeded pass checks clean");
  std::fprintf(stderr, "self-test: %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

// --------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 50;
  bool trace = false;
  bool print_reference = false;
  bool self_test = false;
  std::string spans;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: dsm_perfbench --workload=sim_mem|sim_core|fig4|fig2_mt "
               "[--seed=N] [--seconds=S] [--trace=0|1]\n"
               "                     [--spans=FILE]\n"
               "       dsm_perfbench --workload=NAME --print-reference\n"
               "       dsm_perfbench --self-test\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* p) { return a.substr(std::strlen(p)); };
    try {
      if (a.rfind("--workload=", 0) == 0) args.workload = val("--workload=");
      else if (a.rfind("--seed=", 0) == 0) args.seed = std::stoull(val("--seed="));
      else if (a.rfind("--seconds=", 0) == 0) args.seconds = std::stod(val("--seconds="));
      else if (a == "--trace=0" || a == "--trace=1") args.trace = a.back() == '1';
      else if (a.rfind("--spans=", 0) == 0) args.spans = val("--spans=");
      else if (a == "--print-reference") args.print_reference = true;
      else if (a == "--self-test") args.self_test = true;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value in " + a).c_str());
    }
  }
  // The serial workloads run their machines on the main thread.
  pin_thread(0);
  // A fixed threshold turns off glibc's adaptive one: every machine's large
  // tables are mapped fresh and unmapped when it dies, so each construction
  // pays its own page faults (as a fresh process's first machine does) and
  // the resident set falls back between machines. With the adaptive
  // threshold, freed tables stayed in per-thread arenas and fig2_mt's peak
  // RSS grew with every pass (968, 1193, 1490 MB).
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  if (args.self_test) return self_test();

  const auto all = workloads();
  const auto wit = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (wit == all.end()) return usage("unknown or missing --workload");
  const Workload& w = *wit;
  const auto points = expand(w);

  if (args.print_reference) {
    const PassResult p = run_pass(w, points, kDefaultSeed, nullptr, nullptr);
    if (check_pass(points, kDefaultSeed, p, nullptr, nullptr, "reference") != 0)
      return 1;
    std::fflush(stdout);
    for (const auto& pt : points)
      std::printf("\n%s %s %s", w.name.c_str(), driver::spec_label(pt).c_str(),
                  p.configs[pt.index].sum.str().c_str());
    std::printf("\n");
    return 0;
  }

  // The reference holds at the default seed; at any other seed the passes
  // must agree with the first.
  const std::map<std::string, Checksum>* ref = nullptr;
  std::optional<Reference> reference;
  if (args.seed == kDefaultSeed) {
    reference = load_reference(kReferencePath);
    if (!reference) {
      std::fprintf(stderr, "error: cannot read reference %s\n",
                   kReferencePath);
      return 1;
    }
    static const std::map<std::string, Checksum> kNone;
    const auto it = reference->find(w.name);
    ref = it != reference->end() ? &it->second : &kNone;
  }

  const double startup_s = seconds(Clock::now() - g_process_start);
  std::vector<PassResult> passes;
  std::size_t attempted = 0, failed = 0;
  const auto measure_start = Clock::now();
  while (passes.size() < 2 ||
         seconds(Clock::now() - measure_start) < args.seconds) {
    reset_peak_rss();
    passes.push_back(run_pass(w, points, args.seed, nullptr, nullptr));
    passes.back().rss_mb = peak_rss_mb();
    const std::string label = "pass " + std::to_string(passes.size());
    attempted += points.size();
    failed += check_pass(points, args.seed, passes.back(), ref,
                         passes.size() > 1 ? &passes.front() : nullptr,
                         label.c_str());
    std::fprintf(stderr, "%s: wall %.3f s, %.2f MIPS, setup %.4f s\n",
                 label.c_str(), passes.back().wall_s, pass_mips(passes.back()),
                 pass_setup_s(passes.back()));
  }

  std::vector<Metric> metrics =
      end_to_end_metrics(passes, startup_s, attempted, failed);
  std::fprintf(stderr, "%s: %zu passes of %zu configs, seed %llu\n",
               w.name.c_str(), passes.size(), points.size(),
               static_cast<unsigned long long>(args.seed));
  print_table("end-to-end (over the measured passes):", metrics);

  if (args.trace) {
    SpanLog spans;
    std::vector<phase::ProcessorTrace> kept;
    const PassResult traced = run_pass(w, points, args.seed, &spans, &kept);
    attempted += points.size();
    failed += check_pass(points, args.seed, traced, ref, &passes.front(),
                         "traced pass");
    const perfbench::ProbeResults probes =
        perfbench::run_probes(w.nodes, args.seed, kept);
    std::vector<double> walls;
    for (const auto& p : measured(passes)) walls.push_back(p.wall_s);
    metrics = per_layer_metrics(w, points, traced, median(walls), spans, probes);
    print_table("per-layer (traced pass + probes):", metrics);
    for (const auto& m : metrics) {
      if (m.name == "analysis.grid_share" || m.name == "sim.run_share")
        std::fprintf(stderr, "  %s = %.4f of traced-pass wall %.3f s\n",
                     m.name.c_str(), m.value, traced.wall_s);
    }
    if (!args.spans.empty()) write_spans(args.spans, spans, points);
  }

  const double fail_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::fprintf(stderr, "fail_rate = %zu / %zu = %.6f\n", failed, attempted,
               fail_rate);
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}
