// dsm_report.cpp — offline consumer for the NDJSON result store: merge
// per-shard files collected from `--shard=i/N` workers, rebuild the human
// tables from merged records, validate record files, and read a fleet's
// heartbeat tees, lease ledger and resume store.
//
//   dsm_report merge s0.ndjson s1.ndjson ... > merged.ndjson
//       K-way merge of per-shard record files in spec order
//       (shard::merge_streams), byte-identical to a single-host
//       `--shards=N` (and `--shard=0/1`) stream. Fails loudly on gaps,
//       duplicates, mixed benches, or unparsable lines.
//
//   dsm_report render [--csv=DIR] merged.ndjson
//       Rebuilds the harness's human tables/curves (and CSV exports) from
//       a merged record file via the renderer registry in src/report —
//       the same code the live harness runs, so the output is
//       byte-identical to the live run. `-` reads stdin. The exit code is
//       the renderer's verdict (e.g. overhead_bandwidth's paper claim).
//
//   dsm_report validate [--merged] file.ndjson ...
//       Strict schema/ordering validation of record files: per-shard
//       files must be strictly increasing in spec index, merged files
//       contiguous from 0 (--merged).
//
//   dsm_report stats [--diff B.ndjson] file.ndjson
//       Renders the deterministic observability snapshots (the optional
//       `obs` envelope field records gain under --obs-stats) as per-record
//       counter/histogram tables. With --diff, compares the snapshots of
//       two record files pairwise (per-counter delta + percent columns) —
//       one command to spot a protocol or perf regression in coherence
//       traffic. Exits 1 when no record carries a snapshot.
//
//   dsm_report timeline [--top=K] [--rows=N] [--chrome=FILE] file.ndjson
//       Renders the phase-attributed interval timelines (the optional
//       `obs_intervals` field records gain under --obs-intervals):
//       interval × metric series, per-phase means, the phase-transition
//       matrix, and the top metric deltas across the dominant transition.
//       Reconciles interval sums against the end-of-run snapshot when
//       both fields are present. --chrome additionally emits Chrome
//       counter ("C") events that overlay `dsm_report trace` output.
//
//   dsm_report progress [--lease=FILE] FILE.0 FILE.1 ...
//       Renders a fleet status table from the coordinator's heartbeat
//       tees (`--shards=N --heartbeat=FILE` writes FILE.<slot>): per
//       worker the records it completed, the sweep size, last spec
//       index, wall time, peak RSS, and the age of the tee's last write
//       — a running worker whose tee stopped aging is wedged — plus the
//       fleet's summed count. With --lease=FILE (the coordinator's
//       --lease-log ledger) also prints each worker's lease state
//       (leased/retrying/dead/done), current range, and respawn count.
//
//   dsm_report resume --total=N store.ndjson
//       Dry-run of the fleet's --resume=FILE scan: reports the complete
//       records, duplicates, a truncated final record (crash mid-write,
//       recoverable), and the gap spec indices a resumed fleet would
//       lease. Exits 0 when the store already covers [0,N), 1 when gaps
//       remain, 2 on hard corruption.
//
//   dsm_report trace [--validate] trace.bin
//       Converts a binary event-trace dump (bench --trace=FILE) to Chrome
//       trace-event JSON on stdout (load in chrome://tracing or Perfetto;
//       1 simulated cycle renders as 1 µs). --validate checks the file
//       structurally and prints a per-node summary instead; conversion
//       prints per-node drop counts and ring utilization to stderr so an
//       overflowed ring is never a silently truncated timeline.
#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "coherence/fabric.hpp"
#include "obs/trace.hpp"
#include "report/record_reader.hpp"
#include "report/renderer.hpp"
#include "report/timeline.hpp"
#include "shard/fleet_msg.hpp"
#include "shard/heartbeat.hpp"
#include "shard/orchestrator.hpp"
#include "shard/resume.hpp"

namespace {

using namespace dsm;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> ...\n"
      "  merge FILE...              merge per-shard NDJSON files to stdout\n"
      "                             (byte-identical to --shards=N output)\n"
      "  render [--csv=DIR] FILE    rebuild the harness's human tables from\n"
      "                             a merged record file ('-' = stdin)\n"
      "  validate [--merged] FILE...  strict-check record files\n"
      "  stats [--diff B] FILE      print the observability snapshots\n"
      "                             (--obs-stats records' 'obs' field);\n"
      "                             --diff compares two record files with\n"
      "                             per-counter delta and percent columns\n"
      "  timeline [--top=K] [--rows=N] [--chrome=FILE] FILE\n"
      "                             render phase-attributed interval\n"
      "                             timelines (--obs-intervals records);\n"
      "                             --chrome also emits counter events\n"
      "  progress [--lease=FILE] FILE...\n"
      "                             fleet status table from the heartbeat\n"
      "                             tees of a --shards=N --heartbeat=F run\n"
      "                             (F.<slot>), with last-write age; --lease\n"
      "                             adds the coordinator's lease ledger\n"
      "  resume --total=N FILE      dry-run the fleet's --resume scan:\n"
      "                             complete records, duplicates, a\n"
      "                             truncated tail, and the gap indices a\n"
      "                             resumed fleet would lease\n"
      "  trace [--validate] FILE    convert a binary event trace (bench\n"
      "                             --trace=FILE) to Chrome trace JSON;\n"
      "                             --validate checks + summarizes instead\n",
      argv0);
  return 2;
}

struct OpenFile {
  std::FILE* f = nullptr;
  ~OpenFile() {
    if (f != nullptr && f != stdin) std::fclose(f);
  }
};

bool open_input(const std::string& path, OpenFile* out) {
  if (path == "-") {
    out->f = stdin;
    return true;
  }
  out->f = std::fopen(path.c_str(), "r");
  if (out->f == nullptr) {
    std::fprintf(stderr, "dsm_report: cannot open %s\n", path.c_str());
    return false;
  }
  return true;
}

int cmd_merge(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "dsm_report merge: no input files\n");
    return 2;
  }
  std::vector<OpenFile> opened(files.size());
  std::vector<shard::FileLineSource> line_sources;
  line_sources.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!open_input(files[i], &opened[i])) return 1;
    line_sources.emplace_back(opened[i].f);
  }
  std::vector<shard::LineSource*> sources;
  for (auto& s : line_sources) sources.push_back(&s);

  std::string error;
  const bool ok = shard::merge_streams(
      sources,
      [](const std::string& line) {
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fputc('\n', stdout);
      },
      &error);
  std::fflush(stdout);
  if (!ok) {
    std::fprintf(stderr, "dsm_report merge: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

int cmd_render(const std::vector<std::string>& args) {
  report::RenderOptions opt;
  std::string path;
  for (const auto& a : args) {
    if (a.rfind("--csv=", 0) == 0) {
      opt.csv_dir = a.substr(6);
    } else if (!a.empty() && (a[0] != '-' || a == "-")) {
      if (!path.empty()) {
        std::fprintf(stderr,
                     "dsm_report render: exactly one input file (got '%s' "
                     "and '%s')\n",
                     path.c_str(), a.c_str());
        return 2;
      }
      path = a;
    } else {
      std::fprintf(stderr, "dsm_report render: unknown option %s\n",
                   a.c_str());
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "dsm_report render: no input file\n");
    return 2;
  }
  OpenFile in;
  if (!open_input(path, &in)) return 1;
  shard::FileLineSource source(in.f);
  std::string error;
  const int rc = report::render_stream(source, opt, &error);
  if (!error.empty())
    std::fprintf(stderr, "dsm_report render: %s: %s\n", path.c_str(),
                 error.c_str());
  return rc;
}

int cmd_validate(const std::vector<std::string>& args) {
  report::StreamKind kind = report::StreamKind::kShardSlice;
  std::vector<std::string> files;
  for (const auto& a : args) {
    if (a == "--merged") kind = report::StreamKind::kMergedStream;
    else files.push_back(a);
  }
  if (files.empty()) {
    std::fprintf(stderr, "dsm_report validate: no input files\n");
    return 2;
  }
  int rc = 0;
  for (const auto& path : files) {
    OpenFile in;
    if (!open_input(path, &in)) {
      rc = 1;  // report every file, same as the validation-error path
      continue;
    }
    shard::FileLineSource source(in.f);
    report::RecordReader reader(source, kind);
    report::RecordView rec;
    std::size_t first = 0, last = 0;
    while (reader.next(&rec)) {
      if (reader.records() == 1) first = rec.spec_index;
      last = rec.spec_index;
    }
    if (!reader.ok()) {
      std::fprintf(stderr, "dsm_report validate: %s: %s\n", path.c_str(),
                   reader.error().c_str());
      rc = 1;
      continue;
    }
    if (reader.records() == 0)
      std::printf("%s: OK, 0 records\n", path.c_str());
    else
      std::printf("%s: OK, %zu records, bench '%s', spec indices %zu..%zu\n",
                  path.c_str(), reader.records(), reader.bench().c_str(),
                  first, last);
  }
  return rc;
}

/// One record's deterministic snapshot, counters in snapshot order.
struct ObsSnapshot {
  std::string key;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Collects the `obs` counter snapshots of every record in `path`.
bool collect_snapshots(const std::string& path,
                       std::vector<ObsSnapshot>* out) {
  OpenFile in;
  if (!open_input(path, &in)) return false;
  shard::FileLineSource source(in.f);
  report::RecordReader reader(source, report::StreamKind::kShardSlice);
  report::RecordView rec;
  while (reader.next(&rec)) {
    const report::JsonValue* obs = rec.metrics.find("obs");
    if (obs == nullptr) continue;
    const report::JsonValue* counters = obs->find("counters");
    if (counters == nullptr || !counters->is_object()) continue;
    ObsSnapshot snap;
    snap.key = rec.key;
    for (const auto& [name, v] : counters->members())
      snap.counters.emplace_back(name, v.unsigned_int());
    out->push_back(std::move(snap));
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "dsm_report stats: %s: %s\n", path.c_str(),
                 reader.error().c_str());
    return false;
  }
  return true;
}

/// `stats --diff A B`: pair the two files' snapshots in record order and
/// print per-counter delta + percent columns. Counters present on only
/// one side are listed with '-' on the other.
int cmd_stats_diff(const std::string& path_a, const std::string& path_b) {
  std::vector<ObsSnapshot> a, b;
  if (!collect_snapshots(path_a, &a) || !collect_snapshots(path_b, &b))
    return 1;
  if (a.empty() || b.empty()) {
    std::fprintf(stderr,
                 "dsm_report stats: --diff needs 'obs' snapshots on both "
                 "sides (%s: %zu, %s: %zu) — run with --obs-stats\n",
                 path_a.c_str(), a.size(), path_b.c_str(), b.size());
    return 1;
  }
  if (a.size() != b.size())
    std::fprintf(stderr,
                 "dsm_report stats: warning: %zu vs %zu snapshot records; "
                 "diffing the first %zu pairs\n",
                 a.size(), b.size(), std::min(a.size(), b.size()));
  const std::size_t pairs = std::min(a.size(), b.size());
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto& sa = a[p];
    const auto& sb = b[p];
    std::printf("%s vs %s\n", sa.key.c_str(), sb.key.c_str());
    std::printf("  %-36s %14s %14s %14s %10s\n", "counter", "A", "B",
                "delta", "pct");
    auto value_in = [](const ObsSnapshot& s, const std::string& name,
                       std::uint64_t* v) {
      for (const auto& [n, val] : s.counters)
        if (n == name) {
          *v = val;
          return true;
        }
      return false;
    };
    for (const auto& [name, va] : sa.counters) {
      std::uint64_t vb = 0;
      if (!value_in(sb, name, &vb)) {
        std::printf("  %-36s %14" PRIu64 " %14s %14s %10s\n", name.c_str(),
                    va, "-", "-", "-");
        continue;
      }
      const long long delta = static_cast<long long>(vb) -
                              static_cast<long long>(va);
      if (va == 0)
        std::printf("  %-36s %14" PRIu64 " %14" PRIu64 " %+14lld %10s\n",
                    name.c_str(), va, vb, delta, delta == 0 ? "0%" : "new");
      else
        std::printf("  %-36s %14" PRIu64 " %14" PRIu64 " %+14lld %+9.2f%%\n",
                    name.c_str(), va, vb, delta,
                    100.0 * static_cast<double>(delta) /
                        static_cast<double>(va));
    }
    for (const auto& [name, vb] : sb.counters) {
      std::uint64_t dummy = 0;
      if (!value_in(sa, name, &dummy))
        std::printf("  %-36s %14s %14" PRIu64 " %14s %10s\n", name.c_str(),
                    "-", vb, "-", "-");
    }
  }
  return 0;
}

int cmd_stats(const std::vector<std::string>& args) {
  std::string path;
  bool diff = false;
  std::vector<std::string> diff_paths;
  for (const auto& a : args) {
    if (a == "--diff") {
      diff = true;
    } else if (!a.empty() && (a[0] != '-' || a == "-")) {
      if (diff) {
        diff_paths.push_back(a);
        continue;
      }
      if (!path.empty()) {
        std::fprintf(stderr,
                     "dsm_report stats: exactly one input file (got '%s' "
                     "and '%s')\n",
                     path.c_str(), a.c_str());
        return 2;
      }
      path = a;
    } else {
      std::fprintf(stderr, "dsm_report stats: unknown option %s\n", a.c_str());
      return 2;
    }
  }
  if (diff) {
    if (diff_paths.size() != 2 || !path.empty()) {
      std::fprintf(stderr,
                   "dsm_report stats: --diff takes exactly two record files "
                   "(A.ndjson B.ndjson)\n");
      return 2;
    }
    return cmd_stats_diff(diff_paths[0], diff_paths[1]);
  }
  if (path.empty()) {
    std::fprintf(stderr, "dsm_report stats: no input file\n");
    return 2;
  }
  OpenFile in;
  if (!open_input(path, &in)) return 1;
  shard::FileLineSource source(in.f);
  report::RecordReader reader(source, report::StreamKind::kShardSlice);
  report::RecordView rec;
  std::size_t with_obs = 0;
  while (reader.next(&rec)) {
    const report::JsonValue* obs = rec.metrics.find("obs");
    if (obs == nullptr) continue;
    ++with_obs;
    std::printf("%s\n", rec.key.c_str());
    const report::JsonValue* counters = obs->find("counters");
    if (counters != nullptr && counters->is_object()) {
      for (const auto& [name, v] : counters->members())
        std::printf("  %-36s %s\n", name.c_str(), v.raw_number().c_str());
    }
    const report::JsonValue* hists = obs->find("histograms");
    if (hists != nullptr && hists->is_object()) {
      for (const auto& [name, v] : hists->members()) {
        std::printf("  %-36s [", name.c_str());
        const char* sep = "";
        for (const auto& b : v.items()) {
          std::printf("%s%s", sep, b.raw_number().c_str());
          sep = ", ";
        }
        std::printf("]\n");
      }
    }
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "dsm_report stats: %s: %s\n", path.c_str(),
                 reader.error().c_str());
    return 1;
  }
  if (with_obs == 0) {
    std::fprintf(stderr,
                 "dsm_report stats: %s: no record carries an 'obs' snapshot "
                 "(run the harness with --obs-stats)\n",
                 path.c_str());
    return 1;
  }
  return 0;
}

int cmd_timeline(const std::vector<std::string>& args) {
  report::TimelineOptions opt;
  std::string path;
  for (const auto& a : args) {
    if (a.rfind("--top=", 0) == 0) {
      const unsigned long k = std::strtoul(a.c_str() + 6, nullptr, 10);
      if (k < 1) {
        std::fprintf(stderr, "dsm_report timeline: bad --top value\n");
        return 2;
      }
      opt.top_k = static_cast<unsigned>(k);
    } else if (a.rfind("--rows=", 0) == 0) {
      opt.max_rows = static_cast<unsigned>(
          std::strtoul(a.c_str() + 7, nullptr, 10));
    } else if (a.rfind("--chrome=", 0) == 0) {
      opt.chrome_path = a.substr(9);
      if (opt.chrome_path.empty()) {
        std::fprintf(stderr, "dsm_report timeline: empty --chrome path\n");
        return 2;
      }
    } else if (!a.empty() && (a[0] != '-' || a == "-")) {
      if (!path.empty()) {
        std::fprintf(stderr,
                     "dsm_report timeline: exactly one input file (got '%s' "
                     "and '%s')\n",
                     path.c_str(), a.c_str());
        return 2;
      }
      path = a;
    } else {
      std::fprintf(stderr, "dsm_report timeline: unknown option %s\n",
                   a.c_str());
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "dsm_report timeline: no input file\n");
    return 2;
  }
  OpenFile in;
  if (!open_input(path, &in)) return 1;
  shard::FileLineSource source(in.f);
  return report::render_timeline(source, opt, stdout);
}

/// Age of `path`'s last write, as "3s"/"5m"/"2h" — the liveness signal a
/// human reads off the table: a heartbeat file that stopped aging out
/// means its worker is wedged (or done). "-" when unstattable.
std::string file_age(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return "-";
  const std::time_t now = std::time(nullptr);
  long age = static_cast<long>(now - st.st_mtime);
  if (age < 0) age = 0;
  char buf[32];
  if (age < 120)
    std::snprintf(buf, sizeof buf, "%lds", age);
  else if (age < 7200)
    std::snprintf(buf, sizeof buf, "%ldm", age / 60);
  else
    std::snprintf(buf, sizeof buf, "%ldh", age / 3600);
  return buf;
}

int cmd_progress(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  std::string lease_path;
  for (const auto& a : args) {
    if (a.rfind("--lease=", 0) == 0) {
      lease_path = a.substr(8);
      if (lease_path.empty()) {
        std::fprintf(stderr, "dsm_report progress: empty --lease path\n");
        return 2;
      }
    } else if (!a.empty() && a[0] != '-') {
      files.push_back(a);
    } else {
      std::fprintf(stderr, "dsm_report progress: unknown option %s\n",
                   a.c_str());
      return 2;
    }
  }
  if (files.empty() && lease_path.empty()) {
    std::fprintf(stderr,
                 "dsm_report progress: no heartbeat files (and no --lease)\n");
    return 2;
  }

  std::size_t alive = 0;
  if (!files.empty()) {
    // Each tee's last parsable line is its worker's final state. Every
    // beat's total is the sweep size, so the fleet is done when the
    // workers' counts sum to it — a worker's own share is unknown.
    std::vector<std::optional<shard::Heartbeat>> last(files.size());
    std::vector<const char*> status(files.size(), "unparsable");
    std::uint64_t fleet_done = 0, sweep = 0;
    for (std::size_t k = 0; k < files.size(); ++k) {
      OpenFile in;
      if (!open_input(files[k], &in)) {
        status[k] = "missing";
        continue;
      }
      shard::FileLineSource source(in.f);
      shard::Heartbeat parsed;
      for (std::string line; source.next(line);)
        if (shard::parse_heartbeat(line, &parsed)) last[k] = parsed;
      if (!last[k]) continue;
      ++alive;
      fleet_done += last[k]->done;
      sweep = std::max(sweep, last[k]->total);
    }
    const char* state = fleet_done >= sweep ? "done" : "running";
    std::printf("%-28s %-20s %8s %6s %8s %9s %9s %5s %s\n", "file", "bench",
                "shard", "done", "sweep", "wall_ms", "rss_kb", "age",
                "state");
    for (std::size_t k = 0; k < files.size(); ++k) {
      const char* path = files[k].c_str();
      if (!last[k]) {
        std::printf("%-28s %-20s %8s %6s %8s %9s %9s %5s %s\n", path, "-",
                    "-", "-", "-", "-", "-", "-", status[k]);
        continue;
      }
      const shard::Heartbeat& hb = *last[k];
      std::printf("%-28s %-20s %8s %6" PRIu64 " %8" PRIu64 " %9" PRIu64
                  " %9" PRIu64 " %5s %s\n",
                  path, hb.bench.c_str(), hb.shard.c_str(), hb.done,
                  hb.total, hb.wall_ms, hb.maxrss_kb,
                  file_age(files[k]).c_str(), state);
    }
    std::printf("fleet: %zu/%zu workers reporting, %" PRIu64 "/%" PRIu64
                " specs done\n",
                alive, files.size(), fleet_done, sweep);
  }

  if (!lease_path.empty()) {
    OpenFile in;
    if (!open_input(lease_path, &in)) return 1;
    // Last event per worker slot = its current lease state; the ledger
    // is append-only so a plain forward scan suffices.
    std::map<std::uint64_t, shard::LeaseEvent> last;
    std::map<std::uint64_t, std::uint64_t> leases_taken;
    std::size_t bad_lines = 0;
    {
      shard::FileLineSource source(in.f);
      shard::LeaseEvent ev;
      for (std::string line; source.next(line);) {
        if (!shard::parse_lease_event(line, &ev)) {
          ++bad_lines;
          continue;
        }
        if (ev.state == "leased") ++leases_taken[ev.worker];
        last[ev.worker] = ev;
      }
    }
    if (last.empty()) {
      std::fprintf(stderr,
                   "dsm_report progress: %s: no lease events (is this a "
                   "--lease-log file?)\n",
                   lease_path.c_str());
      return 1;
    }
    if (bad_lines > 0)
      std::fprintf(stderr,
                   "dsm_report progress: %s: skipped %zu unparsable lines\n",
                   lease_path.c_str(), bad_lines);
    std::printf("%slease ledger (%s):\n", files.empty() ? "" : "\n",
                lease_path.c_str());
    std::printf("%8s %-10s %16s %8s %8s %10s\n", "worker", "state",
                "lease", "leases", "retries", "wall_ms");
    for (const auto& [worker, ev] : last) {
      char range[32];
      if (ev.state == "leased")
        std::snprintf(range, sizeof range, "[%" PRIu64 ",%" PRIu64 ")",
                      ev.lo, ev.hi);
      else
        std::snprintf(range, sizeof range, "-");
      std::printf("%8" PRIu64 " %-10s %16s %8" PRIu64 " %8" PRIu64
                  " %10" PRIu64 "\n",
                  worker, ev.state.c_str(), range, leases_taken[worker],
                  ev.retries, ev.wall_ms);
    }
  }
  return (files.empty() || alive > 0) ? 0 : 1;
}

int cmd_resume(const std::vector<std::string>& args) {
  std::string path;
  std::uint64_t total = 0;
  bool have_total = false;
  for (const auto& a : args) {
    if (a.rfind("--total=", 0) == 0) {
      char* end = nullptr;
      total = std::strtoull(a.c_str() + 8, &end, 10);
      if (end == a.c_str() + 8 || *end != '\0') {
        std::fprintf(stderr, "dsm_report resume: bad --total value\n");
        return 2;
      }
      have_total = true;
    } else if (!a.empty() && a[0] != '-') {
      if (!path.empty()) {
        std::fprintf(stderr,
                     "dsm_report resume: exactly one store file (got '%s' "
                     "and '%s')\n",
                     path.c_str(), a.c_str());
        return 2;
      }
      path = a;
    } else {
      std::fprintf(stderr, "dsm_report resume: unknown option %s\n",
                   a.c_str());
      return 2;
    }
  }
  if (path.empty() || !have_total) {
    std::fprintf(stderr,
                 "dsm_report resume: need --total=N (the sweep size — the "
                 "harness prints it as 'N/N specs merged') and a store "
                 "file\n");
    return 2;
  }
  const shard::StoreScan scan = shard::scan_store(path);
  if (!scan.ok) {
    std::fprintf(stderr, "dsm_report resume: %s: %s\n", path.c_str(),
                 scan.error.c_str());
    return 2;
  }
  const std::string bench_note =
      scan.bench.empty() ? "" : ", bench '" + scan.bench + "'";
  std::printf("%s: %zu complete records%s\n", path.c_str(),
              scan.records.size(), bench_note.c_str());
  if (scan.duplicates > 0)
    std::printf("  %zu duplicate record(s) discarded (first-complete-wins)\n",
                scan.duplicates);
  if (scan.truncated_tail)
    std::printf("  truncated final record (%zu bytes) — a worker died "
                "mid-write; recoverable, its index is a gap\n",
                scan.tail.size());
  const auto gaps =
      shard::store_gaps(scan, static_cast<std::size_t>(total));
  if (gaps.empty()) {
    std::printf("  store covers [0,%" PRIu64 "): nothing to resume\n", total);
    return 0;
  }
  // Print the gaps as compressed ranges: thousands of missing indices
  // must not scroll the useful summary away.
  std::printf("  %zu gap(s) a resumed fleet would lease:", gaps.size());
  std::size_t run_lo = gaps[0], run_hi = gaps[0];
  auto flush = [&] {
    if (run_lo == run_hi)
      std::printf(" %zu", run_lo);
    else
      std::printf(" %zu-%zu", run_lo, run_hi);
  };
  for (std::size_t i = 1; i < gaps.size(); ++i) {
    if (gaps[i] == run_hi + 1) {
      run_hi = gaps[i];
    } else {
      flush();
      run_lo = run_hi = gaps[i];
    }
  }
  flush();
  std::printf("\n  resume with: <harness> --shards=N --resume=%s > "
              "complete.ndjson\n",
              path.c_str());
  return 1;
}

int cmd_trace(const std::vector<std::string>& args) {
  bool validate = false;
  std::string path;
  for (const auto& a : args) {
    if (a == "--validate") {
      validate = true;
    } else if (!a.empty() && a[0] != '-') {
      if (!path.empty()) {
        std::fprintf(stderr,
                     "dsm_report trace: exactly one input file (got '%s' "
                     "and '%s')\n",
                     path.c_str(), a.c_str());
        return 2;
      }
      path = a;
    } else {
      std::fprintf(stderr, "dsm_report trace: unknown option %s\n", a.c_str());
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "dsm_report trace: no input file\n");
    return 2;
  }
  obs::TraceFileData data;
  std::string err;
  if (!obs::read_trace_file(path, &data, &err)) {
    std::fprintf(stderr, "dsm_report trace: %s: %s\n", path.c_str(),
                 err.c_str());
    return 1;
  }
  if (validate) {
    std::uint64_t kept = 0, dropped = 0;
    for (std::size_t n = 0; n < data.nodes.size(); ++n) {
      const auto& node = data.nodes[n];
      std::uint64_t prev_ts = 0;
      for (const auto& ev : node.events) {
        if (std::strcmp(obs::trace_kind_name(ev.kind), "?") == 0) {
          std::fprintf(stderr,
                       "dsm_report trace: %s: node %zu holds unknown event "
                       "kind %u\n",
                       path.c_str(), n, ev.kind);
          return 1;
        }
        // A node's accesses start at non-decreasing cycles (its clock
        // only advances), so its kMissStart timestamps must be monotone
        // — the check that catches ring corruption. Other kinds carry
        // timestamps from inside an access (kDirRequest lands after the
        // request's network hop; kMissFill deliberately repeats the
        // START cycle so its Chrome slice spans the access), so they
        // legitimately interleave backwards.
        if (ev.kind == obs::TraceEvent::kMissStart) {
          if (ev.ts < prev_ts) {
            std::fprintf(stderr,
                         "dsm_report trace: %s: node %zu miss-start "
                         "timestamps regress (%" PRIu64 " after %" PRIu64
                         ")\n",
                         path.c_str(), n, ev.ts, prev_ts);
            return 1;
          }
          prev_ts = ev.ts;
        }
      }
      kept += node.events.size();
      dropped += node.dropped;
    }
    std::printf("%s: OK, %zu nodes, capacity %u events/node, %" PRIu64
                " events kept, %" PRIu64 " dropped\n",
                path.c_str(), data.nodes.size(), data.capacity_per_node, kept,
                dropped);
    return 0;
  }
  // Chrome trace-event JSON (the "JSON array format" with a traceEvents
  // wrapper). One viewer thread per simulated node; 1 cycle = 1 µs of
  // viewer time. kMissFill events are self-contained complete ("X")
  // slices — ts is the access cycle, dur its total latency — so ring
  // drops can never orphan a begin/end pair.
  std::printf("{\"traceEvents\":[");
  const char* sep = "\n";
  for (std::size_t n = 0; n < data.nodes.size(); ++n) {
    std::printf("%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                "\"tid\":%zu,\"args\":{\"name\":\"node %zu\"}}",
                sep, n, n);
    sep = ",\n";
  }
  for (std::size_t n = 0; n < data.nodes.size(); ++n) {
    for (const auto& ev : data.nodes[n].events) {
      const unsigned write = ev.flags & obs::TraceEvent::kWriteBit;
      if (ev.kind == obs::TraceEvent::kMissFill) {
        const unsigned source = ev.flags >> obs::TraceEvent::kSourceShift;
        std::printf("%s{\"name\":\"%s\",\"cat\":\"mem\",\"ph\":\"X\","
                    "\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
                    ",\"pid\":0,\"tid\":%u,\"args\":{\"line\":\"0x%" PRIx64
                    "\",\"write\":%u,\"source\":\"%s\",\"home\":%u}}",
                    sep, obs::trace_kind_name(ev.kind), ev.ts, ev.arg,
                    ev.node, ev.addr, write,
                    coh::data_source_name(
                        static_cast<coh::DataSource>(source)),
                    ev.aux);
      } else {
        std::printf("%s{\"name\":\"%s\",\"cat\":\"coh\",\"ph\":\"i\","
                    "\"s\":\"t\",\"ts\":%" PRIu64
                    ",\"pid\":0,\"tid\":%u,\"args\":{\"line\":\"0x%" PRIx64
                    "\",\"write\":%u,\"arg\":%" PRIu64 ",\"peer\":%u}}",
                    sep, obs::trace_kind_name(ev.kind), ev.ts, ev.node,
                    ev.addr, write, ev.arg, ev.aux);
      }
      sep = ",\n";
    }
  }
  std::printf("\n]}\n");
  std::fflush(stdout);
  // Ring health on stderr: a full ring overwrote its oldest events, so a
  // "clean" conversion might still be a truncated timeline — make that
  // visible instead of silent.
  std::uint64_t total_dropped = 0;
  for (std::size_t n = 0; n < data.nodes.size(); ++n) {
    const auto& node = data.nodes[n];
    const double util =
        data.capacity_per_node == 0
            ? 0.0
            : 100.0 * static_cast<double>(node.events.size()) /
                  static_cast<double>(data.capacity_per_node);
    std::fprintf(stderr,
                 "dsm_report trace: node %zu: %zu/%u events (%.1f%% of "
                 "ring), %" PRIu64 " dropped\n",
                 n, node.events.size(), data.capacity_per_node, util,
                 node.dropped);
    total_dropped += node.dropped;
  }
  if (total_dropped > 0)
    std::fprintf(stderr,
                 "dsm_report trace: warning: %" PRIu64
                 " events were overwritten before the dump — the timeline "
                 "is truncated; rerun with a larger ring "
                 "(ObsConfig::trace_events_per_node)\n",
                 total_dropped);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "merge") return cmd_merge(args);
  if (cmd == "render") return cmd_render(args);
  if (cmd == "validate") return cmd_validate(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "timeline") return cmd_timeline(args);
  if (cmd == "progress") return cmd_progress(args);
  if (cmd == "resume") return cmd_resume(args);
  if (cmd == "trace") return cmd_trace(args);
  std::fprintf(stderr, "dsm_report: unknown command '%s'\n", cmd.c_str());
  return usage(argv[0]);
}
