// perf_hotpath.cpp — driver-native throughput harness for the per-access
// hot path: CoherenceFabric::access -> Network::message_latency ->
// TopologyModel::route -> LinkContentionTracker, timed as raw accesses/sec
// per (topology × node count) configuration.
//
// Unlike the figure/table harnesses this does not run an application; it
// drives the memory system directly with a deterministic synthetic stream
// (streaming private misses, a read-mostly shared set, and a small
// contended write set) so the measurement isolates the fabric + network +
// cache path that every simulated memory op pays.
//
// Output split: stdout carries the record-driven deterministic table
// (the perf_hotpath renderer in src/report — byte-identical whether the
// records are replayed live or by `dsm_report render`); wall-clock
// numbers (the access loop's, and beside them the construction's, so
// that work moved between the two shows) are a live-only measurement
// and go to stderr, plus the JSON file --json=PATH names, so perf PRs
// can leave a machine-readable trajectory. The `total_latency` /
// message/byte counts per configuration are simulated results and must
// be bit-identical across optimization PRs — only the wall-clock numbers
// may change.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "coherence/fabric.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "common/table_writer.hpp"
#include "memory/home_map.hpp"
#include "network/network.hpp"
#include "obs/observability.hpp"

namespace {

using namespace dsm;

struct HotConfig {
  Topology topo;
  unsigned nodes;
};

struct HotResult {
  HotConfig cfg{};
  std::uint64_t accesses = 0;
  double seconds = 0.0;  ///< the access loop
  /// Building the fabric, network and home map before the loop, reported
  /// beside it so that work moved between the two shows.
  double setup_seconds = 0.0;
  // Deterministic simulation checksums — identical before/after any
  // mechanical strength-reduction of the hot path.
  std::uint64_t total_latency = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  /// Deterministic metrics snapshot ("" unless --obs-stats).
  std::string obs_json;

  double ops_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(accesses) / seconds : 0.0;
  }
  double ns_per_access() const {
    return accesses > 0 ? seconds * 1e9 / static_cast<double>(accesses) : 0.0;
  }
};

// The per-topology node counts exercised by default (hypercube needs a
// power of two, mesh/torus a square; fabric caps at 64). --nodes filters.
const std::vector<HotConfig>& default_configs() {
  static const std::vector<HotConfig> kConfigs = {
      {Topology::kHypercube, 2},  {Topology::kHypercube, 8},
      {Topology::kHypercube, 32}, {Topology::kMesh2D, 4},
      {Topology::kMesh2D, 16},    {Topology::kTorus2D, 4},
      {Topology::kTorus2D, 16},   {Topology::kRing, 8},
      {Topology::kRing, 32},
  };
  return kConfigs;
}

std::uint64_t accesses_for(apps::Scale scale) {
  switch (scale) {
    case apps::Scale::kTest: return 200'000;
    case apps::Scale::kBench: return 2'000'000;
    case apps::Scale::kPaper: return 10'000'000;
  }
  return 200'000;
}

std::uint64_t stream_seed(const HotConfig& hc) {
  return hash_combine(static_cast<std::uint64_t>(hc.topo) + 1, hc.nodes);
}

/// One access of the synthetic stream.
struct HotReq {
  Addr addr = 0;
  bool write = false;
  NodeId node = 0;
};

HotResult time_config(const HotConfig& hc, std::uint64_t accesses,
                      const ObsConfig& obs_cfg) {
  const auto t_setup = std::chrono::steady_clock::now();
  MachineConfig cfg = default_config(hc.nodes);
  cfg.network.topology = hc.topo;
  // Fabric-level driver, no Machine: construct the observability layer
  // standalone, exactly as Machine would, and hand it to both consumers.
  obs::Observability obs(obs_cfg, hc.nodes);
  net::Network network(cfg, &obs);
  mem::HomeMap home_map(hc.nodes, cfg.memory.page_bytes);
  coh::CoherenceFabric fabric(cfg, network, home_map, &obs);

  Rng rng(stream_seed(hc));
  const Addr line = cfg.l2.line_bytes;
  // Per-node private streams twice the L2 so the steady state is
  // miss + evict; a shared read-mostly set; a small contended write set.
  const std::uint64_t priv_lines =
      2 * cfg.l2.size_bytes / cfg.l2.line_bytes;
  const Addr shared_base = Addr{1} << 32;
  const Addr priv_base = Addr{1} << 36;
  constexpr std::uint64_t kSharedLines = 256;
  constexpr std::uint64_t kHotLines = 16;
  std::vector<std::uint64_t> priv_pos(hc.nodes, 0);

  HotResult res;
  res.cfg = hc;
  res.accesses = accesses;
  // The synthetic stream is generated from the RNG and per-node stream
  // positions alone — never from an outcome.
  auto next_req = [&](std::uint64_t i) {
    HotReq rq;
    rq.node = static_cast<NodeId>(i % hc.nodes);
    const std::uint64_t r = rng.next_u64();
    const unsigned pick = static_cast<unsigned>(r % 100);
    if (pick < 50) {
      // Streaming private access: mostly misses once warm.
      rq.addr = priv_base + (Addr{rq.node} << 30) +
                (priv_pos[rq.node]++ % priv_lines) * line;
      rq.write = ((r >> 32) & 3) == 0;
    } else if (pick < 85) {
      // Read-mostly shared set: L1/L2 hits and shared fills.
      rq.addr = shared_base + ((r >> 8) % kSharedLines) * line;
      rq.write = false;
    } else {
      // Contended write set: upgrades + invalidation fan-out.
      rq.addr = shared_base + ((r >> 8) % kHotLines) * line;
      rq.write = true;
    }
    return rq;
  };

  const auto t0 = std::chrono::steady_clock::now();
  res.setup_seconds = std::chrono::duration<double>(t0 - t_setup).count();
  Cycle now = 0;
  for (std::uint64_t i = 0; i < accesses; ++i) {
    const HotReq rq = next_req(i);
    const auto out = fabric.access(rq.node, rq.addr, rq.write, now);
    res.total_latency += out.latency;
    now += 4 + (out.latency >> 3);
  }
  const auto t1 = std::chrono::steady_clock::now();
  res.seconds = std::chrono::duration<double>(t1 - t0).count();
  res.net_messages = network.total_messages();
  res.net_bytes = network.total_bytes();
  res.obs_json = obs.snapshot_json();
  if (obs_cfg.trace && !obs_cfg.trace_path.empty()) {
    std::string err;
    if (!obs.trace_buffer().dump(obs_cfg.trace_path, &err))
      std::fprintf(stderr, "warning: trace dump failed: %s\n", err.c_str());
  }
  return res;
}

void write_json(const std::string& path, apps::Scale scale,
                std::uint64_t accesses, const std::vector<HotResult>& results) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  f << "{\n";
  f << "  \"bench\": \"perf_hotpath\",\n";
  f << "  \"scale\": \"" << apps::scale_name(scale) << "\",\n";
  f << "  \"host\": " << bench::host_context_json() << ",\n";
  f << "  \"accesses_per_config\": " << accesses << ",\n";
  f << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"topology\": \"%s\", \"nodes\": %u, "
                  "\"ops_per_sec\": %.0f, \"ns_per_access\": %.1f, "
                  "\"setup_s\": %.6f, "
                  "\"total_latency\": %llu, \"net_messages\": %llu, "
                  "\"net_bytes\": %llu}%s\n",
                  topology_name(r.cfg.topo), r.cfg.nodes,
                  r.ops_per_sec(), r.ns_per_access(), r.setup_seconds,
                  static_cast<unsigned long long>(r.total_latency),
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
  auto res = bench::parse_options(static_cast<int>(args.size()), args.data());
  if (!res.ok) return bench::usage_error(res);
  if (json_path && (res.options.shard_set || res.options.shards > 0)) {
    // Sharded runs emit NDJSON records instead of the table/JSON outputs;
    // accepting --json and then writing nothing would silently break the
    // perf-trajectory contract the file documents.
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
  // Throughput timing wants an idle machine per config; the driver still
  // fans configurations out when --threads is raised (numbers then measure
  // aggregate throughput, not per-config latency — same for --shards).
  const std::uint64_t accesses = accesses_for(opt.scale);

  std::vector<HotConfig> configs;
  for (const auto& c : default_configs()) {
    if (!opt.node_counts.empty()) {
      bool want = false;
      for (const unsigned n : opt.node_counts) want |= (n == c.nodes);
      if (!want) continue;
    }
    configs.push_back(c);
  }

  // One spec point per configuration; the topology rides the variant
  // label so the config key reads "run/8p/Hypercube".
  std::vector<driver::SpecPoint> points;
  for (const auto& c : configs) {
    driver::SpecPoint pt;
    pt.nodes = c.nodes;
    pt.detector = topology_name(c.topo);
    pt.scale = opt.scale;
    pt.index = points.size();
    points.push_back(std::move(pt));
  }

  // Wall-clock is a live-only measurement (stderr + JSON trajectory);
  // the record-driven stdout table carries the deterministic counters.
  std::vector<HotResult> results;
  const int rc = bench::sharded_sweep<HotResult, HotResult>(
      points, opt, "perf_hotpath",
      [&](const driver::SpecPoint& pt) {
        return time_config(
            configs[pt.index], accesses,
            bench::obs_config_for_point(opt, pt, points.size() > 1));
      },
      [](const driver::SpecPoint&, HotResult&& r) { return r; },
      [&](const driver::SpecPoint& pt) {
        return stream_seed(configs[pt.index]);
      },
      [](const driver::SpecPoint&, const HotResult& r) {
        // Deterministic checksums only: wall-clock would break the
        // merged-vs-serial byte comparison.
        return shard::JsonObject()
            .add("accesses", r.accesses)
            .add("total_latency", r.total_latency)
            .add("net_messages", r.net_messages)
            .add("net_bytes", r.net_bytes)
            .str();
      },
      [&](const driver::SpecPoint&, const HotResult& r) {
        results.push_back(r);
      },
      [](const driver::SpecPoint&, const HotResult& r) {
        return r.obs_json;
      });
  if (stream) return rc;

  TableWriter wall(
      {"topology", "nodes", "Maccess/s", "ns/access", "loop s", "setup s"});
  for (const auto& r : results) {
    wall.add_row({topology_name(r.cfg.topo), std::to_string(r.cfg.nodes),
                  TableWriter::fmt(r.ops_per_sec() / 1e6, 3),
                  TableWriter::fmt(r.ns_per_access(), 4),
                  TableWriter::fmt(r.seconds, 4),
                  TableWriter::fmt(r.setup_seconds, 4)});
  }
  std::fprintf(stderr, "wall-clock (live-only, varies run to run):\n%s\n",
               wall.to_text().c_str());
  if (json_path) write_json(*json_path, opt.scale, accesses, results);
  return rc;
}
