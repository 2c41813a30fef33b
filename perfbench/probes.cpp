#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <vector>

#include "coherence/directory.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "memory/cache.hpp"
#include "phase/bbv.hpp"
#include "phase/detector.hpp"
#include "sim/machine.hpp"

namespace perfbench {
namespace {

using namespace dsm;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 3;

/// Results flow here so the timed loops cannot be optimized away.
volatile std::uint64_t g_sink = 0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median over kReps of `ns_per_op` readings from `rep()`, which returns
/// the host nanoseconds per call of one timed repetition.
template <typename F>
double median_of_reps(F&& rep) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) v.push_back(rep());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double cache_probe(const MachineConfig& cfg, Rng& rng) {
  mem::Cache l2(cfg.l2);
  const std::uint64_t lines = cfg.l2.size_bytes / cfg.l2.line_bytes;
  std::vector<Addr> addrs(1u << 18);
  for (auto& a : addrs) a = rng.next_below(2 * lines) * cfg.l2.line_bytes;
  std::uint64_t sink = 0;
  auto pass = [&] {
    for (const Addr a : addrs) {
      const auto cur = l2.lookup_for_fill(a);
      if (cur.ref) {
        l2.touch(cur.ref);
      } else {
        const auto v = l2.fill_at(cur, a, mem::LineState::kShared);
        sink += v ? v->line_addr : 0;
      }
    }
  };
  pass();  // warm: the set lanes fill to steady state
  const double ns = median_of_reps([&] {
    const auto t0 = Clock::now();
    pass();
    return seconds_since(t0) * 1e9 / static_cast<double>(addrs.size());
  });
  g_sink = g_sink + sink;
  return ns;
}

double directory_probe(const MachineConfig& cfg, Rng& rng) {
  const std::size_t lines = cfg.l2.size_bytes / cfg.l2.line_bytes;
  coh::Directory dir(0, lines);
  for (std::size_t i = 0; i < lines; ++i) {
    auto& e = dir.entry(static_cast<Addr>(i) * cfg.l2.line_bytes);
    e.state = coh::DirEntry::State::kShared;
    e.add_sharer(static_cast<NodeId>(i % 2));
  }
  std::vector<Addr> keys(1u << 18);
  for (auto& k : keys) k = rng.next_below(lines) * cfg.l2.line_bytes;
  std::uint64_t sink = 0;
  const double ns = median_of_reps([&] {
    const auto t0 = Clock::now();
    for (const Addr k : keys) sink += dir.entry(k).sharers;
    return seconds_since(t0) * 1e9 / static_cast<double>(keys.size());
  });
  g_sink = g_sink + sink;
  return ns;
}

double bbv_probe(const MachineConfig& cfg, Rng& rng) {
  phase::BbvAccumulator acc(cfg.phase.bbv_entries, cfg.phase.bbv_norm);
  std::vector<Addr> sites(4096);
  for (auto& s : sites) s = 0x400000 + rng.next_below(1u << 20) * 4;
  std::vector<std::uint32_t> picks(1u << 20);
  for (auto& p : picks) p = static_cast<std::uint32_t>(rng.next_u64());
  const double ns = median_of_reps([&] {
    acc.reset();
    const auto t0 = Clock::now();
    for (const std::uint32_t p : picks)
      acc.record_branch(sites[p % sites.size()], 1 + (p >> 28));
    return seconds_since(t0) * 1e9 / static_cast<double>(picks.size());
  });
  g_sink = g_sink + acc.total_weight();
  return ns;
}

/// Mixed access stream: 80% to a per-node hot set that fits the L1, 20% to
/// a shared region the size of one L2 (misses, sharing, invalidations);
/// a quarter of the accesses are stores.
double access_probe(sim::Machine& m, unsigned nodes, Rng& rng) {
  struct Op {
    Addr addr;
    NodeId node;
    bool write;
  };
  const unsigned line = m.config().l2.line_bytes;
  const std::uint64_t shared_lines =
      m.config().l2.size_bytes / m.config().l2.line_bytes;
  std::vector<Op> ops(1u << 17);
  for (auto& op : ops) {
    op.node = static_cast<NodeId>(rng.next_below(nodes));
    const bool hot = rng.next_below(10) < 8;
    op.addr = hot ? 0x10000000ull + op.node * 0x100000ull +
                        rng.next_below(256) * line
                  : 0x40000000ull + rng.next_below(shared_lines) * line;
    op.write = rng.next_below(4) == 0;
  }
  Cycle now = 0;
  std::uint64_t sink = 0;
  auto pass = [&] {
    for (const Op& op : ops) {
      sink += m.fabric().access(op.node, op.addr, op.write, now).latency;
      now += 20;
    }
  };
  pass();  // warm: caches and directory slices reach steady occupancy
  const double ns = median_of_reps([&] {
    const auto t0 = Clock::now();
    pass();
    return seconds_since(t0) * 1e9 / static_cast<double>(ops.size());
  });
  g_sink = g_sink + sink;
  return ns;
}

double network_probe(sim::Machine& m, unsigned nodes, Rng& rng) {
  struct Msg {
    NodeId src, dst;
    unsigned bytes;
  };
  std::vector<Msg> msgs(1u << 17);
  for (auto& x : msgs) {
    x.src = static_cast<NodeId>(rng.next_below(nodes));
    x.dst = static_cast<NodeId>(rng.next_below(nodes));
    if (nodes > 1 && x.dst == x.src) x.dst = (x.src + 1) % nodes;
    x.bytes = rng.next_below(2) == 0 ? m.config().network.control_bytes
                                     : m.config().l2.line_bytes;
  }
  Cycle now = 0;
  std::uint64_t sink = 0;
  const double ns = median_of_reps([&] {
    const auto t0 = Clock::now();
    for (const Msg& x : msgs) {
      sink += m.network().message_latency(x.src, x.dst, x.bytes, now,
                                          net::TrafficClass::kData);
      now += 8;
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(msgs.size());
  });
  g_sink = g_sink + sink;
  return ns;
}

/// Each gather follows a burst of 64 recorded accesses per node, so the
/// counters it collects are live; only the gather calls are timed.
double gather_probe(sim::Machine& m, unsigned nodes, Rng& rng) {
  phase::DdvFabric& ddv = m.ddv();
  const unsigned gathers = std::max(64u, 4096u / nodes);
  std::vector<NodeId> homes(64 * nodes);
  std::uint64_t sink = 0;
  const double ns = median_of_reps([&] {
    double timed = 0.0;
    for (unsigned g = 0; g < gathers; ++g) {
      for (auto& h : homes) h = static_cast<NodeId>(rng.next_below(nodes));
      for (std::size_t k = 0; k < homes.size(); ++k)
        ddv.record_access(static_cast<NodeId>(k % nodes), homes[k]);
      const auto t0 = Clock::now();
      const auto res = ddv.gather(static_cast<NodeId>(g % nodes));
      timed += seconds_since(t0);
      sink += static_cast<std::uint64_t>(res.dds);
    }
    return timed * 1e9 / gathers;
  });
  g_sink = g_sink + sink;
  return ns;
}

double classify_probe(const MachineConfig& cfg,
                      const std::vector<phase::ProcessorTrace>& traces,
                      std::uint64_t* calls) {
  *calls = 0;
  double timed = 0.0;
  std::uint64_t sink = 0;
  for (const auto& t : traces) {
    if (t.intervals.empty()) continue;
    double mean_dds = 0.0;
    for (const auto& rec : t.intervals) mean_dds += std::abs(rec.dds);
    mean_dds /= static_cast<double>(t.intervals.size());
    phase::BbvDdvDetector det(cfg.phase.footprint_vectors,
                              phase::Thresholds{cfg.phase.bbv_norm / 8,
                                                0.1 * mean_dds});
    const auto t0 = Clock::now();
    for (const auto& rec : t.intervals) sink += det.classify(rec).phase;
    timed += seconds_since(t0);
    *calls += t.intervals.size();
  }
  g_sink = g_sink + sink;
  return *calls == 0 ? 0.0 : timed * 1e9 / static_cast<double>(*calls);
}

}  // namespace

ProbeResults run_probes(const std::vector<unsigned>& node_counts,
                        std::uint64_t seed,
                        const std::vector<phase::ProcessorTrace>& intervals) {
  ProbeResults r;
  Rng rng(seed ^ 0x70726f6265ull);
  const MachineConfig base = default_config(node_counts.front());
  r.cache_lookup_ns = cache_probe(base, rng);
  r.dir_entry_ns = directory_probe(base, rng);
  r.bbv_record_ns = bbv_probe(base, rng);
  r.classify_ns = classify_probe(base, intervals, &r.classify_calls);
  for (const unsigned n : node_counts) {
    MachineConfig cfg = default_config(n);
    cfg.seed = seed;
    sim::Machine m(cfg);
    r.access_ns[n] = access_probe(m, n, rng);
    r.msg_ns[n] = network_probe(m, n, rng);
    r.gather_ns[n] = gather_probe(m, n, rng);
  }
  return r;
}

double mean_ns(const std::map<unsigned, double>& per_nodes) {
  if (per_nodes.empty()) return 0.0;
  double s = 0.0;
  for (const auto& [n, ns] : per_nodes) s += ns;
  return s / static_cast<double>(per_nodes.size());
}

}  // namespace perfbench
