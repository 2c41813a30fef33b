// micro_detector.cpp — microbenchmarks of the detector hardware
// operations, quantifying the per-interval work the paper argues is
// "modest in size and complexity" (§I): BBV accumulator updates,
// Manhattan distances, footprint-table searches, DDV access recording,
// and the end-of-interval DDS gather/computation.
//
// Runs each kernel × size as a spec point on the experiment driver, so
// kernel timings parallelize (--threads=N) and shard (--shard/--shards).
// Each kernel returns a deterministic checksum: it keeps the optimizer
// honest and is the record's payload (wall-clock never enters stream
// records, so merged sharded output byte-compares against serial). The
// stdout table is record-driven (the micro_detector renderer in
// src/report, shared with `dsm_report render`); wall-clock timings are a
// live-only measurement and print to stderr.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/table_writer.hpp"
#include "network/topology.hpp"
#include "phase/bbv.hpp"
#include "phase/ddv.hpp"
#include "phase/footprint.hpp"

namespace {

using namespace dsm;

std::uint64_t bm_bbv_record_branch(unsigned, std::uint64_t iters) {
  phase::BbvAccumulator acc(32, 1u << 16);
  Addr pc = 0x400000;
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc.record_branch(pc, 12);
    pc += 64;
  }
  return acc.total_weight();
}

std::uint64_t bm_bbv_snapshot(unsigned entries, std::uint64_t iters) {
  phase::BbvAccumulator acc(entries, 1u << 16);
  for (unsigned i = 0; i < 1000; ++i) acc.record_branch(i * 64, i % 13 + 1);
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto v = acc.snapshot();
    sum += v[i % entries];
  }
  return sum;
}

std::uint64_t bm_manhattan(unsigned n, std::uint64_t iters) {
  phase::BbvVector a(n), b(n);
  for (unsigned i = 0; i < n; ++i) {
    a[i] = static_cast<std::uint32_t>(i * 37 % 2048);
    b[i] = static_cast<std::uint32_t>(i * 91 % 2048);
  }
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    sum += phase::manhattan(a, b);
    a[i % n] ^= 1;  // keep the inputs moving so the call cannot hoist
  }
  return sum;
}

std::uint64_t bm_footprint_classify(unsigned capacity, std::uint64_t iters) {
  phase::FootprintTable table(capacity, /*use_dds=*/true);
  // Pre-populate with distinct signatures.
  phase::BbvVector v(32, 0);
  for (unsigned e = 0; e < capacity; ++e) {
    v[e % 32] = 65536;
    table.classify(v, e * 1000.0, 0, 0.0);
    v[e % 32] = 0;
  }
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    v[i % 32] = 60000;
    const auto c = table.classify(v, (i % 7) * 1500.0, 8000, 500.0);
    v[i % 32] = 0;
    sum += c.phase + c.bbv_distance;
  }
  return sum;
}

std::uint64_t bm_ddv_record_access(unsigned nodes, std::uint64_t iters) {
  net::TopologyModel topo(Topology::kHypercube, nodes);
  phase::DdvFabric ddv(nodes, topo.ddv_distance_matrix());
  NodeId j = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    ddv.record_access(0, j);
    j = (j + 1) % nodes;
  }
  const auto g = ddv.gather(0);
  std::uint64_t sum = 0;
  for (const auto f : g.f()) sum += f;
  return sum;
}

std::uint64_t bm_ddv_gather(unsigned nodes, std::uint64_t iters) {
  net::TopologyModel topo(Topology::kHypercube, nodes);
  phase::DdvFabric ddv(nodes, topo.ddv_distance_matrix());
  for (NodeId p = 0; p < nodes; ++p)
    for (unsigned k = 0; k < 64; ++k)
      ddv.record_access(p, (p + k) % nodes);
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto g = ddv.gather(0);
    sum += static_cast<std::uint64_t>(g.dds);
    ddv.record_access(0, 1);  // keep state moving
  }
  return sum;
}

struct Kernel {
  const char* name;
  unsigned arg;  ///< size axis (0 = none): entries, capacity, or nodes
  std::uint64_t (*body)(unsigned arg, std::uint64_t iters);
  double iters_scale = 1.0;  ///< trims the heavyweight kernels
};

const std::vector<Kernel>& kernels() {
  static const std::vector<Kernel> kKernels = {
      {"bbv_record_branch", 0, bm_bbv_record_branch},
      {"bbv_snapshot", 16, bm_bbv_snapshot},
      {"bbv_snapshot", 32, bm_bbv_snapshot},
      {"bbv_snapshot", 64, bm_bbv_snapshot},
      {"manhattan", 16, bm_manhattan},
      {"manhattan", 32, bm_manhattan},
      {"manhattan", 64, bm_manhattan},
      {"footprint_classify", 8, bm_footprint_classify},
      {"footprint_classify", 32, bm_footprint_classify},
      {"footprint_classify", 64, bm_footprint_classify},
      {"ddv_record_access", 2, bm_ddv_record_access},
      {"ddv_record_access", 8, bm_ddv_record_access},
      {"ddv_record_access", 32, bm_ddv_record_access},
      // The gather is O(nodes^2) per call; scale its count down so the
      // paper-scale run stays minutes, not hours.
      {"ddv_gather", 2, bm_ddv_gather, 0.1},
      {"ddv_gather", 8, bm_ddv_gather, 0.1},
      {"ddv_gather", 32, bm_ddv_gather, 0.1},
  };
  return kKernels;
}

std::uint64_t base_iters(apps::Scale scale) {
  switch (scale) {
    case apps::Scale::kTest: return 100'000;
    case apps::Scale::kBench: return 1'000'000;
    case apps::Scale::kPaper: return 10'000'000;
  }
  return 100'000;
}

struct KernelResult {
  std::uint64_t iters = 0;
  std::uint64_t checksum = 0;
  double seconds = 0.0;

  double ns_per_op() const {
    return iters > 0 ? seconds * 1e9 / static_cast<double>(iters) : 0.0;
  }
  double mops_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(iters) / seconds / 1e6 : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  auto parsed = bench::parse_options(argc, argv);
  if (!parsed.ok) return bench::usage_error(parsed);
  if (const auto rc = bench::maybe_orchestrate(argc, argv, parsed))
    return *rc;
  const auto& opt = parsed.options;
  const bool stream = bench::stream_mode(opt);

  // One spec point per kernel × size; the size rides the variant label so
  // the config key reads "manhattan/32".
  std::vector<driver::SpecPoint> points;
  for (const auto& k : kernels()) {
    driver::SpecPoint pt;
    pt.app = k.name;
    pt.detector = k.arg == 0 ? "" : std::to_string(k.arg);
    pt.threshold = k.arg;
    pt.scale = opt.scale;
    pt.index = points.size();
    points.push_back(std::move(pt));
  }

  // Wall-clock is a live-only measurement: it varies run to run, so it
  // has no place in records or the record-driven stdout table.
  TableWriter wall({"kernel", "size", "iters", "ns/op", "Mops/s"});
  const int rc = bench::sharded_sweep<KernelResult, KernelResult>(
      points, opt, "micro_detector",
      [&](const driver::SpecPoint& pt) {
        const auto& k = kernels()[pt.index];
        KernelResult r;
        r.iters = static_cast<std::uint64_t>(
            static_cast<double>(base_iters(opt.scale)) * k.iters_scale);
        const auto t0 = std::chrono::steady_clock::now();
        r.checksum = k.body(k.arg, r.iters);
        r.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        return r;
      },
      [](const driver::SpecPoint&, KernelResult&& r) { return r; },
      [](const driver::SpecPoint&) { return std::uint64_t{0}; },  // no RNG
      [&](const driver::SpecPoint&, const KernelResult& r) {
        // Deterministic payload only: ns/op changes run to run and would
        // break merged-vs-serial byte comparison.
        return shard::JsonObject()
            .add("base_iters", base_iters(opt.scale))
            .add("iters", r.iters)
            .add("checksum", r.checksum)
            .str();
      },
      [&](const driver::SpecPoint& pt, const KernelResult& r) {
        const auto& k = kernels()[pt.index];
        wall.add_row({k.name, k.arg == 0 ? "-" : std::to_string(k.arg),
                      std::to_string(r.iters),
                      TableWriter::fmt(r.ns_per_op(), 2),
                      TableWriter::fmt(r.mops_per_sec(), 2)});
      });

  if (!stream)
    std::fprintf(stderr, "wall-clock (live-only, varies run to run):\n%s\n",
                 wall.to_text().c_str());
  return rc;
}
