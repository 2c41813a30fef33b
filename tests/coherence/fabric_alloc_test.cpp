// fabric_alloc_test.cpp — extends the PR 2 allocation-counting invariant
// from Network::message_latency to the FULL per-access path: after
// warm-up, CoherenceFabric::access must never touch the heap, across
// every protocol case the synthetic stream exercises (L1/L2 hits, cold
// and capacity misses, upgrades with invalidation fan-out, cache-to-cache
// transfers, dirty writebacks, directory insert/erase).
//
// Warm-up is excluded because growth is real work done once: directory
// slices rebuild to their high-water capacity while the stream's working
// set is being established. Steady state — the millions of accesses every
// figure's runtime is made of — must be allocation-free: cache lanes are
// fixed at construction, directory erasure is in-place backward-shift,
// and the victim/writeback path works in values and handles only.
#include "coherence/fabric.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "memory/home_map.hpp"
#include "network/network.hpp"
#include "obs/observability.hpp"
#include "tests/counting_new.hpp"

namespace dsm::coh {
namespace {

// The perf_hotpath mix, shrunk: streaming private misses (fill + evict +
// directory insert/erase every access once warm), a read-mostly shared
// set (hits and shared fills), and a contended write set (upgrades and
// invalidation fan-out).
struct StreamGen {
  unsigned nodes;
  Addr line;
  std::uint64_t priv_lines;
  std::vector<std::uint64_t> priv_pos;
  Rng rng{0x5eed5eedull};

  struct Access {
    NodeId node;
    Addr addr;
    bool write;
  };

  Access next(std::uint64_t i) {
    const NodeId node = static_cast<NodeId>(i % nodes);
    const std::uint64_t r = rng.next_u64();
    const unsigned pick = static_cast<unsigned>(r % 100);
    constexpr Addr kSharedBase = Addr{1} << 32;
    constexpr Addr kPrivBase = Addr{1} << 36;
    if (pick < 50) {
      return {node,
              kPrivBase + (Addr{node} << 30) +
                  (priv_pos[node]++ % priv_lines) * line,
              ((r >> 32) & 3) == 0};
    }
    if (pick < 85) return {node, kSharedBase + ((r >> 8) % 256) * line, false};
    return {node, kSharedBase + ((r >> 8) % 16) * line, true};
  }
};

TEST(FabricAllocTest, SteadyStateAccessPathIsAllocationFree) {
  MachineConfig cfg = default_config(8);
  // Small L2 so the streaming set wraps (evictions + directory erase on
  // nearly every private access) within a fast test.
  cfg.l2.size_bytes = 64 * 1024;
  net::Network network(cfg);
  mem::HomeMap home_map(cfg.num_nodes, cfg.memory.page_bytes);
  CoherenceFabric fabric(cfg, network, home_map);

  StreamGen gen{cfg.num_nodes, cfg.l2.line_bytes,
                2 * cfg.l2.size_bytes / cfg.l2.line_bytes,
                std::vector<std::uint64_t>(cfg.num_nodes, 0)};

  // Warm-up: several full wraps of every node's private stream, so every
  // directory slice has grown to its high-water capacity and every cache
  // set has been filled and recycled.
  Cycle now = 0;
  for (std::uint64_t i = 0; i < 400'000; ++i) {
    const auto a = gen.next(i);
    now += 4 + (fabric.access(a.node, a.addr, a.write, now).latency >> 3);
  }

  // Steady state: not one heap allocation over 200k further accesses.
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::uint64_t i = 400'000; i < 600'000; ++i) {
    const auto a = gen.next(i);
    now += 4 + (fabric.access(a.node, a.addr, a.write, now).latency >> 3);
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before);

  fabric.check_invariants();
}

// The observability layer's zero-allocation contract: with metrics AND
// tracing enabled, the steady-state access path still never touches the
// heap. The registry preallocates every slot at construction; the trace
// rings are fixed at construction and overwrite-with-drop-count on
// overflow — which this stream forces (capacity 1024 against 200k traced
// misses), so the drop path itself is exercised allocation-free.
TEST(FabricAllocTest, SteadyStateIsAllocationFreeWithTracingOn) {
  MachineConfig cfg = default_config(8);
  cfg.l2.size_bytes = 64 * 1024;
  cfg.obs.stats = true;
  cfg.obs.trace = true;
  cfg.obs.trace_events_per_node = 1024;  // small, so the rings wrap
  obs::Observability obs(cfg.obs, cfg.num_nodes);
  net::Network network(cfg, &obs);
  mem::HomeMap home_map(cfg.num_nodes, cfg.memory.page_bytes);
  CoherenceFabric fabric(cfg, network, home_map, &obs);

  StreamGen gen{cfg.num_nodes, cfg.l2.line_bytes,
                2 * cfg.l2.size_bytes / cfg.l2.line_bytes,
                std::vector<std::uint64_t>(cfg.num_nodes, 0)};

  Cycle now = 0;
  for (std::uint64_t i = 0; i < 400'000; ++i) {
    const auto a = gen.next(i);
    now += 4 + (fabric.access(a.node, a.addr, a.write, now).latency >> 3);
  }

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::uint64_t i = 400'000; i < 600'000; ++i) {
    const auto a = gen.next(i);
    now += 4 + (fabric.access(a.node, a.addr, a.write, now).latency >> 3);
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before);

  // The instrumentation actually ran: counters moved and every ring
  // wrapped (drops counted, capacity held).
  EXPECT_GT(obs.metrics().value("coh.fill.with_victim"), 0u);
  const obs::TraceBuffer& tb = obs.trace_buffer();
  for (unsigned n = 0; n < cfg.num_nodes; ++n) {
    EXPECT_EQ(tb.recorded(n), 1024u) << "node " << n;
    EXPECT_GT(tb.dropped(n), 0u) << "node " << n;
  }

  fabric.check_invariants();
}

}  // namespace
}  // namespace dsm::coh
