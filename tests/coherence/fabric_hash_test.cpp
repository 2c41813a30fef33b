// Pins the fabric's whole observable behaviour on tiny machines, where
// the bench goldens do not reach: seeded loads and stores on 3-4 nodes
// with a 2 KiB 2-way L2 evict constantly, so dirty MOESI evictions,
// MSI upgrades and every directory arm run thousands of times. Each case
// folds every AccessOutcome, every per-node and per-cache statistic,
// every trace event and the metrics snapshot into one FNV-1a hash and
// holds it to a constant. A change to the access path that moves any
// simulated bit fails here with the new hash; re-pin one only for a
// deliberate change in simulated behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "coherence/fabric.hpp"
#include "common/config.hpp"
#include "memory/home_map.hpp"
#include "network/network.hpp"
#include "obs/observability.hpp"

namespace dsm::coh {
namespace {

/// FNV-1a over the bytes of each folded value.
struct Fold {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) {
      h ^= v & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
};

struct Case {
  const char* name;
  Protocol protocol;
  Topology topology;
  unsigned nodes;
  std::uint64_t expected;
};

MachineConfig tiny_config(const Case& c) {
  MachineConfig cfg = default_config(1);
  cfg.num_nodes = c.nodes;
  cfg.protocol = c.protocol;
  cfg.network.topology = c.topology;
  cfg.l1 = {.size_bytes = 512, .associativity = 1, .line_bytes = 32,
            .latency_cycles = 1};
  cfg.l2 = {.size_bytes = 2048, .associativity = 2, .line_bytes = 32,
            .latency_cycles = 12};
  cfg.obs.stats = true;
  cfg.obs.trace = true;
  cfg.obs.trace_events_per_node = 1u << 16;  // holds every event: no drops
  return cfg;
}

/// Runs `accesses` seeded loads and stores and returns the case's hash.
/// Half the accesses go to 24 hot lines (L1 and L2 hits, sharing), the
/// rest to 8 pages of 128 lines each, far more than the 64-line L2
/// holds. Pages 0-3 are bound explicitly (to node p+1 mod n); the rest
/// live on page mod n.
std::uint64_t run_case(const Case& c, unsigned accesses) {
  const MachineConfig cfg = tiny_config(c);
  EXPECT_EQ(cfg.validate(), "");
  obs::Observability obs(cfg.obs, cfg.num_nodes);
  net::Network network(cfg, &obs);
  mem::HomeMap homes(cfg.num_nodes, cfg.memory.page_bytes);
  const std::uint64_t page = cfg.memory.page_bytes;
  for (unsigned p = 0; p < 4; ++p)
    homes.place_range(p * page, page, (p + 1) % cfg.num_nodes);
  CoherenceFabric fabric(cfg, network, homes, &obs);

  std::uint64_t seed = 0x5eed0000ull + static_cast<unsigned>(c.protocol) * 7 +
                       static_cast<unsigned>(c.topology);
  auto next = [&seed] {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 33;
  };
  Fold f;
  Cycle now = 0;
  for (unsigned i = 0; i < accesses; ++i) {
    const auto node = static_cast<NodeId>(next() % cfg.num_nodes);
    const Addr addr = next() % 2 == 0
                          ? (next() % 24) * 96 + next() % 32
                          : (next() % 8) * page + (next() % 128) * 32;
    const bool write = next() % 3 == 0;
    now += 1 + next() % 40;
    const AccessOutcome out = fabric.access(node, addr, write, now);
    f.add(out.latency);
    f.add(static_cast<std::uint64_t>(out.source));
    f.add(out.home);
    f.add(out.l1_hit);
    f.add(out.write);
    f.add(out.invalidations);
    if (i % 512 == 0) fabric.check_invariants();
  }
  fabric.check_invariants();

  for (NodeId n = 0; n < cfg.num_nodes; ++n) {
    const NodeCoherenceStats& s = fabric.stats(n);
    for (const std::uint64_t v :
         {s.loads, s.stores, s.l1_hits, s.l2_hits, s.local_mem,
          s.remote_mem, s.cache_to_cache, s.upgrades, s.invalidations_sent,
          s.writebacks})
      f.add(v);
    for (const mem::Cache* cache : {&fabric.l1(n), &fabric.l2(n)}) {
      f.add(cache->hits());
      f.add(cache->misses());
      f.add(cache->evictions());
      f.add(cache->invalidations_received());
      f.add(cache->resident_count());
    }
    f.add(fabric.directory(n).tracked_lines());
    const obs::TraceBuffer& tb = obs.trace_buffer();
    EXPECT_EQ(tb.dropped(n), 0u);
    for (const obs::TraceEvent& ev : tb.events(n)) {
      f.add(ev.ts);
      f.add(ev.addr);
      f.add(ev.arg);
      f.add(ev.kind);
      f.add(ev.node);
      f.add(ev.flags);
      f.add(ev.aux);
    }
  }
  for (unsigned cls = 0; cls < net::kNumTrafficClasses; ++cls) {
    f.add(network.messages_sent(static_cast<net::TrafficClass>(cls)));
    f.add(network.bytes_sent(static_cast<net::TrafficClass>(cls)));
  }
  f.add(obs.snapshot_json());
  // The stream reaches what the goldens never do: dirty evictions, and
  // under MOESI reads forwarded from an Owned copy.
  EXPECT_GT(obs.metrics().value("coh.evict.writeback"), 0u);
  if (c.protocol == Protocol::kMoesi) {
    EXPECT_GT(obs.metrics().value("coh.trans.owned_read"), 0u);
  }
  return f.h;
}

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class FabricHashTest : public ::testing::TestWithParam<Case> {};

TEST_P(FabricHashTest, SeededStreamFoldsToThePinnedHash) {
  const Case& c = GetParam();
  const std::uint64_t got = run_case(c, 20000);
  EXPECT_EQ(got, c.expected) << c.name << ": got 0x" << std::hex << got;
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, FabricHashTest,
    ::testing::Values(
        Case{"msi_hypercube4", Protocol::kMsi, Topology::kHypercube, 4,
             0xcdff32a703bb8122ull},
        Case{"mesi_hypercube4", Protocol::kMesi, Topology::kHypercube, 4,
             0x3fba3edd665092afull},
        Case{"moesi_hypercube4", Protocol::kMoesi, Topology::kHypercube, 4,
             0x8ad7805b723cb1d3ull},
        Case{"msi_ring3", Protocol::kMsi, Topology::kRing, 3,
             0x9fdebabac4db9420ull},
        Case{"mesi_ring3", Protocol::kMesi, Topology::kRing, 3,
             0xbd941f3ea66250e3ull},
        Case{"moesi_ring3", Protocol::kMoesi, Topology::kRing, 3,
             0x011f586cbf91a943ull}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dsm::coh
