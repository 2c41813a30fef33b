// detector_anatomy.cpp — the paper's Figures 1 and 3, animated: build the
// BBV accumulator, footprint table, and DDV structures by hand, feed them
// hand-crafted events, and print every intermediate value — the clearest
// way to see why two intervals with identical instruction working sets can
// still be different phases in a DSM machine.
#include <cstdio>

#include "network/topology.hpp"
#include "phase/bbv.hpp"
#include "phase/ddv.hpp"
#include "phase/footprint.hpp"

int main() {
  using namespace dsm;

  // ---- Fig. 1: the BBV accumulator ----
  std::printf("== Fig. 1 anatomy: BBV accumulator ==\n");
  phase::BbvAccumulator acc(8, 1000);  // 8 counters, normalize to 1000
  struct Branch { Addr pc; InstrCount instrs; };
  const Branch loop_a{0x400100, 20};  // hot inner loop
  const Branch loop_b{0x400480, 5};   // short bookkeeping loop
  for (int i = 0; i < 9; ++i) acc.record_branch(loop_a.pc, loop_a.instrs);
  for (int i = 0; i < 4; ++i) acc.record_branch(loop_b.pc, loop_b.instrs);
  std::printf("  after 9 x (branch@0x%llx, +20 instr) and 4 x "
              "(branch@0x%llx, +5 instr):\n",
              static_cast<unsigned long long>(loop_a.pc),
              static_cast<unsigned long long>(loop_b.pc));
  std::printf("  hash buckets: loop_a -> %u, loop_b -> %u\n",
              acc.index_of(loop_a.pc), acc.index_of(loop_b.pc));
  const auto v1 = acc.snapshot();
  std::printf("  normalized snapshot: [");
  for (const auto x : v1) std::printf(" %u", x);
  std::printf(" ]  (sums to ~1000)\n\n");

  // A second interval with a shifted mix.
  acc.reset();
  for (int i = 0; i < 4; ++i) acc.record_branch(loop_a.pc, loop_a.instrs);
  for (int i = 0; i < 24; ++i) acc.record_branch(loop_b.pc, loop_b.instrs);
  const auto v2 = acc.snapshot();
  std::printf("  second interval (4 x loop_a, 24 x loop_b) snapshot: [");
  for (const auto x : v2) std::printf(" %u", x);
  std::printf(" ]\n  Manhattan distance between the intervals: %llu\n\n",
              static_cast<unsigned long long>(phase::manhattan(v1, v2)));

  // ---- footprint table classification ----
  std::printf("== Footprint table (LRU, threshold matching) ==\n");
  phase::FootprintTable table(2, /*use_dds=*/false);  // tiny on purpose
  auto show = [&](const char* what, const phase::Classification& c) {
    std::printf("  %-28s -> phase %d%s (bbv distance %llu)\n", what, c.phase,
                c.new_phase ? " [new entry]" : "",
                static_cast<unsigned long long>(c.bbv_distance));
  };
  show("interval 1 (v1)", table.classify(v1, 0, 300, 0));
  show("interval 2 (v2)", table.classify(v2, 0, 300, 0));
  show("interval 3 (v1 again)", table.classify(v1, 0, 300, 0));
  phase::BbvVector v3(8, 0);
  v3[3] = 1000;  // a third behaviour evicts the LRU entry (capacity 2)
  show("interval 4 (new behaviour)", table.classify(v3, 0, 300, 0));
  show("interval 5 (v2 after evict)", table.classify(v2, 0, 300, 0));
  std::printf("  phases issued in total: %d (capacity pressure visible)\n\n",
              table.phases_issued());

  // ---- Fig. 3: the DDV on a 2-processor system ----
  std::printf("== Fig. 3 anatomy: DDV on a 2-processor DSM ==\n");
  net::TopologyModel topo(Topology::kHypercube, 2);
  phase::DdvFabric ddv(2, topo.ddv_distance_matrix());
  // Interval X: processor 0 works from its own memory; processor 1 also
  // hammers node 0's memory (contention).
  for (int i = 0; i < 90; ++i) ddv.record_access(0, 0);
  for (int i = 0; i < 10; ++i) ddv.record_access(0, 1);
  for (int i = 0; i < 80; ++i) ddv.record_access(1, 0);
  auto g = ddv.gather(0);
  std::printf("  interval X: F[0][*] = {%llu, %llu}, C = {%llu, %llu}, "
              "D[0][*] = {%u, %u}\n",
              static_cast<unsigned long long>(g.f()[0]),
              static_cast<unsigned long long>(g.f()[1]),
              static_cast<unsigned long long>(g.c()[0]),
              static_cast<unsigned long long>(g.c()[1]),
              ddv.distance(0, 0), ddv.distance(0, 1));
  std::printf("  DDS_0 = F*D*C summed = %.0f\n", g.dds);

  // Interval Y: identical code on processor 0 — same BBV! — but now its
  // data lives remotely and processor 1 is quiet.
  for (int i = 0; i < 10; ++i) ddv.record_access(0, 0);
  for (int i = 0; i < 90; ++i) ddv.record_access(0, 1);
  g = ddv.gather(0);
  std::printf("  interval Y: F[0][*] = {%llu, %llu}, C = {%llu, %llu}\n",
              static_cast<unsigned long long>(g.f()[0]),
              static_cast<unsigned long long>(g.f()[1]),
              static_cast<unsigned long long>(g.c()[0]),
              static_cast<unsigned long long>(g.c()[1]));
  std::printf("  DDS_0 = %.0f\n", g.dds);
  std::printf("\n  Identical BBVs, very different DDS values: the BBV "
              "detector calls X and Y\n  the same phase, the BBV+DDV "
              "detector does not — the paper's core point.\n");
  return 0;
}
