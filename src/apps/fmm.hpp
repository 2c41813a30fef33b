// fmm.hpp — SPLASH-2 FMM model: a 2-D fast multipole method over 65,536
// particles (the Table II input), time-stepped so the particle
// distribution — and with it the load balance and home-node access mix —
// drifts between steps.
//
// Structure per step: bin particles into the leaf grid; upward pass (P2M
// at the leaves, M2M up the quadtree); M2L across each cell's well-
// separated interaction list; downward pass (L2L, L2P); near-field direct
// interactions over per-step costzones (dynamic load balancing, the
// execution model §III-B of the paper calls out); particle advance.
// Particles start sorted so each processor's chunk matches its cell
// region; cluster motion then erodes that locality — a time-varying
// remote-access pattern only the DDV can see.
#pragma once

#include "sim/machine.hpp"

namespace dsm::apps {

struct FmmParams {
  unsigned particles = 65536;  ///< paper input
  unsigned leaf_log2 = 7;      ///< leaf grid is 2^leaf_log2 per side
  unsigned min_level = 2;      ///< coarsest level carrying expansions
  unsigned steps = 4;          ///< simulated time steps
  unsigned terms = 4;          ///< multipole/local expansion terms
  unsigned clusters = 4;       ///< particle clusters (drive imbalance)
  double instr_per_flop = 2.0;
  double fp_frac = 0.7;
  double cluster_spread = 0.08;  ///< stddev of cluster offsets
  double orbit_per_step = 0.35;  ///< radians the clusters move per step
};

sim::AppFn make_fmm(const FmmParams& p);

}  // namespace dsm::apps
