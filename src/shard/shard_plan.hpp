// shard_plan.hpp — deterministic partitioning of an expanded sweep across
// worker processes.
//
// A SweepSpec expands to the same spec-ordered point list in every process
// (expansion is pure), so a shard can be named by nothing more than
// "--shard=i/N": worker i owns every point whose spec index is congruent
// to i mod N (round-robin over spec order, which balances the axes — the
// expensive 32-node configurations of an app×nodes product land on
// different shards instead of all on the last one). Because per-point RNG
// seeds are content-hashed (driver/sweep_spec.hpp), a configuration
// produces bit-identical results whether it runs in shard i/N or in an
// unsharded run — sharding changes only *where* a point executes.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "driver/sweep_spec.hpp"

namespace dsm::shard {

/// Shards (or fleet workers) per sweep; anything past this is a typo, not
/// a cluster.
constexpr unsigned kMaxShards = 256;

struct ShardPlan {
  unsigned index = 0;  ///< this worker's shard id, in [0, count)
  unsigned count = 1;  ///< total shards; 1 = the whole sweep

  /// True when spec-order position `spec_index` belongs to this shard.
  bool owns(std::size_t spec_index) const {
    return spec_index % count == index;
  }

  /// The subsequence of `points` owned by this shard, in spec order.
  /// Points keep their *global* spec indices (SpecPoint::index), so
  /// seeds, labels, and stream records are identical to an unsharded run.
  std::vector<driver::SpecPoint> select(
      const std::vector<driver::SpecPoint>& points) const;
};

/// Parses "i/N" (0-based shard index, 1 <= N <= kMaxShards, i < N).
/// Returns nullopt on malformed input.
std::optional<ShardPlan> parse_shard(const std::string& text);

/// Validates the partition property the offline merge relies on: across
/// the N shards of a `total`-point sweep, every spec index is selected by
/// exactly one shard. Returns false (never aborts) so tests can probe it;
/// structurally true for round-robin, but this is the checked contract a
/// future non-round-robin plan must also satisfy.
bool covers_exactly_once(unsigned shard_count, std::size_t total);

}  // namespace dsm::shard
