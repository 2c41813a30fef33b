#include "shard/shard_plan.hpp"

#include <vector>

#include "common/assert.hpp"
#include "common/parse.hpp"

namespace dsm::shard {

std::vector<driver::SpecPoint> ShardPlan::select(
    const std::vector<driver::SpecPoint>& points) const {
  DSM_ASSERT(count >= 1 && index < count);
  std::vector<driver::SpecPoint> out;
  out.reserve(points.size() / count + 1);
  for (const auto& pt : points) {
    // Partition by the point's own spec index, not its position: select()
    // composes (a shard of a shard stays consistent) and survives callers
    // that pre-filtered the list.
    if (owns(pt.index)) out.push_back(pt);
  }
  return out;
}

std::optional<ShardPlan> parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) return std::nullopt;
  unsigned long i = 0, n = 0;
  if (!parse_unsigned(text.substr(0, slash), 0, kMaxShards - 1, i))
    return std::nullopt;
  if (!parse_unsigned(text.substr(slash + 1), 1, kMaxShards, n))
    return std::nullopt;
  if (i >= n) return std::nullopt;
  ShardPlan plan;
  plan.index = static_cast<unsigned>(i);
  plan.count = static_cast<unsigned>(n);
  return plan;
}

bool covers_exactly_once(unsigned shard_count, std::size_t total) {
  if (shard_count < 1) return false;
  std::vector<unsigned> owners(total, 0);
  for (unsigned s = 0; s < shard_count; ++s) {
    ShardPlan plan{s, shard_count};
    for (std::size_t i = 0; i < total; ++i)
      if (plan.owns(i)) ++owners[i];
  }
  for (const unsigned n : owners)
    if (n != 1) return false;
  return true;
}

}  // namespace dsm::shard
