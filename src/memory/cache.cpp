#include "memory/cache.hpp"

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm::mem {

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg),
      sets_(cfg.size_bytes /
            (static_cast<std::uint64_t>(cfg.line_bytes) * cfg.associativity)),
      line_shift_(log2_exact(cfg.line_bytes)),
      tags_(sets_ * cfg.associativity, kNoTag),
      states_(sets_ * cfg.associativity, LineState::kInvalid),
      lru_(sets_ * cfg.associativity, 0) {
  DSM_ASSERT(is_pow2(cfg.line_bytes));
  DSM_ASSERT(is_pow2(sets_));
  DSM_ASSERT(cfg.associativity >= 1);
}

std::uint64_t Cache::find(Addr addr) const {
  const Addr line = line_of(addr);
  const std::uint64_t set = set_index(line);
  if (cfg_.associativity == 1) {
    // Direct-mapped: the set IS the way. Branch-free hit test — a miss
    // ORs the index with all-ones, which is exactly LineRef::kAbsent.
    const auto hit = static_cast<std::uint64_t>(tags_[set] == line);
    return set | (hit - 1);
  }
  const std::uint64_t base = set * cfg_.associativity;
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    // Empty ways hold kNoTag, never equal to a line address, so the walk
    // reads only the tag lane.
    if (tags_[base + w] == line) return base + w;
  }
  return LineRef::kAbsent;
}

void Cache::touch(LineRef ref) {
  DSM_ASSERT_MSG(ref, "touch of absent line");
  lru_[ref.idx_] = ++tick_;
  ++hits_;
}

void Cache::set_state(LineRef ref, LineState s) {
  DSM_ASSERT_MSG(ref, "set_state on absent line");
  DSM_ASSERT(s != LineState::kInvalid);
  states_[ref.idx_] = s;
}

LineState Cache::state(Addr addr) const {
  const std::uint64_t i = find(addr);
  return i != LineRef::kAbsent ? states_[i] : LineState::kInvalid;
}

void Cache::set_state(Addr addr, LineState s) {
  const std::uint64_t i = find(addr);
  DSM_ASSERT_MSG(i != LineRef::kAbsent, "set_state on absent line");
  DSM_ASSERT(s != LineState::kInvalid);
  states_[i] = s;
}

bool Cache::access(Addr addr) {
  const std::uint64_t i = find(addr);
  if (i == LineRef::kAbsent) {
    ++misses_;
    return false;
  }
  lru_[i] = ++tick_;
  ++hits_;
  return true;
}

Cache::FillCursor Cache::lookup_for_fill(Addr addr) const {
  const Addr line = line_of(addr);
  const std::uint64_t set = set_index(line);
  FillCursor cur;
  if (cfg_.associativity == 1) {
    // Direct-mapped: the set IS the way — hit, victim, and fill slot all
    // name the same index, so no walk at all.
    if (tags_[set] == line) {
      cur.ref = LineRef(set);
      return cur;
    }
    cur.slot = set;
    if (states_[set] != LineState::kInvalid) cur.victim_line = tags_[set];
    return cur;
  }
  // One walk answers both questions fill() and find() used to walk for
  // separately. Victim policy must stay bit-identical to fill()'s: first
  // empty way, else strict min-LRU in way order (ties keep the earlier
  // way).
  const std::uint64_t base = set * cfg_.associativity;
  std::uint64_t victim = base;
  bool found_empty = false;
  bool have_victim = false;
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    const std::uint64_t i = base + w;
    if (tags_[i] == line) {
      cur.ref = LineRef(i);
      return cur;
    }
    if (found_empty) continue;
    if (tags_[i] == kNoTag) {
      victim = i;
      found_empty = true;
      continue;
    }
    if (!have_victim || lru_[i] < lru_[victim]) {
      victim = i;
      have_victim = true;
    }
  }
  cur.slot = victim;
  if (states_[victim] != LineState::kInvalid) cur.victim_line = tags_[victim];
  return cur;
}

std::optional<Victim> Cache::fill_at(const FillCursor& cur, Addr addr,
                                     LineState s) {
  DSM_ASSERT(s != LineState::kInvalid);
  DSM_ASSERT_MSG(!cur.ref, "fill_at with a hit cursor");
  const Addr line = line_of(addr);
  DSM_ASSERT_MSG(set_index(line) == cur.slot / cfg_.associativity,
                 "fill_at cursor from a different set");
  // Staleness tripwire: the slot must still hold exactly the victim the
  // walk saw (or still be empty). Structural changes to the set between
  // the walk and the fill would divert the victim choice; callers track
  // disturbed sets and re-walk instead of reaching here.
  DSM_ASSERT_MSG(
      tags_[cur.slot] ==
          (cur.victim_line == FillCursor::kNoLine ? kNoTag : cur.victim_line),
      "fill_at with a stale cursor");
  std::optional<Victim> out;
  if (states_[cur.slot] != LineState::kInvalid) {
    out = Victim{tags_[cur.slot], states_[cur.slot]};
    ++evictions_;
  }
  tags_[cur.slot] = line;
  states_[cur.slot] = s;
  lru_[cur.slot] = ++tick_;
  return out;
}

std::optional<Victim> Cache::fill(Addr addr, LineState s) {
  DSM_ASSERT(s != LineState::kInvalid);
  const Addr line = line_of(addr);
  const std::uint64_t base = set_index(line) * cfg_.associativity;
  // One walk serves both the absence check and the victim scan (the old
  // separate find() assert re-walked the set). Victim policy unchanged:
  // first empty way, else strict min-LRU in way order (ties keep the
  // earlier way).
  std::uint64_t victim = base;
  bool found_empty = false;
  bool have_victim = false;
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    const std::uint64_t i = base + w;
    DSM_ASSERT_MSG(tags_[i] != line, "fill of already-present line");
    if (found_empty) continue;
    if (tags_[i] == kNoTag) {
      victim = i;
      found_empty = true;
      continue;
    }
    if (!have_victim || lru_[i] < lru_[victim]) {
      victim = i;
      have_victim = true;
    }
  }
  std::optional<Victim> out;
  if (states_[victim] != LineState::kInvalid) {
    out = Victim{tags_[victim], states_[victim]};
    ++evictions_;
  }
  tags_[victim] = line;
  states_[victim] = s;
  lru_[victim] = ++tick_;
  return out;
}

LineState Cache::invalidate(Addr addr) { return invalidate(lookup(addr)); }

LineState Cache::invalidate(LineRef ref) {
  if (!ref) return LineState::kInvalid;
  const LineState prior = states_[ref.idx_];
  states_[ref.idx_] = LineState::kInvalid;
  tags_[ref.idx_] = kNoTag;
  ++invals_;
  return prior;
}

LineState Cache::downgrade(Addr addr) { return downgrade(lookup(addr)); }

LineState Cache::downgrade(LineRef ref) {
  if (!ref) return LineState::kInvalid;
  const LineState prior = states_[ref.idx_];
  if (prior == LineState::kExclusive || prior == LineState::kModified)
    states_[ref.idx_] = LineState::kShared;
  return prior;
}

void Cache::flush() {
  for (auto& s : states_) s = LineState::kInvalid;
  for (auto& t : tags_) t = kNoTag;
}

std::vector<Addr> Cache::resident_lines() const {
  std::vector<Addr> out;
  for (std::size_t i = 0; i < tags_.size(); ++i)
    if (states_[i] != LineState::kInvalid) out.push_back(tags_[i]);
  return out;
}

double Cache::hit_rate() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
}

}  // namespace dsm::mem
