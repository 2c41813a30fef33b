#include "memory/cache.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm::mem {
namespace {

/// Four way words, tested in one host vector instruction.
using Words4 = std::uint32_t __attribute__((vector_size(16)));
using Signed4 = std::int32_t __attribute__((vector_size(16)));

/// All-ones in the lanes where `a` equals `b`.
Words4 eq(Words4 a, std::uint32_t b) { return reinterpret_cast<Words4>(a == b); }

/// All-ones in the lanes where `a` exceeds `b`; both below 2^31.
Words4 gt(Words4 a, std::uint32_t b) {
  return reinterpret_cast<Words4>(reinterpret_cast<Signed4>(a) >
                                  static_cast<std::int32_t>(b));
}

/// OR of the four lanes.
std::uint32_t any(Words4 v) {
  v |= __builtin_shufflevector(v, v, 2, 3, 0, 1);
  v |= __builtin_shufflevector(v, v, 1, 0, 3, 2);
  return v[0];
}

/// Maps `bytes` of zero-filled pages: every set starts empty with all
/// ranks 0, and only the pages a run writes are ever backed.
std::uint32_t* map_zeroed(std::size_t bytes) {
  void* const p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  DSM_ASSERT_MSG(p != MAP_FAILED, "cannot map the cache sets");
  return static_cast<std::uint32_t*>(p);
}

}  // namespace

void Cache::Unmap::operator()(std::uint32_t* p) const { munmap(p, bytes); }

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg),
      sets_(cfg.size_bytes /
            (static_cast<std::uint64_t>(cfg.line_bytes) * cfg.associativity)),
      line_shift_(log2_exact(cfg.line_bytes)),
      tag_shift_(line_shift_ + log2_exact(sets_)),
      stride_shift_(cfg.associativity == 1
                        ? 0
                        : log2_exact(ceil_pow2(std::max(cfg.associativity, 4u)))),
      key_shift_(kRankShift + log2_exact(ceil_pow2(cfg.associativity))),
      rank_mask_(((1u << key_shift_) - 1) & ~kStateMask),
      key_mask_(~0u << key_shift_),
      words_(map_zeroed(4 * (sets_ << stride_shift_)),
             Unmap{4 * (sets_ << stride_shift_)}),
      written_pages_(ceil_div(4 * (sets_ << stride_shift_), 64 * kPageBytes)) {
  DSM_ASSERT(is_pow2(cfg.line_bytes));
  DSM_ASSERT(is_pow2(sets_));
  DSM_ASSERT(cfg.associativity >= 1 &&
             cfg.associativity <= kMaxAssociativity);
}

void Cache::write_page_first(std::uint64_t set) const {
  const std::uint64_t page = 4 * base(set) / kPageBytes;
  std::uint64_t& bits = written_pages_[page / 64];
  const std::uint64_t bit = std::uint64_t{1} << (page % 64);
  if ((bits & bit) != 0) return;
  bits |= bit;
  // The page is still all zeros, so storing a zero changes nothing but
  // faults it in writable.
  *reinterpret_cast<volatile std::uint32_t*>(words_.get() + base(set)) = 0;
}

std::uint32_t Cache::match(std::uint64_t set, std::uint32_t key) const {
  const std::uint32_t* const w = words_.get() + base(set);
  const std::uint32_t key_mask = key_mask_;
  Words4 bit = {1, 2, 4, 8};
  Words4 hit = {};
  for (unsigned g = 0; 4 * g < cfg_.associativity; ++g, bit <<= 4) {
    Words4 v;
    std::memcpy(&v, w + 4 * g, sizeof v);
    hit |= eq(v & key_mask, key) & bit;
  }
  return any(hit);  // lanes past the last way are zero: never a key
}

unsigned Cache::victim_way(std::uint64_t set) const {
  const std::uint32_t* const w = words_.get() + base(set);
  const unsigned assoc = cfg_.associativity;
  const std::uint32_t key_mask = key_mask_, rank_mask = rank_mask_;
  // One pass finds the empty ways and the rank-0 ways; the mask drops
  // the zero words past the last way from both.
  Words4 bit = {1, 2, 4, 8};
  Words4 empty = {}, lru = {};
  for (unsigned g = 0; 4 * g < assoc; ++g, bit <<= 4) {
    Words4 v;
    std::memcpy(&v, w + 4 * g, sizeof v);
    empty |= eq(v & key_mask, 0) & bit;
    lru |= eq(v & rank_mask, 0) & bit;
  }
  const std::uint32_t ways = ~0u >> (32 - assoc);
  const std::uint32_t e = any(empty) & ways;
  return static_cast<unsigned>(std::countr_zero(e != 0 ? e : any(lru) & ways));
}

void Cache::promote(std::uint64_t idx, std::uint32_t bits) {
  const std::uint64_t stride_mask = (std::uint64_t{1} << stride_shift_) - 1;
  std::uint32_t* const w = words_.get() + (idx & ~stride_mask);
  const unsigned assoc = cfg_.associativity, way = idx & stride_mask;
  const std::uint32_t rank_mask = rank_mask_, old = w[way] & rank_mask;
  // Every rank above the way's old one drops by one; a rank above 0 has
  // a set bit to borrow from, so the subtraction stays in the rank bits.
  for (unsigned g = 0; 4 * g < assoc; ++g) {
    Words4 v;
    std::memcpy(&v, w + 4 * g, sizeof v);
    v -= gt(v & rank_mask, old) & (1u << kRankShift);
    std::memcpy(w + 4 * g, &v, sizeof v);
  }
  w[way] = bits | ((assoc - 1) << kRankShift);
}

void Cache::set_state(LineRef ref, LineState s) {
  DSM_ASSERT_MSG(ref, "set_state on absent line");
  DSM_ASSERT(s != LineState::kInvalid);
  std::uint32_t& w = words_.get()[ref.idx_];
  w = (w & ~kStateMask) | static_cast<std::uint32_t>(s);
}

bool Cache::access(Addr addr) {
  const LineRef ref = lookup(addr);
  if (!ref) {
    ++misses_;
    return false;
  }
  touch(ref);
  return true;
}

Cache::FillCursor Cache::lookup_for_fill(Addr addr) const {
  const Addr line = line_of(addr);
  const std::uint64_t set = set_index(line);
  write_page_first(set);
  FillCursor cur;
  cur.key = key_of(line);
  if (const std::uint64_t hit = find(set, cur.key); hit != LineRef::kAbsent) {
    cur.ref = LineRef(hit);
    return cur;
  }
  cur.slot = base(set) + (cfg_.associativity == 1 ? 0 : victim_way(set));
  cur.victim_key = words_.get()[cur.slot] & key_mask_;
  if (cur.victim_key != 0) cur.victim_line = line_at(set, cur.victim_key);
  return cur;
}

std::optional<Victim> Cache::fill_at(const FillCursor& cur, Addr addr,
                                     LineState s) {
  DSM_ASSERT_MSG(!cur.ref, "fill_at with a hit cursor");
  DSM_ASSERT_MSG(set_index(line_of(addr)) == cur.slot >> stride_shift_,
                 "fill_at cursor from a different set");
  // Staleness tripwire: the slot must still hold exactly the victim the
  // walk saw (or still be empty). Structural changes to the set between
  // the walk and the fill would divert the victim choice; callers track
  // disturbed sets and re-walk instead of reaching here.
  DSM_ASSERT_MSG((words_.get()[cur.slot] & key_mask_) == cur.victim_key,
                 "fill_at with a stale cursor");
  return install(cur, s);
}

std::optional<Victim> Cache::fill(Addr addr, LineState s) {
  const FillCursor cur = lookup_for_fill(addr);
  DSM_ASSERT_MSG(!cur.ref, "fill of already-present line");
  return install(cur, s);
}

inline std::optional<Victim> Cache::install(const FillCursor& cur,
                                            LineState s) {
  DSM_ASSERT(s != LineState::kInvalid);
  std::uint32_t& w = words_.get()[cur.slot];
  std::optional<Victim> out;
  if (cur.victim_key != 0) {
    out = Victim{cur.victim_line, static_cast<LineState>(w & kStateMask)};
    ++evictions_;
  } else {
    ++resident_;
  }
  const std::uint32_t bits = cur.key | static_cast<std::uint32_t>(s);
  if (cfg_.associativity > 1)
    promote(cur.slot, bits);
  else
    w = bits;
  return out;
}

LineState Cache::invalidate(LineRef ref) {
  if (!ref) return LineState::kInvalid;
  std::uint32_t& w = words_.get()[ref.idx_];
  const auto prior = static_cast<LineState>(w & kStateMask);
  w &= rank_mask_;  // the rank stays: the ranks keep their order
  ++invals_;
  --resident_;
  return prior;
}

LineState Cache::downgrade(LineRef ref) {
  const LineState prior = state_of(ref);
  if (prior == LineState::kExclusive || prior == LineState::kModified)
    set_state(ref, LineState::kShared);
  return prior;
}

std::vector<Addr> Cache::resident_lines() const {
  std::vector<Addr> out;
  for (std::uint64_t set = 0; set < sets_; ++set) {
    const std::uint32_t* const w = words_.get() + base(set);
    for (unsigned way = 0; way < cfg_.associativity; ++way)
      if ((w[way] & key_mask_) != 0)
        out.push_back(line_at(set, w[way] & key_mask_));
  }
  return out;
}

double Cache::hit_rate() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
}

}  // namespace dsm::mem
