#include "memory/cache.hpp"

#include <sys/mman.h>

#include <bit>
#include <cstring>

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm::mem {
namespace {

/// Four keys, compared in one host vector instruction.
using Keys4 = std::uint32_t __attribute__((vector_size(16)));

constexpr std::uint64_t kByteOnes = 0x0101010101010101ull;
constexpr std::uint64_t kByteHighs = 0x8080808080808080ull;

/// Maps `bytes` of zero-filled pages: every set starts empty with all
/// ranks 0, and only the pages a run writes are ever backed.
std::byte* map_zeroed(std::size_t bytes) {
  void* const p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  DSM_ASSERT_MSG(p != MAP_FAILED, "cannot map the cache sets");
  return static_cast<std::byte*>(p);
}

}  // namespace

void Cache::Unmap::operator()(std::byte* p) const { munmap(p, bytes); }

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg),
      sets_(cfg.size_bytes /
            (static_cast<std::uint64_t>(cfg.line_bytes) * cfg.associativity)),
      line_shift_(log2_exact(cfg.line_bytes)),
      tag_shift_(line_shift_ + log2_exact(sets_)),
      states_at_(4 * cfg.associativity),
      ranks_at_(static_cast<unsigned>(align_up(5 * cfg.associativity, 8))),
      stride_shift_(
          log2_exact(ceil_pow2(ranks_at_ + align_up(cfg.associativity, 8)))),
      sets_mem_(map_zeroed(sets_ << stride_shift_),
                Unmap{sets_ << stride_shift_}),
      written_pages_(ceil_div(sets_ << stride_shift_, 64 * kPageBytes)) {
  DSM_ASSERT(is_pow2(cfg.line_bytes));
  DSM_ASSERT(is_pow2(sets_));
  DSM_ASSERT(cfg.associativity >= 1 &&
             cfg.associativity <= kMaxAssociativity);
}

void Cache::write_page_first(std::uint64_t set) const {
  const std::uint64_t page = (set << stride_shift_) / kPageBytes;
  std::uint64_t& bits = written_pages_[page / 64];
  const std::uint64_t bit = std::uint64_t{1} << (page % 64);
  if ((bits & bit) != 0) return;
  bits |= bit;
  // The page is still all zeros, so storing a zero changes nothing but
  // faults it in writable.
  *reinterpret_cast<volatile std::byte*>(record(set)) = std::byte{0};
}

std::uint32_t Cache::match(std::uint64_t set, std::uint32_t key) const {
  const std::byte* const k = record(set);
  const unsigned assoc = cfg_.associativity;
  const Keys4 want = {key, key, key, key};
  Keys4 bit = {1, 2, 4, 8};
  Keys4 hits = {0, 0, 0, 0};
  for (unsigned g = 0; 4 * g < assoc; ++g, bit <<= 4) {
    Keys4 v;
    std::memcpy(&v, k + 16 * g, sizeof v);
    hits |= reinterpret_cast<Keys4>(v == want) & bit;
  }
  return (hits[0] | hits[1] | hits[2] | hits[3]) & (~0u >> (32 - assoc));
}

std::uint64_t Cache::find(std::uint64_t set, std::uint32_t key) const {
  if (cfg_.associativity == 1) {
    // Direct-mapped: the set IS the way. Branch-free hit test — a miss
    // ORs the index with all-ones, which is exactly LineRef::kAbsent.
    const auto hit = static_cast<std::uint64_t>(keys(set)[0] == key);
    return handle(set, 0) | (hit - 1);
  }
  const std::uint32_t m = match(set, key);
  return m == 0 ? LineRef::kAbsent
                : handle(set, static_cast<unsigned>(std::countr_zero(m)));
}

unsigned Cache::victim_way(std::uint64_t set) const {
  const unsigned assoc = cfg_.associativity;
  if (assoc == 1) return 0;
  if (const std::uint32_t empty = match(set, 0); empty != 0)
    return static_cast<unsigned>(std::countr_zero(empty));
  // A full set's ranks are a permutation: find its one zero byte. Padding
  // ranks are zero too, but follow every real way.
  const std::uint8_t* const r = ranks(set);
  for (unsigned i = 0;; ++i) {
    std::uint64_t w;
    std::memcpy(&w, r + 8 * i, sizeof w);
    const std::uint64_t zero = (w - kByteOnes) & ~w & kByteHighs;
    if (zero != 0)
      return 8 * i + static_cast<unsigned>(std::countr_zero(zero)) / 8;
  }
}

void Cache::promote(std::uint64_t set, unsigned way) {
  const unsigned assoc = cfg_.associativity;
  std::uint8_t* const r = ranks(set);
  // Ranks are below 32, so OR-ing in each byte's high bit before the
  // subtraction keeps every borrow inside its byte: a byte keeps its high
  // bit exactly when its rank is above the promoted way's old one.
  const std::uint64_t minus = (std::uint64_t{r[way]} + 1) * kByteOnes;
  const unsigned shift = 8 * (way % 8);
  for (unsigned i = 0; 8 * i < assoc; ++i) {
    std::uint64_t w;
    std::memcpy(&w, r + 8 * i, sizeof w);
    w -= (((w | kByteHighs) - minus) & kByteHighs) >> 7;
    if (i == way / 8)
      w = (w & ~(std::uint64_t{0xff} << shift)) |
          (std::uint64_t{assoc - 1} << shift);
    std::memcpy(r + 8 * i, &w, sizeof w);
  }
}

std::optional<Victim> Cache::install(std::uint64_t set, unsigned way,
                                     std::uint32_t key, LineState s) {
  std::uint32_t& k = keys(set)[way];
  LineState& st = states(set)[way];
  std::optional<Victim> out;
  if (k != 0) {
    out = Victim{line_at(set, k), st};
    ++evictions_;
  } else {
    ++resident_;
  }
  k = key;
  st = s;
  if (cfg_.associativity > 1) promote(set, way);
  return out;
}

void Cache::set_state(LineRef ref, LineState s) {
  DSM_ASSERT_MSG(ref, "set_state on absent line");
  DSM_ASSERT(s != LineState::kInvalid);
  state_at(ref.idx_) = s;
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
  cur.ref = LineRef(find(set, key_of(line)));
  if (cur.ref) return cur;
  const unsigned way = victim_way(set);
  cur.slot = handle(set, way);
  if (const std::uint32_t k = keys(set)[way]; k != 0)
    cur.victim_line = line_at(set, k);
  return cur;
}

std::optional<Victim> Cache::fill_at(const FillCursor& cur, Addr addr,
                                     LineState s) {
  DSM_ASSERT(s != LineState::kInvalid);
  DSM_ASSERT_MSG(!cur.ref, "fill_at with a hit cursor");
  const Addr line = line_of(addr);
  const std::uint64_t set = cur.slot >> stride_shift_;
  const unsigned way = way_of(cur.slot);
  DSM_ASSERT_MSG(set_index(line) == set, "fill_at cursor from a different set");
  // Staleness tripwire: the slot must still hold exactly the victim the
  // walk saw (or still be empty). Structural changes to the set between
  // the walk and the fill would divert the victim choice; callers track
  // disturbed sets and re-walk instead of reaching here.
  const std::uint32_t k = keys(set)[way];
  DSM_ASSERT_MSG(
      (k == 0 ? FillCursor::kNoLine : line_at(set, k)) == cur.victim_line,
      "fill_at with a stale cursor");
  return install(set, way, key_of(line), s);
}

std::optional<Victim> Cache::fill(Addr addr, LineState s) {
  DSM_ASSERT(s != LineState::kInvalid);
  const Addr line = line_of(addr);
  const std::uint64_t set = set_index(line);
  write_page_first(set);
  const std::uint32_t key = key_of(line);
  DSM_ASSERT_MSG(find(set, key) == LineRef::kAbsent,
                 "fill of already-present line");
  return install(set, victim_way(set), key, s);
}

LineState Cache::invalidate(LineRef ref) {
  if (!ref) return LineState::kInvalid;
  LineState& st = state_at(ref.idx_);
  const LineState prior = st;
  st = LineState::kInvalid;
  keys(ref.idx_ >> stride_shift_)[way_of(ref.idx_)] = 0;
  ++invals_;
  --resident_;
  return prior;
}

LineState Cache::downgrade(LineRef ref) {
  if (!ref) return LineState::kInvalid;
  LineState& s = state_at(ref.idx_);
  const LineState prior = s;
  if (prior == LineState::kExclusive || prior == LineState::kModified)
    s = LineState::kShared;
  return prior;
}

std::vector<Addr> Cache::resident_lines() const {
  std::vector<Addr> out;
  for (std::uint64_t set = 0; set < sets_; ++set) {
    const std::uint32_t* const k = keys(set);
    for (unsigned w = 0; w < cfg_.associativity; ++w)
      if (k[w] != 0) out.push_back(line_at(set, k[w]));
  }
  return out;
}

double Cache::hit_rate() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
}

}  // namespace dsm::mem
