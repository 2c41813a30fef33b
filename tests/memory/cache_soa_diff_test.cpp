// cache_soa_diff_test.cpp — randomized differential test of the SoA
// Cache against a retained reference implementation of the pre-PR-5
// AoS (row-major Way{tag, state, lru}) walk. ~1M mixed operations per
// geometry replay the exact call patterns CoherenceFabric::access makes
// — lookup/touch/set_state chains, fills with victim extraction,
// invalidations, downgrades — and every observable (hit/miss/eviction/
// invalidation counters, victim identity and state, per-line states,
// resident-line sets) must stay identical throughout. The reference is
// the old code verbatim (modulo test-local naming), so any divergence in
// the way-word walk, the all-zero empty way, the LRU ranks, the
// direct-mapped fast path, or the fused fill victim scan fails here with
// the operation index.
#include "memory/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hpp"

namespace dsm::mem {
namespace {

// ---- reference: the old AoS cache, retained verbatim ----

class RefCache {
 public:
  explicit RefCache(const CacheConfig& cfg)
      : cfg_(cfg),
        sets_(cfg.size_bytes /
              (static_cast<std::uint64_t>(cfg.line_bytes) *
               cfg.associativity)),
        ways_(sets_ * cfg.associativity) {
    unsigned shift = 0;
    while ((1u << shift) < cfg.line_bytes) ++shift;
    line_shift_ = shift;
  }

  Addr line_of(Addr a) const {
    return a & ~static_cast<Addr>(cfg_.line_bytes - 1);
  }

  LineState state(Addr addr) const {
    const Way* w = find(addr);
    return w ? w->state : LineState::kInvalid;
  }

  bool probe(Addr addr) const { return find(addr) != nullptr; }

  bool access(Addr addr) {
    Way* w = find(addr);
    if (w == nullptr) {
      ++misses_;
      return false;
    }
    w->lru = ++tick_;
    ++hits_;
    return true;
  }

  void set_state(Addr addr, LineState s) {
    Way* w = find(addr);
    ASSERT_TRUE(w != nullptr);
    w->state = s;
  }

  std::optional<Victim> fill(Addr addr, LineState s) {
    const Addr line = line_of(addr);
    Way* base = &ways_[set_index(line) * cfg_.associativity];
    Way* victim = nullptr;
    for (unsigned w = 0; w < cfg_.associativity; ++w) {
      if (base[w].state == LineState::kInvalid) {
        victim = &base[w];
        break;
      }
      if (victim == nullptr || base[w].lru < victim->lru) victim = &base[w];
    }
    std::optional<Victim> out;
    if (victim->state != LineState::kInvalid) {
      out = Victim{victim->tag, victim->state};
      ++evictions_;
    }
    victim->tag = line;
    victim->state = s;
    victim->lru = ++tick_;
    return out;
  }

  LineState invalidate(Addr addr) {
    Way* w = find(addr);
    if (w == nullptr) return LineState::kInvalid;
    const LineState prior = w->state;
    w->state = LineState::kInvalid;
    ++invals_;
    return prior;
  }

  LineState downgrade(Addr addr) {
    Way* w = find(addr);
    if (w == nullptr) return LineState::kInvalid;
    const LineState prior = w->state;
    if (prior == LineState::kExclusive || prior == LineState::kModified)
      w->state = LineState::kShared;
    return prior;
  }

  std::vector<Addr> resident_lines() const {
    std::vector<Addr> out;
    for (const auto& w : ways_)
      if (w.state != LineState::kInvalid) out.push_back(w.tag);
    return out;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t invalidations_received() const { return invals_; }

 private:
  struct Way {
    Addr tag = 0;
    LineState state = LineState::kInvalid;
    std::uint64_t lru = 0;
  };

  std::uint64_t set_index(Addr line) const {
    return (line >> line_shift_) & (sets_ - 1);
  }

  Way* find(Addr addr) {
    const Addr line = line_of(addr);
    Way* base = &ways_[set_index(line) * cfg_.associativity];
    for (unsigned w = 0; w < cfg_.associativity; ++w) {
      if (base[w].state != LineState::kInvalid && base[w].tag == line)
        return &base[w];
    }
    return nullptr;
  }
  const Way* find(Addr addr) const {
    return const_cast<RefCache*>(this)->find(addr);
  }

  CacheConfig cfg_;
  std::uint64_t sets_;
  unsigned line_shift_ = 0;
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invals_ = 0;
};

// ---- the differential driver ----

CacheConfig geometry(std::uint64_t bytes, unsigned assoc, unsigned line) {
  CacheConfig c;
  c.size_bytes = bytes;
  c.associativity = assoc;
  c.line_bytes = line;
  c.latency_cycles = 1;
  return c;
}

void run_diff(const CacheConfig& cfg, std::uint64_t ops, std::uint64_t seed) {
  Cache soa(cfg);
  RefCache ref(cfg);
  std::uint64_t x = seed;
  auto rnd = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const std::uint64_t lines = 4 * cfg.size_bytes / cfg.line_bytes;
  const LineState states[3] = {LineState::kShared, LineState::kExclusive, LineState::kModified};

  for (std::uint64_t i = 0; i < ops; ++i) {
    const Addr a = (rnd() % lines) * cfg.line_bytes + (rnd() % cfg.line_bytes);
    const unsigned op = rnd() % 16;
    if (op < 6) {
      // The fabric's hit pattern: one lookup, then state read + touch or
      // miss counting, with an optional write upgrade.
      const auto h = soa.lookup(a);
      const LineState want = ref.state(a);
      ASSERT_EQ(soa.state_of(h), want) << "op " << i;
      if (want != LineState::kInvalid) {
        ref.access(a);
        soa.touch(h);
        if ((rnd() & 1) != 0 && want != LineState::kInvalid) {
          ref.set_state(a, LineState::kModified);
          soa.set_state(h, LineState::kModified);
        }
      } else {
        ref.access(a);
        soa.record_miss();
      }
    } else if (op < 11) {
      // Fill-if-absent with a random grant state; victims must agree in
      // identity AND dirtiness — the writeback path hangs off both.
      if (!ref.probe(a)) {
        const LineState s = states[rnd() % 3];
        const auto vr = ref.fill(a, s);
        const auto vs = soa.fill(a, s);
        ASSERT_EQ(vr.has_value(), vs.has_value()) << "op " << i;
        if (vr) {
          ASSERT_EQ(vr->line_addr, vs->line_addr) << "op " << i;
          ASSERT_EQ(vr->state, vs->state) << "op " << i;
        }
      }
    } else if (op < 13) {
      ASSERT_EQ(ref.invalidate(a), soa.invalidate(soa.lookup(a))) << "op " << i;
    } else if (op < 15) {
      ASSERT_EQ(ref.downgrade(a), soa.downgrade(soa.lookup(a))) << "op " << i;
    } else {
      ASSERT_EQ(ref.probe(a), static_cast<bool>(soa.lookup(a))) << "op " << i;
    }

    ASSERT_EQ(ref.hits(), soa.hits()) << "op " << i;
    ASSERT_EQ(ref.misses(), soa.misses()) << "op " << i;
    ASSERT_EQ(ref.evictions(), soa.evictions()) << "op " << i;
    ASSERT_EQ(ref.invalidations_received(), soa.invalidations_received())
        << "op " << i;
  }

  // Full content + LRU-order equivalence at the end. resident_lines() is
  // set-major in both implementations, so the sequences must match
  // element for element, not just as sets.
  const auto lr = ref.resident_lines();
  const auto ls = soa.resident_lines();
  ASSERT_EQ(lr.size(), ls.size());
  for (std::size_t i = 0; i < lr.size(); ++i) {
    ASSERT_EQ(lr[i], ls[i]) << "slot " << i;
    ASSERT_EQ(ref.state(lr[i]), soa.state(ls[i]));
  }
}

TEST(CacheSoaDiffTest, DirectMappedL1Geometry) {
  // Table I L1 shape (16 kB direct-mapped): exercises the branch-free
  // fast path.
  run_diff(geometry(16 * 1024, 1, 32), 500'000, 0x2545F4914F6CDD1Dull);
}

TEST(CacheSoaDiffTest, EightWayL2Geometry) {
  // L2 shape shrunk (8-way, 32 B lines): exercises the tag-lane walk and
  // the fused victim scan under constant eviction pressure.
  run_diff(geometry(64 * 1024, 8, 32), 500'000, 0xA3C59AC2ED1B54A3ull);
}

TEST(CacheSoaDiffTest, ThirtyTwoWayGeometry) {
  // The widest set: a 5-bit rank field and eight four-word groups per
  // walk and rank update.
  run_diff(geometry(64 * 1024, 32, 32), 200'000, 0xD6E8FEB86659FD93ull);
}

TEST(CacheSoaDiffTest, OddAssociativityGeometry) {
  // Non-power-of-two ways: the lane indexing must not assume pow2 assoc.
  run_diff(geometry(12 * 1024, 3, 64), 100'000, 0x9E3779B97F4A7C15ull);
}

}  // namespace
}  // namespace dsm::mem
