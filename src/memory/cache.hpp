// cache.hpp — generic set-associative cache with true-LRU replacement and
// a per-line coherence state (LineState below), used for both the L1
// (16 kB direct-mapped) and the L2 (2 MB, 8-way, 32 B lines) of Table I.
//
// The cache is *functional*: it tracks tags, LRU order, and coherence
// state. Timing is composed by the node model (memory/mem_controller.hpp,
// coherence/directory.hpp) from the configured hit latencies.
//
// Data layout: structure-of-arrays. The tag, state, and LRU lanes are
// separate dense vectors indexed by set * associativity + way, so the
// associative search of lookup()/probe() streams through the tag lane
// only — one 64-byte cache line of host memory covers a whole 8-way set
// of 8-byte tags, where the old row-major Way{tag,state,lru} records
// spread the same search over three lines. Empty ways hold kNoTag (a
// value no line-aligned address can equal), which keeps the search a
// pure tag compare with no state-lane read. A direct-mapped cache
// (associativity == 1) skips the walk entirely: the set index *is* the
// way index and the hit test is branch-free.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace dsm::mem {

/// Protocol-agnostic coherence state of a cached line. Which states are
/// reachable depends on the protocol the fabric runs (coherence/policy.hpp):
/// MSI uses {I,S,M}, MESI adds kExclusive, MOESI adds kOwned — dirty but
/// shared, the cache-to-cache forwarding source that spares the memory
/// writeback. The cache itself is policy-free: it stores whatever state the
/// fabric installs.
enum class LineState : std::uint8_t {
  kInvalid,
  kShared,
  kExclusive,
  kModified,
  kOwned,
};

/// Number of LineState values (transition tables index by state).
inline constexpr unsigned kNumLineStates = 5;

/// A line evicted to make room for an allocation.
struct Victim {
  Addr line_addr = 0;  ///< line-aligned byte address
  LineState state = LineState::kInvalid;
};

class Cache {
 public:
  /// Handle to a resident way, produced by one lookup() tag walk so callers
  /// can chain state reads, LRU touches, and state writes without paying
  /// the associative search again.
  ///
  /// The handle is a stable set/way index into the SoA lanes, not a
  /// pointer, so its validity follows the *slot*, not the container:
  ///  * touch(), set_state(), state_of(), and downgrade() never move
  ///    lines between ways — a handle (to this or any other line) stays
  ///    valid across any number of them (tested in cache_test.cpp);
  ///  * fill() of a DIFFERENT line may evict the handle's line from its
  ///    way and reuse the slot — the handle then silently denotes the
  ///    newly filled line, so drop handles across fill();
  ///  * invalidate() and flush() empty the slot — the handle becomes
  ///    falsy in meaning but not in value, so drop it there too.
  /// In short: a handle is good until the next fill()/invalidate()/
  /// flush() on this cache, and survives everything else.
  class LineRef {
   public:
    LineRef() = default;
    /// True when the line was resident (any valid state).
    explicit operator bool() const { return idx_ != kAbsent; }

   private:
    friend class Cache;
    static constexpr std::uint64_t kAbsent = ~std::uint64_t{0};
    explicit LineRef(std::uint64_t idx) : idx_(idx) {}
    std::uint64_t idx_ = kAbsent;  ///< set * associativity + way
  };

  explicit Cache(const CacheConfig& cfg);

  unsigned line_bytes() const { return cfg_.line_bytes; }
  unsigned associativity() const { return cfg_.associativity; }
  unsigned latency() const { return cfg_.latency_cycles; }

  /// Line-aligns a byte address.
  Addr line_of(Addr a) const { return a & ~static_cast<Addr>(cfg_.line_bytes - 1); }

  /// Hints the host to pull `addr`'s set into its caches: one line of the
  /// tag lane plus the set's state/LRU stripes. Pure latency hint — no
  /// simulated effect. The fabric issues this for the L2 set at the top
  /// of access() so the (host-)DRAM misses of the tag walk, the hit
  /// bookkeeping, and the directory probe overlap instead of serializing.
  void prefetch_set(Addr addr) const {
    const std::uint64_t base = set_index(line_of(addr)) * cfg_.associativity;
    __builtin_prefetch(&tags_[base]);
    __builtin_prefetch(&states_[base]);
    __builtin_prefetch(&lru_[base]);
  }

  /// Combined lookup: ONE tag walk, no LRU movement, no hit/miss counting.
  /// The returned handle is falsy when the line is absent. Pair with
  /// state_of()/touch()/set_state(LineRef)/record_miss() to express the
  /// old probe()/state()/access()/set_state(Addr) sequences with a single
  /// associative search.
  LineRef lookup(Addr addr) const { return LineRef(find(addr)); }

  /// Result of one lookup_for_fill() walk: either the line is resident
  /// (`ref` truthy) or the walk has already chosen the way fill() would
  /// allocate (`slot`) and the line that allocation would displace
  /// (`victim_line`, kNoLine when the chosen way is empty). The cursor
  /// follows the same LineRef slot rules, plus one more: the victim
  /// choice depends on the set's LRU order, so a touch() anywhere in the
  /// same set also stales `slot`/`victim_line` (fill_at asserts the tag
  /// lane still agrees, which catches structural staleness but not pure
  /// LRU movement — callers must re-walk after any same-set touch).
  struct FillCursor {
    static constexpr Addr kNoLine = ~Addr{0};
    LineRef ref;                 ///< truthy on hit
    std::uint64_t slot = 0;      ///< set*assoc+way fill would use (miss only)
    Addr victim_line = kNoLine;  ///< line fill would displace, kNoLine if none
  };

  /// Fused miss/refill walk: ONE tag+LRU pass that answers both "is the
  /// line resident?" and, when it is not, "which way will the fill take
  /// and what does it evict?" — where lookup() + fill() pay two cold-lane
  /// walks of the same set. The victim policy is bit-identical to
  /// fill()'s: first empty way, else strict min-LRU in way order (ties
  /// keep the earlier way).
  FillCursor lookup_for_fill(Addr addr) const;

  /// Allocates `addr`'s line in state `s` at the way a lookup_for_fill()
  /// miss cursor chose, returning the displaced victim exactly like
  /// fill() — without re-walking the set. Asserts the cursor is not
  /// stale (the slot still holds the victim the walk saw).
  std::optional<Victim> fill_at(const FillCursor& cur, Addr addr,
                                LineState s);

  /// Present-line state via a handle (kInvalid for a falsy handle).
  LineState state_of(LineRef ref) const {
    return ref ? states_[ref.idx_] : LineState::kInvalid;
  }

  /// Marks a resident line most-recently-used and counts a hit — the
  /// handle form of a hitting access().
  void touch(LineRef ref);

  /// Counts a miss — the handle form of a missing access().
  void record_miss() { ++misses_; }

  /// Updates the state behind a valid handle (handle form of set_state).
  void set_state(LineRef ref, LineState s);

  /// True when the line is present in any valid state. Does not touch LRU.
  bool probe(Addr addr) const { return find(addr) != LineRef::kAbsent; }

  /// Present-line state (kInvalid when absent).
  LineState state(Addr addr) const;

  /// Updates the state of a present line; no-op -> assertion when absent.
  void set_state(Addr addr, LineState s);

  /// Marks the line most-recently-used and counts a hit. Returns false
  /// (and counts a miss) when absent.
  bool access(Addr addr);

  /// Allocates the line in state `s`, evicting the LRU way if the set is
  /// full. Returns the victim when one was displaced. The line must not
  /// already be present.
  std::optional<Victim> fill(Addr addr, LineState s);

  /// Removes the line (remote invalidation / inclusion victim). Returns
  /// its prior state (kInvalid when it was absent).
  LineState invalidate(Addr addr);

  /// Handle form: invalidates the way behind `ref` (falsy → kInvalid).
  LineState invalidate(LineRef ref);

  /// Downgrades Exclusive/Modified to Shared; returns prior state.
  LineState downgrade(Addr addr);

  /// Handle form: downgrades the way behind `ref` (falsy → kInvalid).
  LineState downgrade(LineRef ref);

  /// Drops every line (used between application runs).
  void flush();

  /// Enumerates all valid line addresses in deterministic set-major order:
  /// ascending set index, ways in way order within a set.
  std::vector<Addr> resident_lines() const;

  // Statistics.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t invalidations_received() const { return invals_; }
  double hit_rate() const;

 private:
  /// Tag-lane value of an empty way. line_of() clears the low line-offset
  /// bits of every real line address, so an all-ones value can never
  /// collide with one — which lets the tag walk skip the state lane.
  static constexpr Addr kNoTag = ~Addr{0};

  std::uint64_t set_index(Addr line) const {
    return (line >> line_shift_) & (sets_ - 1);
  }

  /// Index of the way holding `addr`'s line, or LineRef::kAbsent.
  std::uint64_t find(Addr addr) const;

  CacheConfig cfg_;
  std::uint64_t sets_;
  unsigned line_shift_;
  // SoA lanes, each sets_ * associativity, indexed set * assoc + way.
  std::vector<Addr> tags_;            ///< line address, or kNoTag if empty
  std::vector<LineState> states_;          ///< kInvalid iff tags_[] == kNoTag
  std::vector<std::uint64_t> lru_;    ///< larger = more recent
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invals_ = 0;
};

}  // namespace dsm::mem
