// cache.hpp — generic set-associative cache with true-LRU replacement and
// a per-line coherence state (LineState below), used for both the L1
// (16 kB direct-mapped) and the L2 (2 MB, 8-way, 32 B lines) of Table I.
//
// The cache is *functional*: it tracks tags, LRU order, and coherence
// state. Timing is composed by the node model (memory/mem_controller.hpp,
// coherence/directory.hpp) from the configured hit latencies.
//
// Data layout: each way is one 32-bit word — its state in bits 0-2, its
// LRU rank in the next ceil(log2 ways) bits, and its key (the tag plus
// one) above those — and a set's record is its ways' words, so an 8-way
// L2 set is 32 B (two sets per 64-byte host line) and a direct-mapped L1
// set is one 4-byte word. A lookup tests four keys per host vector instruction, and
// a miss picks its victim — the first empty way, else the rank-0 way —
// in one more pass over the words the lookup just pulled into the host's
// L1. An empty way has key and state 0, so a never-touched set needs no
// initialisation: the records live in an anonymous private mapping,
// construction writes nothing, and only the pages holding sets the run
// touches become resident (a Table I L2 spans 256 KiB of records; a
// bench-scale run touches a few percent of its lines). A fill writes a
// page before it reads it, so each page faults in once, writable. Ranks
// order the ways by recency: a touch or fill moves its way to rank
// associativity-1 and lowers every rank above the way's old one, so the
// ways ever filled hold the top ranks in recency order and a full set's
// rank-0 way is its LRU way. A direct-mapped cache (associativity == 1)
// has no rank bits and skips the walk: the set index *is* the way and the
// hit test is branch-free.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.hpp"
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
  /// Most ways a set may have (match() returns one bit per way).
  static constexpr unsigned kMaxAssociativity = 32;

  /// Handle to a resident way, produced by one lookup() tag walk so callers
  /// can chain state reads, LRU touches, and state writes without paying
  /// the associative search again.
  ///
  /// The handle is the index of a way's word in the set records, not a
  /// pointer, so its validity follows the *slot*:
  ///  * touch(), set_state(), state_of(), and downgrade() never move
  ///    lines between ways — a handle (to this or any other line) stays
  ///    valid across any number of them (tested in cache_test.cpp);
  ///  * fill() of a DIFFERENT line may evict the handle's line from its
  ///    way and reuse the slot — the handle then silently denotes the
  ///    newly filled line, so drop handles across fill();
  ///  * invalidate() empties the slot — the handle becomes falsy in
  ///    meaning but not in value, so drop it there too.
  /// In short: a handle is good until the next fill()/invalidate() on
  /// this cache, and survives everything else.
  class LineRef {
   public:
    LineRef() = default;
    /// True when the line was resident (any valid state).
    explicit operator bool() const { return idx_ != kAbsent; }

   private:
    friend class Cache;
    static constexpr std::uint64_t kAbsent = ~std::uint64_t{0};
    explicit LineRef(std::uint64_t idx) : idx_(idx) {}
    std::uint64_t idx_ = kAbsent;  ///< index of the way's word
  };

  /// Maps the set records; writes none of them (see the file comment).
  /// Aborts unless the set count is a power of two and the
  /// associativity is 1..kMaxAssociativity.
  explicit Cache(const CacheConfig& cfg);

  unsigned line_bytes() const { return cfg_.line_bytes; }
  unsigned associativity() const { return cfg_.associativity; }
  unsigned latency() const { return cfg_.latency_cycles; }

  /// Line-aligns a byte address.
  Addr line_of(Addr a) const { return a & ~static_cast<Addr>(cfg_.line_bytes - 1); }

  /// Hints the host to pull `addr`'s set record into its caches. Pure
  /// latency hint — no simulated effect. The fabric issues this for the
  /// L2 set before its L1 lookup, so an L1 miss's tag walk finds the
  /// record already in flight.
  void prefetch_set(Addr addr) const {
    __builtin_prefetch(words_.get() + base(set_index(line_of(addr))));
  }

  /// Combined lookup: ONE tag walk, no LRU movement, no hit/miss counting.
  /// The returned handle is falsy when the line is absent. Pair with
  /// state_of()/touch()/set_state(LineRef)/record_miss() to express the
  /// old probe()/state()/access()/set_state(Addr) sequences with a single
  /// associative search.
  LineRef lookup(Addr addr) const {
    const Addr line = line_of(addr);
    return LineRef(find(set_index(line), key_of(line)));
  }

  /// Result of one lookup_for_fill() walk: either the line is resident
  /// (`ref` truthy) or the walk has already chosen the way fill() would
  /// allocate (`slot`) and the line that allocation would displace
  /// (`victim_line`, kNoLine when the chosen way is empty). The cursor
  /// follows the same LineRef slot rules, plus one more: the victim
  /// choice depends on the set's LRU order, so a touch() anywhere in the
  /// same set also stales `slot`/`victim_line` (fill_at asserts the slot
  /// still holds the victim, which catches structural staleness but not
  /// pure LRU movement — callers must re-walk after any same-set touch).
  struct FillCursor {
    static constexpr Addr kNoLine = ~Addr{0};
    LineRef ref;                 ///< truthy on hit
    std::uint64_t slot = 0;      ///< encoded like a LineRef (miss only)
    Addr victim_line = kNoLine;  ///< line fill would displace, kNoLine if none
    std::uint32_t key = 0;         ///< the line's key bits, for fill_at
    std::uint32_t victim_key = 0;  ///< the slot's key bits the walk saw
  };

  /// Fused miss/refill lookup: one visit to the set answers both "is the
  /// line resident?" and, when it is not, "which way will the fill take
  /// and what does it evict?" — a hit costs one pass over the set's
  /// words, a miss one more. Victim policy: the first empty way, else the
  /// least recently used one.
  FillCursor lookup_for_fill(Addr addr) const;

  /// Allocates `addr`'s line in state `s` at the way a lookup_for_fill()
  /// miss cursor chose, returning the displaced victim — without
  /// re-walking the set. Asserts the cursor is not stale (the slot still
  /// holds the victim the walk saw).
  std::optional<Victim> fill_at(const FillCursor& cur, Addr addr,
                                LineState s);

  /// Present-line state via a handle (kInvalid for a falsy handle).
  LineState state_of(LineRef ref) const {
    return ref ? static_cast<LineState>(words_.get()[ref.idx_] & kStateMask)
               : LineState::kInvalid;
  }

  /// Marks a resident line most-recently-used and counts a hit — the
  /// handle form of a hitting access().
  void touch(LineRef ref) {
    DSM_ASSERT_MSG(ref, "touch of absent line");
    if (cfg_.associativity > 1)
      promote(ref.idx_, words_.get()[ref.idx_] & ~rank_mask_);
    ++hits_;
  }

  /// Counts a miss — the handle form of a missing access().
  void record_miss() { ++misses_; }

  /// Updates the state behind a valid handle (handle form of set_state).
  void set_state(LineRef ref, LineState s);

  /// True when the line is present in any valid state. Does not touch LRU.
  bool probe(Addr addr) const { return static_cast<bool>(lookup(addr)); }

  /// Present-line state (kInvalid when absent).
  LineState state(Addr addr) const { return state_of(lookup(addr)); }

  /// Updates the state of a present line; no-op -> assertion when absent.
  void set_state(Addr addr, LineState s) { set_state(lookup(addr), s); }

  /// Marks the line most-recently-used and counts a hit. Returns false
  /// (and counts a miss) when absent.
  bool access(Addr addr);

  /// Allocates the line in state `s`, evicting the LRU way if the set is
  /// full. Returns the victim when one was displaced. The line must not
  /// already be present, and its tag must fit the key bits: the address
  /// must lie below (2^(29 - ceil(log2 ways)) - 1) x sets x line bytes,
  /// about 2^44 B for the Table I L2 and 2^43 B for its L1. Either
  /// violation aborts.
  std::optional<Victim> fill(Addr addr, LineState s);

  /// Removes the line (remote invalidation / inclusion victim). Returns
  /// its prior state (kInvalid when it was absent).
  LineState invalidate(Addr addr) { return invalidate(lookup(addr)); }

  /// Handle form: invalidates the way behind `ref` (falsy → kInvalid).
  LineState invalidate(LineRef ref);

  /// Downgrades Exclusive/Modified to Shared; returns prior state.
  LineState downgrade(Addr addr) { return downgrade(lookup(addr)); }

  /// Handle form: downgrades the way behind `ref` (falsy → kInvalid).
  LineState downgrade(LineRef ref);

  /// Enumerates all valid line addresses in deterministic set-major order:
  /// ascending set index, ways in way order within a set. Reads every
  /// set record; for tests and invariant checks.
  std::vector<Addr> resident_lines() const;

  /// Number of valid lines, kept by fill and invalidate — what
  /// resident_lines().size() would return, without the walk.
  std::uint64_t resident_count() const { return resident_; }

  // Statistics.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t invalidations_received() const { return invals_; }
  double hit_rate() const;

 private:
  /// Smallest host page size (bytes) the record pages are tracked in.
  static constexpr std::uint64_t kPageBytes = 4096;
  /// A way word's state bits; its rank bits follow, then its key bits.
  static constexpr std::uint32_t kStateMask = 7;
  static constexpr unsigned kRankShift = 3;

  /// Unmaps the set records.
  struct Unmap {
    std::size_t bytes = 0;
    void operator()(std::uint32_t* p) const;
  };

  std::uint64_t set_index(Addr line) const {
    return (line >> line_shift_) & (sets_ - 1);
  }

  /// Index of `set`'s first word. Sets of 2..4 ways span four words, so
  /// a walk's 16-byte loads stay inside the set.
  std::uint64_t base(std::uint64_t set) const { return set << stride_shift_; }

  /// Key bits of `line`: the tag plus one (so 0 marks an empty way),
  /// shifted above the rank bits. Aborts when the tag does not fit the
  /// key bits, which would alias.
  std::uint32_t key_of(Addr line) const {
    const std::uint64_t tag = line >> tag_shift_;
    DSM_ASSERT_MSG(tag < (key_mask_ >> key_shift_),
                   "line beyond the cache's tag range");
    return static_cast<std::uint32_t>(tag + 1) << key_shift_;
  }

  /// Line address held under key bits `key` in `set`.
  Addr line_at(std::uint64_t set, std::uint32_t key) const {
    return (static_cast<Addr>((key >> key_shift_) - 1) << tag_shift_) |
           (set << line_shift_);
  }

  /// Bit w set when way w of `set` holds key bits `key`. Not for a
  /// direct-mapped cache, whose one way needs no walk.
  std::uint32_t match(std::uint64_t set, std::uint32_t key) const;

  /// The way a fill of `set` takes: the first empty one, else the LRU
  /// (rank-0) one. Not for a direct-mapped cache either.
  unsigned victim_way(std::uint64_t set) const;

  /// Word index of the way holding `key` in `set`, or LineRef::kAbsent.
  /// Inline, so an L1 hit resolves without a call.
  std::uint64_t find(std::uint64_t set, std::uint32_t key) const {
    if (cfg_.associativity == 1) {
      // Direct-mapped: the set IS the way. Branch-free hit test — a miss
      // ORs the index with all-ones, which is exactly LineRef::kAbsent.
      const auto hit =
          static_cast<std::uint64_t>((words_.get()[set] & key_mask_) == key);
      return set | (hit - 1);
    }
    const std::uint32_t m = match(set, key);
    return m == 0 ? LineRef::kAbsent
                  : base(set) + static_cast<unsigned>(std::countr_zero(m));
  }

  /// Moves way `idx` to the top rank with key and state `bits`, lowering
  /// every rank above its old one. Callers skip it for a direct-mapped
  /// cache, whose one way has no order to keep.
  void promote(std::uint64_t idx, std::uint32_t bits);

  /// Writes the host page holding `set`'s record unless a fill already
  /// has. Every fill calls it before reading the set: a read of a page
  /// never written maps the shared zero page, and the fill's write would
  /// then fault a second time and flush the TLB of every CPU running
  /// another thread of this process.
  void write_page_first(std::uint64_t set) const;

  /// Puts the cursor's line in state `s` at its slot, returning the line
  /// it displaces — the tail fill() and fill_at() share.
  std::optional<Victim> install(const FillCursor& cur, LineState s);

  CacheConfig cfg_;
  std::uint64_t sets_;
  unsigned line_shift_;
  unsigned tag_shift_;     ///< line_shift_ + log2(sets_)
  unsigned stride_shift_;  ///< log2 of the words per set
  unsigned key_shift_;     ///< kRankShift + the rank bits
  std::uint32_t rank_mask_;
  std::uint32_t key_mask_;
  std::unique_ptr<std::uint32_t, Unmap> words_;
  mutable std::vector<std::uint64_t> written_pages_;  ///< one bit per page
  std::uint64_t resident_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invals_ = 0;
};

}  // namespace dsm::mem
