// directory.hpp — per-home-node full-map directory state for the MESI
// protocol (one directory slice per node of the DSM, as in DASH/Origin-
// style machines the paper's simulated architecture follows).
//
// The slice is a flat open-addressing hash table (linear probing,
// power-of-two capacity, multiplicative hashing): the directory lookup sits
// on the miss path of every simulated access, and profiling showed the old
// node-based std::unordered_map — hash-bucket pointer chasing plus one
// malloc/free per tracked line — dominating the whole simulator.
//
// Layout: structure-of-arrays. Keys live in their own dense lane (one
// 64-byte host cache line covers 8 keys) with kEmptyKey marking unused
// slots, so a probe chain touches nothing but the key lane until it
// lands; the DirEntry payloads sit in a parallel lane read only at the
// matched slot. With the old {key, used, DirEntry} records a slice's
// probe working set was 4x larger and every probe step dragged the
// payload through the host caches.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace dsm::coh {

/// Directory's view of one memory line.
struct DirEntry {
  enum class State : std::uint8_t {
    kUncached,   ///< no cache holds the line
    kShared,     ///< one or more caches hold it read-only; memory is fresh
    kExclusive,  ///< exactly one cache holds it E or M
    kOwned,      ///< MOESI only: `owner` holds it O (dirty), the other
                 ///< sharers hold S, and home memory is stale — reads are
                 ///< forwarded from the owner instead of memory
  };

  // Widest field first: in this order the entry packs into 16 bytes
  // (state first would pad it to 24).
  std::uint64_t sharers = 0;   ///< bitset over nodes (full-map)
  NodeId owner = kNoNode;      ///< valid when state == kExclusive/kOwned
  State state = State::kUncached;

  bool is_sharer(NodeId n) const { return (sharers >> n) & 1u; }
  void add_sharer(NodeId n) { sharers |= (1ull << n); }
  void remove_sharer(NodeId n) { sharers &= ~(1ull << n); }
  unsigned sharer_count() const;
};
static_assert(sizeof(DirEntry) == 16);

/// The directory slice held by one home node. Entries are created lazily;
/// an absent entry means kUncached.
class Directory {
 public:
  /// `expected_lines` pre-sizes the slice for a caller that knows how
  /// many lines it will track (a microbenchmark that times lookups in a
  /// table at steady size). 0, the default and what the fabric uses,
  /// starts small: a slice grows with the lines actually cached, and
  /// each growth rebuilds at 4x, so the rebuild count stays
  /// logarithmically small.
  explicit Directory(NodeId home, std::size_t expected_lines = 0);

  NodeId home() const { return home_; }

  /// Mutable entry (creating an Uncached one on demand). The reference is
  /// invalidated by the next entry() or erase() on this slice (the table
  /// may rebuild or shift entries) — don't hold it across either.
  DirEntry& entry(Addr line_addr);

  /// Read-only lookup; returns a value copy (Uncached default if absent).
  DirEntry peek(Addr line_addr) const;

  /// Hints the host to pull `line_addr`'s first probe slot (key and entry
  /// lanes) into its caches. Pure latency hint — no simulated effect; the
  /// fabric issues it at the top of access() so a later entry()/erase()
  /// for the line finds its slot already in flight.
  void prefetch(Addr line_addr) const {
    const std::size_t i = slot_of(line_addr);
    __builtin_prefetch(&keys_[i]);
    __builtin_prefetch(&entries_[i]);
  }

  /// Removes the entry for `line_addr` in place (no-op when absent).
  /// Backward-shift deletion closes the probe-chain gap, so the table
  /// never holds tombstones or dead entries: O(1) amortized at the
  /// <= 1/2 load entry() maintains, allocation-free, and probe chains
  /// stay as short as a freshly built table. The fabric calls this the
  /// moment a line's last cached copy disappears, which bounds slice
  /// memory to the lines actually cached.
  /// Invalidates references returned by entry().
  void erase(Addr line_addr);

  std::size_t tracked_lines() const { return size_; }

  /// Sum of sharer_count() over the live entries: the number of
  /// (node, line) pairs this slice attributes. O(capacity); for
  /// invariant checks.
  std::size_t sharer_bits() const;

  std::size_t capacity() const { return keys_.size(); }

  /// Observability hook: every entry()/erase() records its probe length
  /// (slots walked past the home slot) into `h`. A null handle — the
  /// default — costs one predicted branch per probe.
  void set_probe_histogram(obs::HistogramHandle h) { probe_hist_ = h; }

  /// Verifies the slice's open-addressing invariants and aborts on
  /// violation: load stays at or below the 1/2 entry() maintains (a full
  /// table would spin the probe loops forever), every stored key is
  /// reachable from its home slot through occupied slots only (backward-
  /// shift erase() must never break a probe chain), probe length never
  /// exceeds the live-entry count (hence never the slice capacity), and
  /// size_ matches the occupied slots. O(capacity + total probe length);
  /// for tests.
  void check_invariants() const;

 private:
  /// Key-lane value of an unused slot. Real keys are line addresses with
  /// their low (line-offset) bits clear, so all-ones can never collide.
  static constexpr Addr kEmptyKey = ~Addr{0};

  std::size_t slot_of(Addr key) const {
    // Fibonacci hash: line addresses share their low (offset) zeros, so
    // spread via the top bits of key * golden-ratio. Locality-preserving
    // variants (sequential lines -> sequential slots) were tried and lose:
    // dense per-page runs collide into long linear-probe chains.
    return static_cast<std::size_t>(
               (key * 0x9e3779b97f4a7c15ull) >>
               (64 - static_cast<unsigned>(
                         std::countr_zero(keys_.size()))));
  }
  void rebuild(std::size_t new_cap);

  NodeId home_;
  std::size_t size_ = 0;  ///< used slots
  obs::HistogramHandle probe_hist_;  ///< null unless observability is on
  // SoA lanes, same capacity: keys_[i] == kEmptyKey marks slot i unused;
  // entries_[i] is meaningful only when keys_[i] holds a line address.
  std::vector<Addr> keys_;
  std::vector<DirEntry> entries_;
};

}  // namespace dsm::coh
