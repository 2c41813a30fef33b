#include "coherence/directory.hpp"

#include <bit>

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm::coh {

namespace {
/// Initial slot count per slice: small enough to be free at 64 nodes,
/// large enough that short runs never rebuild.
constexpr std::size_t kInitialSlots = 1024;

/// Pre-size ceiling: 2^20 slots keeps a deliberately oversized hint from
/// committing more than ~24 MB of lanes per slice up front; a genuinely
/// larger working set still grows normally from there.
constexpr std::size_t kMaxPresizeSlots = std::size_t{1} << 20;

/// Capacity for `expected_lines` entries at the <= 1/2 load entry()
/// maintains: next power of two at or above 2x the expectation.
std::size_t presize_slots(std::size_t expected_lines) {
  if (expected_lines == 0) return kInitialSlots;
  std::size_t cap = std::bit_ceil(expected_lines * 2);
  if (cap < kInitialSlots) cap = kInitialSlots;
  if (cap > kMaxPresizeSlots) cap = kMaxPresizeSlots;
  return cap;
}
}  // namespace

unsigned DirEntry::sharer_count() const {
  return static_cast<unsigned>(std::popcount(sharers));
}

Directory::Directory(NodeId home, std::size_t expected_lines)
    : home_(home),
      keys_(presize_slots(expected_lines), kEmptyKey),
      entries_(keys_.size()) {}

DirEntry& Directory::entry(Addr line_addr) {
  DSM_ASSERT(line_addr != kEmptyKey);
  // Keep load below 1/2 before probing so the returned reference is not
  // invalidated by this call's own insert. Growth doubles (see the
  // header's sizing note).
  if ((size_ + 1) * 2 > keys_.size()) rebuild(keys_.size() * 2);
  const std::size_t start = slot_of(line_addr);
  const std::size_t mask = keys_.size() - 1;
  std::size_t i = start;
  while (keys_[i] != kEmptyKey) {
    if (keys_[i] == line_addr) {
      probe_hist_.record((i - start) & mask);
      return entries_[i];
    }
    i = (i + 1) & mask;
  }
  probe_hist_.record((i - start) & mask);
  keys_[i] = line_addr;
  entries_[i] = DirEntry{};
  ++size_;
  return entries_[i];
}

DirEntry Directory::peek(Addr line_addr) const {
  std::size_t i = slot_of(line_addr);
  const std::size_t mask = keys_.size() - 1;
  while (keys_[i] != kEmptyKey) {
    if (keys_[i] == line_addr) return entries_[i];
    i = (i + 1) & mask;
  }
  return DirEntry{};
}

void Directory::erase(Addr line_addr) {
  const std::size_t mask = keys_.size() - 1;
  const std::size_t start = slot_of(line_addr);
  std::size_t i = start;
  while (keys_[i] != kEmptyKey && keys_[i] != line_addr) i = (i + 1) & mask;
  probe_hist_.record((i - start) & mask);
  if (keys_[i] == kEmptyKey) return;  // absent
  // Backward-shift deletion (Knuth 6.4 R): walk the cluster after the
  // hole; an element whose home slot lies cyclically outside (hole, j]
  // probed through the hole to reach j, so it must slide back into it.
  std::size_t hole = i;
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    if (keys_[j] == kEmptyKey) break;
    const std::size_t h = slot_of(keys_[j]);
    const bool passes_hole =
        hole <= j ? (h <= hole || h > j) : (h <= hole && h > j);
    if (passes_hole) {
      keys_[hole] = keys_[j];
      entries_[hole] = entries_[j];
      hole = j;
    }
  }
  keys_[hole] = kEmptyKey;
  --size_;
}

void Directory::rebuild(std::size_t new_cap) {
  DSM_ASSERT(is_pow2(new_cap) && new_cap >= size_ * 2);
  // Called only to grow, so the old lanes are never reused: rehash out
  // of them, then free them.
  std::vector<Addr> old_keys(new_cap, kEmptyKey);
  std::vector<DirEntry> old_entries(new_cap);
  old_keys.swap(keys_);
  old_entries.swap(entries_);
  const std::size_t mask = new_cap - 1;
  for (std::size_t s = 0; s < old_keys.size(); ++s) {
    if (old_keys[s] == kEmptyKey) continue;
    std::size_t i = slot_of(old_keys[s]);
    while (keys_[i] != kEmptyKey) i = (i + 1) & mask;
    keys_[i] = old_keys[s];
    entries_[i] = old_entries[s];
  }
}

void Directory::check_invariants() const {
  const std::size_t cap = keys_.size();
  DSM_ASSERT_MSG(is_pow2(cap), "slice capacity must be a power of two");
  // A table at or past half load would let entry()'s insert walk
  // arbitrarily far — and a FULL table would spin the probe loops
  // forever. entry() grows before this can happen; erase() only shrinks
  // the load. (size_ == number of live keys, checked below.)
  DSM_ASSERT_MSG(size_ * 2 <= cap, "slice load exceeds 1/2");
  const std::size_t mask = cap - 1;
  std::size_t used = 0;
  for (std::size_t i = 0; i < cap; ++i) {
    if (keys_[i] == kEmptyKey) continue;
    ++used;
    // The probe length of keys_[i] — its cyclic distance from its home
    // slot — can never exceed the live-entry count (a linear-probe chain
    // is a run of occupied slots), let alone the slice capacity.
    const std::size_t home = slot_of(keys_[i]);
    const std::size_t dist = (i - home) & mask;
    DSM_ASSERT_MSG(dist <= size_, "probe length exceeds live entries");
    DSM_ASSERT_MSG(dist < cap, "probe length exceeds slice capacity");
    // Findability: the chain from the home slot must reach slot i
    // without crossing an empty slot, or entry()/peek()/erase() would
    // miss a stored key — the failure a buggy backward-shift causes.
    for (std::size_t j = home; j != i; j = (j + 1) & mask)
      DSM_ASSERT_MSG(keys_[j] != kEmptyKey,
                     "probe chain to a live key crosses an empty slot");
  }
  DSM_ASSERT_MSG(used == size_, "size_ disagrees with occupied slots");
}

}  // namespace dsm::coh
