// metrics.hpp — the deterministic metrics registry: named uint64 counter
// and histogram slots, registered at component construction and
// incremented on the hot path through nullable always-inline handles.
//
// Zero-cost-when-off contract: a default-constructed handle holds a null
// pointer and every operation is `if (p) ...` — one predictable branch,
// no call, no allocation. Instrumented code never checks a global flag;
// it simply holds a null handle when observability is disabled.
//
// Determinism contract: counters are incremented only at *simulated-event*
// sites (directory transitions, fills, evictions, link traversals), which
// the fabric executes in the same order regardless of --threads/--shards
// — so snapshot_json() is byte-identical across all of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#if defined(__GNUC__) || defined(__clang__)
#define DSM_OBS_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define DSM_OBS_ALWAYS_INLINE inline
#endif

namespace dsm::obs {

class MetricsRegistry;

/// Hot-path increment handle for one named counter. Copyable, 8 bytes,
/// null (no-op) by default.
class CounterHandle {
 public:
  CounterHandle() = default;
  DSM_OBS_ALWAYS_INLINE void inc() {
    if (p_ != nullptr) ++*p_;
  }
  DSM_OBS_ALWAYS_INLINE void add(std::uint64_t n) {
    if (p_ != nullptr) *p_ += n;
  }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit CounterHandle(std::uint64_t* p) : p_(p) {}
  std::uint64_t* p_ = nullptr;
};

/// Hot-path record handle for one named histogram: `buckets` consecutive
/// uint64 slots; values clamp into the last bucket. Null (no-op) by
/// default.
class HistogramHandle {
 public:
  HistogramHandle() = default;
  DSM_OBS_ALWAYS_INLINE void record(std::uint64_t v) {
    if (base_ == nullptr) return;
    ++base_[v < buckets_ - 1 ? v : buckets_ - 1];
  }
  explicit operator bool() const { return base_ != nullptr; }

 private:
  friend class MetricsRegistry;
  HistogramHandle(std::uint64_t* base, std::uint32_t buckets)
      : base_(base), buckets_(buckets) {}
  std::uint64_t* base_ = nullptr;
  std::uint32_t buckets_ = 0;
};

/// Metadata of one captured interval: which detector boundary closed it.
/// Plain data so the capture site (sim::Machine's phase-boundary hook)
/// fills it without touching registry internals.
struct IntervalMeta {
  std::uint64_t end_cycle = 0;  ///< simulated cycle the boundary closed at
  std::uint64_t seq = 0;        ///< node-local interval index just closed
  std::uint32_t node = 0;       ///< processor whose detector closed it
  std::int32_t phase = -1;      ///< detected phase id (kNoPhase when none)
};

/// One captured interval, copied out of the ring (tests / offline use —
/// allocates, never on the hot path).
struct CapturedInterval {
  IntervalMeta meta;
  std::vector<std::uint64_t> deltas;  ///< per tracked slot, snapshot order
};

class MetricsRegistry {
 public:
  /// Registers (or finds, by exact name) a counter and returns its
  /// handle. Registration order is the snapshot order, so components must
  /// register in construction order — which is deterministic. A handle
  /// stays valid for the registry's lifetime, whatever is registered
  /// after it; increments never allocate.
  CounterHandle counter(const std::string& name);

  /// Registers (or finds) a histogram of `buckets` slots (>= 1; the last
  /// bucket absorbs overflow). Re-registration must agree on the width.
  HistogramHandle histogram(const std::string& name, std::uint32_t buckets);

  /// Deterministic JSON snapshot of every metric, in registration order:
  ///   {"counters":{...},"histograms":{"name":[b0,...],...}}
  /// Identical across --threads/--shards by the determinism contract
  /// above.
  std::string snapshot_json() const;

  /// Current value of a counter by name (0 if unregistered). Tests.
  std::uint64_t value(const std::string& name) const;

  /// Bucket values of a histogram by name (empty if unregistered). Tests.
  std::vector<std::uint64_t> histogram_values(const std::string& name) const;

  std::size_t num_counters() const { return counter_names_.size(); }

  // ---- interval-scoped snapshots (the cheap epoch mechanism) ----
  //
  // enable_intervals() is called ONCE, after every registrant has
  // registered (for sim::Machine: at the end of its constructor): it
  // fixes the registered counters as the tracked slots and preallocates
  // a ring of `capacity` interval rows,
  // each one delta per tracked slot. From then on end_interval() captures
  // the per-slot deltas since the previous boundary into the next ring
  // row and re-baselines — zero allocation, O(tracked slots), executed
  // only at phase-detector interval boundaries (simulated-event sites),
  // so the captured timeline is byte-identical across
  // --threads/--shards exactly like the end-of-run snapshot.
  // A full ring overwrites the oldest row and counts it as dropped
  // (trace-ring semantics). Histograms are cumulative-only: the interval
  // timeline tracks counters, the end-of-run snapshot keeps the
  // histograms.

  /// Fixes the tracked slot set and preallocates the ring. Must be called
  /// at most once, with capacity >= 1; implies begin_interval().
  void enable_intervals(std::uint32_t capacity);
  bool intervals_enabled() const { return interval_cap_ != 0; }

  /// Re-baselines the epoch: the next end_interval() captures deltas from
  /// this point. enable_intervals() calls it; explicit calls discard the
  /// accumulation since the last boundary (rarely wanted).
  void begin_interval();

  /// Captures the per-slot deltas since the last boundary into the ring
  /// (overwriting the oldest row when full) and re-baselines.
  void end_interval(const IntervalMeta& meta);

  std::uint64_t intervals_captured() const { return interval_captured_; }
  std::uint64_t intervals_dropped() const { return interval_dropped_; }
  std::uint32_t interval_capacity() const { return interval_cap_; }

  /// Names of the tracked slots, in snapshot order (empty before
  /// enable_intervals()).
  std::vector<std::string> interval_slot_names() const;

  /// Surviving ring rows, oldest first (allocates — tests/offline only).
  std::vector<CapturedInterval> captured_intervals() const;

  /// Deltas accumulated since the last boundary (the open tail interval).
  std::vector<std::uint64_t> interval_tail() const;

  /// Deterministic JSON of the interval timeline (the record envelope's
  /// optional `obs_intervals` field):
  ///   {"slots":[names...],"capacity":C,"captured":N,"dropped":D,
  ///    "intervals":[[node,seq,phase,end_cycle,d0,d1,...],...],
  ///    "tail":[d0,d1,...]}
  /// Rows oldest first; "tail" is computed at serialization time, so
  /// summed row deltas plus the tail reconcile exactly with the
  /// end-of-run snapshot whenever dropped == 0. "" before
  /// enable_intervals().
  std::string intervals_json() const;

 private:
  /// One counter per host cache line so adjacent counters never
  /// false-share (and a hot counter stays resident while its neighbors
  /// churn). Histograms use dense slots — their buckets are accessed
  /// together anyway.
  struct alignas(64) Slot {
    std::uint64_t v = 0;
  };

  struct HistInfo {
    std::string name;
    /// Sized once at registration; a handle points at its data, which
    /// moving the HistInfo leaves in place.
    std::vector<std::uint64_t> buckets;
  };

  /// A deque: appending a counter never moves the ones handles point at.
  std::deque<Slot> slots_;
  std::vector<std::string> counter_names_;  ///< counter i is slots_[i]
  /// name -> i: counter() and value() find a name without scanning
  /// counter_names_ (the network registers 2 * nodes^2 counters).
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::vector<HistInfo> hists_;

  // Interval ring (enable_intervals). Every counter is tracked:
  // counter() refuses registrations after enable time, so the tracked
  // slots are exactly slots_.
  std::uint32_t interval_cap_ = 0;
  std::vector<std::uint64_t> baseline_;       ///< value at last boundary
  std::vector<std::uint64_t> ring_deltas_;    ///< cap × slots_.size()
  std::vector<IntervalMeta> ring_meta_;       ///< cap entries
  std::uint32_t ring_next_ = 0;
  std::uint32_t ring_count_ = 0;
  std::uint64_t interval_captured_ = 0;
  std::uint64_t interval_dropped_ = 0;
};

}  // namespace dsm::obs
