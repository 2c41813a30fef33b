// lease.hpp — the coordinator's work-distribution and failure-detection
// state: which spec indices are pending, leased, or done, which worker
// holds each outstanding lease, and when a silent worker must be declared
// dead.
//
// All time is an injected millisecond counter (the coordinator feeds a
// steady clock, tests feed a fake one), so deadline math and
// expiry/backoff behavior are unit-testable without a single real sleep.
// The table knows nothing about processes or sockets — the coordinator
// owns those and asks the table three questions: "what should worker W
// run next?" (grant), "who missed their heartbeat deadline?" (expired),
// and "is the sweep drained?" (all_done).
//
// Leases are ranges of *global spec indices* over the expanded sweep.
// Because per-point seeds are content-hashed (driver/sweep_spec.hpp), a
// point produces bit-identical records no matter which worker runs it or
// how many times it is re-leased after a death — which is why re-issuing
// an expired lease to a survivor cannot change the merged bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

namespace dsm::shard {

/// Times a dead worker slot is respawned before the fleet shrinks for
/// good. Survivors still drain the released work either way.
constexpr unsigned kMaxRespawns = 3;

/// Fleet timing knobs. The bench command line sets all but lease_chunk,
/// which stays on auto outside tests.
struct FleetTuning {
  /// A leased worker whose last heartbeat is at least this old is dead.
  std::uint64_t heartbeat_deadline_ms = 30000;
  /// Cadence workers are told to beat at (welcome message). Kept well
  /// under the deadline so one dropped beat is not a death sentence.
  std::uint64_t heartbeat_interval_ms = 1000;
  /// Exponential backoff between respawns of the same slot:
  /// min(base << (attempt-1), max) — see respawn_backoff_ms().
  std::uint64_t backoff_base_ms = 250;
  std::uint64_t backoff_max_ms = 8000;
  /// Spec indices per lease; 0 = auto (remaining / (2 * live workers),
  /// clamped to [1, 16]) so leases shrink as the sweep drains and a late
  /// death never strands a large tail behind one worker.
  std::size_t lease_chunk = 0;
};

/// Backoff before respawn attempt `attempt` (1-based) of a worker slot:
/// min(base << (attempt-1), max). attempt 0 is treated as 1.
std::uint64_t respawn_backoff_ms(const FleetTuning& tuning, unsigned attempt);

/// One granted range of spec indices [lo, hi).
struct Lease {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t size() const { return hi - lo; }
};

/// Pull-mode work ledger: every spec index is Pending (never completed,
/// not currently leased), Leased (some live worker owns it), or Done (a
/// complete record arrived). First-complete-wins: a duplicate completion
/// — possible when a lease expires but the original worker's records are
/// still in flight — is reported back to the caller for discard.
class LeaseTable {
 public:
  LeaseTable(std::size_t total, const FleetTuning& tuning);

  std::size_t total() const { return state_.size(); }
  std::size_t done_count() const { return done_; }
  bool all_done() const { return done_ == state_.size(); }

  /// Resume seeding: marks `index` complete before any lease is granted
  /// (a restarted fleet scans the store and calls this per recovered
  /// record, so only the gaps are ever leased).
  void mark_done(std::size_t index);

  /// True when `index` has completed (resume-seeded or run).
  bool is_done(std::size_t index) const;

  /// Grants worker `worker` the first contiguous run of pending indices,
  /// up to the lease chunk for `live_workers` live pullers. Returns
  /// nullopt when nothing is pending (the worker parks: either other
  /// workers' leases are still outstanding, or the sweep is drained).
  /// Granting counts as a heartbeat — a fresh lease restarts the clock.
  std::optional<Lease> grant(unsigned worker, std::uint64_t now_ms,
                             unsigned live_workers);

  /// Records a heartbeat from `worker` at `now_ms`.
  void heartbeat(unsigned worker, std::uint64_t now_ms);

  /// Records a completed spec index. Returns true the first time (caller
  /// emits the record), false for a duplicate (caller discards it).
  /// Accepts completions for indices leased to *other* workers: a worker
  /// whose lease expired may still deliver records before the kill lands,
  /// and those records are valid (content-derived, byte-identical).
  bool complete(std::size_t index);

  /// Releases every outstanding (leased, not done) index owned by
  /// `worker` back to pending; returns them in increasing order. Called
  /// on worker death — the indices go to whoever pulls next.
  std::vector<std::size_t> release(unsigned worker);

  /// True when `worker` currently owns at least one outstanding index.
  bool worker_leased(unsigned worker) const;

  /// Outstanding (leased, not yet done) index count for `worker`.
  std::size_t outstanding(unsigned worker) const;

  /// Workers whose heartbeat deadline has passed at `now_ms` (leased
  /// workers only — a parked worker with no outstanding lease is waiting
  /// on the coordinator, not the other way around, and is exempt). A
  /// worker expires exactly when now - last_heartbeat >= deadline.
  std::vector<unsigned> expired(std::uint64_t now_ms) const;

  /// Earliest future instant at which some leased worker could expire,
  /// or nullopt when no lease is outstanding. The coordinator sleeps in
  /// poll() until min(next event, this).
  std::optional<std::uint64_t> next_deadline_ms() const;

  /// Pending (never-completed, unleased) index count.
  std::size_t pending_count() const { return pending_.size(); }

 private:
  enum class State : std::uint8_t { kPending, kLeased, kDone };

  struct WorkerState {
    std::set<std::size_t> outstanding;
    std::uint64_t last_heartbeat_ms = 0;
    bool seen = false;
  };

  WorkerState& worker_state(unsigned worker);

  FleetTuning tuning_;
  std::vector<State> state_;
  std::set<std::size_t> pending_;  // ordered: leases stay low-index-first
  std::size_t done_ = 0;
  std::vector<WorkerState> workers_;
};

}  // namespace dsm::shard
