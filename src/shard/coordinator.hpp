// coordinator.hpp — the fleet's brain: owns the lease table, the worker
// connections, failure detection, respawn, resume, and the spec-ordered
// merged output stream.
//
// `--shards=N` routes here: the coordinator forks N pull workers
// connected over socketpairs (`--pull=fd:3`), learns the sweep size from
// the first hello, and grants contiguous spec-index leases to whichever
// worker pulls next — heterogeneous config costs self-balance instead of
// landing on whoever round-robin happened to pick. Records arrive on the
// same sockets, out of global order (leases are dynamic), so the
// coordinator reorders them through a buffer keyed by spec index and
// emits the contiguous prefix — byte-identical to `--shards=1`, because
// workers remain the only formatting point and content-hashed seeds make
// records placement-independent.
//
// Failure model: liveness is heartbeats, nothing else — records do not
// count (so a worker that still computes but lost its telemetry is
// indistinguishable from a wedge, and is reaped the same way). A closed
// connection or a missed deadline kills the worker, releases its
// outstanding lease back to pending, and (fork mode) schedules a bounded
// exponential-backoff respawn; survivors drain the released work either
// way. Duplicate records — a reaped worker's last deliveries racing the
// re-lease — are discarded first-complete-wins; a connection that dies
// mid-line leaves a truncated frame that is discarded with its own
// diagnostic, never merged.
//
// Resume: with a store file, the coordinator scans it (shard/resume.hpp),
// re-emits the recovered records, seeds the lease table, and leases only
// the gaps — a killed-then-restarted fleet completes the store instead of
// recomputing it.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "shard/fleet_msg.hpp"
#include "shard/lease.hpp"

namespace dsm::shard {

struct FleetOptions {
  std::string binary;             ///< executable to re-invoke (self_exe())
  std::vector<std::string> args;  ///< forwarded worker flags (minus the
                                  ///< coordinator-only ones)
  unsigned workers = 1;           ///< fleet size, in [1, kMaxShards]
  FleetTuning tuning;
  /// The fleet's heartbeat tees: each slot's in-band beats, flushed per
  /// line to PATH.<slot> for `dsm_report progress` — empty disables.
  std::string heartbeat_path;
  /// Lease-ledger NDJSON (format_lease_event) — empty disables.
  std::string lease_log;
  /// Existing NDJSON store to resume: recovered records are re-emitted
  /// verbatim and only the gaps are leased. Empty = fresh run.
  std::string resume_store;
  /// Deterministic fault injection: armed on the first lease containing
  /// fault_spec, exactly once per run. kNone disables.
  FaultKind fault = FaultKind::kNone;
  std::size_t fault_spec = 0;
  /// Test seam: already-connected worker fds (one per slot) instead of
  /// forking. No respawn in this mode; the coordinator closes the fds.
  std::vector<int> preconnected_fds;
  /// TCP mode: listen on this port and accept `workers` connections
  /// instead of forking (multi-host fleets; workers run --pull=host:port).
  /// No respawn in this mode. 0 = fork mode.
  unsigned listen_port = 0;
};

/// Runs the fleet to completion, merged records onto `out`. Returns 0
/// when every spec index completed (even if workers died and were
/// recovered along the way — a recovery summary goes to stderr);
/// otherwise the first failing worker's exit code, or 1.
int run_fleet(const FleetOptions& opt, std::FILE* out);

}  // namespace dsm::shard
