// pull_worker.hpp — the worker half of the pull fleet: connect to the
// coordinator, announce the sweep size, then loop "pull a lease, run it,
// stream the records back" until the coordinator says fin.
//
// The worker stays dumb on purpose (the HPX-style split: the coordinator
// owns distribution, workers own execution): it never knows the fleet
// size, the lease policy, or whether it is a respawn replacing a dead
// sibling. Records go over the same socket as the control messages,
// formatted by exactly the same code path as `--shard=i/N` workers —
// verbatim bytes, so the coordinator's merged stdout stays byte-identical
// to `--shards=1`.
//
// A background thread beats at the cadence the welcome message dictates,
// so the coordinator can tell "slow config" from "dead worker" even while
// a single configuration runs for minutes. The fault-injection hooks
// (armed per-lease by the coordinator, deterministic by spec index) live
// here too: they model the worker dying in specific ugly ways so tests
// can prove the coordinator's recovery path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "shard/fleet_msg.hpp"
#include "shard/lease.hpp"
#include "shard/transport.hpp"

namespace dsm::shard {

/// Exit code a worker uses when an injected fault terminates it — makes
/// chaos-run worker deaths distinguishable from real failures in logs.
constexpr int kFaultExitCode = 43;

class PullWorker {
 public:
  /// Connects to `endpoint`, sends hello (bench + expanded sweep size),
  /// and blocks for the welcome. A fin in its place means the sweep
  /// finished before the coordinator read the hello: ok() is true and
  /// next_lease() returns nullopt at once. ok() is false on
  /// connect/handshake failure (diagnostic on stderr).
  PullWorker(const Endpoint& endpoint, std::string bench, std::size_t total);
  ~PullWorker();
  PullWorker(const PullWorker&) = delete;
  PullWorker& operator=(const PullWorker&) = delete;

  bool ok() const { return ok_; }

  /// Sends pull and blocks for the answer. Returns the next lease, or
  /// nullopt on fin (normal drain) — transport_lost() distinguishes a
  /// dead coordinator from a completed sweep. Arms any fault the lease
  /// carries (fault()/fault_spec()).
  std::optional<Lease> next_lease();

  /// True after next_lease()/emit_record() hit a closed connection.
  bool transport_lost() const { return lost_; }

  /// The fault armed by the current lease (kNone when none).
  FaultKind fault() const { return fault_; }
  std::size_t fault_spec() const { return fault_spec_; }

  /// Streams one completed record (verbatim line, no '\n') and an
  /// in-band progress heartbeat. Returns false when the coordinator is
  /// gone.
  bool emit_record(const std::string& line, std::size_t spec_index);

  // --- deterministic fault actions (see FaultKind) ---

  /// worker-exit: die instantly, record unsent.
  [[noreturn]] void fault_exit();

  /// worker-hang: stop heartbeats and block forever; only the
  /// coordinator's deadline kill ends this process.
  [[noreturn]] void fault_hang();

  /// truncated-record: send the first half of `line` with no terminator,
  /// then die — the coordinator must discard the partial frame.
  [[noreturn]] void fault_truncate(const std::string& line);

  /// dropped-heartbeat: keep working, never beat again (per-record and
  /// periodic heartbeats both stop).
  void drop_heartbeats();

 private:
  void beat();         // one heartbeat line over the transport
  void stop_beater();  // join the periodic thread

  std::unique_ptr<FdTransport> transport_;
  std::string bench_;
  std::size_t total_ = 0;
  unsigned worker_id_ = 0;
  std::uint64_t hb_interval_ms_ = 1000;
  bool ok_ = false;
  bool lost_ = false;
  bool finished_ = false;  // fin came in place of welcome: no work
  FaultKind fault_ = FaultKind::kNone;
  std::size_t fault_spec_ = 0;

  std::mutex mu_;  // guards progress counters + muted_
  std::uint64_t done_ = 0;
  std::int64_t last_spec_ = -1;
  std::uint64_t start_ms_ = 0;
  bool muted_ = false;  // dropped-heartbeat armed

  std::thread beater_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
};

}  // namespace dsm::shard
