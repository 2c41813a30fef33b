// heartbeat.hpp — worker progress telemetry on a side channel separate
// from the result stream.
//
// A shard worker's stdout is the merged result stream and must stay
// byte-identical across every execution mode, so progress can never ride
// there. Instead each worker appends heartbeat records to its own NDJSON
// file (one file per worker — no cross-process locking), flushed per
// record so a human with `dsm_report progress` can watch a fleet drain
// while it runs. Heartbeats are host-side telemetry:
// they carry wall-clock and rusage and are *expected* to differ between
// runs — which is exactly why they live outside the deterministic stream.
//
// Format (one JSON object per line, keys always in this order):
//   {"hb":1,"bench":"<harness>","shard":"i/N","done":D,"total":T,
//    "last_spec":S,"wall_ms":W,"maxrss_kb":R}
// `last_spec` is the global spec index of the most recently completed
// point, -1 before any completes. A file's last line is the worker's
// current state; earlier lines are its history.
//
// Pull workers (pull_worker.hpp) send the same lines in-band over their
// coordinator socket instead; the coordinator shows them live and tees
// them to per-worker files in this format.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace dsm::shard {

/// One progress record from one worker.
struct Heartbeat {
  std::string bench;
  std::string shard;             ///< "i/N" (ShardPlan::label)
  std::uint64_t done = 0;        ///< specs completed so far
  std::uint64_t total = 0;       ///< specs this worker owns
  std::int64_t last_spec = -1;   ///< global spec index last completed
  std::uint64_t wall_ms = 0;     ///< since the worker's sweep started
  std::uint64_t maxrss_kb = 0;   ///< getrusage peak RSS
};

/// Monotonic milliseconds: the clock beats and the coordinator's
/// deadlines both read.
std::uint64_t steady_ms();

/// The full NDJSON line for a heartbeat (no trailing newline).
std::string format_heartbeat(const Heartbeat& hb);

/// Sets hb's host fields — wall_ms since `start_ms` (a steady_ms()
/// reading) and this process's peak RSS — and formats it.
/// HeartbeatEmitter and PullWorker both build their beats here.
std::string stamp_heartbeat(Heartbeat& hb, std::uint64_t start_ms);

/// Parses a line produced by format_heartbeat. Strict, like
/// parse_record: returns false on anything else.
bool parse_heartbeat(const std::string& line, Heartbeat* out);

/// Appends heartbeats to `path`, one per progress() call plus an initial
/// done=0 record at construction (so a stuck worker is visible as "file
/// exists, no progress" rather than "no file"). Truncates any stale file
/// from a previous run. A path that cannot be opened disables the
/// emitter (ok() false, calls no-op) — telemetry must never kill a
/// worker.
class HeartbeatEmitter {
 public:
  HeartbeatEmitter(const std::string& path, std::string bench,
                   std::string shard_label, std::uint64_t total);
  ~HeartbeatEmitter();
  HeartbeatEmitter(const HeartbeatEmitter&) = delete;
  HeartbeatEmitter& operator=(const HeartbeatEmitter&) = delete;

  bool ok() const { return out_ != nullptr; }

  /// Records one completed spec and appends + flushes a heartbeat.
  void progress(std::int64_t spec_index);

 private:
  void emit();

  std::FILE* out_ = nullptr;
  Heartbeat hb_;
  std::uint64_t start_ms_ = 0;  ///< steady_clock at construction
};

}  // namespace dsm::shard
