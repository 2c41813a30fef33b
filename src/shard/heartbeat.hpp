// heartbeat.hpp — worker progress telemetry, on a channel separate from
// the result stream.
//
// A fleet's merged stdout is the result stream and must stay
// byte-identical across every execution mode, so progress can never ride
// there. Instead each pull worker (pull_worker.hpp) sends heartbeat lines
// in-band over its coordinator connection: one done=0 beat on welcome
// ("alive, no progress yet"), one per completed record, and one per
// cadence tick while a long configuration runs. The coordinator shows
// them live on stderr and, under `--shards=N --heartbeat=FILE`, tees
// each worker slot's beats to FILE.<slot>, flushed per line, so a human
// with `dsm_report progress FILE.*` can watch a fleet drain while it
// runs. Heartbeats are host-side telemetry: they carry wall-clock and
// rusage and are *expected* to differ between runs — which is exactly
// why they live outside the deterministic stream.
//
// Format (one JSON object per line, keys always in this order):
//   {"hb":1,"bench":"<harness>","shard":"w<slot>","done":D,"total":T,
//    "last_spec":S,"wall_ms":W,"maxrss_kb":R}
// `done` counts the records this worker completed; `total` is the size
// of the whole sweep, not the worker's share (a pull worker's share is
// whatever it happens to lease). `last_spec` is the global spec index of
// the most recently completed point, -1 before any completes. When a
// sweep completes, the coordinator ends each tee with one beat of its own:
// `done` is the records it merged from that slot and `last_spec` the last
// of them, so a finished fleet's tees sum to the sweep (less the records
// a --resume store supplied) even when a muted worker's beats stopped
// early or a respawned worker counted only its own. A tee's last line is
// its slot's final state; earlier lines are its history.
#pragma once

#include <cstdint>
#include <string>

namespace dsm::shard {

/// One progress record from one worker.
struct Heartbeat {
  std::string bench;
  std::string shard;             ///< "w<slot>": the worker's fleet slot
  std::uint64_t done = 0;        ///< specs this worker completed so far
  std::uint64_t total = 0;       ///< specs in the whole sweep
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
std::string stamp_heartbeat(Heartbeat& hb, std::uint64_t start_ms);

/// Parses a line produced by format_heartbeat. Strict, like
/// parse_record: returns false on anything else.
bool parse_heartbeat(const std::string& line, Heartbeat* out);

}  // namespace dsm::shard
