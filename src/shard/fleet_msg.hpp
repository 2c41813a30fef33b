// fleet_msg.hpp — the pull fleet's control protocol: a handful of
// single-line JSON messages exchanged over the transport seam, sharing
// the wire with the heartbeat and record streams (discriminated by first
// key: "fleet" here, "hb" for heartbeats, "v" for records).
//
//   worker -> coordinator
//     {"fleet":"hello","bench":"<harness>","total":T}
//         sent once after connecting; T = expanded sweep size, so the
//         coordinator learns the work count from the binary that owns
//         the spec instead of re-deriving it.
//     {"fleet":"pull"}
//         "give me work" — sent after hello and after finishing a lease.
//   coordinator -> worker
//     {"fleet":"welcome","worker":W,"hb_ms":H}
//         assigns the slot id and the heartbeat cadence.
//     {"fleet":"lease","lo":L,"hi":H}
//         run spec indices [L, H); optionally carries
//         ,"fault":"<kind>","fault_spec":S — the deterministic
//         fault-injection arming (fires exactly once per run: the
//         coordinator attaches it only to the first lease containing S).
//     {"fleet":"fin"}
//         sweep drained; disconnect and exit 0.
//
// Parsers use the shard line scanner (line_scanner.hpp): these are
// private wire formats between one binary's coordinator and workers, not
// general JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace dsm::shard {

/// Deterministic fault-injection kinds (--inject-fault=kind@spec_index).
/// Faults fire in the worker while processing the armed spec index:
///   kWorkerExit      — _exit before emitting the record (a crash)
///   kWorkerHang      — stop heartbeats and block forever (a wedge; the
///                      coordinator's deadline must reap it)
///   kTruncatedRecord — write half the record with no terminator, then
///                      _exit (a crash mid-write)
///   kDroppedHeartbeat— keep working but never beat again (telemetry
///                      loss; the coordinator kills and re-leases, and
///                      dedup discards any double-delivered records)
enum class FaultKind : std::uint8_t {
  kNone,
  kWorkerExit,
  kWorkerHang,
  kTruncatedRecord,
  kDroppedHeartbeat,
};

const char* fault_name(FaultKind kind);
std::optional<FaultKind> fault_from_name(const std::string& name);

/// Parses "kind@spec_index" (e.g. "worker-exit@3"). Returns false on an
/// unknown kind or malformed index.
bool parse_fault_spec(const std::string& text, FaultKind* kind,
                      std::size_t* spec_index);

/// One parsed fleet control message (see the header comment for fields).
struct FleetMsg {
  enum class Type : std::uint8_t { kHello, kPull, kWelcome, kLease, kFin };
  Type type = Type::kPull;
  // hello
  std::string bench;
  std::uint64_t total = 0;
  // welcome
  std::uint64_t worker = 0;
  std::uint64_t hb_ms = 0;
  // lease
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  FaultKind fault = FaultKind::kNone;
  std::uint64_t fault_spec = 0;
};

std::string format_hello(const std::string& bench, std::uint64_t total);
std::string format_pull();
std::string format_welcome(std::uint64_t worker, std::uint64_t hb_ms);
std::string format_lease(std::uint64_t lo, std::uint64_t hi,
                         FaultKind fault = FaultKind::kNone,
                         std::uint64_t fault_spec = 0);
std::string format_fin();

/// True when `line` is a fleet control message (starts with the "fleet"
/// key) — cheap wire-side discrimination before the strict parse.
bool is_fleet_msg(const std::string& line);

/// Strict parse of any fleet control message; nullopt on anything else.
std::optional<FleetMsg> parse_fleet_msg(const std::string& line);

/// One lease-ledger event, appended by the coordinator to --lease-log as
/// NDJSON so a stalled fleet is diagnosable offline (`dsm_report
/// progress --lease=FILE`):
///   {"ls":1,"worker":W,"state":"leased|retrying|dead|done",
///    "lo":L,"hi":H,"retries":R,"wall_ms":T}
/// `lo`/`hi` are the lease range for "leased" (0/0 otherwise), `retries`
/// the slot's respawn count so far, `wall_ms` coordinator wall clock.
struct LeaseEvent {
  std::uint64_t worker = 0;
  std::string state;  ///< "leased" | "retrying" | "dead" | "done"
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t retries = 0;
  std::uint64_t wall_ms = 0;
};

std::string format_lease_event(const LeaseEvent& ev);
bool parse_lease_event(const std::string& line, LeaseEvent* out);

}  // namespace dsm::shard
