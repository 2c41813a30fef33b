// trace.hpp — per-node binary event tracing: fixed-size preallocated ring
// buffers of 32-byte POD events, recorded at simulated-event sites only
// (so the sequence is identical across --threads/--shards),
// dumped post-run to a "DSMTRC01" binary file that `dsm_report trace`
// converts to Chrome trace-event JSON.
//
// Zero-allocation contract: the rings are sized at construction and never
// grow; record() on a full ring overwrites the oldest event and counts
// the overwrite in `dropped` — tracing ON keeps fabric_alloc_test green.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dsm::obs {

/// One trace event. Exactly 32 bytes, trivially copyable — the dump
/// writer emits the raw ring memory.
struct TraceEvent {
  enum Kind : std::uint16_t {
    kMissStart = 1,      ///< access fell through L1+L2 to the directory
    kMissFill = 2,       ///< directory served it; arg = total latency
    kDirRequest = 3,     ///< request arrived at the home directory
    kDirForward = 4,     ///< home forwarded to the current owner (aux)
    kWriteback = 5,      ///< dirty L2 victim written back toward home (aux)
    kPhaseBoundary = 6,  ///< detector interval boundary; arg = interval #
  };

  /// DataSource of a kMissFill, packed into flags bits 1..3 by the
  /// fabric (bit 0 is the write flag). Mirrors coh::DataSource — kept as
  /// raw values here so dsm_obs does not depend on dsm_coherence.
  static constexpr std::uint8_t kWriteBit = 1;
  static constexpr unsigned kSourceShift = 1;

  std::uint64_t ts = 0;    ///< simulated cycle the event refers to
  std::uint64_t addr = 0;  ///< line address (0 when not line-scoped)
  std::uint64_t arg = 0;   ///< kind-specific (latency, interval index)
  std::uint16_t kind = 0;
  std::uint8_t node = 0;   ///< acting node (also selects the ring)
  std::uint8_t flags = 0;  ///< bit 0 write; bits 1..3 fill source
  std::uint32_t aux = 0;   ///< kind-specific peer (home/owner) node
};
static_assert(sizeof(TraceEvent) == 32, "trace events are 32-byte records");

const char* trace_kind_name(std::uint16_t kind);

/// Magic leading a trace file; the trailing digits version the format.
inline constexpr char kTraceMagic[8] = {'D', 'S', 'M', 'T', 'R', 'C', '0', '1'};

class TraceBuffer {
 public:
  /// Disabled buffer: record() is a no-op, enabled() is false.
  TraceBuffer() = default;

  /// One ring of `capacity_per_node` events per node, fully preallocated.
  TraceBuffer(unsigned num_nodes, std::uint32_t capacity_per_node);

  bool enabled() const { return !rings_.empty(); }
  std::uint32_t capacity() const { return cap_; }
  unsigned num_nodes() const { return static_cast<unsigned>(rings_.size()); }

  /// Appends to ev.node's ring; overwrites the oldest event (counting it
  /// as dropped) when full. No allocation, ever.
  void record(const TraceEvent& ev) {
    if (rings_.empty()) return;
    Ring& r = rings_[ev.node];
    r.ev[r.next] = ev;
    r.next = (r.next + 1 == cap_) ? 0 : r.next + 1;
    if (r.count < cap_) ++r.count;
    else ++r.dropped;
  }

  std::uint64_t dropped(unsigned node) const { return rings_.at(node).dropped; }
  std::uint32_t recorded(unsigned node) const { return rings_.at(node).count; }

  /// Node's surviving events, oldest first (tests, determinism compares).
  std::vector<TraceEvent> events(unsigned node) const;

  /// Writes the binary dump: magic, node count, capacity, then per node
  /// its surviving events oldest-first plus the drop count. Returns false
  /// (with *err set) on I/O failure.
  bool dump(const std::string& path, std::string* err) const;

 private:
  struct Ring {
    std::vector<TraceEvent> ev;
    std::uint32_t next = 0;   ///< slot the next event lands in
    std::uint32_t count = 0;  ///< events held (<= cap_)
    std::uint64_t dropped = 0;
  };
  std::uint32_t cap_ = 0;
  std::vector<Ring> rings_;
};

/// Parsed contents of one trace file.
struct TraceFileNode {
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;  ///< oldest first
};
struct TraceFileData {
  std::uint32_t capacity_per_node = 0;
  std::vector<TraceFileNode> nodes;
};

/// Reads a dump() file back. Returns false (with *err set) on a missing
/// file, bad magic, or a structurally truncated body.
bool read_trace_file(const std::string& path, TraceFileData* out,
                     std::string* err);

}  // namespace dsm::obs
