// stream_sink.hpp — one self-describing NDJSON record per completed
// configuration, instead of a buffered result vector.
//
// A shard worker's entire stdout in stream mode is a sequence of these
// lines, emitted in spec order (the driver's OrderedEmitter serializes
// them) and flushed per record so readers see results while workers are
// still running. Record content is derived only from
// the configuration's *content* (spec index, config key, seed, reduced
// metrics — never wall-clock or worker identity), so the same point
// produces byte-identical records in shard i/N and in an unsharded run;
// that is what makes merged multi-process output byte-comparable against
// `--shards=1`.
//
// Schema (one JSON object per line, keys always in this order):
//   {"v":2,"bench":"<harness>","spec_index":<n>,"key":"<label>",
//    "seed":"0x<hex>","metrics":{...}}
// v2 = v1 plus the mandatory context envelope bench_util wraps inside
// `metrics` (the bump makes pre-envelope stores fail with version skew,
// not a missing-field diagnostic). The envelope later grew an OPTIONAL
// `protocol` field (present only when the coherence-protocol axis is
// swept; readers default it to "mesi") — optional precisely so every
// pre-protocol v2 store still parses and byte-compares, no v3 needed.
// Same precedent for the optional `obs` object (the machine's
// deterministic observability snapshot, present only under --obs-stats;
// see src/obs/metrics.hpp) and the optional `obs_intervals` object (the
// phase-attributed interval timeline, present only under --obs-intervals;
// rendered by `dsm_report timeline`). Older stores may also carry a
// `batch` field, which readers still accept and ignore.
// The normative schema description lives in README.md, "NDJSON record
// schema"; the strict offline validator is report/record_reader.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

namespace dsm::shard {

/// What the worker knows about one completed configuration after the
/// in-worker reducer ran. `metrics` is pre-serialized JSON-object text
/// (use JsonObject) — the sink never re-encodes it, and the coordinator
/// and merge forward whole lines verbatim, so there is exactly one formatting
/// point per record.
struct StreamRecord {
  std::size_t spec_index = 0;  ///< global spec-order index
  std::string key;             ///< config key, e.g. "LU/8p" (spec_label)
  std::uint64_t seed = 0;      ///< RNG seed the configuration ran with
  std::string metrics = "{}";  ///< reduced metrics as a JSON object
};

/// Deterministic builder for the `metrics` object: keys stay in insertion
/// order, strings are escaped, doubles are rendered shortest-round-trip
/// (std::to_chars), so two workers serialize identical values to
/// identical bytes.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, std::uint64_t value);
  /// Splices pre-serialized JSON (a nested object/array) verbatim.
  JsonObject& add_raw(const std::string& key, const std::string& json);
  std::string str() const;  ///< "{...}"

 private:
  void key(const std::string& k);
  std::string body_;
};

/// JsonObject's array sibling, with the same deterministic rendering.
/// Used for the serialized curves/row-lists the offline renderers rebuild
/// tables from.
class JsonArray {
 public:
  JsonArray& add(const std::string& value);
  JsonArray& add(double value);
  JsonArray& add(std::uint64_t value);
  /// Splices pre-serialized JSON (a nested object/array) verbatim.
  JsonArray& add_raw(const std::string& json);
  std::string str() const;  ///< "[...]"

 private:
  void sep();
  std::string body_;
};

std::string json_escape(const std::string& s);

/// The full NDJSON line for a record (no trailing newline).
std::string format_record(const std::string& bench, const StreamRecord& r);

/// Parses a line produced by format_record. Strict — this is a private
/// wire format between one binary's workers and their coordinator or
/// merge, not a general JSON reader. Returns nullopt (never throws) on
/// anything else, which callers report as a corrupt worker stream.
struct ParsedRecord {
  std::string bench;
  StreamRecord record;
};
std::optional<ParsedRecord> parse_record(const std::string& line);

/// Writes records as NDJSON lines in spec order, flushing each one so a
/// pipe reader sees records as configurations complete. Enforces the
/// spec-order contract: emit() aborts on a non-increasing spec index.
class StreamSink {
 public:
  /// Does not own `out` (typically stdout).
  StreamSink(std::FILE* out, std::string bench);

  void emit(const StreamRecord& r);

  std::size_t emitted() const { return emitted_; }

 private:
  std::FILE* out_;
  std::string bench_;
  std::size_t emitted_ = 0;
  long long last_index_ = -1;
};

}  // namespace dsm::shard
