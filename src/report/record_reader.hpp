// record_reader.hpp — the strict reader/validator for the NDJSON result
// store (stream_sink.hpp schema v2: the v1 envelope plus the mandatory
// context bench_util wraps around every harness's metrics).
//
// "Strict" means the reader never guesses: a truncated line, an unknown
// schema version, a record whose metrics lack the context fields, a spec
// index that repeats or runs backwards, or a bench name that changes
// mid-stream each fail with a *distinct* diagnostic naming the line. The
// offline store is the only artifact a fleet run leaves behind — silently
// skipping a malformed record would silently drop a configuration from
// the paper's tables.
//
// Two stream shapes are validated:
//   * kMergedStream  — a merged file (or single-process `--shard=0/1`
//                      output): global spec indices must be the contiguous
//                      sequence 0,1,2,...
//   * kShardSlice    — one worker's file: indices must be strictly
//                      increasing (the round-robin slice leaves gaps).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "report/json_value.hpp"
#include "shard/orchestrator.hpp"

namespace dsm::report {

/// One validated record, context fields lifted out of the envelope.
struct RecordView {
  std::string bench;        ///< harness name
  std::size_t spec_index = 0;
  std::string key;          ///< config key, e.g. "LU/8p"
  std::uint64_t seed = 0;

  // Context the sweep wrapped around the harness metrics (bench_util).
  std::string app;          ///< SpecPoint::app (kernel name, "run", ...)
  unsigned nodes = 0;       ///< SpecPoint::nodes (0 when not swept)
  std::string variant;      ///< SpecPoint::detector (topology, size, ...)
  double param = 0.0;       ///< SpecPoint::threshold (factor, ...)
  std::string scale;        ///< "paper" | "bench" | "test"
  /// SpecPoint::protocol. Optional in the envelope: sweeps that don't
  /// vary the protocol omit the field (keeping their records byte-stable
  /// across the protocol seam), and the reader fills in the machine
  /// default, "mesi".
  std::string protocol = "mesi";

  JsonValue metrics;        ///< the full metrics object (context + "m")

  /// The harness-specific metrics object (metrics["m"]).
  const JsonValue& m() const { return metrics.at("m"); }
};

/// Parses and validates one record line (schema + context envelope).
/// Returns false with a field-naming diagnostic in *error on anything
/// that is not a well-formed v2 record.
bool read_record(const std::string& line, RecordView* out,
                 std::string* error);

enum class StreamKind { kMergedStream, kShardSlice };

/// Validating reader over a stream of record lines. next() returns false
/// at end of stream *and* on error — check ok() to tell them apart.
class RecordReader {
 public:
  RecordReader(shard::LineSource& source, StreamKind kind)
      : source_(&source), kind_(kind) {}

  bool next(RecordView* out);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  std::size_t records() const { return records_; }
  /// Bench name of the stream (set after the first record).
  const std::string& bench() const { return bench_; }

 private:
  shard::LineSource* source_;
  StreamKind kind_;
  std::string error_;
  std::string bench_;
  std::size_t records_ = 0;
  std::size_t line_no_ = 0;
  long long last_index_ = -1;
};

}  // namespace dsm::report
