// orchestrator.hpp — the spec-order merge of sharded record streams.
//
// The merge never expands the spec itself — it relies on the worker
// contract instead: each shard emits records for exactly its congruence
// class of spec indices, in increasing order. The k-way merge then must
// see the contiguous sequence 0,1,2,... of global spec indices; a
// duplicate, gap, or out-of-order index means a shard violated the plan
// and the merge fails loudly rather than emitting a stream that silently
// differs from `--shards=1`. Merged lines are forwarded verbatim (workers
// are the only formatting point), so a successful merge is byte-identical
// to the single-process streamed run. `dsm_report merge` runs it over
// collected per-shard files.
#pragma once

#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace dsm::shard {

/// One ordered stream of NDJSON record lines. next() returns false on end
/// of stream.
class LineSource {
 public:
  virtual ~LineSource() = default;
  virtual bool next(std::string& line) = 0;
  /// True when the most recent line had no terminator — the stream's
  /// writer died mid-record. Readers use it for a *distinct* diagnostic:
  /// a truncated final line is recoverable (resume re-runs its index),
  /// unlike corruption anywhere else.
  virtual bool truncated() const { return false; }
};

/// Blocking line reader over a FILE* (a collected shard file, a pipe, or
/// stdin). Does not own the stream. The offline `dsm_report`
/// merge/render/validate paths read through it — multi-host merging is
/// the k-way merge below over file-backed sources.
class FileLineSource : public LineSource {
 public:
  explicit FileLineSource(std::FILE* f) : f_(f) {}
  ~FileLineSource() override;

  // buf_ is a raw getline() buffer: movable (vector storage), never
  // copyable (a copy would double-free it).
  FileLineSource(FileLineSource&& other) noexcept
      : f_(other.f_), buf_(other.buf_), cap_(other.cap_),
        truncated_(other.truncated_) {
    other.buf_ = nullptr;
    other.cap_ = 0;
  }
  FileLineSource(const FileLineSource&) = delete;
  FileLineSource& operator=(const FileLineSource&) = delete;
  FileLineSource& operator=(FileLineSource&&) = delete;

  bool next(std::string& line) override;
  bool truncated() const override { return truncated_; }

 private:
  std::FILE* f_;
  char* buf_ = nullptr;
  std::size_t cap_ = 0;
  bool truncated_ = false;
};

/// K-way merges per-worker record streams (each already in increasing
/// spec order) into the single spec-ordered stream, calling `sink` with
/// each verbatim line. Enforces the contiguity contract above; on
/// violation or an unparsable line returns false with a diagnostic in
/// *error. Exposed separately from the process plumbing so tests can
/// drive it with in-memory streams.
bool merge_streams(std::vector<LineSource*> sources,
                   const std::function<void(const std::string&)>& sink,
                   std::string* error);

/// Absolute path of the running executable (/proc/self/exe), falling back
/// to argv0 — the fleet coordinator re-invokes itself, so plain "fig2"
/// from PATH must still resolve.
std::string self_exe(const char* argv0);

}  // namespace dsm::shard
