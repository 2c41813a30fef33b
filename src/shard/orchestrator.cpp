#include "shard/orchestrator.hpp"

#include <unistd.h>

#include <cstdlib>

#include "shard/stream_sink.hpp"

namespace dsm::shard {

FileLineSource::~FileLineSource() { std::free(buf_); }

bool FileLineSource::next(std::string& line) {
  const ssize_t n = ::getline(&buf_, &cap_, f_);
  if (n < 0) return false;  // EOF (or read error; caller checks status)
  line.assign(buf_, static_cast<std::size_t>(n));
  // A final line with no terminator means the writer died mid-record —
  // remember it so readers can report truncation, not corruption.
  truncated_ = line.empty() || line.back() != '\n';
  if (!truncated_) line.pop_back();
  return true;
}

namespace {

struct Head {
  LineSource* source;
  std::string line;
  std::size_t index = 0;
  std::string bench;
  bool active = false;
};

bool advance(Head& h, std::string* error) {
  h.active = h.source->next(h.line);
  if (!h.active) return true;
  const auto parsed = parse_record(h.line);
  if (!parsed) {
    if (h.source->truncated()) {
      // Distinct from corruption: the writer crashed mid-record. The
      // partial record's index is still a gap — recoverable via
      // `--resume` / `dsm_report resume` — but a *merge* must refuse:
      // its output claims to be the complete stream.
      *error = "stream ends with a truncated record (worker crashed "
               "mid-write; re-run the missing index or resume): " +
               h.line;
    } else {
      *error = "unparsable stream record: " + h.line;
    }
    return false;
  }
  h.index = parsed->record.spec_index;
  h.bench = parsed->bench;
  return true;
}

}  // namespace

bool merge_streams(std::vector<LineSource*> sources,
                   const std::function<void(const std::string&)>& sink,
                   std::string* error) {
  std::vector<Head> heads(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    heads[i].source = sources[i];
    if (!advance(heads[i], error)) return false;
  }
  std::size_t expected = 0;
  std::string bench;  // all workers run the same binary: one bench name
  for (;;) {
    Head* min = nullptr;
    for (auto& h : heads)
      if (h.active && (min == nullptr || h.index < min->index)) min = &h;
    if (min == nullptr) return true;  // all streams drained
    if (min->index != expected) {
      *error = "spec index " + std::to_string(min->index) +
               " where " + std::to_string(expected) +
               " was expected: a shard skipped or repeated a configuration";
      return false;
    }
    if (expected == 0) {
      bench = min->bench;
    } else if (min->bench != bench) {
      *error = "workers report different bench names: '" + bench +
               "' vs '" + min->bench + "'";
      return false;
    }
    sink(min->line);
    ++expected;
    if (!advance(*min, error)) return false;
  }
}

std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
  return argv0 ? argv0 : "";
}

}  // namespace dsm::shard
