#include "shard/heartbeat.hpp"

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cstring>

#include "shard/stream_sink.hpp"

namespace dsm::shard {
namespace {

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t max_rss_kb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in KiB already.
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

// Heartbeats reuse stream_sink's strict-scanner idiom, but signed
// last_spec needs its own integer step.
struct HbScanner {
  const char* p;
  const char* end;

  bool lit(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end - p) < n || std::memcmp(p, s, n) != 0)
      return false;
    p += n;
    return true;
  }
  bool uint(std::uint64_t& out) {
    const auto [next, ec] = std::from_chars(p, end, out);
    if (ec != std::errc{} || next == p) return false;
    p = next;
    return true;
  }
  bool sint(std::int64_t& out) {
    const auto [next, ec] = std::from_chars(p, end, out);
    if (ec != std::errc{} || next == p) return false;
    p = next;
    return true;
  }
  bool quoted(std::string& out) {
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        if (end - p < 2) return false;
        switch (p[1]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          default: return false;
        }
        p += 2;
      } else {
        out += *p++;
      }
    }
    return lit("\"");
  }
};

}  // namespace

std::string format_heartbeat(const Heartbeat& hb) {
  std::string line = "{\"hb\":1,\"bench\":\"";
  line += json_escape(hb.bench);
  line += "\",\"shard\":\"";
  line += json_escape(hb.shard);
  line += "\",\"done\":";
  line += std::to_string(hb.done);
  line += ",\"total\":";
  line += std::to_string(hb.total);
  line += ",\"last_spec\":";
  line += std::to_string(hb.last_spec);
  line += ",\"wall_ms\":";
  line += std::to_string(hb.wall_ms);
  line += ",\"maxrss_kb\":";
  line += std::to_string(hb.maxrss_kb);
  line += "}";
  return line;
}

bool parse_heartbeat(const std::string& line, Heartbeat* out) {
  HbScanner s{line.data(), line.data() + line.size()};
  Heartbeat hb;
  if (!s.lit("{\"hb\":1,\"bench\":\"")) return false;
  if (!s.quoted(hb.bench)) return false;
  if (!s.lit(",\"shard\":\"")) return false;
  if (!s.quoted(hb.shard)) return false;
  if (!s.lit(",\"done\":")) return false;
  if (!s.uint(hb.done)) return false;
  if (!s.lit(",\"total\":")) return false;
  if (!s.uint(hb.total)) return false;
  if (!s.lit(",\"last_spec\":")) return false;
  if (!s.sint(hb.last_spec)) return false;
  if (!s.lit(",\"wall_ms\":")) return false;
  if (!s.uint(hb.wall_ms)) return false;
  if (!s.lit(",\"maxrss_kb\":")) return false;
  if (!s.uint(hb.maxrss_kb)) return false;
  if (!s.lit("}") || s.p != s.end) return false;
  *out = std::move(hb);
  return true;
}

HeartbeatEmitter::HeartbeatEmitter(const std::string& path, std::string bench,
                                   std::string shard_label,
                                   std::uint64_t total) {
  if (path.empty()) return;
  out_ = std::fopen(path.c_str(), "w");
  if (out_ == nullptr) return;  // telemetry failure never kills a worker
  hb_.bench = std::move(bench);
  hb_.shard = std::move(shard_label);
  hb_.total = total;
  start_ms_ = steady_ms();
  emit();  // done=0: "alive, not yet progressing" beats "no file"
}

HeartbeatEmitter::~HeartbeatEmitter() {
  if (out_ != nullptr) std::fclose(out_);
}

void HeartbeatEmitter::progress(std::int64_t spec_index) {
  if (out_ == nullptr) return;
  ++hb_.done;
  hb_.last_spec = spec_index;
  emit();
}

void HeartbeatEmitter::emit() {
  hb_.wall_ms = steady_ms() - start_ms_;
  hb_.maxrss_kb = max_rss_kb();
  const std::string line = format_heartbeat(hb_);
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fputc('\n', out_);
  // Flush per record: `dsm_report progress` reads the file while the
  // worker runs.
  std::fflush(out_);
}

}  // namespace dsm::shard
