#include "shard/heartbeat.hpp"

#include <sys/resource.h>

#include <chrono>

#include "shard/line_scanner.hpp"
#include "shard/stream_sink.hpp"

namespace dsm::shard {

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::uint64_t max_rss_kb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in KiB already.
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

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

std::string stamp_heartbeat(Heartbeat& hb, std::uint64_t start_ms) {
  hb.wall_ms = steady_ms() - start_ms;
  hb.maxrss_kb = max_rss_kb();
  return format_heartbeat(hb);
}

bool parse_heartbeat(const std::string& line, Heartbeat* out) {
  LineScanner s(line);
  Heartbeat hb;
  if (!s.lit("{\"hb\":1,\"bench\":\"")) return false;
  if (!s.quoted(hb.bench)) return false;
  if (!s.lit(",\"shard\":\"")) return false;
  if (!s.quoted(hb.shard)) return false;
  if (!s.lit(",\"done\":")) return false;
  if (!s.num(hb.done)) return false;
  if (!s.lit(",\"total\":")) return false;
  if (!s.num(hb.total)) return false;
  if (!s.lit(",\"last_spec\":")) return false;
  if (!s.num(hb.last_spec)) return false;
  if (!s.lit(",\"wall_ms\":")) return false;
  if (!s.num(hb.wall_ms)) return false;
  if (!s.lit(",\"maxrss_kb\":")) return false;
  if (!s.num(hb.maxrss_kb)) return false;
  if (!s.lit("}") || !s.done()) return false;
  *out = std::move(hb);
  return true;
}

}  // namespace dsm::shard
