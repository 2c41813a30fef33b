#include "shard/fleet_msg.hpp"

#include "common/parse.hpp"
#include "shard/line_scanner.hpp"
#include "shard/stream_sink.hpp"

namespace dsm::shard {

const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kWorkerExit: return "worker-exit";
    case FaultKind::kWorkerHang: return "worker-hang";
    case FaultKind::kTruncatedRecord: return "truncated-record";
    case FaultKind::kDroppedHeartbeat: return "dropped-heartbeat";
  }
  return "none";
}

std::optional<FaultKind> fault_from_name(const std::string& name) {
  if (name == "worker-exit") return FaultKind::kWorkerExit;
  if (name == "worker-hang") return FaultKind::kWorkerHang;
  if (name == "truncated-record") return FaultKind::kTruncatedRecord;
  if (name == "dropped-heartbeat") return FaultKind::kDroppedHeartbeat;
  return std::nullopt;
}

bool parse_fault_spec(const std::string& text, FaultKind* kind,
                      std::size_t* spec_index) {
  const std::size_t at = text.find('@');
  if (at == std::string::npos) return false;
  const auto k = fault_from_name(text.substr(0, at));
  if (!k) return false;
  unsigned long idx = 0;
  if (!parse_unsigned(text.substr(at + 1), 0,
                      static_cast<unsigned long>(-1) >> 1, idx))
    return false;
  *kind = *k;
  *spec_index = static_cast<std::size_t>(idx);
  return true;
}

std::string format_hello(const std::string& bench, std::uint64_t total) {
  return "{\"fleet\":\"hello\",\"bench\":\"" + json_escape(bench) +
         "\",\"total\":" + std::to_string(total) + "}";
}

std::string format_pull() { return "{\"fleet\":\"pull\"}"; }

std::string format_welcome(std::uint64_t worker, std::uint64_t hb_ms) {
  return "{\"fleet\":\"welcome\",\"worker\":" + std::to_string(worker) +
         ",\"hb_ms\":" + std::to_string(hb_ms) + "}";
}

std::string format_lease(std::uint64_t lo, std::uint64_t hi, FaultKind fault,
                         std::uint64_t fault_spec) {
  std::string line = "{\"fleet\":\"lease\",\"lo\":" + std::to_string(lo) +
                     ",\"hi\":" + std::to_string(hi);
  if (fault != FaultKind::kNone) {
    line += ",\"fault\":\"";
    line += fault_name(fault);
    line += "\",\"fault_spec\":" + std::to_string(fault_spec);
  }
  line += "}";
  return line;
}

std::string format_fin() { return "{\"fleet\":\"fin\"}"; }

bool is_fleet_msg(const std::string& line) {
  return line.rfind("{\"fleet\":\"", 0) == 0;
}

std::optional<FleetMsg> parse_fleet_msg(const std::string& line) {
  LineScanner s(line);
  if (!s.lit("{\"fleet\":\"")) return std::nullopt;
  FleetMsg msg;
  if (s.lit("hello\",\"bench\":\"")) {
    msg.type = FleetMsg::Type::kHello;
    if (!s.quoted(msg.bench)) return std::nullopt;
    if (!s.lit(",\"total\":") || !s.num(msg.total)) return std::nullopt;
  } else if (s.lit("pull\"")) {
    msg.type = FleetMsg::Type::kPull;
  } else if (s.lit("welcome\",\"worker\":")) {
    msg.type = FleetMsg::Type::kWelcome;
    if (!s.num(msg.worker)) return std::nullopt;
    if (!s.lit(",\"hb_ms\":") || !s.num(msg.hb_ms)) return std::nullopt;
  } else if (s.lit("lease\",\"lo\":")) {
    msg.type = FleetMsg::Type::kLease;
    if (!s.num(msg.lo)) return std::nullopt;
    if (!s.lit(",\"hi\":") || !s.num(msg.hi)) return std::nullopt;
    if (s.lit(",\"fault\":\"")) {
      std::string name;
      if (!s.quoted(name)) return std::nullopt;
      const auto k = fault_from_name(name);
      if (!k) return std::nullopt;
      msg.fault = *k;
      if (!s.lit(",\"fault_spec\":") || !s.num(msg.fault_spec))
        return std::nullopt;
    }
  } else if (s.lit("fin\"")) {
    msg.type = FleetMsg::Type::kFin;
  } else {
    return std::nullopt;
  }
  if (!s.lit("}") || !s.done()) return std::nullopt;
  return msg;
}

std::string format_lease_event(const LeaseEvent& ev) {
  return "{\"ls\":1,\"worker\":" + std::to_string(ev.worker) +
         ",\"state\":\"" + json_escape(ev.state) +
         "\",\"lo\":" + std::to_string(ev.lo) +
         ",\"hi\":" + std::to_string(ev.hi) +
         ",\"retries\":" + std::to_string(ev.retries) +
         ",\"wall_ms\":" + std::to_string(ev.wall_ms) + "}";
}

bool parse_lease_event(const std::string& line, LeaseEvent* out) {
  LineScanner s(line);
  LeaseEvent ev;
  if (!s.lit("{\"ls\":1,\"worker\":") || !s.num(ev.worker)) return false;
  if (!s.lit(",\"state\":\"") || !s.quoted(ev.state)) return false;
  if (!s.lit(",\"lo\":") || !s.num(ev.lo)) return false;
  if (!s.lit(",\"hi\":") || !s.num(ev.hi)) return false;
  if (!s.lit(",\"retries\":") || !s.num(ev.retries)) return false;
  if (!s.lit(",\"wall_ms\":") || !s.num(ev.wall_ms)) return false;
  if (!s.lit("}") || !s.done()) return false;
  *out = std::move(ev);
  return true;
}

}  // namespace dsm::shard
