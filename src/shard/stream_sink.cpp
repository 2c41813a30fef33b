#include "shard/stream_sink.hpp"

#include <charconv>
#include <cinttypes>

#include "common/assert.hpp"
#include "shard/line_scanner.hpp"

namespace dsm::shard {

// ---- JsonObject ----

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonObject& JsonObject::add(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::add(const std::string& k, double value) {
  key(k);
  char buf[64];
  // Shortest round-trip form: deterministic across workers (same libc++
  // in the same binary) and re-parses to the identical double.
  const auto [next, ec] = std::to_chars(buf, buf + sizeof buf, value);
  DSM_ASSERT(ec == std::errc{});
  body_.append(buf, next);
  return *this;
}

JsonObject& JsonObject::add(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::add_raw(const std::string& k,
                                const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string JsonObject::str() const { return "{" + body_ + "}"; }

// ---- JsonArray ----

void JsonArray::sep() {
  if (!body_.empty()) body_ += ',';
}

JsonArray& JsonArray::add(const std::string& value) {
  sep();
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonArray& JsonArray::add(double value) {
  sep();
  char buf[64];
  const auto [next, ec] = std::to_chars(buf, buf + sizeof buf, value);
  DSM_ASSERT(ec == std::errc{});
  body_.append(buf, next);
  return *this;
}

JsonArray& JsonArray::add(std::uint64_t value) {
  sep();
  body_ += std::to_string(value);
  return *this;
}

JsonArray& JsonArray::add_raw(const std::string& json) {
  sep();
  body_ += json;
  return *this;
}

std::string JsonArray::str() const { return "[" + body_ + "]"; }

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        // Config keys and metric names are printable ASCII; anything
        // else would break the strict reader, so keep it out of records.
        DSM_ASSERT_MSG(static_cast<unsigned char>(c) >= 0x20,
                       "control character in stream record string");
        out += c;
    }
  }
  return out;
}

// ---- record format ----

std::string format_record(const std::string& bench, const StreamRecord& r) {
  char seed_hex[32];
  std::snprintf(seed_hex, sizeof seed_hex, "0x%016" PRIx64, r.seed);
  std::string line = "{\"v\":2,\"bench\":\"";
  line += json_escape(bench);
  line += "\",\"spec_index\":";
  line += std::to_string(r.spec_index);
  line += ",\"key\":\"";
  line += json_escape(r.key);
  line += "\",\"seed\":\"";
  line += seed_hex;
  line += "\",\"metrics\":";
  line += r.metrics;
  line += "}";
  return line;
}

std::optional<ParsedRecord> parse_record(const std::string& line) {
  LineScanner s(line);
  ParsedRecord out;
  std::uint64_t index = 0, seed = 0;
  if (!s.lit("{\"v\":2,\"bench\":\"")) return std::nullopt;
  if (!s.quoted(out.bench)) return std::nullopt;
  if (!s.lit(",\"spec_index\":")) return std::nullopt;
  if (!s.num(index)) return std::nullopt;
  if (!s.lit(",\"key\":\"")) return std::nullopt;
  if (!s.quoted(out.record.key)) return std::nullopt;
  if (!s.lit(",\"seed\":\"0x")) return std::nullopt;
  if (!s.num(seed, 16)) return std::nullopt;
  if (!s.lit("\",\"metrics\":")) return std::nullopt;
  if (!s.object(out.record.metrics)) return std::nullopt;
  if (!s.lit("}") || !s.done()) return std::nullopt;
  out.record.spec_index = static_cast<std::size_t>(index);
  out.record.seed = seed;
  return out;
}

// ---- StreamSink ----

StreamSink::StreamSink(std::FILE* out, std::string bench)
    : out_(out), bench_(std::move(bench)) {
  DSM_ASSERT(out_ != nullptr);
}

void StreamSink::emit(const StreamRecord& r) {
  DSM_ASSERT_MSG(static_cast<long long>(r.spec_index) > last_index_,
                 "stream records must arrive in increasing spec order");
  last_index_ = static_cast<long long>(r.spec_index);
  const std::string line = format_record(bench_, r);
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fputc('\n', out_);
  // Per-record flush: a reader of the worker's stdout (a pipe, a file
  // being watched) sees each record as soon as it completes.
  std::fflush(out_);
  ++emitted_;
}

}  // namespace dsm::shard
