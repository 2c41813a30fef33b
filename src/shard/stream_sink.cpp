#include "shard/stream_sink.hpp"

#include <charconv>
#include <cinttypes>
#include <cstring>

#include "common/assert.hpp"

namespace dsm::shard {
namespace {

// ---- minimal strict scanner over the format_record layout ----

struct Scanner {
  const char* p;
  const char* end;

  bool lit(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end - p) < n || std::memcmp(p, s, n) != 0)
      return false;
    p += n;
    return true;
  }

  bool uint(std::uint64_t& out, int base = 10) {
    const auto [next, ec] = std::from_chars(p, end, out, base);
    if (ec != std::errc{} || next == p) return false;
    p = next;
    return true;
  }

  // A JSON string body up to the closing quote; handles the escapes
  // json_escape produces.
  bool quoted(std::string& out) {
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        if (end - p < 2) return false;
        switch (p[1]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: return false;  // \uXXXX etc.: not produced by us
        }
        p += 2;
      } else {
        out += *p++;
      }
    }
    return lit("\"");
  }

  // The metrics object, verbatim, by brace counting (json_escape never
  // leaves an unescaped quote inside strings, so a quote toggle suffices).
  bool object(std::string& out) {
    if (p >= end || *p != '{') return false;
    const char* start = p;
    int depth = 0;
    bool in_string = false;
    while (p < end) {
      const char c = *p++;
      if (in_string) {
        if (c == '\\' && p < end) ++p;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) {
          out.assign(start, p);
          return true;
        }
      }
    }
    return false;
  }
};

}  // namespace

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
  Scanner s{line.data(), line.data() + line.size()};
  ParsedRecord out;
  std::uint64_t index = 0, seed = 0;
  std::string seed_text;
  if (!s.lit("{\"v\":2,\"bench\":\"")) return std::nullopt;
  if (!s.quoted(out.bench)) return std::nullopt;
  if (!s.lit(",\"spec_index\":")) return std::nullopt;
  if (!s.uint(index)) return std::nullopt;
  if (!s.lit(",\"key\":\"")) return std::nullopt;
  if (!s.quoted(out.record.key)) return std::nullopt;
  if (!s.lit(",\"seed\":\"0x")) return std::nullopt;
  if (!s.uint(seed, 16)) return std::nullopt;
  if (!s.lit("\",\"metrics\":")) return std::nullopt;
  if (!s.object(out.record.metrics)) return std::nullopt;
  if (!s.lit("}") || s.p != s.end) return std::nullopt;
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
