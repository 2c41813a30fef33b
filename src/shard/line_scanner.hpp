// line_scanner.hpp — private to src/shard: the one strict scanner the
// shard line formats (records, heartbeats, fleet messages, lease events)
// parse with. Each format is a private wire between one binary's
// processes, written by a single formatter with a fixed key order, so
// its parser matches literals in that order instead of reading general
// JSON; anything else is rejected.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstring>
#include <string>

namespace dsm::shard {

struct LineScanner {
  const char* p;
  const char* end;

  explicit LineScanner(const std::string& line)
      : p(line.data()), end(line.data() + line.size()) {}

  bool done() const { return p == end; }

  bool lit(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end - p) < n || std::memcmp(p, s, n) != 0)
      return false;
    p += n;
    return true;
  }

  /// An integer in `base`; a leading '-' is accepted only for signed
  /// types.
  template <typename Int>
  bool num(Int& out, int base = 10) {
    const auto [next, ec] = std::from_chars(p, end, out, base);
    if (ec != std::errc{} || next == p) return false;
    p = next;
    return true;
  }

  /// A string body up to and including its closing quote. Accepts exactly
  /// the escapes json_escape emits.
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
          default: return false;
        }
        p += 2;
      } else {
        out += *p++;
      }
    }
    return lit("\"");
  }

  /// A JSON object, verbatim, by brace counting (json_escape never leaves
  /// an unescaped quote inside strings, so a quote toggle suffices).
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

}  // namespace dsm::shard
