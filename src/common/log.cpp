#include "common/log.hpp"

#include <atomic>
#include <cstdio>

namespace dsm {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
const char* level_tag(LogLevel l) {
  switch (l) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kDebug: return "DEBUG";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void logf(LogLevel level, const char* fmt, ...) {
  if (static_cast<int>(level) > g_level.load(std::memory_order_relaxed))
    return;
  std::fprintf(stderr, "[dsm %s] ", level_tag(level));
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

}  // namespace dsm
