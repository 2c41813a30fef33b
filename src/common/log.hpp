// log.hpp — minimal leveled logging. The simulator is silent by default;
// benches raise the level for progress reporting.
#pragma once

#include <cstdarg>

namespace dsm {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Global log threshold; messages above it are discarded.
void set_log_level(LogLevel level);

/// printf-style logging to stderr with a level prefix.
void logf(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace dsm

#define DSM_LOG_INFO(...) ::dsm::logf(::dsm::LogLevel::kInfo, __VA_ARGS__)
#define DSM_LOG_WARN(...) ::dsm::logf(::dsm::LogLevel::kWarn, __VA_ARGS__)
#define DSM_LOG_ERROR(...) ::dsm::logf(::dsm::LogLevel::kError, __VA_ARGS__)
#define DSM_LOG_DEBUG(...) ::dsm::logf(::dsm::LogLevel::kDebug, __VA_ARGS__)
