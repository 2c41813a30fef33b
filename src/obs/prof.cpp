#include "obs/prof.hpp"

#include <atomic>
#include <cstdio>

namespace dsm::obs {

const char* prof_stage_name(ProfStage s) {
  switch (s) {
    case ProfStage::kAccess: return "access";
    case ProfStage::kDirRequest: return "dir_request";
    case ProfStage::kDirProbe: return "dir_probe";
    case ProfStage::kFill: return "fill_hierarchy";
    case ProfStage::kCount: break;
  }
  return "?";
}

#if defined(DSM_OBS_PROF)

namespace {
std::atomic<std::uint64_t> g_ticks[kProfStages];
std::atomic<std::uint64_t> g_calls[kProfStages];
}  // namespace

namespace detail {
void prof_add(ProfStage s, std::uint64_t ticks) {
  const auto i = static_cast<unsigned>(s);
  g_ticks[i].fetch_add(ticks, std::memory_order_relaxed);
  g_calls[i].fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

bool prof_enabled() { return true; }

void prof_reset() {
  for (unsigned i = 0; i < kProfStages; ++i) {
    g_ticks[i].store(0, std::memory_order_relaxed);
    g_calls[i].store(0, std::memory_order_relaxed);
  }
}

std::string prof_report_text() {
  // Scopes nest (dir_probe and fill_hierarchy run inside dir_request,
  // which runs inside access), so ticks are INCLUSIVE; the share column
  // is each stage's fraction of the widest bracket, access.
  std::uint64_t ticks[kProfStages];
  std::uint64_t calls[kProfStages];
  std::uint64_t top = 0;
  for (unsigned i = 0; i < kProfStages; ++i) {
    ticks[i] = g_ticks[i].load(std::memory_order_relaxed);
    calls[i] = g_calls[i].load(std::memory_order_relaxed);
    if (ticks[i] > top) top = ticks[i];
  }
  std::string out =
      "self-profiler (DSM_OBS_PROF, inclusive tsc ticks per stage):\n";
  char line[160];
  for (unsigned i = 0; i < kProfStages; ++i) {
    const auto s = static_cast<ProfStage>(i);
    const double share =
        top == 0 ? 0.0 : 100.0 * static_cast<double>(ticks[i]) /
                             static_cast<double>(top);
    std::snprintf(line, sizeof(line),
                  "  %-14s %14llu ticks %12llu calls  %5.1f%%\n",
                  prof_stage_name(s),
                  static_cast<unsigned long long>(ticks[i]),
                  static_cast<unsigned long long>(calls[i]), share);
    out += line;
  }
  return out;
}

std::string prof_report_json() {
  std::string out = "{\"unit\":\"tsc\",\"stages\":{";
  for (unsigned i = 0; i < kProfStages; ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += prof_stage_name(static_cast<ProfStage>(i));
    out += "\":{\"calls\":";
    out += std::to_string(g_calls[i].load(std::memory_order_relaxed));
    out += ",\"ticks\":";
    out += std::to_string(g_ticks[i].load(std::memory_order_relaxed));
    out += '}';
  }
  out += "}}";
  return out;
}

#else  // !DSM_OBS_PROF

bool prof_enabled() { return false; }
void prof_reset() {}
std::string prof_report_text() { return std::string(); }
std::string prof_report_json() { return "{}"; }

#endif

}  // namespace dsm::obs
