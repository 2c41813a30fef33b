// prof.hpp — the compile-time-gated hot-path self-profiler: rdtsc-
// bracketed RAII stage timers over the access path, answering "where does
// the time go" from inside the binary instead of an external profiler.
//
// Gated by the DSM_OBS_PROF CMake option (default OFF). When OFF the
// DSM_PROF_SCOPE macro expands to nothing — zero code, zero data — and
// the report functions compile to constants, so harnesses call them
// unconditionally. When ON, every scope accumulates (tsc delta, call
// count) into relaxed atomics: the numbers are a host-side diagnostic
// and deliberately have no effect on simulated state, so simulated
// output stays bit-identical with the profiler compiled in.
#pragma once

#include <cstdint>
#include <ctime>
#include <string>

namespace dsm::obs {

enum class ProfStage : unsigned {
  kAccess,       ///< CoherenceFabric::access, whole body
  kDirRequest,   ///< directory_request, whole body
  kDirProbe,     ///< Directory::entry probe (inside kDirRequest)
  kFill,         ///< fill_hierarchy (inside kDirRequest)
  kCount,
};
inline constexpr unsigned kProfStages =
    static_cast<unsigned>(ProfStage::kCount);

const char* prof_stage_name(ProfStage s);

/// True when the binary was built with -DDSM_OBS_PROF=ON.
bool prof_enabled();

/// Zeroes the accumulators (between measured configs, if wanted).
void prof_reset();

/// Human table of per-stage tsc totals / calls / share, one line per
/// stage, for stderr. Empty string when compiled out.
std::string prof_report_text();

/// Machine-readable section for BENCH_*.json:
///   {"unit":"tsc","stages":{"name":{"calls":N,"ticks":N},...}}
/// Empty object "{}" when compiled out.
std::string prof_report_json();

#if defined(DSM_OBS_PROF)

namespace detail {
/// Relaxed-atomic accumulation: sweep workers may race on these; the
/// totals are diagnostics, not simulated state.
void prof_add(ProfStage s, std::uint64_t ticks);

inline std::uint64_t prof_now() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  // Portable fallback: nanoseconds. Slower to read than a tsc but the
  // profiler is an opt-in diagnostic build.
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#endif
}
}  // namespace detail

/// RAII bracket: accumulates the enclosed tsc interval into its stage.
class ProfScope {
 public:
  explicit ProfScope(ProfStage s) : s_(s), t0_(detail::prof_now()) {}
  ~ProfScope() { detail::prof_add(s_, detail::prof_now() - t0_); }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfStage s_;
  std::uint64_t t0_;
};

#define DSM_PROF_CAT2(a, b) a##b
#define DSM_PROF_CAT(a, b) DSM_PROF_CAT2(a, b)
#define DSM_PROF_SCOPE(stage)        \
  ::dsm::obs::ProfScope DSM_PROF_CAT( \
      dsm_prof_scope_, __LINE__)(::dsm::obs::ProfStage::stage)

#else

#define DSM_PROF_SCOPE(stage) \
  do {                        \
  } while (false)

#endif  // DSM_OBS_PROF

}  // namespace dsm::obs
