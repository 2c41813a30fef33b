#include "phase/bbv.hpp"

#include "common/assert.hpp"
#include "common/bitops.hpp"

namespace dsm::phase {

namespace {

inline std::uint64_t absdiff(std::uint32_t x, std::uint32_t y) {
  return x > y ? x - y : y - x;
}

}  // namespace

// Both kernels run once per footprint-table entry at every interval
// boundary of every processor, so they are 4-way unrolled: four
// independent accumulators break the add dependency chain (and let the
// compiler vectorize), with the remainder handled scalar. Integer sums
// are associative, so the result is exactly the single-accumulator loop.
std::uint64_t manhattan(std::span<const std::uint32_t> a,
                        std::span<const std::uint32_t> b) {
  DSM_ASSERT(a.size() == b.size());
  std::uint64_t d0 = 0, d1 = 0, d2 = 0, d3 = 0;
  const std::size_t n = a.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    d0 += absdiff(a[i], b[i]);
    d1 += absdiff(a[i + 1], b[i + 1]);
    d2 += absdiff(a[i + 2], b[i + 2]);
    d3 += absdiff(a[i + 3], b[i + 3]);
  }
  std::uint64_t d = (d0 + d1) + (d2 + d3);
  for (; i < n; ++i) d += absdiff(a[i], b[i]);
  return d;
}

std::uint64_t manhattan_capped(std::span<const std::uint32_t> a,
                               std::span<const std::uint32_t> b,
                               std::uint64_t cap) {
  DSM_ASSERT(a.size() == b.size());
  // The early exit only promises "any value > cap once the running sum
  // exceeds cap", so checking once per 4-wide block preserves the
  // contract: the exact distance is still returned whenever it is <= cap
  // (the only case footprint classification reads the value).
  std::uint64_t d0 = 0, d1 = 0, d2 = 0, d3 = 0;
  const std::size_t n = a.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    d0 += absdiff(a[i], b[i]);
    d1 += absdiff(a[i + 1], b[i + 1]);
    d2 += absdiff(a[i + 2], b[i + 2]);
    d3 += absdiff(a[i + 3], b[i + 3]);
    if ((d0 + d1) + (d2 + d3) > cap) return (d0 + d1) + (d2 + d3);
  }
  std::uint64_t d = (d0 + d1) + (d2 + d3);
  for (; i < n; ++i) {
    d += absdiff(a[i], b[i]);
    if (d > cap) return d;
  }
  return d;
}

BbvAccumulator::BbvAccumulator(unsigned entries, std::uint32_t norm)
    : raw_(entries, 0), mask_(is_pow2(entries) ? entries - 1 : kNoMask),
      norm_(norm) {
  DSM_ASSERT(entries > 0);
  DSM_ASSERT(norm > 0);
}

BbvVector BbvAccumulator::snapshot() const {
  BbvVector out(raw_.size(), 0);
  if (total_ == 0) return out;
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    out[i] = static_cast<std::uint32_t>(
        (raw_[i] * static_cast<std::uint64_t>(norm_)) / total_);
  }
  return out;
}

void BbvAccumulator::reset() {
  for (auto& c : raw_) c = 0;
  total_ = 0;
}

}  // namespace dsm::phase
