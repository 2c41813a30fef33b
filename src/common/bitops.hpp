// bitops.hpp — small bit-manipulation helpers used across the simulator.
#pragma once

#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace dsm {

/// True when `v` is a power of two (zero is not).
constexpr bool is_pow2(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// log2 of a power-of-two value.
constexpr unsigned log2_exact(std::uint64_t v) noexcept {
  return static_cast<unsigned>(std::countr_zero(v));
}

/// Smallest power of two >= v (v must be nonzero).
constexpr std::uint64_t ceil_pow2(std::uint64_t v) noexcept {
  return std::bit_ceil(v);
}

/// Calls fn(index) for every set bit of `bits` in ascending order — a
/// ctz loop, so iterating a sharer bitset costs O(popcount) instead of a
/// full O(nodes) scan.
template <typename Fn>
constexpr void for_each_set_bit(std::uint64_t bits, Fn&& fn) {
  while (bits != 0) {
    fn(static_cast<unsigned>(std::countr_zero(bits)));
    bits &= bits - 1;  // clear lowest set bit
  }
}

/// Hamming distance between two node ids — the hop count on a hypercube.
constexpr unsigned hamming(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<unsigned>(std::popcount(a ^ b));
}

/// Ceiling division for unsigned integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

/// Round `v` up to the next multiple of `align` (align must be a power of 2).
constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t align) noexcept {
  return (v + align - 1) & ~(align - 1);
}

/// Fowler–Noll–Vo 1a hash, 64-bit. Used for synthetic branch addresses and
/// the BBV accumulator index hash (Fig. 1 of the paper).
constexpr std::uint64_t fnv1a64(std::uint64_t x) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (i * 8)) & 0xffull;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Mix two 64-bit values into one hash (for composite keys).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return fnv1a64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

}  // namespace dsm
