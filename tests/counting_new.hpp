// counting_new.hpp — global operator new/delete replacements that count
// allocations, so a "this path never touches the heap" property is a
// regression-tested invariant, not a code-review promise. Include it in
// the one source file of a gtest binary (each binary is its own process,
// so the replacements stay local to that suite) and compare
// g_alloc_count before and after the path under test.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t sz) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
// Kept out of line: once inlined into a caller, GCC sees free() on a
// pointer from operator new and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
