// kernels.hpp — building blocks shared by the application models.
//
// The apps simulate memory behaviour at cache-line granularity: every
// distinct line of a working set is really loaded/stored through the
// coherence fabric, while the arithmetic *between* lines is charged in
// bulk via compute(). This keeps paper-size inputs tractable without
// changing miss rates, sharing patterns, or home-node distributions
// (DESIGN.md §2 documents this substitution).
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/thread_ctx.hpp"

namespace dsm::apps {

/// Touches every cache line of [base, base+bytes): a load per line (plus a
/// store when `write`), then `instr_per_line` arithmetic instructions
/// closed by a taken branch at `site` — i.e., one loop iteration per line.
void sweep_lines(sim::ThreadCtx& ctx, Addr base, std::uint64_t bytes,
                 bool write, BlockId site, InstrCount instr_per_line,
                 double fp_frac);

/// A two-operand block update: dst_line op= f(a_line, b_line) for each of
/// the `lines` lines — the inner shape of a blocked matrix kernel
/// (load a, load b, load dst, store dst per line).
void block_update(sim::ThreadCtx& ctx, Addr dst, Addr a, Addr b,
                  std::uint64_t bytes, BlockId site,
                  InstrCount instr_per_line, double fp_frac);

/// One-operand variant: dst_line op= f(src_line) per line
/// (load src, load dst, store dst).
void block_update1(sim::ThreadCtx& ctx, Addr dst, Addr src,
                   std::uint64_t bytes, BlockId site,
                   InstrCount instr_per_line, double fp_frac);

}  // namespace dsm::apps
