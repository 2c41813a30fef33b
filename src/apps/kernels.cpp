#include "apps/kernels.hpp"

#include "common/assert.hpp"

namespace dsm::apps {

void sweep_lines(sim::ThreadCtx& ctx, Addr base, std::uint64_t bytes,
                 bool write, BlockId site, InstrCount instr_per_line,
                 double fp_frac) {
  const unsigned line = ctx.config().l2.line_bytes;
  for (Addr a = base; a < base + bytes; a += line) {
    ctx.load(a);
    if (write) ctx.store(a);
    ctx.bb(site, instr_per_line, fp_frac);
  }
}

void block_update(sim::ThreadCtx& ctx, Addr dst, Addr a, Addr b,
                  std::uint64_t bytes, BlockId site,
                  InstrCount instr_per_line, double fp_frac) {
  const unsigned line = ctx.config().l2.line_bytes;
  for (std::uint64_t off = 0; off < bytes; off += line) {
    ctx.load(a + off);
    ctx.load(b + off);
    ctx.load(dst + off);
    ctx.store(dst + off);
    ctx.bb(site, instr_per_line, fp_frac);
  }
}

void block_update1(sim::ThreadCtx& ctx, Addr dst, Addr src,
                   std::uint64_t bytes, BlockId site,
                   InstrCount instr_per_line, double fp_frac) {
  const unsigned line = ctx.config().l2.line_bytes;
  for (std::uint64_t off = 0; off < bytes; off += line) {
    ctx.load(src + off);
    ctx.load(dst + off);
    ctx.store(dst + off);
    ctx.bb(site, instr_per_line, fp_frac);
  }
}

}  // namespace dsm::apps
