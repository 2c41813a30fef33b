#include "apps/art.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sim/thread_ctx.hpp"

namespace dsm::apps {
namespace {

constexpr BlockId kBbTrainAct = sim::bb_id("art.train.activation");
constexpr BlockId kBbTrainUpd = sim::bb_id("art.train.update");
constexpr BlockId kBbScanAct = sim::bb_id("art.scan.activation");
constexpr BlockId kBbScanReset = sim::bb_id("art.scan.reset");
constexpr BlockId kBbScanUpd = sim::bb_id("art.scan.update");
constexpr BlockId kBbScanMiss = sim::bb_id("art.scan.miss");
constexpr BlockId kBbScanHitBr = sim::bb_id("art.scan.hit_branch");

constexpr unsigned kWeightLock = 7;

struct ArtShared {
  // Host-side network + image (real arithmetic drives control flow).
  std::vector<double> image;           ///< image_h * image_w
  std::vector<double> bu;              ///< f2 * f1 bottom-up weights
  std::vector<double> td;              ///< f2 * f1 top-down weights
  std::vector<bool> committed;         ///< category committed?

  // Simulated layout.
  Addr image_addr = 0;
  Addr bu_addr = 0;
  Addr td_addr = 0;
  Addr found_addr = 0;  ///< per-processor hit counters (one line each)
};

/// Host-side ART resonance search over window features; returns the
/// winning category and how many reset iterations it took (0 resets means
/// first winner resonated), or f2 resets when nothing matched.
struct MatchResult {
  unsigned winner = 0;
  unsigned resets = 0;
  bool matched = false;
};

/// Bottom-up activation of every category: act[j] = sum_i feat[i] *
/// bu[j][i]. Four categories share each pass over the features, and each
/// still sums in feature order, so act[j] is the same double a loop over
/// one category computes.
void bottom_up(const ArtShared& s, const ArtParams& p,
               const std::vector<double>& feat, std::vector<double>& act) {
  act.resize(p.f2);
  unsigned j = 0;
  for (; j + 4 <= p.f2; j += 4) {
    const double* w = &s.bu[std::size_t{j} * p.f1];
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (unsigned i = 0; i < p.f1; ++i) {
      const double x = feat[i];
      a0 += x * w[i];
      a1 += x * w[p.f1 + i];
      a2 += x * w[2 * p.f1 + i];
      a3 += x * w[3 * p.f1 + i];
    }
    act[j] = a0;
    act[j + 1] = a1;
    act[j + 2] = a2;
    act[j + 3] = a3;
  }
  for (; j < p.f2; ++j) {
    double a = 0.0;
    for (unsigned i = 0; i < p.f1; ++i) a += feat[i] * s.bu[j * p.f1 + i];
    act[j] = a;
  }
}

/// `act` is the caller's scratch: neither the features nor the weights
/// change within one call, so the activations are computed once up
/// front, and each reset masks its category there.
MatchResult art_match(const ArtShared& s, const ArtParams& p,
                      const std::vector<double>& feat,
                      std::vector<double>& act) {
  double norm = 1e-9;
  for (const double f : feat) norm += f;
  bottom_up(s, p, feat, act);
  MatchResult r;
  for (unsigned attempt = 0; attempt < p.f2; ++attempt) {
    // Pick the strongest category not yet reset (a reset one reads -inf;
    // activations are sums of non-negative products).
    double best = -1.0;
    unsigned win = 0;
    for (unsigned j = 0; j < p.f2; ++j) {
      if (act[j] > best) {
        best = act[j];
        win = j;
      }
    }
    // Vigilance test against the top-down template: symmetric overlap,
    // so a dim (noise) window cannot trivially pass against a bright
    // template (sum-min over the input alone would).
    double match = 0.0, template_norm = 1e-9;
    for (unsigned i = 0; i < p.f1; ++i) {
      match += std::min(feat[i], s.td[win * p.f1 + i]);
      template_norm += s.td[win * p.f1 + i];
    }
    if (match / std::max(norm, template_norm) >= p.vigilance ||
        !s.committed[win]) {
      r.winner = win;
      r.resets = attempt;
      r.matched = s.committed[win];
      return r;
    }
    act[win] = -std::numeric_limits<double>::infinity();
    ++r.resets;
  }
  r.resets = p.f2;
  return r;
}

void host_learn(ArtShared& s, const ArtParams& p, unsigned winner,
                const std::vector<double>& feat) {
  const double beta = 0.4;
  for (unsigned i = 0; i < p.f1; ++i) {
    double& td = s.td[winner * p.f1 + i];
    double& bu = s.bu[winner * p.f1 + i];
    td = s.committed[winner] ? (1.0 - beta) * td + beta * feat[i] : feat[i];
    bu = td / (0.5 + static_cast<double>(p.f1) * 0.01);
  }
  s.committed[winner] = true;
}

}  // namespace

sim::AppFn make_art(const ArtParams& p) {
  auto shared = std::make_shared<ArtShared>();

  return [p, shared](sim::ThreadCtx& ctx) {
    ArtShared& s = *shared;
    const NodeId me = ctx.self();
    const unsigned nprocs = ctx.nprocs();
    const unsigned line = ctx.config().l2.line_bytes;
    auto instr = [&](double flops) {
      return static_cast<InstrCount>(std::max(1.0, flops * p.instr_per_flop));
    };
    const double act_flops = 2.0 * p.f1 * p.f2;  // matvec + winner search

    // ---- one-time setup ----
    if (me == 0) {
      Rng rng(0xa47ULL);
      s.image.assign(std::size_t{p.image_h} * p.image_w, 0.0);
      for (auto& px : s.image) px = 0.15 * rng.next_double();
      // Embed bright targets the training patterns are drawn from.
      std::vector<std::pair<unsigned, unsigned>> centers;
      for (unsigned t = 0; t < p.targets; ++t) {
        const unsigned cx = p.image_w / 4 + (t * p.image_w) / (2 * p.targets) +
                            p.image_w / 8;
        const unsigned cy = p.image_h / (p.targets + 1) * (t + 1);
        centers.emplace_back(cx, cy);
        for (unsigned dy = 0; dy < 24; ++dy)
          for (unsigned dx = 0; dx < 24; ++dx) {
            const unsigned x = (cx + dx) % p.image_w;
            const unsigned y = (cy + dy) % p.image_h;
            s.image[std::size_t{y} * p.image_w + x] =
                0.6 + 0.4 * std::sin(0.7 * dx) * std::cos(0.5 * dy);
          }
      }
      s.bu.assign(std::size_t{p.f2} * p.f1, 0.0);
      s.td.assign(std::size_t{p.f2} * p.f1, 0.0);
      s.committed.assign(p.f2, false);
      for (auto& w : s.bu) w = 0.1 + 0.05 * rng.next_double();
      for (auto& w : s.td) w = 0.2 + 0.05 * rng.next_double();

      const std::uint64_t image_bytes =
          8ull * p.image_w * p.image_h;
      s.image_addr = ctx.alloc_distributed(image_bytes);
      s.bu_addr = ctx.alloc(8ull * p.f2 * p.f1);
      s.td_addr = ctx.alloc(8ull * p.f2 * p.f1);
      s.found_addr = ctx.alloc_distributed(64ull * ctx.nprocs());
    }
    ctx.barrier();

    auto pixel_addr = [&](unsigned x, unsigned y) {
      return s.image_addr + 8ull * (std::size_t{y} * p.image_w + x);
    };
    /// Extract features of the window at (wx, wy): host values + simulated
    /// loads of the pixel lines.
    auto extract = [&](unsigned wx, unsigned wy, std::vector<double>& feat) {
      feat.resize(std::size_t{p.window} * p.window);
      for (unsigned dy = 0; dy < p.window; ++dy) {
        for (Addr a = pixel_addr(wx, wy + dy) & ~Addr{line - 1};
             a <= pixel_addr(wx + p.window - 1, wy + dy); a += line)
          ctx.load(a);
        for (unsigned dx = 0; dx < p.window; ++dx)
          feat[std::size_t{dy} * p.window + dx] =
              s.image[std::size_t{wy + dy} * p.image_w + (wx + dx)];
      }
    };
    /// Simulated cost of one activation + vigilance pass: stream the two
    /// weight matrices' rows.
    auto weight_pass_cost = [&](BlockId site) {
      const std::uint64_t row_bytes = 8ull * p.f1;
      for (unsigned j = 0; j < p.f2; ++j) {
        for (std::uint64_t off = 0; off < row_bytes; off += line) {
          ctx.load(s.bu_addr + j * row_bytes + off);
        }
      }
      ctx.bb(site, instr(act_flops), p.fp_frac);
    };
    /// Simulated cost of updating the winner's weight rows (exclusive).
    auto weight_update_cost = [&](unsigned winner, BlockId site) {
      const std::uint64_t row_bytes = 8ull * p.f1;
      ctx.lock(kWeightLock);
      for (std::uint64_t off = 0; off < row_bytes; off += line) {
        ctx.load(s.td_addr + winner * row_bytes + off);
        ctx.store(s.td_addr + winner * row_bytes + off);
        ctx.store(s.bu_addr + winner * row_bytes + off);
      }
      ctx.bb(site, instr(4.0 * p.f1), p.fp_frac);
      ctx.unlock(kWeightLock);
    };

    std::vector<double> feat, act;

    // ---- stage 1: training on patterns cut from the target regions ----
    for (unsigned epoch = 0; epoch < p.train_epochs; ++epoch) {
      for (unsigned pat = me; pat < p.train_patterns; pat += nprocs) {
        // Patterns tile the first target's neighbourhood deterministically.
        const unsigned wx =
            (p.image_w / 4 + p.image_w / 8 + (pat * 3) % 20) %
            (p.image_w - p.window);
        const unsigned wy =
            (p.image_h / (p.targets + 1) + (pat * 5) % 20) %
            (p.image_h - p.window);
        extract(wx, wy, feat);
        const auto m = art_match(s, p, feat, act);
        weight_pass_cost(kBbTrainAct);
        for (unsigned r = 0; r < m.resets; ++r)
          ctx.bb(kBbScanReset, instr(act_flops / p.f2), p.fp_frac);
        weight_update_cost(m.winner, kBbTrainUpd);
        // Host learning is serialized through the same lock the simulated
        // update used, so it is deterministic.
        ctx.lock(kWeightLock + 1);
        host_learn(s, p, m.winner, feat);
        ctx.unlock(kWeightLock + 1);
      }
      ctx.barrier();
    }

    // ---- stage 2: scanfield ----
    const unsigned wx_count = (p.image_w - p.window) / p.stride + 1;
    const unsigned wy_count = (p.image_h - p.window) / p.stride + 1;
    for (unsigned row = me; row < wy_count; row += nprocs) {
      const unsigned wy = row * p.stride;
      for (unsigned cxi = 0; cxi < wx_count; ++cxi) {
        const unsigned wx = cxi * p.stride;
        extract(wx, wy, feat);
        weight_pass_cost(kBbScanAct);
        const auto m = art_match(s, p, feat, act);
        for (unsigned r = 0; r < m.resets; ++r)
          ctx.bb(kBbScanReset, instr(act_flops / p.f2), p.fp_frac);
        // The recognition branch: taken when a committed category wins —
        // genuinely data-dependent direction, as in the real code's
        // vigilance test.
        ctx.branch(kBbScanHitBr, m.matched);
        if (m.matched && m.resets == 0) {
          // Resonance on a committed category: record the hit. The
          // scanfield stage is recognition-only (as in SPEC art) — weights
          // are not relearned, so the matrices stay read-shared.
          ctx.bb(kBbScanUpd, instr(2.0 * p.f1), p.fp_frac);
          ctx.store(s.found_addr + 64ull * ctx.self());
        } else {
          ctx.bb(kBbScanMiss, 8, 0.0);
        }
      }
    }
    ctx.barrier();
  };
}

}  // namespace dsm::apps
