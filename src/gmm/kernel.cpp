#include "gmm/kernel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

// This translation unit is compiled with -fno-trapping-math (see
// src/CMakeLists.txt): the flag lets the vectorizer if-convert the
// underflow clamp in exp_core into a branch-free select. No fenv state is
// inspected anywhere in this library, so the transformation does not
// change any computed bit.

namespace icgmm::gmm {
namespace {

/// Pages are scored through the dispatch in chunks of at most this many at
/// a time so scratch buffers have a fixed stack footprint.
constexpr std::size_t kBatchChunk = 64;

/// Accumulator lanes of the runtime-K core (one zmm register under
/// x86-64-v4). Its SoA blocks are padded to whole lanes.
constexpr std::size_t kLanes = 8;

constexpr std::size_t round_up_lanes(std::size_t n) noexcept {
  return (n + kLanes - 1) / kLanes * kLanes;
}

/// Normalized extents of the pruning grid's finite bands.
constexpr double kGridPageLo = 0.0;
constexpr double kGridPageHi = 1.0;
constexpr double kGridTimeLo = -1.0;
constexpr double kGridTimeHi = 2.0;
/// Each finite cell edge is widened by this much (normalized units) when
/// its bounds are computed, so an input whose band index rounded across an
/// edge still lies inside the box its cell was bounded on.
constexpr double kGridEdgePad = 1e-9;

// Function multi-versioning: the hot entry points are cloned for
// x86-64-v4 (AVX-512) and x86-64-v3 (AVX2+FMA) with a portable baseline
// fallback, resolved once at load time. `flatten` pulls the whole scoring
// core into each clone so it vectorizes at that clone's ISA. The v4 clone
// is what K = 256 needs: the v3 one spills exp_core's constants out of its
// 16 ymm registers, while v4 has 32 zmm registers and 8 lanes. Disabled
// under TSan/ASan: their runtimes are not initialized yet when the loader
// runs ifunc resolvers, which segfaults at startup.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define ICGMM_KERNEL_HOT                                               \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                               "default"),                          \
                 flatten))
#else
#define ICGMM_KERNEL_HOT
#endif

/// Inlined exp for arguments in [-745, 360] — the range reachable from
/// c[k] - q_k (q >= 0; c is bounded by the largest representable log
/// normalization, ~353, so the sum below can never overflow). Arguments
/// below -708 are clamped: the true result there is a subnormal whose
/// contribution cannot survive against kAccFloor, and the clamp keeps the
/// 2^n exponent construction inside the normal range while staying
/// branch-free (vectorizable select). Standard Cody–Waite reduction
/// x = n*ln2 + r, then degree-12 Taylor in Estrin form (faithful to ~1
/// ulp on |r| <= ln2/2) — no division, short dependency tree.
inline double exp_core(double x) noexcept {
  x = x < -708.0 ? -708.0 : x;
  const double z = x * 1.4426950408889634073599 + 6755399441055744.0;
  const double n = z - 6755399441055744.0;  // nearbyint(x / ln2)
  // Low 32 bits of the magic-shifted double hold n in two's complement.
  const auto ni = static_cast<std::int32_t>(std::bit_cast<std::uint64_t>(z));
  const double r =
      (x - n * 6.93145751953125e-1) - n * 1.42860682030941723212e-6;
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double r8 = r4 * r4;
  // Taylor coefficients 1/k!, pairs combined Estrin-style.
  const double p01 = 1.0 + r;
  const double p23 = 0.5 + r * 1.66666666666666666667e-1;
  const double p45 = 4.16666666666666666667e-2 + r * 8.33333333333333333333e-3;
  const double p67 = 1.38888888888888888889e-3 + r * 1.98412698412698412698e-4;
  const double p89 = 2.48015873015873015873e-5 + r * 2.75573192239858906526e-6;
  const double pab = 2.75573192239858906526e-7 + r * 2.50521083854417187751e-8;
  const double pc = 2.08767569878680989792e-9;
  const double q0 = p01 + r2 * p23;
  const double q1 = p45 + r2 * p67;
  const double q2 = p89 + r2 * pab;
  double e = (q0 + r4 * q1) + r8 * (q2 + r4 * pc);
  // Scale by 2^n through the exponent bits; n is in [-1022, 520] here so
  // the biased exponent stays normal.
  const std::int64_t biased = (static_cast<std::int64_t>(ni) + 1023) << 52;
  e *= std::bit_cast<double>(static_cast<std::uint64_t>(biased));
  return e;
}

/// Inlined log for positive normal arguments (the accumulator is in
/// [kAccFloor, K * exp(353)] when this runs). fdlibm-style: scale the
/// mantissa into [sqrt(1/2), sqrt(2)) through the exponent bits, then the
/// classic atanh-form rational polynomial. Faithful to ~1 ulp.
inline double log_core(double x) noexcept {
  const std::uint64_t u = std::bit_cast<std::uint64_t>(x);
  const auto hi = static_cast<std::int32_t>(u >> 32);
  const std::int32_t k32 = (hi - 0x3fe69555) >> 20;
  const std::uint64_t mbits =
      u - (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k32)) << 52);
  const double m = std::bit_cast<double>(mbits);
  const double kd = static_cast<double>(k32);
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (3.999999999940941908e-1 +
                         w * (2.222219843214978396e-1 +
                              w * 1.531383769920937332e-1));
  const double t2 = z * (6.666666666666735130e-1 +
                         w * (2.857142874366239149e-1 +
                              w * (1.818357216161805012e-1 +
                                   w * 1.479819860511658591e-1)));
  const double hfsq = 0.5 * f * f;
  return kd * 6.93147180369123816490e-1 +
         (f - (hfsq - (s * (hfsq + t1 + t2) + kd * 1.90821492927058770002e-10)));
}

/// Exact fallback with the seed's log-sum-exp shape: running max over the
/// terms, libm exp/log on the max-subtracted sum. Handles -inf terms
/// (zero-weight components) and far outliers whose direct sum underflows.
double lse_max_subtracted(const double* terms, std::size_t k) noexcept {
  double max_term = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < k; ++i) max_term = std::max(max_term, terms[i]);
  if (!std::isfinite(max_term)) return max_term;
  double acc = 0.0;
  for (std::size_t i = 0; i < k; ++i) acc += std::exp(terms[i] - max_term);
  return max_term + std::log(acc);
}

/// Band of x on an axis cut into `bands` equal bands over [lo, hi]: 0
/// below lo (and for NaN), bands + 1 at or above hi, else 1 + floor. The
/// range tests run before the conversion, so no input converts out of
/// range.
inline std::size_t band_of(double x, double lo, double hi,
                           std::size_t bands) noexcept {
  const double u = (x - lo) * (static_cast<double>(bands) / (hi - lo));
  if (!(u >= 0.0)) return 0;
  if (!(u < static_cast<double>(bands))) return bands + 1;
  return 1 + static_cast<std::size_t>(u);
}

/// Sum of exp(c[i] - q_i(xp, xt)) over the `count` components of a
/// 6-array SoA block (mu_p | mu_t | a | b | g | c), each array padded to
/// round_up_lanes(count) doubles; dt is folded per term. Lane u
/// accumulates entries u, u + kLanes, ...; pad entries add exact zeros,
/// and the lanes reduce through a fixed pairwise tree, so the order is
/// fixed by (block, count) alone.
inline double sum_block(const double* __restrict soa, std::size_t count,
                        double xp, double xt) noexcept {
  const std::size_t stride = round_up_lanes(count);
  const double* __restrict mp = soa;
  const double* __restrict mt = soa + stride;
  const double* __restrict a = soa + 2 * stride;
  const double* __restrict b = soa + 3 * stride;
  const double* __restrict g = soa + 4 * stride;
  const double* __restrict c = soa + 5 * stride;
  alignas(64) double lanes[kLanes] = {};
  for (std::size_t i = 0; i < stride; i += kLanes) {
    for (std::size_t u = 0; u < kLanes; ++u) {
      const double dp = xp - mp[i + u];
      const double dt = xt - mt[i + u];
      const double q =
          dp * dp * a[i + u] + dp * (dt * b[i + u]) + (dt * dt) * g[i + u];
      const double e = exp_core(c[i + u] - q);
      lanes[u] += i + u < count ? e : 0.0;
    }
  }
  for (std::size_t w = kLanes; w > 1; w /= 2) {
    for (std::size_t u = 0; u < w / 2; ++u) {
      lanes[u] = lanes[u] + lanes[u + w / 2];
    }
  }
  return lanes[0];
}

/// Minimum of the positive-definite q(dp, dt) = a dp^2 + b dp dt + g dt^2
/// over the box [p0, p1] x [t0, t1] (bounds may be infinite): 0 when the
/// box holds the origin, else the least of its finite edges, each a 1-D
/// quadratic minimized and clamped to the edge.
double box_min_quad(double a, double b, double g, double p0, double p1,
                    double t0, double t1) noexcept {
  if (p0 <= 0.0 && 0.0 <= p1 && t0 <= 0.0 && 0.0 <= t1) return 0.0;
  const auto q = [&](double dp, double dt) {
    return dp * dp * a + dp * (dt * b) + (dt * dt) * g;
  };
  double best = std::numeric_limits<double>::infinity();
  for (const double p : {p0, p1}) {
    if (!std::isfinite(p)) continue;
    best = std::min(best, q(p, std::clamp(-b * p / (2.0 * g), t0, t1)));
  }
  for (const double t : {t0, t1}) {
    if (!std::isfinite(t)) continue;
    best = std::min(best, q(std::clamp(-b * t / (2.0 * a), p0, p1), t));
  }
  return best;
}

/// Maximum of the same form over a bounded box: a corner (q is convex).
double box_max_quad(double a, double b, double g, double p0, double p1,
                    double t0, double t1) noexcept {
  double best = 0.0;
  for (const double p : {p0, p1}) {
    for (const double t : {t0, t1}) {
      best = std::max(best, p * p * a + p * (t * b) + (t * t) * g);
    }
  }
  return best;
}

/// Closed extent of band `i` of band_of's axis, widened by kGridEdgePad.
/// The edge bands reach to infinity outward; with `near` they stop one
/// band width past the axis range instead.
std::pair<double, double> band_extent(std::size_t i, double lo, double hi,
                                      std::size_t bands, bool near) noexcept {
  const double w = (hi - lo) / static_cast<double>(bands);
  const double reach = near ? w : std::numeric_limits<double>::infinity();
  if (i == 0) return {lo - reach, lo + kGridEdgePad};
  if (i == bands + 1) return {hi - kGridEdgePad, hi + reach};
  return {lo + static_cast<double>(i - 1) * w - kGridEdgePad,
          lo + static_cast<double>(i) * w + kGridEdgePad};
}

}  // namespace

/// The pruning grid: kTimeCells rows of kPageCells cells, each a compacted
/// SoA block of the components it keeps, and the score-bracket table
/// nested in it.
struct ScorerKernel::Grid {
  static constexpr std::size_t kPageCells = kGridPageBands + 2;
  static constexpr std::size_t kTimeCells = kGridTimeBands + 2;
  static constexpr std::size_t kBracketPageCells = kBracketPageBands + 2;
  static constexpr std::size_t kBracketTimeCells = kBracketTimeBands + 2;
  /// Bracket bands per grid band on each axis. band_of scales by
  /// bands / (hi - lo), exactly 64 for both bracket axes and 8 and 32 for
  /// the grid's; power-of-two ratios keep the scaled coordinates exact
  /// multiples of each other, so bracket band i (1-based, finite) always
  /// lies in grid band 1 + (i - 1) / nest.
  static constexpr std::size_t kPageNest = kBracketPageBands / kGridPageBands;
  static constexpr std::size_t kTimeNest = kBracketTimeBands / kGridTimeBands;
  static_assert(kPageNest * kGridPageBands == kBracketPageBands &&
                std::has_single_bit(kPageNest));
  static_assert(kTimeNest * kGridTimeBands == kBracketTimeBands &&
                std::has_single_bit(kTimeNest));

  struct Cell {
    std::uint32_t offset = 0;  ///< first coefficient in `coef`
    std::uint32_t count = 0;   ///< kept components
    /// Smallest kept sum accepted without the full-K fallback: e^(max
    /// dropped bound + ln K + kGridMarginNats), and at least kAccFloor.
    double accept_min = 0.0;
  };

  std::vector<Cell> cells;
  /// Per cell: mu_p | mu_t | a | b | g | c, each round_up_lanes(count)
  /// doubles, pad entries zero.
  std::vector<double> coef;
  /// kBracketTimeCells rows of kBracketPageCells brackets.
  std::vector<ScoreBracket> brackets;

  /// The cells of the time band holding normalized timestamp xt.
  const Cell* row(double xt) const noexcept {
    return cells.data() +
           band_of(xt, kGridTimeLo, kGridTimeHi, kGridTimeBands) * kPageCells;
  }
  static std::size_t column(double xp) noexcept {
    return band_of(xp, kGridPageLo, kGridPageHi, kGridPageBands);
  }
  /// The brackets of the bracket time band holding xt.
  const ScoreBracket* bracket_row(double xt) const noexcept {
    return brackets.data() +
           band_of(xt, kGridTimeLo, kGridTimeHi, kBracketTimeBands) *
               kBracketPageCells;
  }
  static std::size_t bracket_column(double xp) noexcept {
    return band_of(xp, kGridPageLo, kGridPageHi, kBracketPageBands);
  }

  /// Fills `brackets` from the finished cells (see kernel.hpp).
  void build_brackets();
};

void ScorerKernel::Grid::build_brackets() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  brackets.assign(kBracketTimeCells * kBracketPageCells, {-kInf, kInf});
  std::vector<double> upper;
  for (std::size_t ti = 1; ti <= kBracketTimeBands; ++ti) {
    const auto [t0, t1] =
        band_extent(ti, kGridTimeLo, kGridTimeHi, kBracketTimeBands, false);
    const Cell* grid_row = cells.data() + (1 + (ti - 1) / kTimeNest) * kPageCells;
    for (std::size_t pi = 1; pi <= kBracketPageBands; ++pi) {
      const auto [p0, p1] =
          band_extent(pi, kGridPageLo, kGridPageHi, kBracketPageBands, false);
      // Kept components only: inside a finite cell every score sums them
      // (a fallback adds less than e^-37 of the sum), and the component
      // with the best lower bound on this smaller box is kept, since that
      // bound is at least its grid cell's best lower bound.
      const Cell& cell = grid_row[1 + (pi - 1) / kPageNest];
      const std::size_t stride = round_up_lanes(cell.count);
      const double* mp = coef.data() + cell.offset;
      const double* mt = mp + stride;
      const double* a = mp + 2 * stride;
      const double* b = mp + 3 * stride;
      const double* g = mp + 4 * stride;
      const double* c = mp + 5 * stride;
      upper.resize(cell.count);
      double lo = -kInf;
      for (std::size_t i = 0; i < cell.count; ++i) {
        upper[i] = c[i] - box_min_quad(a[i], b[i], g[i], p0 - mp[i],
                                       p1 - mp[i], t0 - mt[i], t1 - mt[i]);
        lo = std::max(lo, c[i] - box_max_quad(a[i], b[i], g[i], p0 - mp[i],
                                              p1 - mp[i], t0 - mt[i],
                                              t1 - mt[i]));
      }
      const double hi = lse_max_subtracted(upper.data(), upper.size());
      if (cell.count > 0 && lo <= hi) {  // NaN bounds stay unbounded
        brackets[ti * kBracketPageCells + pi] = {lo - kBracketMarginNats,
                                                 hi + kBracketMarginNats};
      }
    }
  }
}

/// The scoring core, templated on K so trip counts are compile-time
/// constants (fully unrolled + SLP-vectorized inside each clone). All
/// public entry points reach the per-K instantiation through one stored
/// function pointer, so every path runs the identical machine code.
///
/// KLanes >= K pads the compute loops to a wider trip count: the SoA is
/// laid out with stride KLanes (pad coefficients all zero — see the
/// constructor), every lane computes, and the pad lanes are overwritten
/// with exact 0.0 before the pairwise tree. Adding +0.0 to the strictly
/// positive real terms is exact, and the tree over (r0..rK-1, 0...0)
/// performs the identical pairing of real terms as the K-wide tree — so
/// the padded instantiation is bit-identical to the narrow one by
/// construction. Used for K = 4, whose natural 4-lane loops are
/// single-vector trips under AVX2 (no ILP across vector iterations).
template <std::size_t K, std::size_t KLanes = K>
struct KernelBatchEntry {
  static_assert(KLanes >= K && (KLanes & (KLanes - 1)) == 0);

  static inline double accumulate(const double* __restrict mp,
                                  const double* __restrict a,
                                  const double* __restrict c,
                                  const double* __restrict cross,
                                  const double* __restrict ttc,
                                  double xp) noexcept {
    alignas(64) double ex[KLanes];
    for (std::size_t i = 0; i < KLanes; ++i) {
      const double dp = xp - mp[i];
      const double q = dp * dp * a[i] + dp * cross[i] + ttc[i];
      ex[i] = exp_core(c[i] - q);
    }
    // Pad lanes computed harmless junk (coefficients are zero); kill it
    // exactly so the tree below reduces to the K-wide tree bit for bit.
    for (std::size_t i = K; i < KLanes; ++i) ex[i] = 0.0;
    // Pairwise tree accumulation: deterministic, log-depth.
    for (std::size_t w = KLanes; w > 1; w /= 2) {
      for (std::size_t i = 0; i < w / 2; ++i) ex[i] = ex[i] + ex[i + w / 2];
    }
    return ex[0];
  }

  static __attribute__((noinline)) double guarded(
      const ScorerKernel& kern, const double* cross, const double* ttc,
      double xp) noexcept {
    const double* soa = kern.soa_.data();
    const double* mp = soa;
    const double* a = soa + 2 * KLanes;
    const double* c = soa + 5 * KLanes;
    double terms[K];
    for (std::size_t i = 0; i < K; ++i) {
      const double dp = xp - mp[i];
      terms[i] = c[i] - (dp * dp * a[i] + dp * cross[i] + ttc[i]);
    }
    return lse_max_subtracted(terms, K);
  }

  ICGMM_KERNEL_HOT
  static std::size_t run(const ScorerKernel& kern, const double* xs,
                         std::size_t n, double xt, double* out) noexcept {
    const double* __restrict soa = kern.soa_.data();
    const double* __restrict mp = soa;
    const double* __restrict mt = soa + KLanes;
    const double* __restrict a = soa + 2 * KLanes;
    const double* __restrict b = soa + 3 * KLanes;
    const double* __restrict g = soa + 4 * KLanes;
    const double* __restrict c = soa + 5 * KLanes;

    alignas(64) double local_cross[KLanes], local_ttc[KLanes];
    const double* cross;
    const double* ttc;
    if (kern.cache_enabled_) {
      if (!kern.cache_valid_ || kern.cache_xt_ != xt) {
        for (std::size_t i = 0; i < KLanes; ++i) {
          const double dt = xt - mt[i];
          kern.cache_cross_[i] = dt * b[i];
          kern.cache_ttc_[i] = (dt * dt) * g[i];
        }
        kern.cache_xt_ = xt;
        kern.cache_valid_ = true;
      }
      cross = kern.cache_cross_;
      ttc = kern.cache_ttc_;
    } else {
      for (std::size_t i = 0; i < KLanes; ++i) {
        const double dt = xt - mt[i];
        local_cross[i] = dt * b[i];
        local_ttc[i] = (dt * dt) * g[i];
      }
      cross = local_cross;
      ttc = local_ttc;
    }

    if (n == 1) {  // admission path: keep the accumulator in registers
      const double acc = accumulate(mp, a, c, cross, ttc, xs[0]);
      out[0] = acc < ScorerKernel::kAccFloor ? guarded(kern, cross, ttc, xs[0])
                                             : log_core(acc);
      return 0;
    }

    alignas(64) double accs[kBatchChunk];
    for (std::size_t j = 0; j < n; ++j) {
      accs[j] = accumulate(mp, a, c, cross, ttc, xs[j]);
    }
    for (std::size_t j = 0; j < n; ++j) out[j] = log_core(accs[j]);
    for (std::size_t j = 0; j < n; ++j) {
      if (accs[j] < ScorerKernel::kAccFloor) {
        out[j] = guarded(kern, cross, ttc, xs[j]);
      }
    }
    return 0;
  }
};

/// Runtime-K core for mixtures outside the fixed dispatch set (e.g. the
/// paper's K = 256). A kernel with a pruning grid sums the kept terms of
/// each page's cell and falls back to all K unless the cell's acceptance
/// bound holds; without a grid it sums all K. dt is folded per term, so
/// the core keeps no timestamp cache and no scratch.
struct KernelBatchGeneric {
  using Grid = ScorerKernel::Grid;

  static __attribute__((noinline)) double guarded(const ScorerKernel& kern,
                                                  double xp,
                                                  double xt) noexcept {
    const std::size_t k = kern.k_;
    const std::size_t s = kern.stride_;
    const double* mp = kern.soa_.data();
    const double* mt = mp + s;
    const double* a = mp + 2 * s;
    const double* b = mp + 3 * s;
    const double* g = mp + 4 * s;
    const double* c = mp + 5 * s;
    std::vector<double> terms(k);
    for (std::size_t i = 0; i < k; ++i) {
      const double dp = xp - mp[i];
      const double dt = xt - mt[i];
      terms[i] = c[i] - (dp * dp * a[i] + dp * (dt * b[i]) + (dt * dt) * g[i]);
    }
    return lse_max_subtracted(terms.data(), k);
  }

  ICGMM_KERNEL_HOT
  static std::size_t run(const ScorerKernel& kern, const double* xs,
                         std::size_t n, double xt, double* out) noexcept {
    const double* soa = kern.soa_.data();
    const Grid* grid = kern.grid_.get();
    const Grid::Cell* row = grid != nullptr ? grid->row(xt) : nullptr;
    std::size_t fallbacks = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const double xp = xs[j];
      double acc;
      if (row != nullptr) {
        const Grid::Cell& cell = row[Grid::column(xp)];
        acc = sum_block(grid->coef.data() + cell.offset, cell.count, xp, xt);
        if (!(acc >= cell.accept_min)) {
          ++fallbacks;
          acc = sum_block(soa, kern.k_, xp, xt);
        }
      } else {
        acc = sum_block(soa, kern.k_, xp, xt);
      }
      out[j] = acc < ScorerKernel::kAccFloor ? guarded(kern, xp, xt)
                                             : log_core(acc);
    }
    return fallbacks;
  }
};

ScorerKernel::BatchFn ScorerKernel::pick_batch_fn(std::size_t k) noexcept {
  switch (k) {
    case 1: return &KernelBatchEntry<1>::run;
    case 2: return &KernelBatchEntry<2>::run;
    // K = 4 dispatches through an 8-lane padded instantiation (see the
    // template comment); results are bit-identical to the narrow core.
    case 4: return &KernelBatchEntry<4, 8>::run;
    case 8: return &KernelBatchEntry<8>::run;
    case 16: return &KernelBatchEntry<16>::run;
    case 32: return &KernelBatchEntry<32>::run;
    default: return &KernelBatchGeneric::run;
  }
}

ScorerKernel::ScorerKernel(const GaussianMixture& model)
    : k_(model.size()),
      norm_(model.normalizer()),
      batch_fn_(pick_batch_fn(model.size())) {
  // K = 4 is laid out at stride 8 for the padded 8-lane core, and the
  // runtime-K core rounds K up to whole lanes. The pad entries stay at the
  // zero-fill below (mu = a = b = g = c = 0), so a pad lane computes
  // exp_core(0) = 1 and both cores replace it by an exact zero.
  stride_ = batch_fn_ == &KernelBatchGeneric::run ? round_up_lanes(k_)
            : k_ == 4                             ? 8
                                                  : k_;
  soa_.resize(6 * stride_);
  double* mu_p = soa_.data();
  double* mu_t = soa_.data() + stride_;
  double* a = soa_.data() + 2 * stride_;
  double* b = soa_.data() + 3 * stride_;
  double* g = soa_.data() + 4 * stride_;
  double* c = soa_.data() + 5 * stride_;
  const auto weights = model.weights();
  const auto comps = model.components();
  for (std::size_t i = 0; i < k_; ++i) {
    const Gaussian2D& comp = comps[i];
    mu_p[i] = comp.mean().p;
    mu_t[i] = comp.mean().t;
    // Diagonal quadratic coefficients pre-halved (exact: scaling by 0.5
    // commutes with rounding), cancelling the 0.5 * quad and the 2 * pt
    // cross factor in the scoring loop.
    a[i] = 0.5 * comp.inv_pp();
    b[i] = comp.inv_pt();
    g[i] = 0.5 * comp.inv_tt();
    const double w = weights[i];
    c[i] = (w > 0.0 ? std::log(w) : -std::numeric_limits<double>::infinity()) +
           comp.log_norm();
  }
}

void ScorerKernel::build_grid() {
  if (grid_ != nullptr || k_ <= kMaxFixedComponents) return;
  using Cell = Grid::Cell;
  auto grid = std::make_shared<Grid>();
  grid->cells.resize(Grid::kTimeCells * Grid::kPageCells);
  const double* mu_p = soa_.data();
  const double* mu_t = soa_.data() + stride_;
  const double* a = soa_.data() + 2 * stride_;
  const double* b = soa_.data() + 3 * stride_;
  const double* g = soa_.data() + 4 * stride_;
  const double* c = soa_.data() + 5 * stride_;
  const double ln_k = std::log(static_cast<double>(k_));
  std::vector<double> upper(k_);
  // Pass 1 picks every cell's components; pass 2 copies them into one
  // exactly sized block, so a build never holds two copies of the grid.
  std::vector<std::uint32_t> kept;  // cell by cell
  std::size_t coef_size = 0;
  for (std::size_t ti = 0; ti < Grid::kTimeCells; ++ti) {
    const auto [t0, t1] =
        band_extent(ti, kGridTimeLo, kGridTimeHi, kGridTimeBands, false);
    const auto [nt0, nt1] =
        band_extent(ti, kGridTimeLo, kGridTimeHi, kGridTimeBands, true);
    for (std::size_t pi = 0; pi < Grid::kPageCells; ++pi) {
      const auto [p0, p1] =
          band_extent(pi, kGridPageLo, kGridPageHi, kGridPageBands, false);
      const auto [np0, np1] =
          band_extent(pi, kGridPageLo, kGridPageHi, kGridPageBands, true);
      // Upper bounds of each term c - q hold on the whole cell, so the
      // acceptance test is sound everywhere. The best lower bound is taken
      // on the cell's near part (all of a finite cell; an edge cell's first
      // band width), where the keep window then guarantees acceptance:
      // kGridKeepNats - ln K >= kGridMarginNats for K up to e^8.
      double best_lower = -std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < k_; ++k) {
        upper[k] = c[k] - box_min_quad(a[k], b[k], g[k], p0 - mu_p[k],
                                       p1 - mu_p[k], t0 - mu_t[k],
                                       t1 - mu_t[k]);
        best_lower = std::max(
            best_lower, c[k] - box_max_quad(a[k], b[k], g[k], np0 - mu_p[k],
                                            np1 - mu_p[k], nt0 - mu_t[k],
                                            nt1 - mu_t[k]));
      }
      const double keep_from = best_lower - kGridKeepNats;
      const std::size_t first = kept.size();
      double dropped = -std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < k_; ++k) {
        if (upper[k] < keep_from) {
          dropped = std::max(dropped, upper[k]);
        } else {
          kept.push_back(static_cast<std::uint32_t>(k));  // NaN bounds too
        }
      }
      Cell& cell = grid->cells[ti * Grid::kPageCells + pi];
      cell.offset = static_cast<std::uint32_t>(coef_size);
      cell.count = static_cast<std::uint32_t>(kept.size() - first);
      cell.accept_min =
          std::max(kAccFloor, std::exp(dropped + ln_k + kGridMarginNats));
      coef_size += 6 * round_up_lanes(cell.count);
    }
  }
  grid->coef.assign(coef_size, 0.0);
  const std::uint32_t* next = kept.data();
  for (const Cell& cell : grid->cells) {
    const std::size_t stride = round_up_lanes(cell.count);
    double* block = grid->coef.data() + cell.offset;
    for (std::size_t arr = 0; arr < 6; ++arr) {
      for (std::size_t i = 0; i < cell.count; ++i) {
        block[arr * stride + i] = soa_[arr * stride_ + next[i]];
      }
    }
    next += cell.count;
  }
  grid->build_brackets();
  grid_ = std::move(grid);
}

std::size_t ScorerKernel::grid_bytes() const noexcept {
  if (grid_ == nullptr) return 0;
  return grid_->cells.size() * sizeof(Grid::Cell) +
         grid_->coef.size() * sizeof(double) +
         grid_->brackets.size() * sizeof(ScoreBracket);
}

std::size_t ScorerKernel::terms_kept(PageIndex page,
                                     Timestamp t) const noexcept {
  if (grid_ == nullptr) return k_;
  const Vec2 x =
      norm_.apply(static_cast<double>(page), static_cast<double>(t));
  return grid_->row(x.t)[Grid::column(x.p)].count;
}

double ScorerKernel::score_one(PageIndex page, Timestamp t) const noexcept {
  return score_raw(static_cast<double>(page), static_cast<double>(t));
}

double ScorerKernel::score_raw(double raw_page, double raw_time) const noexcept {
  const double xp = (raw_page - norm_.p_offset) * norm_.p_scale;
  const double xt = (raw_time - norm_.t_offset) * norm_.t_scale;
  double out;
  run_batch(&xp, 1, xt, &out);
  return out;
}

std::size_t ScorerKernel::score_batch(std::span<const PageIndex> pages,
                                      Timestamp t,
                                      std::span<double> out) const noexcept {
  assert(out.size() >= pages.size());
  const double xt =
      (static_cast<double>(t) - norm_.t_offset) * norm_.t_scale;
  alignas(64) double xs[kBatchChunk];
  std::size_t fallbacks = 0;
  for (std::size_t base = 0; base < pages.size(); base += kBatchChunk) {
    const std::size_t n = std::min(kBatchChunk, pages.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      xs[j] = (static_cast<double>(pages[base + j]) - norm_.p_offset) *
              norm_.p_scale;
    }
    fallbacks += run_batch(xs, n, xt, out.data() + base);
  }
  return fallbacks;
}

bool ScorerKernel::bracket_batch(std::span<const PageIndex> pages,
                                 Timestamp t,
                                 std::span<ScoreBracket> out) const noexcept {
  if (grid_ == nullptr) return false;
  assert(out.size() >= pages.size());
  // Normalized exactly as score_batch does, so each page lands in the
  // bracket cell nested in the grid cell its score sums.
  const ScoreBracket* row = grid_->bracket_row(
      (static_cast<double>(t) - norm_.t_offset) * norm_.t_scale);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    out[i] = row[Grid::bracket_column(
        (static_cast<double>(pages[i]) - norm_.p_offset) * norm_.p_scale)];
  }
  return true;
}

ScoreBracket ScorerKernel::bracket_normalized(Vec2 x) const noexcept {
  if (grid_ == nullptr) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    return {-kInf, kInf};
  }
  return grid_->bracket_row(x.t)[Grid::bracket_column(x.p)];
}

double ScorerKernel::log_score_normalized(Vec2 x) const noexcept {
  double out;
  run_batch(&x.p, 1, x.t, &out);
  return out;
}

double ScorerKernel::mean_log_likelihood(
    std::span<const Vec2> normalized) const noexcept {
  if (normalized.empty()) return 0.0;
  double acc = 0.0;
  for (const Vec2& x : normalized) acc += log_score_normalized(x);
  return acc / static_cast<double>(normalized.size());
}

double ScorerKernel::component_log_terms(Vec2 x,
                                         std::span<double> terms) const noexcept {
  assert(terms.size() >= k_);
  const double* __restrict mp = soa_.data();
  const double* __restrict mt = soa_.data() + stride_;
  const double* __restrict a = soa_.data() + 2 * stride_;
  const double* __restrict b = soa_.data() + 3 * stride_;
  const double* __restrict g = soa_.data() + 4 * stride_;
  const double* __restrict c = soa_.data() + 5 * stride_;
  double* __restrict ts = terms.data();
  for (std::size_t i = 0; i < k_; ++i) {
    const double dp = x.p - mp[i];
    const double dt = x.t - mt[i];
    const double q = dp * dp * a[i] + dp * (dt * b[i]) + (dt * dt) * g[i];
    ts[i] = c[i] - q;
  }
  double max_term = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < k_; ++i) max_term = std::max(max_term, ts[i]);
  return max_term;
}

}  // namespace icgmm::gmm
