#include "gmm/quant_kernel.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define ICGMM_QUANT_AVX512 1
#include <immintrin.h>
#endif

namespace icgmm::gmm {
namespace {

/// Pages are scored in chunks of at most this many so scratch buffers
/// have a fixed stack footprint (same constant as the float kernel).
constexpr std::size_t kBatchChunk = 64;

/// Raw magnitude bound on the quantized quadratic-form coefficients
/// a, b, g. Coefficients are stored at Q(coef_frac_bits): a shared block
/// exponent chosen at construction so the model's largest coefficient
/// fits this raw budget — near-singular covariances (inverse-covariance
/// entries of 1e5 and up, which EM produces on low-rank workloads like
/// stream) keep full relative precision instead of saturating. With
/// inputs clamped to +-16 (|dp| < 2^(F+5) <= 2^25 raw) no product in the
/// scoring loop can exceed int64: dp * coef < 2^55, |dt^2| <= 1024 so
/// the ttc product < 2^60, and the folded inner term is re-clamped to
/// kTermBound before the final multiply.
constexpr std::int32_t kCoefMax = (std::int32_t{1} << 30) - 1;

/// Raw bound on the folded inner terms (dpa + cross) and the cached
/// cross values, Q(frac_bits) int64. Large enough to be accuracy-neutral
/// — a term this size drives t to the -1024 clamp for any representable
/// nonzero dp — and small enough that dp * kTermBound < 2^25 * 2^37 <
/// 2^63 can never overflow.
constexpr std::int64_t kTermBound = std::int64_t{1} << 36;

/// exp(-x) lookup over x in [0, 32) log-e units, 2^kExpTableBits
/// intervals plus a guard. Terms further than 32 below the max
/// contribute < exp(-32) ~ 1e-14 of the sum — below the table quantum
/// after accumulation, so clamping the argument is exact.
constexpr unsigned kExpTableBits = 11;
constexpr std::size_t kExpN = std::size_t{1} << kExpTableBits;
constexpr int kExpRangeLog2 = 5;  // table spans [0, 32)

/// Fixed point of the exp values and the accumulator. Q19 is the widest
/// scale at which an interval's low value (up to exp(0) = 2^19 exactly)
/// still fits the 20-bit field of the packed entry below.
constexpr unsigned kAccFracBits = 19;

/// Packed exp intervals: entry j carries the interval's low value
/// (exp(-j/64), Q19, bits 12..31 — needs 20 bits since entry 0 is
/// exactly 2^19) and the decrement to the next entry (Q18 step scaled
/// by 2^-12, bits 0..11; the largest step, entry 0's, is 4056). One
/// u32 load feeds the whole linear interpolation; the slope truncation
/// costs < 4e-6 relative error per term, under the table's own rounding
/// noise. Built once at load — namespace scope, so hot-path reads have
/// no static-init guard.
struct ExpPairTable {
  std::uint32_t v[kExpN + 1];
};

const ExpPairTable g_exp_pairs = [] {
  ExpPairTable t{};
  std::array<std::int64_t, kExpN + 2> e{};
  const double step =
      static_cast<double>(1 << kExpRangeLog2) / static_cast<double>(kExpN);
  for (std::size_t j = 0; j <= kExpN + 1; ++j) {
    e[j] = std::llround(std::exp(-step * static_cast<double>(j)) *
                        static_cast<double>(std::int64_t{1} << 30));
  }
  for (std::size_t j = 0; j <= kExpN; ++j) {
    const std::uint32_t lo = static_cast<std::uint32_t>(e[j] >> 11);
    const std::uint32_t df = static_cast<std::uint32_t>((e[j] - e[j + 1]) >> 12);
    t.v[j] = (lo << 12) | (df & 0xFFFu);
  }
  return t;
}();

// Same function-multi-versioning guard as kernel.cpp: clone the hot
// entry points for x86-64-v3, except under TSan/ASan whose runtimes
// cannot service ifunc resolvers at load time. (The AVX-512 cores below
// don't use this — they are plain target functions behind an explicit
// __builtin_cpu_supports dispatch, which is sanitizer-safe.)
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define ICGMM_QUANT_KERNEL_HOT \
  __attribute__((target_clones("arch=x86-64-v3", "default"), flatten))
#else
#define ICGMM_QUANT_KERNEL_HOT
#endif

inline std::int64_t clamp64(std::int64_t v, std::int64_t bound) noexcept {
  return v > bound ? bound : (v < -bound ? -bound : v);
}

/// Q19 linear-interpolated exp(-d) for a non-negative Q(frac) argument.
/// `shift` is frac_bits + kExpRangeLog2 - kExpTableBits (>= 0 since
/// frac_bits >= kMinFracBits); at shift == 0 the remainder is always
/// zero, so the interpolation shift pins to 0 instead of going negative.
inline std::int64_t exp19(std::int64_t d, unsigned shift, std::int64_t dmax,
                          const std::uint32_t* tab) noexcept {
  const std::int64_t dc = d < dmax ? d : dmax;
  const std::uint32_t pair = tab[static_cast<std::size_t>(dc >> shift)];
  const std::int64_t rem = dc & ((std::int64_t{1} << shift) - 1);
  const unsigned s2 = shift > 0 ? shift - 1 : 0;
  return static_cast<std::int64_t>(pair >> 12) -
         ((static_cast<std::int64_t>(pair & 0xFFFu) * rem) >> s2);
}

/// Final log-sum-exp correction: m + ln(acc * 2^-19) on the Q(frac)
/// grid, clamped into the log bound, returned as an exact double. The
/// per-kernel table covers the accumulator's exact range [2^19,
/// K * 2^19] (the max term always contributes exactly 2^19), so there is
/// no mantissa normalization — one packed load interpolates ln directly.
inline double finish_ln(std::int64_t m, std::int64_t acc,
                        const std::uint64_t* lntab, unsigned acc_shift,
                        unsigned frac_bits, std::int32_t log_bound,
                        double inv_scale) noexcept {
  const std::int64_t off = acc - (std::int64_t{1} << kAccFracBits);
  const std::uint64_t pair = lntab[static_cast<std::size_t>(off >> acc_shift)];
  const std::int64_t rem = off & ((std::int64_t{1} << acc_shift) - 1);
  const std::int64_t ln26 =
      static_cast<std::int64_t>(static_cast<std::uint32_t>(pair)) +
      ((static_cast<std::int64_t>(static_cast<std::uint32_t>(pair >> 32)) *
        rem) >>
       acc_shift);
  const std::int64_t raw = clamp64(m + (ln26 >> (26 - frac_bits)), log_bound);
  return static_cast<double>(raw) * inv_scale;
}

/// Timestamp-dependent per-component coefficients: the cross term, and
/// the page-independent remainder c - ttc folded into one value (exact
/// int64 — same arithmetic as computing them separately, one subtraction
/// earlier).
inline void build_time_coeffs(const std::int32_t* mt, const std::int32_t* b,
                              const std::int32_t* g, const std::int32_t* c,
                              std::size_t lanes, std::int32_t xt, unsigned F,
                              unsigned Fc, std::int64_t* cross,
                              std::int64_t* ctm) noexcept {
  for (std::size_t i = 0; i < lanes; ++i) {
    const std::int64_t dt = std::int64_t{xt} - mt[i];
    cross[i] = clamp64((dt * b[i]) >> Fc, kTermBound);
    ctm[i] = std::int64_t{c[i]} -
             clamp64((((dt * dt) >> F) * g[i]) >> Fc, kTermBound);
  }
}

}  // namespace

/// The quantized scoring core, templated on K like KernelBatchEntry so
/// trip counts are compile-time constants. KLanes pads K = 4 to 8 lanes;
/// pad coefficients are zero except c = -log_bound, so pads can never
/// win the max, and their exp contribution is zeroed before the sum —
/// results stay bit-identical to the narrow core.
template <std::size_t K, std::size_t KLanes = K>
struct QuantBatchEntry {
  static_assert(KLanes >= K && (KLanes & (KLanes - 1)) == 0);

  ICGMM_QUANT_KERNEL_HOT
  static void run(const QuantScorerKernel& kern, const std::int32_t* xs,
                  std::size_t n, std::int32_t xt, double* out) noexcept {
    const std::int32_t* __restrict soa = kern.soa_.data();
    const std::int32_t* __restrict mp = soa;
    const std::int32_t* __restrict mt = soa + KLanes;
    const std::int32_t* __restrict a = soa + 2 * KLanes;
    const std::int32_t* __restrict b = soa + 3 * KLanes;
    const std::int32_t* __restrict g = soa + 4 * KLanes;
    const std::int32_t* __restrict c = soa + 5 * KLanes;
    const unsigned F = kern.frac_bits_;
    const unsigned Fc = kern.coef_frac_bits_;
    const unsigned eshift = F + kExpRangeLog2 - kExpTableBits;
    const std::int64_t dmax = (std::int64_t{1} << (F + kExpRangeLog2)) - 1;
    const std::int32_t bound = kern.log_bound_raw_;
    const std::uint32_t* etab = g_exp_pairs.v;
    const std::uint64_t* lntab = kern.lntab_.data();

    alignas(64) std::int64_t local_cross[KLanes], local_ctm[KLanes];
    const std::int64_t* cross;
    const std::int64_t* ctm;
    if (kern.cache_enabled_) {
      if (!kern.cache_valid_ || kern.cache_xt_ != xt) {
        build_time_coeffs(mt, b, g, c, KLanes, xt, F, Fc, kern.cache_cross_,
                          kern.cache_ctm_);
        kern.cache_xt_ = xt;
        kern.cache_valid_ = true;
      }
      cross = kern.cache_cross_;
      ctm = kern.cache_ctm_;
    } else {
      build_time_coeffs(mt, b, g, c, KLanes, xt, F, Fc, local_cross,
                        local_ctm);
      cross = local_cross;
      ctm = local_ctm;
    }

    for (std::size_t j = 0; j < n; ++j) {
      const std::int32_t xq = xs[j];
      alignas(64) std::int32_t t[KLanes];
      for (std::size_t i = 0; i < KLanes; ++i) {
        const std::int64_t dp = std::int64_t{xq} - mp[i];
        // Folded quadratic form: dp*(dp*a + cross), two integer
        // multiplies per lane. The inner sum is re-clamped to kTermBound
        // so the second multiply stays inside int64 even at the smallest
        // coefficient exponent.
        const std::int64_t dpa = (dp * a[i]) >> Fc;
        const std::int64_t q = (dp * clamp64(dpa + cross[i], kTermBound)) >> F;
        t[i] = static_cast<std::int32_t>(clamp64(ctm[i] - q, bound));
      }
      std::int32_t m = t[0];
      for (std::size_t i = 1; i < KLanes; ++i) m = t[i] > m ? t[i] : m;
      alignas(64) std::int64_t ex[KLanes];
      for (std::size_t i = 0; i < KLanes; ++i) {
        ex[i] = exp19(std::int64_t{m} - t[i], eshift, dmax, etab);
      }
      for (std::size_t i = K; i < KLanes; ++i) ex[i] = 0;
      std::int64_t acc = 0;
      for (std::size_t i = 0; i < KLanes; ++i) acc += ex[i];
      out[j] = finish_ln(m, acc, lntab, kern.acc_shift_, F, bound,
                         kern.inv_scale_);
    }
  }
};

/// Runtime-K core for mixtures outside the fixed dispatch set. The term
/// buffer and (on stateless kernels) the timestamp coefficients live in
/// per-thread scratch, like KernelBatchGeneric.
struct QuantBatchGeneric {
  ICGMM_QUANT_KERNEL_HOT
  static void run(const QuantScorerKernel& kern, const std::int32_t* xs,
                  std::size_t n, std::int32_t xt, double* out) noexcept {
    thread_local std::vector<std::int32_t> term_scratch;
    thread_local std::vector<std::int64_t> coef_scratch;
    const std::size_t k = kern.k_;
    const std::int32_t* __restrict soa = kern.soa_.data();
    const std::int32_t* __restrict mp = soa;
    const std::int32_t* __restrict mt = soa + k;
    const std::int32_t* __restrict a = soa + 2 * k;
    const std::int32_t* __restrict b = soa + 3 * k;
    const std::int32_t* __restrict g = soa + 4 * k;
    const std::int32_t* __restrict c = soa + 5 * k;
    const unsigned F = kern.frac_bits_;
    const unsigned Fc = kern.coef_frac_bits_;
    const unsigned eshift = F + kExpRangeLog2 - kExpTableBits;
    const std::int64_t dmax = (std::int64_t{1} << (F + kExpRangeLog2)) - 1;
    const std::int32_t bound = kern.log_bound_raw_;
    const std::uint32_t* etab = g_exp_pairs.v;
    const std::uint64_t* lntab = kern.lntab_.data();

    if (term_scratch.size() < k) term_scratch.resize(k);
    std::int32_t* terms = term_scratch.data();
    std::int64_t* cross;
    std::int64_t* ctm;
    bool fresh = true;
    if (kern.cache_enabled_) {
      cross = kern.spill_.data();
      ctm = kern.spill_.data() + k;
      fresh = !kern.cache_valid_ || kern.cache_xt_ != xt;
      kern.cache_xt_ = xt;
      kern.cache_valid_ = true;
    } else {
      if (coef_scratch.size() < 2 * k) coef_scratch.resize(2 * k);
      cross = coef_scratch.data();
      ctm = coef_scratch.data() + k;
    }
    if (fresh) {
      build_time_coeffs(mt, b, g, c, k, xt, F, Fc, cross, ctm);
    }

    for (std::size_t j = 0; j < n; ++j) {
      const std::int32_t xq = xs[j];
      const std::int64_t* __restrict cr = cross;
      const std::int64_t* __restrict tc = ctm;
      std::int32_t* __restrict t = terms;
      std::int32_t m = std::numeric_limits<std::int32_t>::min();
      for (std::size_t i = 0; i < k; ++i) {
        const std::int64_t dp = std::int64_t{xq} - mp[i];
        const std::int64_t dpa = (dp * a[i]) >> Fc;
        const std::int64_t q = (dp * clamp64(dpa + cr[i], kTermBound)) >> F;
        t[i] = static_cast<std::int32_t>(clamp64(tc[i] - q, bound));
        m = t[i] > m ? t[i] : m;
      }
      std::int64_t acc = 0;
      for (std::size_t i = 0; i < k; ++i) {
        acc += exp19(std::int64_t{m} - t[i], eshift, dmax, etab);
      }
      out[j] = finish_ln(m, acc, lntab, kern.acc_shift_, F, bound,
                         kern.inv_scale_);
    }
  }
};

#if defined(ICGMM_QUANT_AVX512)

// GCC's unmasked AVX-512 intrinsics merge into an undefined source
// register; -Wmaybe-uninitialized flags that header-internal pattern
// once the intrinsics inline into user code (GCC bug 105593). Nothing
// here reads uninitialized state.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// Hand-written AVX-512 core for the fixed-K dispatch set, selected at
/// construction behind __builtin_cpu_supports (plain target functions,
/// no ifunc — sanitizer-builds keep it too). Computes the identical
/// integer formula as QuantBatchEntry, so scores are bit-identical to
/// the portable core:
///
///   * one zmm holds 8 components' int64 lanes; the quadratic form is
///     vpmuldq (|dp| < 2^31, low-32 sign-extension exact) + vpmullq,
///     with the saturating vpmovsqd pack standing in for the first leg
///     of the +-bound clamp (order-preserving, so min/max against the
///     bound in int32 lands on the same value clamp64 produces);
///   * exp is one vpgatherdd of the packed pair table per 8 components
///     — the gather's loads ride the load ports, off the (single)
///     512-bit ALU pipe this host bottlenecks on;
///   * for batches, 8 pages are scored per iteration with components
///     broadcast instead — the finish (ln table, clamp, int64->double
///     convert) then vectorizes across pages, where in single-page mode
///     it is a scalar tail.
template <std::size_t K, std::size_t KLanes = K>
struct QuantAvx512Entry {
  static_assert(KLanes >= K && KLanes % 8 == 0);
  static constexpr std::size_t kChunks = KLanes / 8;

  __attribute__((target("avx512f,avx512dq,avx512vl")))
  static inline double score_page(const QuantScorerKernel& kern,
                                  std::int32_t xq, const std::int64_t* cross,
                                  const std::int64_t* ctm) noexcept {
    const std::int64_t* wide = kern.wide_.data();
    const unsigned F = kern.frac_bits_;
    const unsigned eshift = F + kExpRangeLog2 - kExpTableBits;
    const std::int32_t bound = kern.log_bound_raw_;
    const __m128i cnt_fc = _mm_cvtsi32_si128(
        static_cast<int>(kern.coef_frac_bits_));
    const __m128i cnt_f = _mm_cvtsi32_si128(static_cast<int>(F));
    const __m128i cnt_es =
        _mm_cvtsi32_si128(eshift > 0 ? static_cast<int>(eshift - 1) : 0);
    const __m512i xp = _mm512_set1_epi64(xq);
    const __m512i tlo = _mm512_set1_epi64(-kTermBound);
    const __m512i thi = _mm512_set1_epi64(kTermBound);
    const __m256i blo = _mm256_set1_epi32(-bound);
    const __m256i bhi = _mm256_set1_epi32(bound);

    __m256i t32v[kChunks];
    for (std::size_t ci = 0; ci < kChunks; ++ci) {
      const __m512i mpv =
          _mm512_loadu_si512(static_cast<const void*>(wide + 8 * ci));
      const __m512i av = _mm512_loadu_si512(
          static_cast<const void*>(wide + KLanes + 8 * ci));
      const __m512i crs =
          _mm512_loadu_si512(static_cast<const void*>(cross + 8 * ci));
      const __m512i ctv =
          _mm512_loadu_si512(static_cast<const void*>(ctm + 8 * ci));
      const __m512i dp = _mm512_sub_epi64(xp, mpv);
      const __m512i dpa = _mm512_sra_epi64(_mm512_mul_epi32(dp, av), cnt_fc);
      const __m512i inner = _mm512_min_epi64(
          _mm512_max_epi64(_mm512_add_epi64(dpa, crs), tlo), thi);
      const __m512i q = _mm512_sra_epi64(_mm512_mullo_epi64(dp, inner), cnt_f);
      const __m512i t64 = _mm512_sub_epi64(ctv, q);
      t32v[ci] = _mm256_min_epi32(
          _mm256_max_epi32(_mm512_cvtsepi64_epi32(t64), blo), bhi);
    }
    __m256i r = t32v[0];
    for (std::size_t ci = 1; ci < kChunks; ++ci) {
      r = _mm256_max_epi32(r, t32v[ci]);
    }
    r = _mm256_max_epi32(r, _mm256_shuffle_epi32(r, 0xB1));
    r = _mm256_max_epi32(r, _mm256_shuffle_epi32(r, 0x4E));
    r = _mm256_max_epi32(r, _mm256_permute2x128_si256(r, r, 0x01));

    const __m256i dcap = _mm256_set1_epi32(
        static_cast<std::int32_t>((std::int64_t{1} << (F + kExpRangeLog2)) - 1));
    const __m256i rmask =
        _mm256_set1_epi32(static_cast<std::int32_t>((1u << eshift) - 1));
    const __m256i pmask = _mm256_set1_epi32(0xFFF);
    __m256i exsum = _mm256_setzero_si256();
    for (std::size_t ci = 0; ci < kChunks; ++ci) {
      __m256i d = _mm256_sub_epi32(r, t32v[ci]);
      d = _mm256_min_epi32(d, dcap);
      const __m256i idx = _mm256_srli_epi32(d, static_cast<int>(eshift));
      const __m256i rem = _mm256_and_si256(d, rmask);
      const __m256i pair = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(g_exp_pairs.v), idx, 4);
      const __m256i sub = _mm256_srl_epi32(
          _mm256_mullo_epi32(_mm256_and_si256(pair, pmask), rem), cnt_es);
      __m256i ex = _mm256_sub_epi32(_mm256_srli_epi32(pair, 12), sub);
      if constexpr (K < KLanes) {
        // Pad lanes (K = 4 layout) only exist in the last chunk; zero
        // them like the portable core does before the sum.
        if (ci == kChunks - 1) {
          ex = _mm256_maskz_mov_epi32(
              static_cast<__mmask8>((1u << (K % 8)) - 1), ex);
        }
      }
      exsum = _mm256_add_epi32(exsum, ex);
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(exsum),
                              _mm256_extracti128_si256(exsum, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
    const std::int64_t acc = _mm_cvtsi128_si32(s);
    const std::int64_t m = _mm_cvtsi128_si32(_mm256_castsi256_si128(r));
    return finish_ln(m, acc, kern.lntab_.data(), kern.acc_shift_, F, bound,
                     kern.inv_scale_);
  }

  __attribute__((target("avx512f,avx512dq,avx512vl")))
  static inline void score_block8(const QuantScorerKernel& kern,
                                  const std::int32_t* xs,
                                  const std::int64_t* cross,
                                  const std::int64_t* ctm,
                                  double* out) noexcept {
    const std::int64_t* wide = kern.wide_.data();
    const unsigned F = kern.frac_bits_;
    const unsigned eshift = F + kExpRangeLog2 - kExpTableBits;
    const std::int32_t bound = kern.log_bound_raw_;
    const __m128i cnt_fc = _mm_cvtsi32_si128(
        static_cast<int>(kern.coef_frac_bits_));
    const __m128i cnt_f = _mm_cvtsi32_si128(static_cast<int>(F));
    const __m128i cnt_es =
        _mm_cvtsi32_si128(eshift > 0 ? static_cast<int>(eshift - 1) : 0);
    const __m512i tlo = _mm512_set1_epi64(-kTermBound);
    const __m512i thi = _mm512_set1_epi64(kTermBound);
    const __m256i blo = _mm256_set1_epi32(-bound);
    const __m256i bhi = _mm256_set1_epi32(bound);

    // 8 pages per zmm; components broadcast one at a time. Terms go
    // through a stack buffer so the exp pass can re-read them against
    // the finished max.
    const __m512i xp = _mm512_cvtepi32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs)));
    alignas(64) std::int32_t tbuf[KLanes][8];
    __m256i m8 = _mm256_set1_epi32(std::numeric_limits<std::int32_t>::min());
    for (std::size_t kk = 0; kk < KLanes; ++kk) {
      const __m512i mpv = _mm512_set1_epi64(wide[kk]);
      const __m512i av = _mm512_set1_epi64(wide[KLanes + kk]);
      const __m512i crs = _mm512_set1_epi64(cross[kk]);
      const __m512i ctv = _mm512_set1_epi64(ctm[kk]);
      const __m512i dp = _mm512_sub_epi64(xp, mpv);
      const __m512i dpa = _mm512_sra_epi64(_mm512_mul_epi32(dp, av), cnt_fc);
      const __m512i inner = _mm512_min_epi64(
          _mm512_max_epi64(_mm512_add_epi64(dpa, crs), tlo), thi);
      const __m512i q = _mm512_sra_epi64(_mm512_mullo_epi64(dp, inner), cnt_f);
      const __m512i t64 = _mm512_sub_epi64(ctv, q);
      const __m256i t32 = _mm256_min_epi32(
          _mm256_max_epi32(_mm512_cvtsepi64_epi32(t64), blo), bhi);
      m8 = _mm256_max_epi32(m8, t32);
      _mm256_store_si256(reinterpret_cast<__m256i*>(tbuf[kk]), t32);
    }

    const __m256i dcap = _mm256_set1_epi32(
        static_cast<std::int32_t>((std::int64_t{1} << (F + kExpRangeLog2)) - 1));
    const __m256i rmask =
        _mm256_set1_epi32(static_cast<std::int32_t>((1u << eshift) - 1));
    const __m256i pmask = _mm256_set1_epi32(0xFFF);
    __m256i acc8 = _mm256_setzero_si256();
    for (std::size_t kk = 0; kk < K; ++kk) {  // pads contribute zero
      __m256i d = _mm256_sub_epi32(
          m8, _mm256_load_si256(reinterpret_cast<const __m256i*>(tbuf[kk])));
      d = _mm256_min_epi32(d, dcap);
      const __m256i idx = _mm256_srli_epi32(d, static_cast<int>(eshift));
      const __m256i rem = _mm256_and_si256(d, rmask);
      const __m256i pair = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(g_exp_pairs.v), idx, 4);
      const __m256i sub = _mm256_srl_epi32(
          _mm256_mullo_epi32(_mm256_and_si256(pair, pmask), rem), cnt_es);
      acc8 = _mm256_add_epi32(
          acc8, _mm256_sub_epi32(_mm256_srli_epi32(pair, 12), sub));
    }

    // Vectorized finish across the 8 pages: same finish_ln formula.
    const __m128i cnt_as =
        _mm_cvtsi32_si128(static_cast<int>(kern.acc_shift_));
    const __m128i cnt_26f = _mm_cvtsi32_si128(static_cast<int>(26 - F));
    const __m256i off8 =
        _mm256_sub_epi32(acc8, _mm256_set1_epi32(1 << kAccFracBits));
    const __m256i idx8 = _mm256_srl_epi32(off8, cnt_as);
    const __m256i rem8 = _mm256_and_si256(
        off8, _mm256_set1_epi32(
                  static_cast<std::int32_t>((1u << kern.acc_shift_) - 1)));
    const __m512i pairs =
        _mm512_i32gather_epi64(idx8, kern.lntab_.data(), 8);
    const __m512i lo =
        _mm512_and_si512(pairs, _mm512_set1_epi64(0xFFFFFFFFll));
    const __m512i df = _mm512_srli_epi64(pairs, 32);
    const __m512i rem64 = _mm512_cvtepu32_epi64(rem8);
    const __m512i ln26 = _mm512_add_epi64(
        lo, _mm512_srl_epi64(_mm512_mul_epu32(df, rem64), cnt_as));
    const __m512i m64 = _mm512_cvtepi32_epi64(m8);
    __m512i raw = _mm512_add_epi64(m64, _mm512_sra_epi64(ln26, cnt_26f));
    raw = _mm512_min_epi64(
        _mm512_max_epi64(raw, _mm512_set1_epi64(-std::int64_t{bound})),
        _mm512_set1_epi64(bound));
    const __m512d pd =
        _mm512_mul_pd(_mm512_cvtepi64_pd(raw), _mm512_set1_pd(kern.inv_scale_));
    _mm512_storeu_pd(out, pd);
  }

  __attribute__((target("avx512f,avx512dq,avx512vl")))
  static void run(const QuantScorerKernel& kern, const std::int32_t* xs,
                  std::size_t n, std::int32_t xt, double* out) noexcept {
    const std::int32_t* soa = kern.soa_.data();
    const std::int32_t* mt = soa + KLanes;
    const std::int32_t* b = soa + 3 * KLanes;
    const std::int32_t* g = soa + 4 * KLanes;
    const std::int32_t* c = soa + 5 * KLanes;

    alignas(64) std::int64_t local_cross[KLanes], local_ctm[KLanes];
    const std::int64_t* cross;
    const std::int64_t* ctm;
    if (kern.cache_enabled_) {
      if (!kern.cache_valid_ || kern.cache_xt_ != xt) {
        build_time_coeffs(mt, b, g, c, KLanes, xt, kern.frac_bits_,
                          kern.coef_frac_bits_, kern.cache_cross_,
                          kern.cache_ctm_);
        kern.cache_xt_ = xt;
        kern.cache_valid_ = true;
      }
      cross = kern.cache_cross_;
      ctm = kern.cache_ctm_;
    } else {
      build_time_coeffs(mt, b, g, c, KLanes, xt, kern.frac_bits_,
                        kern.coef_frac_bits_, local_cross, local_ctm);
      cross = local_cross;
      ctm = local_ctm;
    }

    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      score_block8(kern, xs + j, cross, ctm, out + j);
    }
    for (; j < n; ++j) {
      out[j] = score_page(kern, xs[j], cross, ctm);
    }
  }
};

bool quant_avx512_supported() noexcept {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
}

#pragma GCC diagnostic pop

#endif  // ICGMM_QUANT_AVX512

namespace {
std::atomic<bool> g_force_portable{false};
}  // namespace

void QuantScorerKernel::force_portable_for_testing(bool on) noexcept {
  g_force_portable.store(on, std::memory_order_relaxed);
}

QuantScorerKernel::BatchFn QuantScorerKernel::pick_batch_fn(
    std::size_t k) noexcept {
#if defined(ICGMM_QUANT_AVX512)
  if (quant_avx512_supported() &&
      !g_force_portable.load(std::memory_order_relaxed)) {
    switch (k) {
      case 4: return &QuantAvx512Entry<4, 8>::run;
      case 8: return &QuantAvx512Entry<8>::run;
      case 16: return &QuantAvx512Entry<16>::run;
      case 32: return &QuantAvx512Entry<32>::run;
      default: break;  // K = 1, 2 and generic stay on the portable cores
    }
  }
#endif
  switch (k) {
    case 1: return &QuantBatchEntry<1>::run;
    case 2: return &QuantBatchEntry<2>::run;
    // K = 4 pads to the 8-lane instantiation, same as the float kernel.
    case 4: return &QuantBatchEntry<4, 8>::run;
    case 8: return &QuantBatchEntry<8>::run;
    case 16: return &QuantBatchEntry<16>::run;
    case 32: return &QuantBatchEntry<32>::run;
    default: return &QuantBatchGeneric::run;
  }
}

QuantScorerKernel::QuantScorerKernel(const GaussianMixture& model,
                                     QuantScorerConfig cfg,
                                     bool timestamp_cache)
    : k_(model.size()),
      stride_(model.size() == 4 ? 8 : model.size()),
      frac_bits_(std::clamp(cfg.frac_bits, kMinFracBits, kMaxFracBits)),
      norm_(model.normalizer()),
      cache_enabled_(timestamp_cache),
      batch_fn_(pick_batch_fn(model.size())) {
  log_bound_raw_ = static_cast<std::int32_t>(std::int64_t{1024} << frac_bits_);
  input_bound_raw_ =
      static_cast<std::int32_t>((std::int64_t{16} << frac_bits_) - 1);
  inv_scale_ = 1.0 / static_cast<double>(std::int64_t{1} << frac_bits_);

  // Shared coefficient exponent: back off from Q(frac_bits) until the
  // model's largest quadratic-form coefficient fits the int32 raw budget.
  // Typical models keep coef_frac_bits_ == frac_bits_ (identical scoring
  // to the fixed layout); near-singular fits trade absolute grid pitch
  // for range, preserving the coefficients' relative precision instead of
  // saturating them.
  double max_coef = 0.0;
  for (const Gaussian2D& comp : model.components()) {
    for (const double v :
         {0.5 * comp.inv_pp(), comp.inv_pt(), 0.5 * comp.inv_tt()}) {
      if (std::isfinite(v)) max_coef = std::max(max_coef, std::abs(v));
    }
  }
  coef_frac_bits_ = frac_bits_;
  while (coef_frac_bits_ > 0 &&
         std::ldexp(max_coef, static_cast<int>(coef_frac_bits_)) >
             static_cast<double>(kCoefMax)) {
    --coef_frac_bits_;
  }

  // Quantizers: round to nearest on the grid, saturate at `bound`, map
  // NaN to `nan_to` (a NaN coefficient can only come from a degenerate
  // covariance; the substitute keeps the score pinned at the reject
  // floor rather than poisoning it). Inputs, means and c use the
  // Q(frac_bits) grid; a/b/g use the shared-exponent Q(coef_frac_bits)
  // grid.
  const auto make_qz = [](double one) {
    return [one](double v, std::int64_t bound,
                 std::int64_t nan_to) -> std::int32_t {
      if (v != v) return static_cast<std::int32_t>(nan_to);
      const double scaled = v * one;
      if (scaled >= static_cast<double>(bound))
        return static_cast<std::int32_t>(bound);
      if (scaled <= static_cast<double>(-bound))
        return static_cast<std::int32_t>(-bound);
      return static_cast<std::int32_t>(scaled >= 0 ? scaled + 0.5
                                                   : scaled - 0.5);
    };
  };
  const auto qz =
      make_qz(static_cast<double>(std::int64_t{1} << frac_bits_));
  const auto qz_coef =
      make_qz(static_cast<double>(std::int64_t{1} << coef_frac_bits_));

  soa_.assign(6 * stride_, 0);
  std::int32_t* mu_p = soa_.data();
  std::int32_t* mu_t = soa_.data() + stride_;
  std::int32_t* a = soa_.data() + 2 * stride_;
  std::int32_t* b = soa_.data() + 3 * stride_;
  std::int32_t* g = soa_.data() + 4 * stride_;
  std::int32_t* c = soa_.data() + 5 * stride_;
  const auto weights = model.weights();
  const auto comps = model.components();
  for (std::size_t i = 0; i < k_; ++i) {
    const Gaussian2D& comp = comps[i];
    mu_p[i] = qz(comp.mean().p, input_bound_raw_, 0);
    mu_t[i] = qz(comp.mean().t, input_bound_raw_, 0);
    a[i] = qz_coef(0.5 * comp.inv_pp(), kCoefMax, kCoefMax);
    b[i] = qz_coef(comp.inv_pt(), kCoefMax, 0);
    g[i] = qz_coef(0.5 * comp.inv_tt(), kCoefMax, kCoefMax);
    const double w = weights[i];
    const double lc =
        (w > 0.0 ? std::log(w) : -std::numeric_limits<double>::infinity()) +
        comp.log_norm();
    c[i] = qz(lc, log_bound_raw_, -log_bound_raw_);
  }
  // Pad lanes (K = 4 layout): zero coefficients, c at the floor so a pad
  // can never win the max-term scan.
  for (std::size_t i = k_; i < stride_; ++i) c[i] = -log_bound_raw_;

  // Pre-widened int64 model columns for the AVX-512 core (cheap enough
  // to build unconditionally).
  wide_.assign(2 * stride_, 0);
  for (std::size_t i = 0; i < stride_; ++i) {
    wide_[i] = mu_p[i];
    wide_[stride_ + i] = a[i];
  }

  // Per-kernel ln table: the exp accumulator lies in [2^19, k * 2^19]
  // exactly (the max term contributes 2^19, every other term [0, 2^19],
  // pads zero), so the table spans that range at the finest step that
  // keeps it within 2048 intervals. Entries pack the Q26 ln value and
  // the delta to the next entry for one-load interpolation.
  acc_shift_ = 0;
  const std::int64_t span = static_cast<std::int64_t>(k_ > 0 ? k_ - 1 : 0)
                            << kAccFracBits;
  while ((span >> acc_shift_) > 2047) ++acc_shift_;
  const std::int64_t idx_max = span >> acc_shift_;
  std::vector<std::int32_t> v(static_cast<std::size_t>(idx_max) + 2);
  for (std::int64_t j = 0; j <= idx_max + 1; ++j) {
    const double acc = static_cast<double>(
        (std::int64_t{1} << kAccFracBits) + (j << acc_shift_));
    v[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(
        std::lround(std::log(acc / static_cast<double>(
                                       std::int64_t{1} << kAccFracBits)) *
                    static_cast<double>(std::int64_t{1} << 26)));
  }
  lntab_.assign(static_cast<std::size_t>(idx_max) + 2, 0);
  for (std::int64_t j = 0; j <= idx_max; ++j) {
    const auto sj = static_cast<std::size_t>(j);
    lntab_[sj] = static_cast<std::uint32_t>(v[sj]) |
                 (static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(v[sj + 1] - v[sj]))
                  << 32);
  }
  lntab_[static_cast<std::size_t>(idx_max) + 1] =
      static_cast<std::uint32_t>(v[static_cast<std::size_t>(idx_max) + 1]);

  if (cache_enabled_ && batch_fn_ == &QuantBatchGeneric::run) {
    spill_.resize(2 * k_);
  }
}

std::int32_t QuantScorerKernel::to_fixed_input(double v) const noexcept {
  if (v != v) return 0;
  const double scaled =
      v * static_cast<double>(std::int64_t{1} << frac_bits_);
  if (scaled >= static_cast<double>(input_bound_raw_)) return input_bound_raw_;
  if (scaled <= static_cast<double>(-input_bound_raw_))
    return -input_bound_raw_;
  return static_cast<std::int32_t>(scaled >= 0 ? scaled + 0.5 : scaled - 0.5);
}

double QuantScorerKernel::score_one(PageIndex page, Timestamp t) const noexcept {
  return score_raw(static_cast<double>(page), static_cast<double>(t));
}

double QuantScorerKernel::score_raw(double raw_page,
                                    double raw_time) const noexcept {
  const std::int32_t xp =
      to_fixed_input((raw_page - norm_.p_offset) * norm_.p_scale);
  std::int32_t xt;
  if (cache_enabled_ && time_memo_valid_ && raw_time == last_raw_time_) {
    xt = last_xt_;
  } else {
    xt = to_fixed_input((raw_time - norm_.t_offset) * norm_.t_scale);
    if (cache_enabled_) {
      last_raw_time_ = raw_time;
      last_xt_ = xt;
      time_memo_valid_ = true;
    }
  }
  double out;
  run_batch(&xp, 1, xt, &out);
  return out;
}

void QuantScorerKernel::score_batch(std::span<const PageIndex> pages,
                                    Timestamp t,
                                    std::span<double> out) const noexcept {
  assert(out.size() >= pages.size());
  const std::int32_t xt =
      to_fixed_input((static_cast<double>(t) - norm_.t_offset) * norm_.t_scale);
  alignas(64) std::int32_t xs[kBatchChunk];
  for (std::size_t base = 0; base < pages.size(); base += kBatchChunk) {
    const std::size_t n = std::min(kBatchChunk, pages.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      xs[j] = to_fixed_input(
          (static_cast<double>(pages[base + j]) - norm_.p_offset) *
          norm_.p_scale);
    }
    run_batch(xs, n, xt, out.data() + base);
  }
}

double QuantScorerKernel::quantize_threshold(double v,
                                             unsigned frac_bits) noexcept {
  const unsigned f = std::clamp(frac_bits, kMinFracBits, kMaxFracBits);
  if (v != v) return 0.0;
  const double one = static_cast<double>(std::int64_t{1} << f);
  const std::int64_t bound = std::int64_t{1024} << f;
  const double scaled = v * one;
  std::int64_t raw;
  if (scaled >= static_cast<double>(bound)) {
    raw = bound;
  } else if (scaled <= static_cast<double>(-bound)) {
    raw = -bound;
  } else {
    raw = static_cast<std::int64_t>(scaled >= 0 ? scaled + 0.5 : scaled - 0.5);
  }
  return static_cast<double>(raw) / one;
}

}  // namespace icgmm::gmm
