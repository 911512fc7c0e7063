// gmm::ScorerKernel — the flat SoA scoring kernel every consumer (mixture,
// cache policy, runtime batcher, EM) funnels into.
//
// The load-bearing contracts verified here:
//  * bit-identity across every public entry point: mixture delegation,
//    score_one, score_raw, batched spans, with and without the timestamp
//    cache, fixed-K and runtime-K dispatch, pruning grid included;
//  * the pruning grid (K > 32): scores within a few ulps of the full sum
//    inside cells, on cell edges, in the outer bands and far outside the
//    grid, no fallback inside it, and one grid per model snapshot;
//  * numerical faithfulness to an independent AoS libm reference
//    (the seed implementation's shape);
//  * degenerate inputs: zero-weight components (-inf log-weight),
//    near-singular covariance, far outliers that take the guarded
//    max-subtracted fallback, empty batches.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gmm/kernel.hpp"
#include "gmm/mixture.hpp"
#include "gmm/online.hpp"
#include "test_util.hpp"

namespace icgmm::gmm {
namespace {

/// Independent reference: the seed's exact evaluation shape (per-component
/// log_pdf + log weight, max-subtracted libm log-sum-exp).
double reference_log_score_normalized(const GaussianMixture& m, Vec2 x) {
  double max_term = -std::numeric_limits<double>::infinity();
  std::vector<double> terms;
  for (std::size_t k = 0; k < m.size(); ++k) {
    const double w = m.weights()[k];
    terms.push_back((w > 0.0 ? std::log(w)
                             : -std::numeric_limits<double>::infinity()) +
                    m.components()[k].log_pdf(x));
    max_term = std::max(max_term, terms.back());
  }
  if (!std::isfinite(max_term)) return max_term;
  double acc = 0.0;
  for (double t : terms) acc += std::exp(t - max_term);
  return max_term + std::log(acc);
}

double reference_log_score(const GaussianMixture& m, double raw_page,
                           double raw_time) {
  return reference_log_score_normalized(
      m, m.normalizer().apply(raw_page, raw_time));
}

GaussianMixture random_model(std::size_t k, Rng& rng,
                             bool with_zero_weight = false) {
  std::vector<double> weights;
  std::vector<Gaussian2D> comps;
  for (std::size_t i = 0; i < k; ++i) {
    weights.push_back(with_zero_weight && i == 0 ? 0.0
                                                 : 0.1 + rng.uniform());
    const Vec2 mean{rng.uniform(), rng.uniform()};
    const double spp = rng.uniform(0.001, 0.1);
    const double stt = rng.uniform(0.001, 0.1);
    const double spt = rng.uniform(-0.6, 0.6) * std::sqrt(spp * stt);
    comps.emplace_back(mean, Cov2{spp, spt, stt});
  }
  Normalizer norm;
  norm.p_scale = 1.0 / 65536.0;
  norm.t_scale = 1.0 / 1000.0;
  return GaussianMixture(std::move(weights), std::move(comps), norm);
}

/// `m`'s inputs rebuilt with or without a pruning grid. Both twins
/// re-normalize the same weights, so their coefficients are identical.
GaussianMixture twin(const GaussianMixture& m, PruningGrid grid) {
  return GaussianMixture(
      std::vector<double>(m.weights().begin(), m.weights().end()),
      std::vector<Gaussian2D>(m.components().begin(), m.components().end()),
      m.normalizer(), grid);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Every public scoring entry point must produce identical bits for the
// same (page, timestamp) — this is what keeps admission thresholds,
// eviction rescoring, the simulator, and the serving runtime mutually
// consistent.
TEST(ScorerKernel, AllEntryPointsBitIdentical) {
  Rng rng(0xabc1);
  for (const std::size_t k :
       {1u, 2u, 3u, 4u, 7u, 8u, 16u, 32u, 33u, 64u, 256u}) {
    const GaussianMixture m = random_model(k, rng);
    const ScorerKernel cached = m.make_kernel();
    ASSERT_TRUE(cached.timestamp_cache_enabled());
    ASSERT_FALSE(m.kernel().timestamp_cache_enabled());

    std::vector<PageIndex> pages;
    for (int i = 0; i < 64; ++i) pages.push_back(rng.below(1u << 16));
    const Timestamp t = rng.below(1000);

    std::vector<double> batch(pages.size());
    cached.score_batch(pages, t, batch);
    std::vector<double> batch_stateless(pages.size());
    m.kernel().score_batch(pages, t, batch_stateless);

    for (std::size_t i = 0; i < pages.size(); ++i) {
      const double one = cached.score_one(pages[i], t);
      SCOPED_TRACE(testing::Message() << "k=" << k << " i=" << i);
      // batched == single, cached == stateless, kernel == mixture.
      EXPECT_EQ(bits(batch[i]), bits(one));
      EXPECT_EQ(bits(batch_stateless[i]), bits(one));
      EXPECT_EQ(bits(m.log_score(static_cast<double>(pages[i]),
                                 static_cast<double>(t))),
                bits(one));
      EXPECT_EQ(bits(cached.score_raw(static_cast<double>(pages[i]),
                                      static_cast<double>(t))),
                bits(one));
    }
  }
}

TEST(ScorerKernel, MatchesReferenceWithinTolerance) {
  Rng rng(0x51ee7);
  for (const std::size_t k : {2u, 8u, 16u, 33u, 256u}) {
    const GaussianMixture m = random_model(k, rng);
    const ScorerKernel kern = m.make_kernel();
    for (int i = 0; i < 200; ++i) {
      const double page = rng.uniform(0.0, 65536.0);
      const double time = rng.uniform(0.0, 1000.0);
      const double ref = reference_log_score(m, page, time);
      const double got = kern.score_raw(page, time);
      EXPECT_NEAR(got, ref, 1e-11 * std::max(1.0, std::abs(ref)))
          << "k=" << k << " page=" << page << " t=" << time;
    }
  }
}

TEST(ScorerKernel, TimestampCacheChangesNothing) {
  Rng rng(0xcafe);
  const GaussianMixture m = random_model(8, rng);
  const ScorerKernel kern = m.make_kernel();
  // Repeated timestamps (cache hits), interleaved with changes, against
  // a fresh kernel per call (never a hit).
  for (int i = 0; i < 300; ++i) {
    const PageIndex page = rng.below(1u << 16);
    const Timestamp t = i % 3 == 0 ? rng.below(1000) : 77;
    const ScorerKernel fresh = m.make_kernel();
    EXPECT_EQ(bits(kern.score_one(page, t)), bits(fresh.score_one(page, t)));
  }
}

TEST(ScorerKernel, CopiesAreIndependent) {
  Rng rng(0xd00d);
  const GaussianMixture m = random_model(8, rng);
  const ScorerKernel a = m.make_kernel();
  a.score_one(5, 500);  // warm a's timestamp cache
  const ScorerKernel b = a;
  // Diverging timestamp streams through the two copies must not interfere.
  for (int i = 0; i < 100; ++i) {
    const PageIndex page = rng.below(1u << 16);
    const double va = a.score_one(page, 500);
    const double vb = b.score_one(page, 900);
    EXPECT_EQ(bits(va), bits(m.log_score(static_cast<double>(page), 500.0)));
    EXPECT_EQ(bits(vb), bits(m.log_score(static_cast<double>(page), 900.0)));
  }
}

TEST(ScorerKernel, ZeroWeightComponentScoresLikeReference) {
  Rng rng(0xbeef);
  const GaussianMixture m = random_model(8, rng, /*with_zero_weight=*/true);
  EXPECT_EQ(m.weights()[0], 0.0);
  const ScorerKernel kern = m.make_kernel();
  for (int i = 0; i < 100; ++i) {
    const double page = rng.uniform(0.0, 65536.0);
    const double time = rng.uniform(0.0, 1000.0);
    const double ref = reference_log_score(m, page, time);
    EXPECT_NEAR(kern.score_raw(page, time), ref,
                1e-11 * std::max(1.0, std::abs(ref)));
    EXPECT_TRUE(std::isfinite(kern.score_raw(page, time)));
  }
}

TEST(ScorerKernel, FarOutlierTakesGuardedPathAndStaysExact) {
  // Tight covariances + an input far outside the normalized box: the
  // direct sum underflows past kAccFloor and the kernel re-scores through
  // the exact max-subtracted fallback, which must agree with the libm
  // reference to full precision (it is the same math).
  std::vector<double> weights{0.5, 0.5};
  std::vector<Gaussian2D> comps{
      Gaussian2D({0.5, 0.5}, {1e-5, 0.0, 1e-5}),
      Gaussian2D({0.2, 0.8}, {1e-5, 0.0, 1e-5}),
  };
  const GaussianMixture m(weights, comps, {});
  const ScorerKernel kern = m.make_kernel();
  const double got = kern.score_raw(50.0, 50.0);  // ~1e5 sigma away
  const double ref = reference_log_score(m, 50.0, 50.0);
  EXPECT_LT(got, -1e5);
  EXPECT_NEAR(got, ref, 1e-9 * std::abs(ref));
  // And batches mixing outliers with inliers stay consistent per page.
  const PageIndex pages[4] = {50, 0, 1, 2};
  double out[4];
  kern.score_batch({pages, 4}, 50, {out, 4});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bits(out[i]), bits(kern.score_one(pages[i], 50)));
  }
}

TEST(ScorerKernel, ZeroWeightTermSurvivesGuardedPath) {
  // A zero-weight (-inf log-weight) component combined with a far-field
  // input drives the guarded fallback; the -inf term must drop out of the
  // sum exactly as in the reference, leaving a finite score.
  std::vector<double> weights{1.0, 0.0};
  std::vector<Gaussian2D> comps{
      Gaussian2D({0.5, 0.5}, {1e-6, 0.0, 1e-6}),
      Gaussian2D({0.5, 0.5}, {1e-6, 0.0, 1e-6}),
  };
  const GaussianMixture m(weights, comps, {});
  const ScorerKernel kern = m.make_kernel();
  const double got = kern.score_raw(1000.0, 1000.0);
  const double ref = reference_log_score(m, 1000.0, 1000.0);
  EXPECT_TRUE(std::isfinite(got));
  EXPECT_NEAR(got, ref, 1e-9 * std::abs(ref));
}

TEST(ScorerKernel, NearSingularCovariance) {
  // Covariance at the edge of positive definiteness (what EM's reg_covar
  // ridge produces in the worst case).
  std::vector<double> weights{1.0};
  const double s = 1e-12;
  std::vector<Gaussian2D> comps{Gaussian2D({0.5, 0.5}, {s, 0.0, s})};
  const GaussianMixture m(weights, comps, {});
  const ScorerKernel kern = m.make_kernel();
  const double at_mean = kern.score_raw(0.5, 0.5);
  EXPECT_TRUE(std::isfinite(at_mean));
  EXPECT_NEAR(at_mean, reference_log_score(m, 0.5, 0.5),
              1e-11 * std::abs(at_mean) + 1e-11);
  EXPECT_LT(kern.score_raw(0.6, 0.5), at_mean);
}

TEST(ScorerKernel, EmptyBatchIsANoOp) {
  Rng rng(0x11);
  const GaussianMixture m = random_model(4, rng);
  const ScorerKernel kern = m.make_kernel();
  kern.score_batch({}, 5, {});
  double sentinel = 42.0;
  kern.score_batch({}, 5, {&sentinel, 1});
  EXPECT_EQ(sentinel, 42.0);
}

TEST(ScorerKernel, HeapSpillPathAboveFixedLimit) {
  Rng rng(0x5b111);
  const std::size_t k = ScorerKernel::kMaxFixedComponents + 1;
  const GaussianMixture m = random_model(k, rng);
  const ScorerKernel kern = m.make_kernel();
  std::vector<PageIndex> pages;
  for (int i = 0; i < 100; ++i) pages.push_back(rng.below(1u << 16));
  std::vector<double> out(pages.size());
  kern.score_batch(pages, 123, out);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(bits(out[i]), bits(kern.score_one(pages[i], 123)));
    EXPECT_EQ(bits(out[i]),
              bits(m.log_score(static_cast<double>(pages[i]), 123.0)));
  }
}

TEST(ScorerKernel, LargeSpansAreChunkedCorrectly) {
  Rng rng(0xc4a11);
  const GaussianMixture m = random_model(8, rng);
  const ScorerKernel kern = m.make_kernel();
  std::vector<PageIndex> pages;
  for (int i = 0; i < 200; ++i) pages.push_back(rng.below(1u << 16));
  std::vector<double> out(pages.size());
  kern.score_batch(pages, 9, out);  // > one 64-page chunk
  for (std::size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(bits(out[i]), bits(kern.score_one(pages[i], 9)));
  }
}

TEST(ScorerKernel, ComponentLogTermsMatchReference) {
  Rng rng(0x7e57);
  for (const std::size_t k : {3u, 8u, 256u}) {
    const GaussianMixture m = random_model(k, rng);
    std::vector<double> terms(k);
    for (int i = 0; i < 50; ++i) {
      const Vec2 x{rng.uniform(), rng.uniform()};
      const double max_term = m.kernel().component_log_terms(x, terms);
      double ref_max = -std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        const double w = m.weights()[c];
        const double ref =
            (w > 0.0 ? std::log(w) : -std::numeric_limits<double>::infinity()) +
            m.components()[c].log_pdf(x);
        EXPECT_NEAR(terms[c], ref, 1e-11 * std::max(1.0, std::abs(ref)));
        ref_max = std::max(ref_max, ref);
      }
      EXPECT_NEAR(max_term, ref_max, 1e-11 * std::max(1.0, std::abs(ref_max)));
    }
  }
}

TEST(ScorerKernel, MixtureDelegationIsSelfConsistent) {
  Rng rng(0x99);
  const GaussianMixture m = random_model(8, rng);
  for (int i = 0; i < 50; ++i) {
    const double p = rng.uniform(0.0, 65536.0);
    const double t = rng.uniform(0.0, 1000.0);
    const Vec2 x = m.normalizer().apply(p, t);
    EXPECT_EQ(bits(m.log_score(p, t)), bits(m.log_score_normalized(x)));
    EXPECT_DOUBLE_EQ(m.score(p, t), std::exp(m.log_score(p, t)));
  }
  const std::vector<Vec2> xs{{0.1, 0.2}, {0.8, 0.9}};
  EXPECT_EQ(bits(m.mean_log_likelihood(xs)),
            bits((m.log_score_normalized(xs[0]) +
                  m.log_score_normalized(xs[1])) /
                 2.0));
}

/// Whether `b` holds `score`; a NaN score needs the unbounded bracket.
bool holds(ScoreBracket b, double score) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (std::isnan(score)) return b.lo == -kInf && b.hi == kInf;
  return b.lo <= score && score <= b.hi;
}

// The pruned score of every input equals the full K-term sum of the same
// coefficients to a few ulps (the dropped mass is below e^-37 of the
// score), and the libm reference to a tighter tolerance than the full-sum
// tests above use: inside cells, exactly on cell edges, in the outer time
// bands and far outside the grid, for a broad and a trained-like model.
// Every score also lies in its bracket, L <= score <= U: the same inputs,
// every bracket cell corner and the doubles either side of it, and every
// component mean (where U is tightest).
TEST(ScorerKernel, PrunedScoresMatchFullSumAcrossTheGrid) {
  Rng rng(0x9121d);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const bool narrow : {false, true}) {
    for (const std::size_t k : {33u, 64u, 256u}) {
      SCOPED_TRACE(testing::Message() << "narrow=" << narrow << " k=" << k);
      const GaussianMixture source =
          narrow ? test_util::narrow_mixture(k, rng) : random_model(k, rng);
      const GaussianMixture pruned = twin(source, PruningGrid::kBuild);
      const GaussianMixture full = twin(source, PruningGrid::kDefer);
      ASSERT_TRUE(pruned.kernel().pruned());
      ASSERT_FALSE(full.kernel().pruned());

      const auto bracketed = [&](Vec2 x) {
        const double got = pruned.log_score_normalized(x);
        const ScoreBracket b = pruned.kernel().bracket_normalized(x);
        EXPECT_TRUE(holds(b, got)) << "p=" << x.p << " t=" << x.t << ": "
                                   << b.lo << " <= " << got << " <= " << b.hi;
      };
      const auto check = [&](Vec2 x) {
        const double got = pruned.log_score_normalized(x);
        const double want = full.log_score_normalized(x);
        const double ref = reference_log_score_normalized(pruned, x);
        SCOPED_TRACE(testing::Message() << "p=" << x.p << " t=" << x.t);
        EXPECT_NEAR(got, want, 1e-13 * std::max(1.0, std::abs(want)));
        EXPECT_NEAR(got, ref, 1e-12 * std::max(1.0, std::abs(ref)));
        bracketed(x);
      };
      const std::size_t kp_bands = ScorerKernel::kBracketPageBands;
      const std::size_t kt_bands = ScorerKernel::kBracketTimeBands;
      for (std::size_t j = 0; j <= kp_bands; ++j) {  // bracket cell corners
        for (std::size_t i = 0; i <= kt_bands; ++i) {
          const double p = static_cast<double>(j) / static_cast<double>(kp_bands);
          const double t = -1.0 + 3.0 * static_cast<double>(i) /
                                      static_cast<double>(kt_bands);
          for (const double dp : {p, std::nextafter(p, -kInf),
                                  std::nextafter(p, kInf)}) {
            for (const double dt : {t, std::nextafter(t, -kInf),
                                    std::nextafter(t, kInf)}) {
              bracketed({dp, dt});
            }
          }
        }
      }
      for (const Gaussian2D& comp : pruned.components()) {
        bracketed(comp.mean());
      }
      for (int i = 0; i < 300; ++i) {  // inside cells, outer bands included
        check({rng.uniform(), rng.uniform(-1.0, 2.0)});
      }
      for (int j = 0; j <= 8; ++j) {  // every cell corner and edge crossing
        for (int i = 0; i <= 96; ++i) check({j / 8.0, -1.0 + i / 32.0});
      }
      for (int i = 0; i < 100; ++i) {  // far outside the grid
        check({rng.uniform(), rng.uniform(-10.0, 10.0)});
        check({rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
      }

      // Extreme page indices go through the raw entry points, and
      // non-finite raw doubles land in an edge cell and score like the
      // full sum (NaN where it is NaN).
      const ScorerKernel kp = pruned.make_kernel();
      const ScorerKernel kf = full.make_kernel();
      for (const PageIndex page : {PageIndex{0}, ~PageIndex{0}}) {
        for (const Timestamp t :
             {Timestamp{0}, Timestamp{500}, ~Timestamp{0}}) {
          const double want = kf.score_one(page, t);
          const double got = kp.score_one(page, t);
          EXPECT_NEAR(got, want, 1e-13 * std::max(1.0, std::abs(want)))
              << "page=" << page << " t=" << t;
          ScoreBracket b;
          ASSERT_TRUE(kp.bracket_batch({&page, 1}, t, {&b, 1}));
          EXPECT_TRUE(holds(b, got)) << "page=" << page << " t=" << t;
        }
      }
      for (const double raw : {kInf, -kInf, kNaN, 1e300, -1e300}) {
        for (const auto& [p, t] : {std::pair{raw, 500.0},
                                   std::pair{30000.0, raw},
                                   std::pair{raw, raw}}) {
          const double got = kp.score_raw(p, t);
          const double want = kf.score_raw(p, t);
          EXPECT_EQ(std::isnan(got), std::isnan(want)) << p << " " << t;
          if (!std::isnan(want)) {
            EXPECT_EQ(bits(got), bits(want)) << p << " " << t;
          }
          EXPECT_TRUE(holds(kp.bracket_normalized(
                                pruned.normalizer().apply(p, t)),
                            got))
              << p << " " << t;
        }
      }

      // Inside the grid no page falls back; far outside, pages do, and
      // then score exactly as the full sum.
      std::vector<PageIndex> pages;
      for (int i = 0; i < 64; ++i) pages.push_back(rng.below(1u << 16));
      std::vector<double> out(pages.size());
      std::vector<double> want(pages.size());
      std::size_t kept = 0;
      for (const Timestamp t : {Timestamp{0}, Timestamp{700}, Timestamp{1500},
                                Timestamp{1999}}) {
        EXPECT_EQ(kp.score_batch(pages, t, out), 0u) << "t=" << t;
        for (const PageIndex page : pages) kept += kp.terms_kept(page, t);
      }
      const Timestamp far = 10000;  // normalized t = 10
      EXPECT_GT(kp.score_batch(pages, far, out), 0u);
      EXPECT_EQ(kf.score_batch(pages, far, want), 0u);
      for (std::size_t i = 0; i < pages.size(); ++i) {
        EXPECT_NEAR(out[i], want[i], 1e-13 * std::abs(want[i]));
      }
      if (narrow && k == 256) {
        // The grid actually prunes a trained-like model.
        EXPECT_LT(kept, 4 * pages.size() * k / 2);
      }
    }
  }
}

/// Pairs of narrow components (sigma 0.001-0.003) sharing a mean, on a
/// 6 x 6 lattice over the unit square: at a pair's mean every other
/// component is hundreds of nats down.
GaussianMixture isolated_model(Rng& rng) {
  std::vector<double> weights;
  std::vector<Gaussian2D> comps;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      for (int pair = 0; pair < 2; ++pair) {
        weights.push_back(0.1 + rng.uniform());
        const double sp = rng.uniform(0.001, 0.003);
        const double st = rng.uniform(0.001, 0.003);
        comps.emplace_back(Vec2{(i + 0.5) / 6.0, (j + 0.5) / 6.0},
                           Cov2{sp * sp, 0.0, st * st});
      }
    }
  }
  Normalizer norm;
  norm.p_scale = 1.0 / 65536.0;
  norm.t_scale = 1.0 / 1000.0;
  return GaussianMixture(std::move(weights), std::move(comps), norm);
}

// At an isolated pair's mean the score is log(e^c1 + e^c2) in the
// kernel's arithmetic and the bracket's upper bound is the same sum in
// libm's, so they differ by rounding alone: there only the margin keeps
// the score inside its bracket (without it, some of these scores sit an
// ulp or two above their upper bound).
TEST(ScorerKernel, BracketMarginCoversRoundingAtIsolatedMeans) {
  Rng rng(0x150);
  for (int model = 0; model < 8; ++model) {
    const GaussianMixture m = isolated_model(rng);
    ASSERT_TRUE(m.kernel().pruned());
    for (const Gaussian2D& comp : m.components()) {
      const double got = m.log_score_normalized(comp.mean());
      const ScoreBracket b = m.kernel().bracket_normalized(comp.mean());
      EXPECT_TRUE(holds(b, got)) << "model " << model << " p="
                                 << comp.mean().p << " t=" << comp.mean().t
                                 << ": " << b.lo << " <= " << got
                                 << " <= " << b.hi;
      EXPECT_LT(b.hi - got, 1e-5);  // the bound is tight there
    }
  }
}

// The bracket table comes with the grid: bracket_batch agrees with
// bracket_normalized page by page, edge cells are unbounded, finite
// brackets are a few nats wide on a trained-like model, and a kernel
// without a grid has no brackets.
TEST(ScorerKernel, BracketsComeWithTheGrid) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(0xb4ac);
  const GaussianMixture source = test_util::narrow_mixture(256, rng);
  const GaussianMixture pruned = twin(source, PruningGrid::kBuild);
  const ScorerKernel kernel = pruned.make_kernel();
  EXPECT_GE(kernel.grid_bytes(), (ScorerKernel::kBracketPageBands + 2) *
                                     (ScorerKernel::kBracketTimeBands + 2) *
                                     sizeof(ScoreBracket));

  std::vector<PageIndex> pages;
  for (int i = 0; i < 64; ++i) pages.push_back(rng.below(1u << 16));
  std::vector<ScoreBracket> out(pages.size());
  std::vector<double> widths;
  for (const Timestamp t : {Timestamp{0}, Timestamp{700}, Timestamp{1999},
                            Timestamp{5000}}) {
    ASSERT_TRUE(kernel.bracket_batch(pages, t, out));
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const ScoreBracket want = kernel.bracket_normalized(
          pruned.normalizer().apply(static_cast<double>(pages[i]),
                                    static_cast<double>(t)));
      EXPECT_EQ(bits(out[i].lo), bits(want.lo));
      EXPECT_EQ(bits(out[i].hi), bits(want.hi));
      if (t == 5000) {  // normalized t = 5: the upper edge band
        EXPECT_EQ(out[i].lo, -kInf);
        EXPECT_EQ(out[i].hi, kInf);
      } else {
        widths.push_back(out[i].hi - out[i].lo);
      }
    }
  }
  std::sort(widths.begin(), widths.end());
  EXPECT_LT(widths[widths.size() / 2], 8.0);

  const GaussianMixture full = twin(source, PruningGrid::kDefer);
  EXPECT_FALSE(full.make_kernel().bracket_batch(pages, 0, out));
  const ScoreBracket none = full.kernel().bracket_normalized({0.5, 0.5});
  EXPECT_EQ(none.lo, -kInf);
  EXPECT_EQ(none.hi, kInf);
  const GaussianMixture small = random_model(32, rng);
  EXPECT_FALSE(small.make_kernel().bracket_batch(pages, 0, out));
}

// The grid belongs to the model snapshot: every copy of a mixture and
// every make_kernel() kernel shares it, training loops defer it, and a
// deferred mixture that builds it later scores exactly like one built
// with it.
TEST(ScorerKernel, GridIsPartOfTheModelSnapshot) {
  Rng rng(0x6e1d);
  const GaussianMixture source = test_util::narrow_mixture(256, rng);
  const GaussianMixture built = twin(source, PruningGrid::kBuild);
  GaussianMixture deferred = twin(source, PruningGrid::kDefer);
  const GaussianMixture before = deferred;
  EXPECT_FALSE(deferred.make_kernel().pruned());
  deferred.build_pruning_grid();
  EXPECT_TRUE(deferred.kernel().pruned());
  EXPECT_TRUE(deferred.make_kernel().pruned());
  EXPECT_FALSE(before.kernel().pruned());  // earlier copies keep full sums
  EXPECT_GT(built.kernel().grid_bytes(), 0u);
  EXPECT_EQ(deferred.kernel().grid_bytes(), built.kernel().grid_bytes());
  const GaussianMixture copy = built;
  for (int i = 0; i < 200; ++i) {
    const double p = rng.uniform(0.0, 65536.0);
    const double t = rng.uniform(-1000.0, 2000.0);
    EXPECT_EQ(bits(deferred.log_score(p, t)), bits(built.log_score(p, t)));
    EXPECT_EQ(bits(copy.make_kernel().score_raw(p, t)),
              bits(built.log_score(p, t)));
  }

  // Online EM's per-step models defer the grid.
  OnlineEm online(built, {.batch = 16});
  std::vector<trace::GmmSample> samples;
  for (int i = 0; i < 32; ++i) {
    samples.push_back({.page = rng.uniform(0.0, 65536.0),
                       .time = rng.uniform(0.0, 1000.0)});
  }
  ASSERT_EQ(online.observe(samples), 2u);
  EXPECT_FALSE(online.model().kernel().pruned());

  // At or below the fixed-K limit there is no grid to build.
  GaussianMixture small = random_model(ScorerKernel::kMaxFixedComponents, rng);
  small.build_pruning_grid();
  EXPECT_FALSE(small.kernel().pruned());
  EXPECT_EQ(small.kernel().grid_bytes(), 0u);
}

}  // namespace
}  // namespace icgmm::gmm
