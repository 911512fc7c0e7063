// EM training tests: recovery of known mixtures, convergence behaviour,
// robustness to degenerate inputs, and bit-for-bit equality of the
// blocked, threaded E-step and k-means with the serial loops they replace.
#include "gmm/em.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <thread>

#include "common/rng.hpp"
#include "gmm/estep.hpp"
#include "gmm/kernel.hpp"
#include "gmm/kmeans.hpp"
#include "gmm/workers.hpp"
#include "trace/generator.hpp"

namespace icgmm::gmm {
namespace {

/// Draws from a known 2-component mixture for recovery tests.
std::vector<trace::GmmSample> two_cluster_data(std::size_t n, Rng& rng) {
  std::vector<trace::GmmSample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.3)) {
      out.push_back({rng.gaussian(100.0, 5.0), rng.gaussian(20.0, 2.0)});
    } else {
      out.push_back({rng.gaussian(500.0, 10.0), rng.gaussian(80.0, 4.0)});
    }
  }
  return out;
}

TEST(EmTrainer, ThrowsOnEmptyInput) {
  EmTrainer trainer;
  EXPECT_THROW(trainer.fit({}), std::invalid_argument);
}

TEST(EmTrainer, NormalizerCoversBoundingBox) {
  const std::vector<trace::GmmSample> samples = {{10, 1}, {110, 3}, {60, 2}};
  const Normalizer n = EmTrainer::make_normalizer(samples);
  const Vec2 lo = n.apply(10, 1);
  const Vec2 hi = n.apply(110, 3);
  EXPECT_DOUBLE_EQ(lo.p, 0.0);
  EXPECT_DOUBLE_EQ(lo.t, 0.0);
  EXPECT_DOUBLE_EQ(hi.p, 1.0);
  EXPECT_DOUBLE_EQ(hi.t, 1.0);
}

TEST(EmTrainer, NormalizerHandlesConstantAxis) {
  const std::vector<trace::GmmSample> samples = {{5, 7}, {5, 7}};
  const Normalizer n = EmTrainer::make_normalizer(samples);
  const Vec2 x = n.apply(5, 7);
  EXPECT_TRUE(std::isfinite(x.p));
  EXPECT_TRUE(std::isfinite(x.t));
}

TEST(EmTrainer, RecoversTwoClusterMixture) {
  Rng rng(31);
  const auto samples = two_cluster_data(4000, rng);
  EmConfig cfg;
  cfg.components = 2;
  cfg.max_iters = 60;
  EmTrainer trainer(cfg);
  const GaussianMixture model = trainer.fit(samples);

  // Weights ~ {0.3, 0.7} in some order.
  std::vector<double> w(model.weights().begin(), model.weights().end());
  std::sort(w.begin(), w.end());
  EXPECT_NEAR(w[0], 0.3, 0.04);
  EXPECT_NEAR(w[1], 0.7, 0.04);

  // The cluster centers score far above the gap between them.
  EXPECT_GT(model.log_score(500, 80), model.log_score(300, 50) + 3.0);
  EXPECT_GT(model.log_score(100, 20), model.log_score(300, 50) + 3.0);
}

TEST(EmTrainer, LogLikelihoodNonDecreasing) {
  Rng rng(33);
  const auto samples = two_cluster_data(1500, rng);
  EmConfig cfg;
  cfg.components = 4;
  cfg.max_iters = 25;
  cfg.tol = 0.0;  // run all iterations
  EmTrainer trainer(cfg);
  trainer.fit(samples);
  const auto& ll = trainer.report().ll_history;
  ASSERT_GE(ll.size(), 2u);
  for (std::size_t i = 1; i < ll.size(); ++i) {
    // EM guarantees monotone improvement (tiny epsilon for re-seeded
    // degenerate components and floating-point noise).
    EXPECT_GE(ll[i], ll[i - 1] - 1e-6) << "iteration " << i;
  }
}

TEST(EmTrainer, ConvergesAndStopsEarly) {
  Rng rng(35);
  const auto samples = two_cluster_data(1000, rng);
  EmConfig cfg;
  cfg.components = 2;
  cfg.max_iters = 100;
  cfg.tol = 1e-4;
  EmTrainer trainer(cfg);
  trainer.fit(samples);
  EXPECT_TRUE(trainer.report().converged);
  EXPECT_LT(trainer.report().iterations, 100u);
}

TEST(EmTrainer, HandlesDuplicatePoints) {
  // All-identical input: covariance collapses onto the ridge; must not
  // throw or produce non-finite parameters.
  std::vector<trace::GmmSample> samples(200, trace::GmmSample{42.0, 7.0});
  EmConfig cfg;
  cfg.components = 4;
  cfg.max_iters = 10;
  EmTrainer trainer(cfg);
  const GaussianMixture model = trainer.fit(samples);
  EXPECT_TRUE(std::isfinite(model.log_score(42.0, 7.0)));
  EXPECT_GT(model.log_score(42.0, 7.0), model.log_score(43.0, 8.0));
}

TEST(EmTrainer, MoreComponentsFitAtLeastAsWell) {
  Rng rng(37);
  const auto samples = two_cluster_data(2500, rng);
  double prev_ll = -1e300;
  for (std::uint32_t k : {1u, 2u, 8u}) {
    EmConfig cfg;
    cfg.components = k;
    cfg.max_iters = 40;
    EmTrainer trainer(cfg);
    trainer.fit(samples);
    const double ll = trainer.report().final_mean_log_likelihood;
    EXPECT_GE(ll, prev_ll - 0.05) << "k=" << k;  // small slack for EM noise
    prev_ll = ll;
  }
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Equal bits, or both NaN (a NaN's payload may follow operand order).
bool same_bits(double a, double b) {
  return bits(a) == bits(b) || (std::isnan(a) && std::isnan(b));
}

void expect_same_model(const GaussianMixture& a, const GaussianMixture& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    const Gaussian2D& ga = a.components()[c];
    const Gaussian2D& gb = b.components()[c];
    EXPECT_TRUE(same_bits(a.weights()[c], b.weights()[c])) << "weight " << c;
    EXPECT_TRUE(same_bits(ga.mean().p, gb.mean().p)) << "mean.p " << c;
    EXPECT_TRUE(same_bits(ga.mean().t, gb.mean().t)) << "mean.t " << c;
    EXPECT_TRUE(same_bits(ga.cov().pp, gb.cov().pp)) << "cov.pp " << c;
    EXPECT_TRUE(same_bits(ga.cov().pt, gb.cov().pt)) << "cov.pt " << c;
    EXPECT_TRUE(same_bits(ga.cov().tt, gb.cov().tt)) << "cov.tt " << c;
  }
}

void expect_same_report(const FitReport& a, const FitReport& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.resets, b.resets);
  EXPECT_TRUE(same_bits(a.final_mean_log_likelihood,
                        b.final_mean_log_likelihood));
  ASSERT_EQ(a.ll_history.size(), b.ll_history.size());
  for (std::size_t i = 0; i < a.ll_history.size(); ++i) {
    EXPECT_TRUE(same_bits(a.ll_history[i], b.ll_history[i])) << "iter " << i;
  }
}

TEST(EmTrainer, DeterministicForSeed) {
  Rng rng(39);
  const auto samples = two_cluster_data(800, rng);
  EmConfig cfg;
  cfg.components = 3;
  cfg.max_iters = 15;
  EmTrainer a(cfg), b(cfg);
  const GaussianMixture ma = a.fit(samples);
  const GaussianMixture mb = b.fit(samples);
  expect_same_model(ma, mb);
  expect_same_report(a.report(), b.report());
}

// --- The serial loops the blocked, threaded passes must reproduce. ---

constexpr double oracle_dist2(Vec2 a, Vec2 b) {
  const double dp = a.p - b.p;
  const double dt = a.t - b.t;
  return dp * dp + dt * dt;
}

/// k-means++ seeding and Lloyd refinement, one sample at a time.
KMeansResult oracle_kmeans(std::span<const Vec2> samples,
                           const KMeansConfig& cfg, Rng& rng) {
  const std::size_t k = std::min<std::size_t>(cfg.clusters, samples.size());
  KMeansResult result;
  result.centers.push_back(samples[rng.below(samples.size())]);
  std::vector<double> d2(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    d2[i] = oracle_dist2(samples[i], result.centers[0]);
  }
  while (result.centers.size() < k) {
    double total = 0.0;
    for (double d : d2) total += d;
    std::size_t pick = 0;
    if (total > 0.0) {
      double target = rng.uniform() * total;
      for (std::size_t i = 0; i < d2.size(); ++i) {
        target -= d2[i];
        if (target <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = rng.below(samples.size());
    }
    result.centers.push_back(samples[pick]);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      d2[i] = std::min(d2[i], oracle_dist2(samples[i], result.centers.back()));
    }
  }
  while (result.centers.size() < cfg.clusters) {
    result.centers.push_back(samples[rng.below(samples.size())]);
  }
  auto assign = [&] {
    std::fill(result.counts.begin(), result.counts.end(), std::size_t{0});
    result.inertia = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t best_c = 0;
      for (std::uint32_t c = 0; c < result.centers.size(); ++c) {
        const double d = oracle_dist2(samples[i], result.centers[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      result.assignment[i] = best_c;
      ++result.counts[best_c];
      result.inertia += best;
    }
  };
  result.assignment.assign(samples.size(), 0);
  result.counts.assign(result.centers.size(), 0);
  for (std::uint32_t iter = 0; iter < cfg.lloyd_iters; ++iter) {
    assign();
    std::vector<Vec2> sums(result.centers.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      sums[result.assignment[i]].p += samples[i].p;
      sums[result.assignment[i]].t += samples[i].t;
    }
    for (std::size_t c = 0; c < result.centers.size(); ++c) {
      if (result.counts[c] == 0) {
        result.centers[c] = samples[rng.below(samples.size())];
        continue;
      }
      const auto inv = 1.0 / static_cast<double>(result.counts[c]);
      result.centers[c] = {sums[c].p * inv, sums[c].t * inv};
    }
  }
  assign();
  return result;
}

struct OracleSuff {
  double n = 0.0, sp = 0.0, st = 0.0, spp = 0.0, spt = 0.0, stt = 0.0;
};

/// The serial E-step: every exponential taken, statistics summed sample by
/// sample. Returns the sum of the log-likelihood terms.
double oracle_e_step(const ScorerKernel& kern, std::span<const Vec2> xs,
                     std::vector<OracleSuff>& suff) {
  const std::size_t k = kern.size();
  std::vector<double> terms(k);
  double ll = 0.0;
  for (const Vec2& x : xs) {
    const double max_term = kern.component_log_terms(x, terms);
    double denom = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      terms[c] = std::exp(terms[c] - max_term);
      denom += terms[c];
    }
    ll += max_term + std::log(denom);
    const double inv_denom = 1.0 / denom;
    for (std::size_t c = 0; c < k; ++c) {
      const double r = terms[c] * inv_denom;
      if (r < 1e-12) continue;
      OracleSuff& s = suff[c];
      s.n += r;
      s.sp += r * x.p;
      s.st += r * x.t;
      s.spp += r * x.p * x.p;
      s.spt += r * x.p * x.t;
      s.stt += r * x.t * x.t;
    }
  }
  return ll;
}

struct OracleFit {
  GaussianMixture model;
  FitReport report;
};

/// EmTrainer::fit as one serial loop.
OracleFit oracle_fit(const EmConfig& cfg,
                     std::span<const trace::GmmSample> samples) {
  FitReport report;
  Rng rng(cfg.seed);
  const Normalizer norm = EmTrainer::make_normalizer(samples);
  std::vector<Vec2> xs;
  for (const auto& s : samples) xs.push_back(norm.apply(s.page, s.time));
  const std::size_t n = xs.size();
  const std::size_t k = cfg.components;

  const KMeansResult km = oracle_kmeans(
      xs, {.clusters = cfg.components, .lloyd_iters = cfg.kmeans_iters}, rng);
  std::vector<double> weights(k);
  std::vector<Vec2> means(k);
  std::vector<Cov2> covs(k);
  {
    std::vector<OracleSuff> suff(k);
    for (std::size_t i = 0; i < n; ++i) {
      OracleSuff& s = suff[km.assignment[i]];
      s.n += 1.0;
      s.sp += xs[i].p;
      s.st += xs[i].t;
      s.spp += xs[i].p * xs[i].p;
      s.spt += xs[i].p * xs[i].t;
      s.stt += xs[i].t * xs[i].t;
    }
    for (std::size_t c = 0; c < k; ++c) {
      const OracleSuff& s = suff[c];
      if (s.n < 1.0) {
        const Vec2 x = xs[rng.below(n)];
        weights[c] = 1.0 / static_cast<double>(n);
        means[c] = x;
        covs[c] = {0.01, 0.0, 0.01};
        continue;
      }
      weights[c] = s.n / static_cast<double>(n);
      means[c] = {s.sp / s.n, s.st / s.n};
      covs[c] = {s.spp / s.n - means[c].p * means[c].p + cfg.reg_covar,
                 s.spt / s.n - means[c].p * means[c].t,
                 s.stt / s.n - means[c].t * means[c].t + cfg.reg_covar};
    }
  }
  auto build = [&](PruningGrid grid) {
    std::vector<Gaussian2D> comps;
    for (std::size_t c = 0; c < k; ++c) comps.emplace_back(means[c], covs[c]);
    return GaussianMixture(weights, std::move(comps), norm, grid);
  };

  double prev_ll = -std::numeric_limits<double>::infinity();
  for (std::uint32_t iter = 0; iter < cfg.max_iters; ++iter) {
    const GaussianMixture model = build(PruningGrid::kDefer);
    std::vector<OracleSuff> suff(k);
    double ll = oracle_e_step(model.kernel(), xs, suff);
    ll /= static_cast<double>(n);
    report.ll_history.push_back(ll);
    report.iterations = iter + 1;
    for (std::size_t c = 0; c < k; ++c) {
      const OracleSuff& s = suff[c];
      if (s.n < 1e-6) {
        means[c] = xs[rng.below(n)];
        covs[c] = {0.01, 0.0, 0.01};
        weights[c] = 1.0 / static_cast<double>(n);
        ++report.resets;
        continue;
      }
      weights[c] = s.n / static_cast<double>(n);
      means[c] = {s.sp / s.n, s.st / s.n};
      Cov2 cov{s.spp / s.n - means[c].p * means[c].p + cfg.reg_covar,
               s.spt / s.n - means[c].p * means[c].t,
               s.stt / s.n - means[c].t * means[c].t + cfg.reg_covar};
      if (cov.det() <= 0.0) {
        const double bump = std::abs(cov.pt) + cfg.reg_covar;
        cov.pp += bump;
        cov.tt += bump;
      }
      covs[c] = cov;
    }
    if (std::isfinite(prev_ll)) {
      const double delta = std::abs(ll - prev_ll);
      const double scale = std::max(1.0, std::abs(prev_ll));
      if (delta / scale < cfg.tol) {
        report.converged = true;
        report.final_mean_log_likelihood = ll;
        return {build(PruningGrid::kBuild), report};
      }
    }
    prev_ll = ll;
  }
  report.final_mean_log_likelihood = prev_ll;
  return {build(PruningGrid::kBuild), report};
}

/// `n` stride-subsampled training samples of a generator's trace.
std::vector<trace::GmmSample> generator_samples(trace::Benchmark b,
                                                std::size_t n,
                                                std::uint64_t seed) {
  const trace::Trace t = trace::generate(b, 60000, seed);
  return trace::subsampled_gmm_samples(t.records(), {}, n);
}

/// Fits below this many sample x component terms stay on the caller.
constexpr std::size_t kTeamTerms = std::size_t{1} << 18;

TEST(EmTrainer, ParallelFitMatchesSerialOracleBitForBit) {
  struct Case {
    trace::Benchmark bench;
    std::uint64_t seed;
    std::size_t n;
    std::uint32_t k;
    bool resets;     ///< the fit re-seeds a degenerate component
    bool converges;  ///< the fit converges before max_iters
  };
  using trace::Benchmark;
  const Case cases[] = {
      {Benchmark::kHashmap, 7, 300, 4, false, false},     // n below a block
      {Benchmark::kHashmap, 7, 9000, 32, false, false},   // 17 blocks + 296
      {Benchmark::kHashmap, 7, 2100, 256, false, false},  // 4 blocks + 52
      {Benchmark::kParsec, 7, 2100, 256, false, true},
      {Benchmark::kDlrm, 7, 300, 32, true, false},
      {Benchmark::kSysbench, 11, 300, 1024, true, true},  // K above n
  };
  bool on_team = false;
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "bench " << static_cast<int>(c.bench)
                                    << " n " << c.n << " K " << c.k);
    const auto samples = generator_samples(c.bench, c.n, c.seed);
    ASSERT_EQ(samples.size(), c.n);
    EmConfig cfg;
    cfg.components = c.k;
    cfg.max_iters = 15;
    const OracleFit oracle = oracle_fit(cfg, samples);
    EXPECT_EQ(oracle.report.resets > 0, c.resets);
    EXPECT_EQ(oracle.report.converged && oracle.report.iterations < 15,
              c.converges);
    on_team = on_team || c.n * c.k >= kTeamTerms;

    EmTrainer trainer(cfg);
    const GaussianMixture model = trainer.fit(samples);
    expect_same_model(model, oracle.model);
    expect_same_report(trainer.report(), oracle.report);
  }
  EXPECT_TRUE(on_team);
}

/// A model fitted to one trace and samples of another, normalized for it:
/// the far samples push terms past both exact skips.
struct EStepInput {
  GaussianMixture model;
  std::vector<Vec2> xs;
};

EStepInput estep_input(std::uint32_t k) {
  EmConfig cfg;
  cfg.components = k;
  cfg.max_iters = 5;
  EmTrainer trainer(cfg);
  EStepInput in{
      trainer.fit(generator_samples(trace::Benchmark::kHashmap, 2000, 7)), {}};
  for (const auto& s : generator_samples(trace::Benchmark::kDlrm, 1100, 7)) {
    in.xs.push_back(in.model.normalizer().apply(s.page, s.time));
  }
  return in;
}

TEST(EmTrainer, BlockedEStepMatchesSerialLoopOnAnyTeamSize) {
  for (const std::uint32_t k : {4u, 32u, 256u}) {
    const EStepInput in = estep_input(k);
    // n below a block, and n = 2 blocks + 76.
    for (const std::size_t n : {std::size_t{300}, in.xs.size()}) {
      const std::span<const Vec2> xs(in.xs.data(), n);
      std::vector<OracleSuff> want(k);
      const double want_ll = oracle_e_step(in.model.kernel(), xs, want);
      for (const unsigned members : {1u, 2u, 3u, 4u, 5u}) {
        SCOPED_TRACE(testing::Message()
                     << "K " << k << " n " << n << " team " << members);
        WorkerTeam team(members);
        BlockedEStep estep(k, n);
        std::vector<Suff> got(k);
        const double ll = estep.run(in.model.kernel(), xs, team, got);
        EXPECT_EQ(bits(ll), bits(want_ll));
        for (std::size_t c = 0; c < k; ++c) {
          EXPECT_EQ(bits(got[c].n), bits(want[c].n)) << c;
          EXPECT_EQ(bits(got[c].sp), bits(want[c].sp)) << c;
          EXPECT_EQ(bits(got[c].st), bits(want[c].st)) << c;
          EXPECT_EQ(bits(got[c].spp), bits(want[c].spp)) << c;
          EXPECT_EQ(bits(got[c].spt), bits(want[c].spt)) << c;
          EXPECT_EQ(bits(got[c].stt), bits(want[c].stt)) << c;
        }
      }
    }
  }
}

TEST(EmTrainer, EStepSkipsExponentialsBothWays) {
  // The input of the test above reaches both skips: terms that underflow,
  // and terms absorbed by a denom that already holds its max term.
  const EStepInput in = estep_input(256);
  std::vector<double> terms(256);
  std::size_t zero = 0, absorbed = 0;
  for (const Vec2& x : in.xs) {
    const double max_term = in.model.kernel().component_log_terms(x, terms);
    bool seen_max = false;
    for (double t : terms) {
      const double d = t - max_term;
      zero += d < kExpZeroBelow;
      absorbed += seen_max && d >= kExpZeroBelow && d < kExpAbsorbedBelow;
      seen_max = seen_max || d == 0.0;
    }
  }
  EXPECT_GT(zero, 0u);
  EXPECT_GT(absorbed, 0u);
}

TEST(EmTrainer, EStepSampleTakesTheFullPathOnNonFiniteInput) {
  const EStepInput in = estep_input(256);
  const ScorerKernel& kern = in.model.kernel();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const Vec2 x : {Vec2{kNaN, 0.5}, Vec2{0.5, kNaN}, Vec2{kInf, 0.5},
                       Vec2{-kInf, 0.5}, Vec2{0.5, kInf}}) {
    std::vector<double> want(256);
    const double max_term = kern.component_log_terms(x, want);
    double denom = 0.0;
    for (double& e : want) {
      e = std::exp(e - max_term);
      denom += e;
    }
    const double want_ll = max_term + std::log(denom);
    for (double& e : want) e *= 1.0 / denom;

    std::vector<double> got(256);
    EXPECT_TRUE(same_bits(e_step_sample(kern, x, got), want_ll));
    for (std::size_t c = 0; c < 256; ++c) {
      EXPECT_TRUE(same_bits(got[c], want[c])) << c;
    }
  }
}

TEST(EmTrainer, ExpSkipCutoffsHoldOnThisLibm) {
  // (a) Below kExpZeroBelow, exp is exactly +0.0.
  for (double d = -1200.0; d < kExpZeroBelow; d += 1e-3) {
    ASSERT_EQ(bits(std::exp(d)), bits(0.0)) << d;
  }
  EXPECT_EQ(bits(std::exp(std::nextafter(kExpZeroBelow, -kExpZeroBelow))),
            bits(0.0));
  EXPECT_EQ(bits(std::exp(-std::numeric_limits<double>::infinity())),
            bits(0.0));
  // (b) Below kExpAbsorbedBelow, exp is under half an ulp of any denom >=
  // 1, so adding it to 1 (the least such denom) changes no bit; and such
  // an r was never added to the statistics.
  for (double d = kExpAbsorbedBelow; d > kExpZeroBelow; d -= 1e-3) {
    const double e = std::exp(d);
    ASSERT_LT(e, 0x1p-53) << d;
    ASSERT_EQ(bits(1.0 + e), bits(1.0)) << d;
  }
  static_assert(0x1p-53 < kMinResponsibility);
}

std::size_t listed_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Threads of this process once none is mid-exit. A joined thread stays
/// listed for a moment while the kernel finishes its exit, so this reads
/// until the count is `want` (or, for want = 0, until two reads 10 ms
/// apart agree), for at most 2 s. Starts and joins one thread first: a
/// sanitizer runtime starts a thread of its own at the first thread
/// creation, which no count should charge to the code under test.
std::size_t thread_count(std::size_t want = 0) {
  std::thread([] {}).join();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::size_t n = listed_threads();
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::size_t again = listed_threads();
    if (want == 0 ? again == n : again == want) return again;
    n = again;
  }
  return n;
}

TEST(WorkerTeam, JoinsEveryHelper) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads from";
  }
  const std::size_t before = thread_count();
  {
    WorkerTeam team(4);
    const std::size_t with_team = before + team.size() - 1;
    EXPECT_EQ(thread_count(with_team), with_team);
    std::vector<unsigned> ran(team.size(), 0);
    team.run([&](unsigned member) noexcept { ++ran[member]; });
    EXPECT_EQ(ran, std::vector<unsigned>(team.size(), 1u));
  }
  EXPECT_EQ(thread_count(before), before);
}

TEST(EmTrainer, FitLeavesNoThreadBehind) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads from";
  }
  const auto samples = generator_samples(trace::Benchmark::kHashmap, 2100, 7);
  EmConfig cfg;
  cfg.components = 256;  // 2100 x 256 terms: the fit runs on a team
  cfg.max_iters = 3;
  const std::size_t before = thread_count();
  EmTrainer trainer(cfg);
  trainer.fit(samples);
  EXPECT_EQ(thread_count(before), before);
}

TEST(KMeans, ThrowsOnBadInput) {
  Rng rng(1);
  EXPECT_THROW(kmeans({}, {.clusters = 2}, rng), std::invalid_argument);
  const std::vector<Vec2> xs = {{0, 0}};
  EXPECT_THROW(kmeans(xs, {.clusters = 0}, rng), std::invalid_argument);
}

TEST(KMeans, SeparatesObviousClusters) {
  Rng rng(41);
  std::vector<Vec2> xs;
  for (int i = 0; i < 300; ++i) {
    xs.push_back({rng.gaussian(0.0, 0.1), rng.gaussian(0.0, 0.1)});
    xs.push_back({rng.gaussian(10.0, 0.1), rng.gaussian(10.0, 0.1)});
  }
  const KMeansResult result = kmeans(xs, {.clusters = 2, .lloyd_iters = 8}, rng);
  ASSERT_EQ(result.centers.size(), 2u);
  std::vector<double> ps = {result.centers[0].p, result.centers[1].p};
  std::sort(ps.begin(), ps.end());
  EXPECT_NEAR(ps[0], 0.0, 0.5);
  EXPECT_NEAR(ps[1], 10.0, 0.5);
  EXPECT_EQ(result.counts[0] + result.counts[1], xs.size());
}

TEST(KMeans, MoreClustersThanSamples) {
  Rng rng(43);
  const std::vector<Vec2> xs = {{0, 0}, {1, 1}};
  const KMeansResult result = kmeans(xs, {.clusters = 5, .lloyd_iters = 2}, rng);
  EXPECT_EQ(result.centers.size(), 5u);  // duplicated centers, no crash
}

TEST(KMeans, TeamMatchesSerialOracleBitForBit) {
  Rng data(47);
  std::vector<Vec2> xs;
  for (int i = 0; i < 1300; ++i) xs.push_back({data.uniform(), data.uniform()});
  for (const std::uint32_t k : {4u, 32u, 256u}) {
    Rng oracle_rng(49);
    const KMeansResult want =
        oracle_kmeans(xs, {.clusters = k, .lloyd_iters = 5}, oracle_rng);
    for (const unsigned members : {1u, 2u, 3u, 4u, 5u}) {
      SCOPED_TRACE(testing::Message() << "K " << k << " team " << members);
      WorkerTeam team(members);
      Rng rng(49);
      const KMeansResult got =
          kmeans(xs, {.clusters = k, .lloyd_iters = 5}, rng, team);
      ASSERT_EQ(got.centers.size(), want.centers.size());
      for (std::size_t c = 0; c < got.centers.size(); ++c) {
        EXPECT_EQ(bits(got.centers[c].p), bits(want.centers[c].p)) << c;
        EXPECT_EQ(bits(got.centers[c].t), bits(want.centers[c].t)) << c;
      }
      EXPECT_EQ(got.assignment, want.assignment);
      EXPECT_EQ(got.counts, want.counts);
      EXPECT_EQ(bits(got.inertia), bits(want.inertia));
      EXPECT_EQ(rng.below(1u << 30), Rng(oracle_rng).below(1u << 30));
    }
  }
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(45);
  std::vector<Vec2> xs;
  for (int i = 0; i < 500; ++i) {
    xs.push_back({rng.uniform(), rng.uniform()});
  }
  double prev = 1e300;
  for (std::uint32_t k : {1u, 4u, 16u}) {
    Rng local(45);
    const auto result = kmeans(xs, {.clusters = k, .lloyd_iters = 6}, local);
    EXPECT_LT(result.inertia, prev);
    prev = result.inertia;
  }
}

}  // namespace
}  // namespace icgmm::gmm
