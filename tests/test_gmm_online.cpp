// Online EM: drift adaptation and stability properties.
#include "gmm/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "gmm/em.hpp"
#include "gmm/kernel.hpp"
#include "gmm/model_select.hpp"

namespace icgmm::gmm {
namespace {

std::vector<trace::GmmSample> cluster_at(double page, double time,
                                         std::size_t n, Rng& rng) {
  std::vector<trace::GmmSample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({rng.gaussian(page, 20.0), rng.gaussian(time, 10.0)});
  }
  return out;
}

GaussianMixture offline_fit(const std::vector<trace::GmmSample>& samples,
                            std::uint32_t k) {
  EmConfig cfg;
  cfg.components = k;
  cfg.max_iters = 25;
  EmTrainer trainer(cfg);
  return trainer.fit(samples);
}

TEST(OnlineEm, StationaryStreamKeepsModelStable) {
  Rng rng(3);
  const auto train = cluster_at(1000, 100, 2000, rng);
  OnlineEm online(offline_fit(train, 4));
  const double before = online.model().log_score(1000, 100);
  Rng rng2(5);
  const auto more = cluster_at(1000, 100, 4000, rng2);
  online.observe(more);
  const double after = online.model().log_score(1000, 100);
  // Same distribution: the mode stays a mode (within EM noise).
  EXPECT_NEAR(after, before, 1.0);
  EXPECT_GT(online.steps(), 0u);
}

TEST(OnlineEm, AdaptsToDriftedHotspot) {
  Rng rng(7);
  // Train at page 1000; the workload drifts to page 5000 (same time band).
  const auto train = cluster_at(1000, 100, 2000, rng);
  // Give the normalizer room for the drift target.
  auto wide = train;
  wide.push_back({6000, 200});
  wide.push_back({0, 0});
  OnlineEm online(offline_fit(wide, 6), {.step_power = 0.6, .batch = 128});

  const double drift_before = online.model().log_score(5000, 100);
  Rng rng2(9);
  for (int round = 0; round < 10; ++round) {
    online.observe(cluster_at(5000, 100, 1000, rng2));
  }
  const double drift_after = online.model().log_score(5000, 100);
  EXPECT_GT(drift_after, drift_before + 2.0)
      << "online EM failed to follow the drifted hotspot";
}

TEST(OnlineEm, WeightsRemainNormalized) {
  Rng rng(11);
  OnlineEm online(offline_fit(cluster_at(500, 50, 1000, rng), 3));
  Rng rng2(13);
  online.observe(cluster_at(700, 70, 3000, rng2));
  double sum = 0.0;
  for (double w : online.model().weights()) {
    EXPECT_GE(w, 0.0);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(OnlineEm, NoUpdateBeforeBatchFills) {
  Rng rng(15);
  OnlineEm online(offline_fit(cluster_at(500, 50, 500, rng), 2),
                  {.batch = 1000});
  Rng rng2(17);
  const auto few = cluster_at(500, 50, 10, rng2);
  EXPECT_EQ(online.observe(few), 0u);
  EXPECT_EQ(online.steps(), 0u);
}

/// OnlineEm with its own serial E-step, every exponential taken.
class OracleOnlineEm {
 public:
  OracleOnlineEm(GaussianMixture initial, OnlineEmConfig cfg)
      : cfg_(cfg), model_(std::move(initial)) {
    stats_.resize(model_.size());
    batch_stats_.resize(model_.size());
    terms_.resize(model_.size());
    for (std::size_t c = 0; c < model_.size(); ++c) {
      const Gaussian2D& g = model_.components()[c];
      S& s = stats_[c];
      s.n = model_.weights()[c];
      s.sp = s.n * g.mean().p;
      s.st = s.n * g.mean().t;
      s.spp = s.n * (g.cov().pp + g.mean().p * g.mean().p);
      s.spt = s.n * (g.cov().pt + g.mean().p * g.mean().t);
      s.stt = s.n * (g.cov().tt + g.mean().t * g.mean().t);
    }
  }

  void observe(std::span<const trace::GmmSample> samples) {
    for (const auto& sample : samples) {
      accumulate(sample);
      if (++batch_count_ >= cfg_.batch) m_step();
    }
  }

  const GaussianMixture& model() const { return model_; }

 private:
  struct S {
    double n = 0.0, sp = 0.0, st = 0.0, spp = 0.0, spt = 0.0, stt = 0.0;
  };

  void accumulate(const trace::GmmSample& sample) {
    const Vec2 x = model_.normalizer().apply(sample.page, sample.time);
    const double max_term = model_.kernel().component_log_terms(x, terms_);
    double denom = 0.0;
    for (double& t : terms_) {
      t = std::exp(t - max_term);
      denom += t;
    }
    const double inv_denom = 1.0 / denom;
    for (std::size_t c = 0; c < model_.size(); ++c) {
      const double r = terms_[c] * inv_denom;
      if (r < 1e-12) continue;
      S& s = batch_stats_[c];
      s.n += r;
      s.sp += r * x.p;
      s.st += r * x.t;
      s.spp += r * x.p * x.p;
      s.spt += r * x.p * x.t;
      s.stt += r * x.t * x.t;
    }
  }

  void m_step() {
    ++steps_;
    const double eta = std::pow(cfg_.step_offset + static_cast<double>(steps_),
                                -cfg_.step_power);
    const double batch_norm = 1.0 / static_cast<double>(cfg_.batch);
    std::vector<double> weights(model_.size());
    std::vector<Gaussian2D> comps;
    double weight_sum = 0.0;
    for (std::size_t c = 0; c < model_.size(); ++c) {
      S& s = stats_[c];
      const S& b = batch_stats_[c];
      s.n = (1.0 - eta) * s.n + eta * b.n * batch_norm;
      s.sp = (1.0 - eta) * s.sp + eta * b.sp * batch_norm;
      s.st = (1.0 - eta) * s.st + eta * b.st * batch_norm;
      s.spp = (1.0 - eta) * s.spp + eta * b.spp * batch_norm;
      s.spt = (1.0 - eta) * s.spt + eta * b.spt * batch_norm;
      s.stt = (1.0 - eta) * s.stt + eta * b.stt * batch_norm;
      const double n = std::max(s.n, 1e-12);
      const Vec2 mean{s.sp / n, s.st / n};
      Cov2 cov{s.spp / n - mean.p * mean.p + cfg_.reg_covar,
               s.spt / n - mean.p * mean.t,
               s.stt / n - mean.t * mean.t + cfg_.reg_covar};
      if (cov.det() <= 0.0 || cov.pp <= 0.0 || cov.tt <= 0.0) {
        const double bump = std::abs(cov.pt) + cfg_.reg_covar;
        cov.pp = std::max(cov.pp, 0.0) + bump;
        cov.tt = std::max(cov.tt, 0.0) + bump;
      }
      weights[c] = n;
      weight_sum += n;
      comps.emplace_back(mean, cov);
    }
    for (double& w : weights) w /= weight_sum;
    model_ = GaussianMixture(std::move(weights), std::move(comps),
                             model_.normalizer(), PruningGrid::kDefer);
    for (S& s : batch_stats_) s = S{};
    batch_count_ = 0;
  }

  OnlineEmConfig cfg_;
  GaussianMixture model_;
  std::vector<S> stats_;
  std::vector<S> batch_stats_;
  std::vector<double> terms_;
  std::uint32_t batch_count_ = 0;
  std::uint64_t steps_ = 0;
};

TEST(OnlineEm, ObserveMatchesSerialOracleBitForBit) {
  auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (const std::uint32_t k : {4u, 32u, 256u}) {
    SCOPED_TRACE(testing::Message() << "K " << k);
    Rng rng(21);
    // Two clusters to train on, a third the stream drifts to: far samples
    // reach both of the E-step's exact skips.
    auto train = cluster_at(1000, 100, 1500, rng);
    const auto second = cluster_at(4000, 300, 1500, rng);
    train.insert(train.end(), second.begin(), second.end());
    train.push_back({9000, 500});
    const GaussianMixture initial = offline_fit(train, k);
    const OnlineEmConfig cfg{.batch = 128};
    OnlineEm online(initial, cfg);
    OracleOnlineEm oracle(initial, cfg);
    for (const double page : {1000.0, 8000.0, 4000.0}) {
      const auto stream = cluster_at(page, 400, 1000, rng);
      online.observe(stream);
      oracle.observe(stream);
      const GaussianMixture& a = online.model();
      const GaussianMixture& b = oracle.model();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t c = 0; c < a.size(); ++c) {
        const Gaussian2D& ga = a.components()[c];
        const Gaussian2D& gb = b.components()[c];
        EXPECT_EQ(bits(a.weights()[c]), bits(b.weights()[c])) << c;
        EXPECT_EQ(bits(ga.mean().p), bits(gb.mean().p)) << c;
        EXPECT_EQ(bits(ga.mean().t), bits(gb.mean().t)) << c;
        EXPECT_EQ(bits(ga.cov().pp), bits(gb.cov().pp)) << c;
        EXPECT_EQ(bits(ga.cov().pt), bits(gb.cov().pt)) << c;
        EXPECT_EQ(bits(ga.cov().tt), bits(gb.cov().tt)) << c;
      }
    }
    EXPECT_EQ(online.steps(), 23u);
  }
}

TEST(ModelSelect, FreeParameterFormula) {
  EXPECT_EQ(gmm_free_parameters(1), 5u);
  EXPECT_EQ(gmm_free_parameters(256), 1535u);
}

TEST(ModelSelect, BicPrefersTrueComponentCount) {
  // Data from 3 well-separated clusters: BIC should prefer K=3 over
  // gross under/overfits.
  Rng rng(19);
  std::vector<trace::GmmSample> samples;
  for (auto [p, t] : {std::pair{500.0, 50.0}, {3000.0, 200.0}, {8000.0, 400.0}}) {
    const auto c = cluster_at(p, t, 700, rng);
    samples.insert(samples.end(), c.begin(), c.end());
  }
  const std::uint32_t candidates[] = {1, 3, 24};
  EmConfig base;
  base.max_iters = 25;
  const auto curve = sweep_components(samples, candidates, base);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(select_components_bic(curve), 3u);
  // Likelihood is monotone in K even when BIC penalizes it.
  EXPECT_GT(curve[1].mean_log_likelihood, curve[0].mean_log_likelihood);
}

TEST(ModelSelect, ThrowsOnEmpty) {
  const std::uint32_t candidates[] = {2};
  EXPECT_THROW(sweep_components({}, candidates, {}), std::invalid_argument);
  EXPECT_EQ(select_components_bic({}), 0u);
}

}  // namespace
}  // namespace icgmm::gmm
