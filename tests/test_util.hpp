// Shared test fixtures: tiny cache geometries, seeded synthetic traces,
// small IcgmmSystem configurations, and tolerance-based float matchers.
// Every per-test copy of a `tiny_config()`-style helper lives here now.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/config.hpp"
#include "cache/policy.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/icgmm.hpp"
#include "gmm/mixture.hpp"
#include "trace/trace.hpp"
#include "trace/zipf.hpp"

namespace icgmm::test_util {

/// A single fully-associative set: `ways` blocks of 4 KB.
inline cache::CacheConfig one_set(std::uint32_t ways) {
  return {.capacity_bytes = static_cast<std::uint64_t>(ways) * 4096,
          .block_bytes = 4096,
          .associativity = ways};
}

/// `sets` x `ways` of `block_bytes` blocks (default 4 KB).
inline cache::CacheConfig tiny_cache(std::uint32_t sets, std::uint32_t ways,
                                     std::uint32_t block_bytes = 4096) {
  return {.capacity_bytes =
              static_cast<std::uint64_t>(sets) * ways * block_bytes,
          .block_bytes = block_bytes,
          .associativity = ways};
}

/// Read (or write) request to a page at a logical timestamp.
inline cache::AccessContext access(PageIndex page, Timestamp ts = 0,
                                   bool is_write = false) {
  return {.page = page, .timestamp = ts, .is_write = is_write};
}

/// Small IcgmmSystem configuration for fast tests. The defaults match the
/// historical per-file copies; override per call site where tests relied
/// on a specific scale.
inline core::IcgmmConfig small_system_config(std::uint32_t components = 32,
                                             std::uint32_t max_iters = 12,
                                             std::size_t train_subsample = 4000,
                                             std::size_t tuning_prefix = 20000) {
  core::IcgmmConfig cfg;
  cfg.policy.em.components = components;
  cfg.policy.em.max_iters = max_iters;
  cfg.policy.train_subsample = train_subsample;
  cfg.tuning_prefix = tuning_prefix;
  return cfg;
}

/// A trained-like K-component mixture: narrow components (sigma
/// 0.005-0.05 on each normalized axis; the daemon's K = 256 model has a
/// median sigma of about 0.02) over the unit square, normalized from
/// pages 0-65535 and timestamps 0-999.
inline gmm::GaussianMixture narrow_mixture(std::size_t k, Rng& rng) {
  std::vector<double> weights;
  std::vector<gmm::Gaussian2D> comps;
  for (std::size_t i = 0; i < k; ++i) {
    weights.push_back(0.1 + rng.uniform());
    const gmm::Vec2 mean{rng.uniform(), rng.uniform()};
    const double sp = rng.uniform(0.005, 0.05);
    const double st = rng.uniform(0.005, 0.05);
    const double rho = rng.uniform(-0.5, 0.5);
    comps.emplace_back(mean, gmm::Cov2{sp * sp, rho * sp * st, st * st});
  }
  gmm::Normalizer norm;
  norm.p_scale = 1.0 / 65536.0;
  norm.t_scale = 1.0 / 1000.0;
  return gmm::GaussianMixture(std::move(weights), std::move(comps), norm);
}

/// Deterministic Zipf-popularity read trace over `pages` distinct 4 KB
/// pages, skew `s`, stamped with sequence times (the generator convention).
inline trace::Trace zipf_trace(std::size_t n, std::uint64_t pages, double s,
                               std::uint64_t seed,
                               std::string name = "zipf-test") {
  trace::Zipf zipf(pages, s);
  Rng rng(seed);
  trace::Trace t(std::move(name));
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({.addr = addr_of(zipf.sample(rng)),
                 .time = i,
                 .type = AccessType::kRead});
  }
  return t;
}

/// Predicate-format for EXPECT_NEAR_REL: |actual - expected| within
/// `rel` relative tolerance of expected. Relative tolerance is undefined
/// at expected == 0, so only there `rel` is used as an absolute bound.
inline ::testing::AssertionResult AssertNearRel(const char* actual_expr,
                                                const char* expected_expr,
                                                const char* rel_expr,
                                                double actual, double expected,
                                                double rel) {
  const double tol = expected == 0.0 ? rel : std::abs(expected) * rel;
  if (std::abs(actual - expected) <= tol) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << actual_expr << " = " << actual << " not within relative tolerance "
         << rel_expr << " = " << rel << " of " << expected_expr << " = "
         << expected << " (allowed " << tol << ", off by "
         << std::abs(actual - expected) << ")";
}

}  // namespace icgmm::test_util

#define EXPECT_NEAR_REL(actual, expected, rel) \
  EXPECT_PRED_FORMAT3(::icgmm::test_util::AssertNearRel, actual, expected, rel)
#define ASSERT_NEAR_REL(actual, expected, rel) \
  ASSERT_PRED_FORMAT3(::icgmm::test_util::AssertNearRel, actual, expected, rel)
