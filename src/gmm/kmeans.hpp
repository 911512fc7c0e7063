// k-means++ seeding and a few Lloyd iterations, used to initialize EM.
// A good seed cuts EM iterations roughly in half at K = 256 (see
// bench/micro_policy_kernels).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "gmm/gaussian2d.hpp"

namespace icgmm::gmm {

class WorkerTeam;

struct KMeansResult {
  std::vector<Vec2> centers;
  std::vector<std::uint32_t> assignment;  ///< per-sample cluster id
  std::vector<std::size_t> counts;        ///< per-cluster population
  double inertia = 0.0;                   ///< sum of squared distances
};

struct KMeansConfig {
  std::uint32_t clusters = 16;
  std::uint32_t lloyd_iters = 5;
};

/// Runs k-means++ seeding then Lloyd refinement on normalized samples.
/// Throws std::invalid_argument on empty input or zero clusters. If there
/// are fewer distinct samples than clusters, surplus centers land on
/// duplicate points (harmless for EM init, which regularizes covariance).
KMeansResult kmeans(std::span<const Vec2> samples, const KMeansConfig& cfg,
                    Rng& rng);

/// The same on `team`: the per-sample distance passes split across its
/// members; the seeding draw, counts, inertia and center sums stay on the
/// calling thread in sample order, so the result is the same bits.
KMeansResult kmeans(std::span<const Vec2> samples, const KMeansConfig& cfg,
                    Rng& rng, WorkerTeam& team);

}  // namespace icgmm::gmm
