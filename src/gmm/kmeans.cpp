#include "gmm/kmeans.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "gmm/workers.hpp"

namespace icgmm::gmm {
namespace {

constexpr double dist2(Vec2 a, Vec2 b) noexcept {
  const double dp = a.p - b.p;
  const double dt = a.t - b.t;
  return dp * dp + dt * dt;
}

/// Lloyd assignment: every sample's nearest center (first on ties) and its
/// squared distance, split across the team; counts and inertia summed on
/// the caller in sample order.
void assign(std::span<const Vec2> samples, KMeansResult& result,
            std::vector<double>& best_d2, WorkerTeam& team) {
  team.run([&](unsigned member) noexcept {
    const auto [lo, hi] = team.share(samples.size(), member);
    for (std::size_t i = lo; i < hi; ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t best_c = 0;
      for (std::uint32_t c = 0; c < result.centers.size(); ++c) {
        const double d = dist2(samples[i], result.centers[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      result.assignment[i] = best_c;
      best_d2[i] = best;
    }
  });
  std::fill(result.counts.begin(), result.counts.end(), std::size_t{0});
  result.inertia = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ++result.counts[result.assignment[i]];
    result.inertia += best_d2[i];
  }
}

}  // namespace

KMeansResult kmeans(std::span<const Vec2> samples, const KMeansConfig& cfg,
                    Rng& rng) {
  WorkerTeam caller_only(1);
  return kmeans(samples, cfg, rng, caller_only);
}

KMeansResult kmeans(std::span<const Vec2> samples, const KMeansConfig& cfg,
                    Rng& rng, WorkerTeam& team) {
  if (samples.empty()) throw std::invalid_argument("kmeans: no samples");
  if (cfg.clusters == 0) throw std::invalid_argument("kmeans: zero clusters");
  const std::size_t k = std::min<std::size_t>(cfg.clusters, samples.size());

  KMeansResult result;
  result.centers.reserve(cfg.clusters);

  // k-means++ seeding: first center uniform, the rest D^2-weighted.
  result.centers.push_back(samples[rng.below(samples.size())]);
  std::vector<double> d2(samples.size());
  auto update_d2 = [&](Vec2 center, bool first) {
    team.run([&](unsigned member) noexcept {
      const auto [lo, hi] = team.share(samples.size(), member);
      for (std::size_t i = lo; i < hi; ++i) {
        const double d = dist2(samples[i], center);
        d2[i] = first ? d : std::min(d2[i], d);
      }
    });
  };
  update_d2(result.centers[0], true);
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
      pick = rng.below(samples.size());  // all-duplicate corner case
    }
    result.centers.push_back(samples[pick]);
    update_d2(result.centers.back(), false);
  }
  // If the caller asked for more clusters than samples, duplicate points.
  while (result.centers.size() < cfg.clusters) {
    result.centers.push_back(samples[rng.below(samples.size())]);
  }

  // Lloyd refinement; assign() reuses d2 for each sample's distance to
  // its nearest center.
  result.assignment.assign(samples.size(), 0);
  result.counts.assign(result.centers.size(), 0);
  for (std::uint32_t iter = 0; iter < cfg.lloyd_iters; ++iter) {
    assign(samples, result, d2, team);
    // Update.
    std::vector<Vec2> sums(result.centers.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      sums[result.assignment[i]].p += samples[i].p;
      sums[result.assignment[i]].t += samples[i].t;
    }
    for (std::size_t c = 0; c < result.centers.size(); ++c) {
      if (result.counts[c] == 0) {
        // Re-seed an empty cluster on a random sample.
        result.centers[c] = samples[rng.below(samples.size())];
        continue;
      }
      const auto inv = 1.0 / static_cast<double>(result.counts[c]);
      result.centers[c] = {sums[c].p * inv, sums[c].t * inv};
    }
  }

  // Final assignment pass so counts/inertia match the returned centers.
  assign(samples, result, d2, team);
  return result;
}

}  // namespace icgmm::gmm
