#include "gmm/model_io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace icgmm::gmm {
namespace {

constexpr const char* kHeader = "ICGMM-GMM v1";

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("gmm model io: " + what);
}

}  // namespace

void save_model(std::ostream& os, const GaussianMixture& model) {
  os.precision(17);
  os << kHeader << '\n';
  os << "K " << model.size() << '\n';
  const Normalizer& n = model.normalizer();
  os << "normalizer " << n.p_offset << ' ' << n.p_scale << ' ' << n.t_offset
     << ' ' << n.t_scale << '\n';
  for (std::size_t k = 0; k < model.size(); ++k) {
    const Gaussian2D& g = model.components()[k];
    os << model.weights()[k] << ' ' << g.mean().p << ' ' << g.mean().t << ' '
       << g.cov().pp << ' ' << g.cov().pt << ' ' << g.cov().tt << '\n';
  }
  if (!os) fail("write failure");
}

void save_model_file(const std::string& path, const GaussianMixture& model) {
  std::ofstream os(path);
  if (!os) fail("cannot open for write: " + path);
  save_model(os, model);
}

GaussianMixture load_model(std::istream& is) {
  std::string header;
  std::getline(is, header);
  if (header != kHeader) fail("bad header: '" + header + "'");

  std::string tag;
  std::size_t k = 0;
  if (!(is >> tag >> k) || tag != "K" || k == 0) fail("bad K line");

  Normalizer norm;
  if (!(is >> tag >> norm.p_offset >> norm.p_scale >> norm.t_offset >>
        norm.t_scale) ||
      tag != "normalizer") {
    fail("bad normalizer line");
  }

  std::vector<double> weights;
  std::vector<Gaussian2D> comps;
  weights.reserve(k);
  comps.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    double w = 0.0;
    Vec2 mean;
    Cov2 cov;
    if (!(is >> w >> mean.p >> mean.t >> cov.pp >> cov.pt >> cov.tt)) {
      fail("truncated component " + std::to_string(i));
    }
    weights.push_back(w);
    try {
      comps.emplace_back(mean, cov);
    } catch (const std::invalid_argument& e) {
      fail("component " + std::to_string(i) + ": " + e.what());
    }
  }
  return GaussianMixture(std::move(weights), std::move(comps), norm);
}

GaussianMixture load_model_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open for read: " + path);
  return load_model(is);
}

std::size_t weight_buffer_bytes(const GaussianMixture& model) {
  constexpr std::size_t kWordsPerComponent = 7;  // pi, mu(2), inv cov(3), norm
  constexpr std::size_t kWordBytes = 4;
  return model.size() * kWordsPerComponent * kWordBytes +
         4 * kWordBytes;  // + normalizer words
}

}  // namespace icgmm::gmm
