// GMM model persistence: a small text format ("ICGMM-GMM v1") holding the
// normalizer and per-component weight/mean/covariance. This is what gets
// loaded into the FPGA weight buffer before the kernel starts.
#pragma once

#include <iosfwd>
#include <string>

#include "gmm/mixture.hpp"

namespace icgmm::gmm {

void save_model(std::ostream& os, const GaussianMixture& model);
void save_model_file(const std::string& path, const GaussianMixture& model);

/// Throws std::runtime_error on malformed input.
GaussianMixture load_model(std::istream& is);
GaussianMixture load_model_file(const std::string& path);

/// On-FPGA weight-buffer footprint of a model: per component the kernel
/// stores {pi, mu_p, mu_t, inv_pp, inv_pt, inv_tt, log_norm} in 32-bit
/// words. Used by the hw resource model.
std::size_t weight_buffer_bytes(const GaussianMixture& model);

}  // namespace icgmm::gmm
