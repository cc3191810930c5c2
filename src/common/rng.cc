#include "common/rng.h"

#include <cmath>

namespace canvas {

namespace {
double Zeta(std::uint64_t n, double theta) {
  double sum = 0;
  for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
  return sum;
}
}  // namespace

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  zetan_ = Zeta(n, theta);
  zeta2theta_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
  rank1_cutoff_ = 1.0 + std::pow(0.5, theta);
}

std::uint64_t ZipfianGenerator::Next(Rng& rng) {
  double u = rng.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < rank1_cutoff_) return 1;
  auto v = std::uint64_t(double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (v >= n_) v = n_ - 1;
  return v;
}

}  // namespace canvas
