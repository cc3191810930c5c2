#include "common/rng.h"

#include <bit>
#include <cmath>
#include <vector>

namespace canvas {

double Zeta(std::uint64_t n, double theta) {
  // Per thread, so sweep workers share nothing and take no lock. A process
  // sees a handful of distinct (n, theta) pairs, so a linear scan is enough.
  struct Entry {
    std::uint64_t n;
    std::uint64_t theta_bits;
    double zeta;
  };
  thread_local std::vector<Entry> memo;
  const auto bits = std::bit_cast<std::uint64_t>(theta);
  for (const Entry& e : memo)
    if (e.n == n && e.theta_bits == bits) return e.zeta;
  double sum = 0;
  for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
  memo.push_back({n, bits, sum});
  return sum;
}

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
