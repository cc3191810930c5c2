// Deterministic random number generation for the simulator.
//
// Every component that needs randomness owns its own Rng seeded from the
// experiment seed, so the simulation is reproducible regardless of the order
// in which components draw numbers.
#pragma once

#include <cstdint>
#include <vector>

namespace canvas {

/// SplitMix64 generator: tiny state, excellent statistical quality for
/// simulation purposes, and trivially seedable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t NextBounded(std::uint64_t bound) { return Next() % bound; }

  /// Uniform integer in [lo, hi].
  std::uint64_t NextInRange(std::uint64_t lo, std::uint64_t hi) {
    return lo + NextBounded(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return double(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli trial.
  bool NextBool(double p) { return NextDouble() < p; }

  /// Derive an independent child generator (for per-component seeding).
  Rng Fork() { return Rng(Next() ^ 0xD2B74407B1CE6E93ull); }

 private:
  std::uint64_t state_;
};

/// The Zipfian normaliser zeta(n, theta) = sum_{i=1..n} i^-theta. Memoised
/// per thread, keyed by n and theta's bit pattern: a workload builds many
/// generators over the same key space, and the O(n) sum dominated its
/// set-up. The memo returns the double the sum produced, so every
/// generator is bit-for-bit the one an unmemoised build gives.
double Zeta(std::uint64_t n, double theta);

/// Zipfian distribution over [0, n) with skew theta (0 = uniform), using the
/// standard YCSB rejection-free construction. Used by the Memcached and
/// Cassandra workload models for key popularity.
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double theta);

  std::uint64_t Next(Rng& rng);

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
  double rank1_cutoff_;  ///< 1 + 0.5^theta: u*zetan below it draws rank 1
};

/// Fisher-Yates shuffle of a vector using the simulation Rng.
template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::size_t j = rng.NextBounded(i);
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace canvas
