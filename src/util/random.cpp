#include "util/random.h"

#include <cmath>
#include <numbers>

#include "util/bytebuffer.h"

namespace vmp::util {

std::uint64_t SplitMix64::next_u64() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix64::next_below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling: draw until the value falls inside the largest
  // multiple of `bound` representable in 64 bits.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % bound;
}

double SplitMix64::next_double() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double SplitMix64::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double SplitMix64::normal(double mean, double stddev) {
  // Box-Muller; discard the second variate.
  double u1 = next_double();
  double u2 = next_double();
  while (u1 <= 0.0) u1 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

double SplitMix64::exponential(double mean) {
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return -mean * std::log(u);
}

double SplitMix64::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool SplitMix64::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

std::uint64_t derive_seed(std::uint64_t parent_seed, const std::string& name) {
  // FNV-1a over the name, then mixed with the parent through SplitMix64.
  SplitMix64 mixer(parent_seed ^ fnv1a64(name));
  return mixer.next_u64();
}

}  // namespace vmp::util
