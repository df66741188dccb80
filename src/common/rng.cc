#include "common/rng.h"

#include <cmath>

#include "common/hash.h"

namespace uctr {

namespace {

uint64_t SplitMix64(uint64_t* x) {
  return Mix64(*x += 0x9E3779B97F4A7C15ULL);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t s = seed;
  for (auto& part : state_) part = SplitMix64(&s);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  if (lo >= hi) return lo;
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t draw;
  do {
    draw = Next();
  } while (draw >= limit);
  return lo + static_cast<int64_t>(draw % range);
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Gaussian() {
  // Irwin-Hall approximation: sum of 12 uniforms minus 6.
  double sum = 0.0;
  for (int i = 0; i < 12; ++i) sum += UniformDouble();
  return sum - 6.0;
}

size_t Rng::Index(size_t size) {
  if (size <= 1) return 0;
  return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(size) - 1));
}

std::vector<size_t> Rng::SampleIndices(size_t n, size_t k) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  Shuffle(&all);
  if (k < n) all.resize(k);
  return all;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w > 0 ? w : 0;
  if (total <= 0.0) return Index(weights.size());
  double draw = UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] > 0 ? weights[i] : 0;
    if (draw < acc) return i;
  }
  return weights.size() - 1;
}

}  // namespace uctr
