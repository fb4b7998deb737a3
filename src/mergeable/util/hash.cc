#include "mergeable/util/hash.h"

#include "mergeable/util/random.h"

namespace mergeable {
namespace {

// Reduces a 128-bit product modulo the Mersenne prime 2^61 - 1.
inline uint64_t ModMersenne(__uint128_t x) {
  constexpr uint64_t kPrime = PolynomialHash::kPrime;
  uint64_t low = static_cast<uint64_t>(x) & kPrime;
  uint64_t high = static_cast<uint64_t>(x >> 61);
  uint64_t result = low + high;
  if (result >= kPrime) result -= kPrime;
  return result;
}

}  // namespace

uint64_t MixHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t MixHash(uint64_t x, uint64_t seed) {
  return MixHash(x ^ (seed + 0x9e3779b97f4a7c15ULL));
}

uint64_t HashWords(const uint8_t* data, size_t size, uint64_t h) {
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = 0;
    for (int b = 7; b >= 0; --b) word = (word << 8) | data[i + b];
    h = MixHash(word, h);
  }
  uint64_t tail = 0;
  for (size_t j = size; j > i; --j) tail = (tail << 8) | data[j - 1];
  return MixHash(tail, h);
}

PolynomialHash::PolynomialHash(int degree, uint64_t seed) {
  MERGEABLE_CHECK_MSG(degree >= 1, "PolynomialHash degree must be >= 1");
  coefficients_.resize(static_cast<size_t>(degree));
  Rng rng(seed);
  for (uint64_t& c : coefficients_) c = rng.UniformInt(kPrime);
  // Force a full-degree polynomial (leading coefficient nonzero).
  if (degree > 1 && coefficients_.back() == 0) coefficients_.back() = 1;
}

uint64_t PolynomialHash::operator()(uint64_t x) const {
  // Map the 64-bit key into the field first.
  const uint64_t key = x % kPrime;
  uint64_t acc = 0;
  for (size_t i = coefficients_.size(); i-- > 0;) {
    acc = ModMersenne(static_cast<__uint128_t>(acc) * key + coefficients_[i]);
  }
  return acc;
}

void PolynomialHash::BoundedBatch(const uint64_t* items, size_t n,
                                  uint64_t bound, uint64_t* out) const {
  MERGEABLE_DCHECK(bound > 0);
  if (coefficients_.size() == 2) {
    // Degree 2 unrolled: Horner over {a0, a1} is exactly one field
    // multiply-add. Coefficients are already in [0, p), so the first
    // Horner step ModMersenne(0 * key + a1) == a1 — identical results to
    // operator(), minus the loop and the per-call coefficient loads.
    const uint64_t a0 = coefficients_[0];
    const uint64_t a1 = coefficients_[1];
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = items[i] % kPrime;
      out[i] = ModMersenne(static_cast<__uint128_t>(a1) * key + a0) % bound;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) out[i] = Bounded(items[i], bound);
}

}  // namespace mergeable
