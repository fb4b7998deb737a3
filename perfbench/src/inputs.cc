#include "inputs.h"

#include <algorithm>

#include "mergeable/frequency/space_saving.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/stream/zipf.h"

namespace perfbench {

using mergeable::Rng;
using mergeable::SpaceSaving;
using mergeable::ZipfDistribution;

Inputs::Inputs(uint64_t seed, uint64_t shards_per_epoch)
    : shards_(shards_per_epoch) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5bd1e995ull);
  const ZipfDistribution items(1u << 16, 1.1);
  std::vector<uint64_t> pool_mass(kPoolSize);
  std::vector<std::array<uint64_t, kProbes>> pool_probe(kPoolSize);
  pool_.reserve(kPoolSize);
  for (size_t p = 0; p < kPoolSize; ++p) {
    SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
    const uint64_t mass = 128 + rng.UniformInt(257);
    pool_probe[p] = {};
    for (uint64_t i = 0; i < mass; ++i) {
      const uint64_t item = items.Sample(rng);
      summary.Update(item);
      for (size_t q = 0; q < kProbes; ++q) {
        if (item == kProbeItems[q]) ++pool_probe[p][q];
      }
    }
    pool_mass[p] = mass;
    pool_.push_back(mergeable::EncodeSummary(summary));
  }

  trace_.resize(kCycleEpochs * shards_);
  mass_prefix_.assign(kCycleEpochs + 1, 0);
  probe_prefix_.assign(kCycleEpochs + 1, {});
  for (uint64_t e = 0; e < kCycleEpochs; ++e) {
    uint64_t mass = 0;
    std::array<uint64_t, kProbes> probes = {};
    for (uint64_t s = 0; s < shards_; ++s) {
      const auto p = static_cast<uint16_t>(rng.UniformInt(kPoolSize));
      trace_[e * shards_ + s] = p;
      mass += pool_mass[p];
      for (size_t q = 0; q < kProbes; ++q) probes[q] += pool_probe[p][q];
    }
    mass_prefix_[e + 1] = mass_prefix_[e] + mass;
    for (size_t q = 0; q < kProbes; ++q) {
      probe_prefix_[e + 1][q] = probe_prefix_[e][q] + probes[q];
    }
  }
}

QueryGen::QueryGen(uint64_t seed, uint64_t span)
    : rng_(seed * 0xbf58476d1ce4e5b9ull + 17), span_(span) {
  // Zipf(1.0) over lengths 1..span as a CDF table.
  zipf_cdf_.resize(span);
  double total = 0.0;
  for (uint64_t len = 1; len <= span; ++len) {
    total += 1.0 / static_cast<double>(len);
    zipf_cdf_[len - 1] = total;
  }
  for (double& c : zipf_cdf_) c /= total;
}

mergeable::WireQuery QueryGen::Next(uint64_t stream, uint64_t sealed_hi) {
  const uint64_t span = std::min(span_, sealed_hi + 1);
  const double u = rng_.UniformDouble();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const uint64_t len =
      std::min(static_cast<uint64_t>(it - zipf_cdf_.begin()) + 1, span);
  mergeable::WireQuery query;
  query.stream = stream;
  if (rng_.UniformInt(2) == 0) {
    query.window = len;
  } else {
    const uint64_t lo = sealed_hi + 1 - span;
    query.t1 = lo + rng_.UniformInt(span - len + 1);
    query.t2 = query.t1 + len - 1;
  }
  return query;
}

}  // namespace perfbench
