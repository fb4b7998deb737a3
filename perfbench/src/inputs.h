// Seeded workload inputs and the exact reference counts that check them.
//
// A workload's reports are SpaceSaving shard summaries built from Zipf
// item streams. Encoding ~1e6 distinct summaries per run would make the
// generator, not the system, the thing measured, so reports draw from a
// pool of pre-encoded payloads and the trace (which payload each
// (epoch, shard) carries) repeats with period kCycleEpochs. Everything
// is a pure function of the seed.
//
// The generator keeps, for every payload, its exact mass and the exact
// count of a few probe items; prefix sums over the trace then give the
// exact mass and probe counts of any epoch range in O(1), which is what
// every query answer is checked against.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mergeable/aggregate/wire.h"
#include "mergeable/util/random.h"

namespace perfbench {

// SpaceSaving with 1/epsilon = 20 counters encodes to ~0.5 KB.
inline constexpr double kEpsilon = 0.05;
inline constexpr size_t kPoolSize = 2048;
inline constexpr uint64_t kCycleEpochs = 4096;
inline constexpr size_t kProbes = 4;
// Zipf ranks: two heavy hitters, one mid-weight item, one light item.
inline constexpr std::array<uint64_t, kProbes> kProbeItems = {0, 1, 5, 50};

class Inputs {
 public:
  Inputs(uint64_t seed, uint64_t shards_per_epoch);

  uint64_t shards_per_epoch() const { return shards_; }
  const std::vector<uint8_t>& Payload(uint64_t epoch, uint64_t shard) const {
    return pool_[trace_[(epoch % kCycleEpochs) * shards_ + shard]];
  }
  uint64_t EpochMass(uint64_t epoch) const {
    return RangeMass(epoch, epoch);
  }
  // Exact totals over epochs [t1, t2], both inclusive.
  uint64_t RangeMass(uint64_t t1, uint64_t t2) const {
    return MassBefore(t2 + 1) - MassBefore(t1);
  }
  uint64_t RangeProbe(size_t probe, uint64_t t1, uint64_t t2) const {
    return ProbeBefore(probe, t2 + 1) - ProbeBefore(probe, t1);
  }

 private:
  uint64_t MassBefore(uint64_t epoch) const {
    return (epoch / kCycleEpochs) * mass_prefix_.back() +
           mass_prefix_[epoch % kCycleEpochs];
  }
  uint64_t ProbeBefore(size_t probe, uint64_t epoch) const {
    return (epoch / kCycleEpochs) * probe_prefix_.back()[probe] +
           probe_prefix_[epoch % kCycleEpochs][probe];
  }

  uint64_t shards_;
  std::vector<std::vector<uint8_t>> pool_;
  std::vector<uint16_t> trace_;  // kCycleEpochs x shards pool indices.
  std::vector<uint64_t> mass_prefix_;                        // C + 1.
  std::vector<std::array<uint64_t, kProbes>> probe_prefix_;  // C + 1.
};

// The query mix: half "last w epochs" window queries, half random
// ranges inside the newest `span` sealed epochs; lengths are Zipf over
// [1, span] so most queries are short and a few cover the whole span.
// A fixed span keeps the mix the same however long the history grew.
class QueryGen {
 public:
  QueryGen(uint64_t seed, uint64_t span);

  // A query over the sealed epochs [0, sealed_hi].
  mergeable::WireQuery Next(uint64_t stream, uint64_t sealed_hi);

 private:
  mergeable::Rng rng_;
  uint64_t span_;
  std::vector<double> zipf_cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
