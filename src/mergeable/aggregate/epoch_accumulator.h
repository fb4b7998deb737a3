// EpochAccumulator<S>: one epoch's sealing core, shared by the pulling
// Coordinator (coordinator.h) and the receiving EpochService
// (server/epoch_service.h). It holds the epoch's accepted reports keyed
// by shard plus the shards given up as lost, and it alone decides
//
//   * the dedup rule: a report is a duplicate exactly when its shard is
//     already held. Membership, not a memory of admitted keys, so a
//     pending report can never be re-admitted, and one the accumulator
//     dropped (a topology shrink) is admissible again;
//   * the fold order: ascending shard, left-deep. The paper's merge-tree
//     independence makes any order a valid ε-summary; fixing this one
//     makes recovered, server-built and coordinator-built epochs
//     byte-identical.

#ifndef MERGEABLE_AGGREGATE_EPOCH_ACCUMULATOR_H_
#define MERGEABLE_AGGREGATE_EPOCH_ACCUMULATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "mergeable/core/concepts.h"
#include "mergeable/core/merge_driver.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/check.h"
#include "mergeable/util/random.h"

namespace mergeable {

// Per-shard aggregation outcome.
struct ShardOutcome {
  enum class Status {
    kReceived,  // A valid report was accepted.
    kLost,      // All attempts exhausted or deadline passed.
  };
  uint64_t shard_id = 0;
  Status status = Status::kLost;
  uint32_t attempts = 0;        // Exchanges performed (0: recovered from
                                // durable state, no fetch needed).
  uint64_t malformed = 0;       // Frames rejected (checksum / decode).
  uint64_t duplicates = 0;      // Frames deduplicated by (shard, epoch).
  uint64_t elapsed_ms = 0;      // Virtual time spent on this shard.
};

// Degraded-coverage error accounting (see DESIGN.md §7). For a summary
// family guaranteeing error <= epsilon * n after arbitrary merging:
//   * against the received shards the merged summary keeps the native
//     bound epsilon * n_received — mergeability holds for any subset;
//   * against the full (partly unobserved) stream every lost shard may
//     hide up to its whole weight, so the bound widens additively by the
//     lost mass (exact when the caller knows the intended total, else
//     estimated from the mean received shard weight).
struct ErrorAccounting {
  double coverage = 1.0;          // shards_received / shards_total.
  uint64_t n_received = 0;        // Mass actually aggregated.
  uint64_t lost_mass = 0;         // Known or estimated unobserved mass.
  bool lost_mass_estimated = false;
  double received_bound = 0.0;    // epsilon * n_received.
  double full_stream_bound = 0.0; // received_bound + lost_mass.
};

// Everything one epoch's aggregation learned.
template <WireSummary S>
struct AggregationResult {
  // Merge of every accepted report; nullopt when nothing arrived (or
  // the run crashed).
  std::optional<S> summary;
  // True when a durable run died on a storage write before finishing
  // the epoch: the partial state is on storage, not in this result —
  // construct a fresh coordinator and Recover().
  bool crashed = false;
  size_t shards_total = 0;
  size_t shards_received = 0;
  uint64_t retries = 0;             // Exchanges beyond each first attempt.
  uint64_t duplicates_rejected = 0;
  uint64_t malformed_rejected = 0;
  uint64_t incompatible_rejected = 0;  // Decoded but failed validation.
  uint64_t elapsed_ms = 0;          // Max over shards.
  std::vector<ShardOutcome> outcomes;

  size_t shards_lost() const { return shards_total - shards_received; }
  double Coverage() const {
    return shards_total == 0
               ? 0.0
               : static_cast<double>(shards_received) /
                     static_cast<double>(shards_total);
  }
  bool Degraded() const { return shards_received < shards_total; }
};

// Computes the degraded-coverage accounting for a result whose summary
// guarantees error <= epsilon * n. `expected_total_n` is the intended
// full-stream mass if the caller knows it (0 = unknown, estimate it).
inline ErrorAccounting AccountErrors(double epsilon, size_t shards_total,
                                     size_t shards_received,
                                     uint64_t n_received,
                                     uint64_t expected_total_n) {
  ErrorAccounting accounting;
  accounting.coverage =
      shards_total == 0 ? 0.0
                        : static_cast<double>(shards_received) /
                              static_cast<double>(shards_total);
  accounting.n_received = n_received;
  accounting.received_bound = epsilon * static_cast<double>(n_received);
  const size_t lost = shards_total - shards_received;
  if (expected_total_n > 0) {
    accounting.lost_mass = expected_total_n > n_received
                               ? expected_total_n - n_received
                               : 0;
  } else if (lost > 0 && shards_received > 0) {
    // Uniform-shard estimate: lost shards carry the mean received weight.
    const uint64_t mean_shard =
        (n_received + shards_received - 1) / shards_received;
    accounting.lost_mass = static_cast<uint64_t>(lost) * mean_shard;
    accounting.lost_mass_estimated = true;
  }
  accounting.full_stream_bound =
      accounting.received_bound + static_cast<double>(accounting.lost_mass);
  return accounting;
}

template <WireSummary S>
ErrorAccounting AccountErrors(const AggregationResult<S>& result,
                              double epsilon,
                              uint64_t expected_total_n = 0) {
  return AccountErrors(epsilon, result.shards_total, result.shards_received,
                       result.summary.has_value() ? result.summary->n() : 0,
                       expected_total_n);
}

// Decodes a report payload: nullopt unless the bytes are exactly one S.
template <WireSummary S>
std::optional<S> DecodeReportPayload(ByteReader reader) {
  std::optional<S> summary = S::DecodeFrom(reader);
  if (summary.has_value() && !reader.Exhausted()) summary.reset();
  return summary;
}

template <WireSummary S>
class EpochAccumulator {
 public:
  // Accepts `shard`'s report; false (a duplicate, nothing stored) when
  // the shard is already received or given up as lost.
  bool Add(uint64_t shard, S summary) {
    if (lost_.count(shard) != 0) return false;
    return reports_.try_emplace(shard, std::move(summary)).second;
  }
  // Gives `shard` up as lost; false when it is already held.
  bool MarkLost(uint64_t shard) {
    return reports_.count(shard) == 0 && lost_.insert(shard).second;
  }

  bool Received(uint64_t shard) const { return reports_.count(shard) != 0; }
  bool Holds(uint64_t shard) const {
    return Received(shard) || lost_.count(shard) != 0;
  }
  size_t received() const { return reports_.size(); }
  std::vector<uint64_t> received_shards() const {
    std::vector<uint64_t> shards;
    for (const auto& entry : reports_) shards.push_back(entry.first);
    return shards;
  }
  std::vector<uint64_t> lost_shards() const {
    return std::vector<uint64_t>(lost_.begin(), lost_.end());
  }

  // Forgets every shard >= `shard_count` (a topology shrink orphaned
  // it), so it is admissible again. Returns the reports dropped.
  size_t DropFrom(uint64_t shard_count) {
    MERGEABLE_CHECK_MSG(!folded_.has_value(), "cannot drop folded shards");
    lost_.erase(lost_.lower_bound(shard_count), lost_.end());
    const size_t before = reports_.size();
    reports_.erase(reports_.lower_bound(shard_count), reports_.end());
    return before - reports_.size();
  }

  // Folds every received report into the left-deep prefix and returns
  // it (nullopt before the first report). CHECKs that no lower shard can
  // still arrive, so a later report can only extend the chain.
  const std::optional<S>& FoldPrefix() {
    CheckPrefixComplete();
    std::vector<S> parts = TakeUnfolded();
    if (!parts.empty()) {
      folded_ = MergeAll(std::move(parts), MergeTopology::kLeftDeepChain);
    }
    return folded_;
  }

  // Rebuilds a fresh accumulator from a FoldPrefix image.
  void Restore(const std::vector<uint64_t>& received,
               const std::vector<uint64_t>& lost, std::optional<S> folded) {
    for (const uint64_t shard : received) reports_.try_emplace(shard);
    lost_.insert(lost.begin(), lost.end());
    folded_ = std::move(folded);
    CheckPrefixComplete();
  }

  // Seals the epoch, consuming the accumulator: the received reports
  // fold in ascending shard order, left-deep unless no prefix was folded
  // early and the caller picks another topology (`rng` as in MergeAll).
  AggregationResult<S> Seal(
      size_t shards_total,
      MergeTopology topology = MergeTopology::kLeftDeepChain,
      Rng* rng = nullptr) && {
    MERGEABLE_CHECK_MSG(
        !folded_.has_value() || topology == MergeTopology::kLeftDeepChain,
        "a folded prefix only extends a left-deep chain");
    AggregationResult<S> result;
    result.shards_total = shards_total;
    result.shards_received = reports_.size();
    std::vector<S> parts = TakeUnfolded();
    if (!parts.empty()) {
      result.summary = MergeAll(std::move(parts), topology, rng);
    }
    return result;
  }

 private:
  // Every shard below the highest one held is received or lost.
  void CheckPrefixComplete() const {
    uint64_t end = reports_.empty() ? 0 : reports_.rbegin()->first + 1;
    if (!lost_.empty()) end = std::max(end, *lost_.rbegin() + 1);
    MERGEABLE_CHECK_MSG(reports_.size() + lost_.size() == end,
                        "a lower shard can still arrive: cannot fold early");
  }

  // The fold so far, then the unfolded reports in ascending shard order.
  std::vector<S> TakeUnfolded() {
    std::vector<S> parts;
    parts.reserve(reports_.size() + 1);
    if (folded_.has_value()) parts.push_back(*std::exchange(folded_, {}));
    for (auto& [shard, report] : reports_) {
      if (report.has_value()) parts.push_back(*std::exchange(report, {}));
    }
    return parts;
  }

  // shard -> report, disengaged once folded into folded_ (or sealed).
  std::map<uint64_t, std::optional<S>> reports_;
  std::set<uint64_t> lost_;
  std::optional<S> folded_;
};

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_EPOCH_ACCUMULATOR_H_
