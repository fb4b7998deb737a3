// EpochAccumulator: the sealing core shared by Coordinator and
// EpochService. Dedup is membership (received or lost), a topology
// shrink forgets the orphaned shards, and every seal — with or without
// an early-folded prefix, restored or not — is byte-identical to
// MergeAll over the received reports in ascending shard order.

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/epoch_accumulator.h"
#include "mergeable/core/merge_driver.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

constexpr uint64_t kShards = 6;

SpaceSaving Part(uint64_t shard, uint64_t salt = 0) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(0.05);
  Rng rng(100 * shard + salt);
  for (int i = 0; i < 300; ++i) {
    summary.Update(rng.Bernoulli(0.6) ? rng.UniformInt(10)
                                      : 100 + rng.UniformInt(200));
  }
  return summary;
}

std::vector<uint8_t> Encode(const SpaceSaving& summary) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  return writer.TakeBytes();
}

// The reference fold: the given shards' parts, in the order given.
std::vector<uint8_t> Reference(
    const std::vector<uint64_t>& shards,
    MergeTopology topology = MergeTopology::kLeftDeepChain) {
  std::vector<SpaceSaving> parts;
  for (const uint64_t shard : shards) parts.push_back(Part(shard));
  return Encode(MergeAll(std::move(parts), topology));
}

std::vector<uint8_t> SealBytes(EpochAccumulator<SpaceSaving> accumulator,
                               size_t shards_total = kShards) {
  AggregationResult<SpaceSaving> result =
      std::move(accumulator).Seal(shards_total);
  EXPECT_TRUE(result.summary.has_value());
  return result.summary.has_value() ? Encode(*result.summary)
                                    : std::vector<uint8_t>{};
}

TEST(EpochAccumulatorTest, DuplicateIsAShardAlreadyHeld) {
  EpochAccumulator<SpaceSaving> accumulator;
  EXPECT_TRUE(accumulator.Add(0, Part(0)));
  // A resend with different bytes is still a duplicate and replaces
  // nothing.
  EXPECT_FALSE(accumulator.Add(0, Part(0, /*salt=*/7)));
  EXPECT_FALSE(accumulator.MarkLost(0));
  EXPECT_TRUE(accumulator.MarkLost(1));
  EXPECT_FALSE(accumulator.MarkLost(1));
  EXPECT_FALSE(accumulator.Add(1, Part(1)));  // Given up: not admitted.
  EXPECT_TRUE(accumulator.Received(0));
  EXPECT_FALSE(accumulator.Received(1));
  EXPECT_TRUE(accumulator.Holds(1));
  EXPECT_FALSE(accumulator.Holds(2));
  EXPECT_EQ(accumulator.received(), 1u);
  EXPECT_EQ(SealBytes(std::move(accumulator)), Reference({0}));
}

TEST(EpochAccumulatorTest, SealFoldsLeftDeepInAscendingShardOrder) {
  EpochAccumulator<SpaceSaving> accumulator;
  for (const uint64_t shard : {3u, 0u, 5u, 1u, 4u, 2u}) {
    ASSERT_TRUE(accumulator.Add(shard, Part(shard)));
  }
  AggregationResult<SpaceSaving> result = std::move(accumulator).Seal(8);
  EXPECT_EQ(result.shards_total, 8u);
  EXPECT_EQ(result.shards_received, 6u);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(Encode(*result.summary), Reference({0, 1, 2, 3, 4, 5}));
}

TEST(EpochAccumulatorTest, SealUnderAnotherTopologyKeepsShardOrder) {
  EpochAccumulator<SpaceSaving> accumulator;
  for (const uint64_t shard : {4u, 1u, 0u, 3u, 2u}) {
    ASSERT_TRUE(accumulator.Add(shard, Part(shard)));
  }
  AggregationResult<SpaceSaving> result =
      std::move(accumulator).Seal(kShards, MergeTopology::kBalancedTree);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(Encode(*result.summary),
            Reference({0, 1, 2, 3, 4}, MergeTopology::kBalancedTree));
}

TEST(EpochAccumulatorTest, LostShardsCountAgainstCoverageOnly) {
  EpochAccumulator<SpaceSaving> accumulator;
  ASSERT_TRUE(accumulator.Add(0, Part(0)));
  ASSERT_TRUE(accumulator.MarkLost(1));
  ASSERT_TRUE(accumulator.Add(2, Part(2)));
  EXPECT_EQ(accumulator.lost_shards(), std::vector<uint64_t>({1}));
  EXPECT_EQ(accumulator.received_shards(), std::vector<uint64_t>({0, 2}));
  AggregationResult<SpaceSaving> result = std::move(accumulator).Seal(3);
  EXPECT_EQ(result.shards_received, 2u);
  EXPECT_EQ(result.shards_lost(), 1u);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(Encode(*result.summary), Reference({0, 2}));
}

TEST(EpochAccumulatorTest, EmptySealHasNoSummary) {
  EpochAccumulator<SpaceSaving> accumulator;
  AggregationResult<SpaceSaving> result = std::move(accumulator).Seal(4);
  EXPECT_FALSE(result.summary.has_value());
  EXPECT_EQ(result.shards_total, 4u);
  EXPECT_EQ(result.shards_received, 0u);
}

TEST(EpochAccumulatorTest, TopologyDropForgetsOrphanedShards) {
  EpochAccumulator<SpaceSaving> accumulator;
  for (uint64_t shard = 0; shard < 4; ++shard) {
    ASSERT_TRUE(accumulator.Add(shard, Part(shard)));
  }
  ASSERT_TRUE(accumulator.MarkLost(5));
  EXPECT_EQ(accumulator.DropFrom(2), 2u);
  EXPECT_EQ(accumulator.received(), 2u);
  EXPECT_FALSE(accumulator.Holds(3));
  EXPECT_FALSE(accumulator.Holds(5));
  // Dropped shards are admissible again once the topology grows back.
  EXPECT_TRUE(accumulator.Add(3, Part(3)));
  EXPECT_EQ(SealBytes(std::move(accumulator)), Reference({0, 1, 3}));
}

TEST(EpochAccumulatorTest, FoldedPrefixSealsTheSameBytes) {
  EpochAccumulator<SpaceSaving> accumulator;
  ASSERT_TRUE(accumulator.Add(0, Part(0)));
  ASSERT_TRUE(accumulator.Add(1, Part(1)));
  ASSERT_TRUE(accumulator.MarkLost(2));
  const std::optional<SpaceSaving>& prefix = accumulator.FoldPrefix();
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(Encode(*prefix), Reference({0, 1}));
  // Below the folded prefix everything is held: a late copy is a
  // duplicate, never an out-of-order fold.
  EXPECT_FALSE(accumulator.Add(1, Part(1, /*salt=*/3)));
  ASSERT_TRUE(accumulator.Add(3, Part(3)));
  ASSERT_TRUE(accumulator.Add(4, Part(4)));
  ASSERT_TRUE(accumulator.FoldPrefix().has_value());
  ASSERT_TRUE(accumulator.Add(5, Part(5)));
  EXPECT_EQ(accumulator.received(), 5u);
  EXPECT_EQ(SealBytes(std::move(accumulator)), Reference({0, 1, 3, 4, 5}));
}

TEST(EpochAccumulatorTest, RestoredPrefixSealsTheSameBytes) {
  EpochAccumulator<SpaceSaving> original;
  for (uint64_t shard = 0; shard < 3; ++shard) {
    ASSERT_TRUE(original.Add(shard, Part(shard)));
  }
  ASSERT_TRUE(original.MarkLost(3));
  const std::optional<SpaceSaving> prefix = original.FoldPrefix();

  EpochAccumulator<SpaceSaving> restored;
  restored.Restore(original.received_shards(), original.lost_shards(),
                   prefix);
  EXPECT_EQ(restored.received_shards(), original.received_shards());
  EXPECT_EQ(restored.lost_shards(), original.lost_shards());
  EXPECT_FALSE(restored.Add(2, Part(2)));
  for (EpochAccumulator<SpaceSaving>* accumulator : {&original, &restored}) {
    ASSERT_TRUE(accumulator->Add(4, Part(4)));
    ASSERT_TRUE(accumulator->Add(5, Part(5)));
  }
  EXPECT_EQ(SealBytes(std::move(restored)), Reference({0, 1, 2, 4, 5}));
  EXPECT_EQ(SealBytes(std::move(original)), Reference({0, 1, 2, 4, 5}));
}

TEST(EpochAccumulatorDeathTest, FoldingPastAGapAborts) {
  EpochAccumulator<SpaceSaving> accumulator;
  ASSERT_TRUE(accumulator.Add(0, Part(0)));
  ASSERT_TRUE(accumulator.Add(2, Part(2)));  // Shard 1 can still arrive.
  EXPECT_DEATH(accumulator.FoldPrefix(), "lower shard");
}

TEST(EpochAccumulatorDeathTest, FoldedPrefixOnlyExtendsLeftDeep) {
  EpochAccumulator<SpaceSaving> accumulator;
  ASSERT_TRUE(accumulator.Add(0, Part(0)));
  accumulator.FoldPrefix();
  EXPECT_DEATH(
      std::move(accumulator).Seal(kShards, MergeTopology::kBalancedTree),
      "left-deep");
}

}  // namespace
}  // namespace mergeable
