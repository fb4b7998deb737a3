// DurableStore acceptance: kill-at-every-crash-point restart answers
// byte-identically to an uninterrupted run over real files; a
// bit-flipped segment record is quarantined by the scrubber and its
// mass folded into the error bound exactly; internal-node rot
// self-repairs from the warm tier; the background scrubber thread runs
// clean alongside seals and queries (TSan covers this suite).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/file_storage.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/segment.h"
#include "mergeable/util/random.h"
#include "../aggregate/storage_backends.h"

namespace mergeable {
namespace {

constexpr uint64_t kStream = 1;
constexpr double kEpsilon = 0.1;

SpaceSaving MakeEpochSummary(uint64_t epoch) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  Rng rng(700 + epoch);
  for (int i = 0; i < 80; ++i) summary.Update(rng.UniformInt(30));
  return summary;
}

EpochMeta MetaFor(uint64_t epoch, const SpaceSaving& summary) {
  EpochMeta meta;
  meta.epoch = epoch;
  meta.n = summary.n();
  meta.shards_total = 2;
  meta.shards_received = 2;
  return meta;
}

DurableStoreOptions Options() {
  DurableStoreOptions options;
  options.store.epsilon = kEpsilon;
  return options;
}

// Seals `epochs` summaries; returns how many Seal() calls succeeded
// before the first failure.
uint64_t SealUpTo(DurableStore<SpaceSaving>& store, uint64_t epochs) {
  for (uint64_t e = 0; e < epochs; ++e) {
    const SpaceSaving summary = MakeEpochSummary(e);
    if (!store.Seal(kStream, summary, MetaFor(e, summary))) return e;
  }
  return epochs;
}

// Every range payload over [0, count).
std::vector<std::vector<uint8_t>> AllRangePayloads(
    DurableStore<SpaceSaving>& store, uint64_t count) {
  std::vector<std::vector<uint8_t>> payloads;
  for (uint64_t lo = 0; lo < count; ++lo) {
    for (uint64_t hi = lo; hi < count; ++hi) {
      const auto outcome = store.QueryRangePayload(kStream, lo, hi);
      EXPECT_TRUE(outcome.has_value()) << "[" << lo << ", " << hi << "]";
      if (outcome.has_value()) payloads.push_back(*outcome->payload);
    }
  }
  return payloads;
}

TEST(DurableStoreTest, RestartOverFilesAnswersByteIdentically) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  constexpr uint64_t kEpochs = 9;
  std::vector<std::vector<uint8_t>> reference;
  {
    DurableStore<SpaceSaving> store(storage.get(), Options());
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
    reference = AllRangePayloads(store, kEpochs);
  }
  DurableStore<SpaceSaving> reopened(storage.get(), Options());
  const OpenReport report = reopened.Open();
  EXPECT_EQ(report.streams, 1u);
  EXPECT_EQ(report.epochs, kEpochs);
  EXPECT_EQ(report.corrupt_records, 0u);
  EXPECT_EQ(report.torn_tails, 0u);
  EXPECT_GT(report.nodes_prewarmed, 0u);
  EXPECT_EQ(reopened.EpochCount(kStream), kEpochs);
  EXPECT_EQ(AllRangePayloads(reopened, kEpochs), reference);
}

TEST(DurableStoreTest, SegmentRollKeepsEveryRecordRecoverable) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  DurableStoreOptions options = Options();
  options.segment_bytes = 256;  // Tiny: force many rolls.
  constexpr uint64_t kEpochs = 12;
  std::vector<std::vector<uint8_t>> reference;
  {
    DurableStore<SpaceSaving> store(storage.get(), options);
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
    reference = AllRangePayloads(store, kEpochs);
  }
  // Many segment files actually exist.
  uint64_t segments = 0;
  for (const std::string& name : storage->List()) {
    if (name.rfind("durable/seg/", 0) == 0) ++segments;
  }
  EXPECT_GT(segments, 2u);
  DurableStore<SpaceSaving> reopened(storage.get(), options);
  const OpenReport report = reopened.Open();
  EXPECT_EQ(report.segments, segments);
  EXPECT_EQ(report.epochs, kEpochs);
  EXPECT_EQ(AllRangePayloads(reopened, kEpochs), reference);
}

// The tentpole acceptance: a crash injected at EVERY durable write
// boundary, in every mode, over REAL FILES — restart recovers a
// contiguous epoch prefix that answers byte-identically to the
// uninterrupted run, with at least every epoch whose Seal() was
// acknowledged present.
TEST(DurableStoreTest, KillAtEveryCrashPointRestartsByteIdentically) {
  constexpr uint64_t kEpochs = 8;

  // Reference: uninterrupted run over files.
  BackendFactory factory(BackendKind::kFile);
  uint64_t total_writes = 0;
  std::vector<std::vector<uint8_t>> reference;
  {
    auto storage = factory.Make();
    DurableStore<SpaceSaving> store(storage.get(), Options());
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
    reference = AllRangePayloads(store, kEpochs);
    total_writes = storage->writes_attempted();
  }
  ASSERT_GE(total_writes, kEpochs);

  for (const CrashPoint& point : CrashMatrix(total_writes, /*seed=*/17)) {
    SCOPED_TRACE(std::string("crash ") + ToString(point.mode) +
                 " at write " + std::to_string(point.write_index));
    auto storage = factory.Make(point);
    uint64_t acknowledged = 0;
    {
      DurableStore<SpaceSaving> store(storage.get(), Options());
      acknowledged = SealUpTo(store, kEpochs);
    }
    ASSERT_TRUE(storage->crashed());

    storage->Restart();
    DurableStore<SpaceSaving> reopened(storage.get(), Options());
    const OpenReport report = reopened.Open();
    if (!reopened.HasStream(kStream)) {
      // Nothing recovered: legal only when nothing was ever acknowledged.
      EXPECT_EQ(acknowledged, 0u);
      continue;
    }
    const uint64_t recovered = reopened.EpochCount(kStream);
    // Leaf-first sealing: every acknowledged epoch is durable. A crash
    // mid-seal may additionally leave the in-flight leaf durable.
    EXPECT_GE(recovered, acknowledged);
    EXPECT_LE(recovered, kEpochs);
    EXPECT_EQ(reopened.BaseEpoch(kStream), 0u);
    // Byte-identical answers over everything recovered.
    size_t at = 0;
    for (uint64_t lo = 0; lo < recovered; ++lo) {
      for (uint64_t hi = lo; hi < kEpochs; ++hi) {
        const size_t reference_index = at++;
        if (hi >= recovered) continue;
        const auto outcome = reopened.QueryRangePayload(kStream, lo, hi);
        ASSERT_TRUE(outcome.has_value())
            << "[" << lo << ", " << hi << "]";
        EXPECT_EQ(*outcome->payload, reference[reference_index])
            << "[" << lo << ", " << hi << "]";
      }
    }
    (void)report;
  }
}

// Scrub detects a bit-flipped LEAF record, quarantines the epoch, and
// the query bound widens by exactly the quarantined mass — the same
// arithmetic as AccumulateEpsilonPartial, asserted field by field.
TEST(DurableStoreTest, BitFlippedLeafIsQuarantinedWithExactEpsilon) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  constexpr uint64_t kEpochs = 6;
  constexpr uint64_t kRotten = 3;
  DurableStore<SpaceSaving> store(storage.get(), Options());
  ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
  const auto healthy = store.QueryRangePayload(kStream, 0, kEpochs - 1);
  ASSERT_TRUE(healthy.has_value());
  EXPECT_FALSE(healthy->partial);

  // Flip one payload bit inside epoch kRotten's leaf record on disk.
  const std::string segment_file = "durable/seg/00000000";
  auto bytes = storage->Read(segment_file);
  ASSERT_TRUE(bytes.has_value());
  const SegmentScan scan = ScanSegment(*bytes);
  bool flipped = false;
  for (const SegmentEntry& entry : scan.entries) {
    if (entry.record.level == 0 && entry.record.index == kRotten) {
      (*bytes)[entry.offset + entry.length / 2] ^= 0x04;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);
  ASSERT_TRUE(storage->Rewrite(segment_file, *bytes));

  // One synchronous scrub pass finds it.
  EXPECT_GT(store.ScrubOnce(), 0u);
  const ScrubStats stats = store.scrub_stats();
  EXPECT_EQ(stats.corrupt_found, 1u);
  EXPECT_EQ(stats.epochs_quarantined, 1u);
  EXPECT_EQ(stats.nodes_repaired, 0u);
  EXPECT_EQ(store.QuarantinedLeaves(kStream),
            std::vector<uint64_t>({kRotten}));

  // A range crossing the quarantined epoch clamps to the prefix and
  // carries the EXACT widened bound.
  const auto outcome = store.QueryRangePayload(kStream, 0, kEpochs - 1);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->partial);
  EXPECT_EQ(outcome->covered_hi, kRotten - 1);
  const EpsilonReport expected = AccumulateEpsilonPartial(
      store.Metas(kStream), 0, kEpochs - 1, kRotten - 1, kEpsilon);
  EXPECT_EQ(outcome->eps.lost_mass, expected.lost_mass);
  EXPECT_FALSE(outcome->eps.lost_mass_estimated);
  EXPECT_EQ(outcome->eps.n_received, expected.n_received);
  EXPECT_EQ(outcome->eps.received_bound, expected.received_bound);
  EXPECT_EQ(outcome->eps.full_stream_bound, expected.full_stream_bound);
  // The uncovered mass is every byte of epochs [kRotten, kEpochs):
  // nothing estimated, counted to the byte.
  uint64_t uncovered = 0;
  const auto& metas = store.Metas(kStream);
  for (uint64_t e = kRotten; e < kEpochs; ++e) uncovered += metas[e].n;
  EXPECT_EQ(outcome->eps.lost_mass, uncovered);
  // And the answered prefix is byte-identical to querying it directly.
  const auto prefix = store.QueryRangePayload(kStream, 0, kRotten - 1);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(*outcome->payload, *prefix->payload);

  // A range STARTING on the quarantined epoch is refused; ranges
  // strictly before it stay full-fidelity.
  EXPECT_FALSE(
      store.QueryRangePayload(kStream, kRotten, kEpochs - 1).has_value());
  const auto before = store.QueryRangePayload(kStream, 0, kRotten - 1);
  ASSERT_TRUE(before.has_value());
  EXPECT_FALSE(before->partial);
}

// Internal-node rot is derived data: the scrubber re-appends the warm
// copy, the repair survives restart, and nothing is quarantined.
TEST(DurableStoreTest, RottedInternalNodeSelfRepairsFromWarmTier) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  constexpr uint64_t kEpochs = 8;
  std::vector<std::vector<uint8_t>> reference;
  DurableStoreOptions options = Options();
  {
    DurableStore<SpaceSaving> store(storage.get(), options);
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
    reference = AllRangePayloads(store, kEpochs);

    const std::string segment_file = "durable/seg/00000000";
    auto bytes = storage->Read(segment_file);
    ASSERT_TRUE(bytes.has_value());
    const SegmentScan scan = ScanSegment(*bytes);
    bool flipped = false;
    for (const SegmentEntry& entry : scan.entries) {
      if (entry.record.level >= 1) {
        (*bytes)[entry.offset + entry.length / 2] ^= 0x20;
        flipped = true;
        break;
      }
    }
    ASSERT_TRUE(flipped);
    ASSERT_TRUE(storage->Rewrite(segment_file, *bytes));

    EXPECT_GT(store.ScrubOnce(), 0u);
    const ScrubStats stats = store.scrub_stats();
    EXPECT_EQ(stats.corrupt_found, 1u);
    EXPECT_EQ(stats.nodes_repaired, 1u);
    EXPECT_EQ(stats.epochs_quarantined, 0u);
    EXPECT_TRUE(store.QuarantinedLeaves(kStream).empty());
    // Serving is untouched by derived-data rot.
    EXPECT_EQ(AllRangePayloads(store, kEpochs), reference);
    // A second pass over the repaired manifest is clean.
    store.ScrubOnce();
    EXPECT_EQ(store.scrub_stats().corrupt_found, 1u);
  }
  // Restart: latest-wins replays the repair over the rotted original.
  DurableStore<SpaceSaving> reopened(storage.get(), options);
  const OpenReport report = reopened.Open();
  EXPECT_EQ(report.corrupt_records, 1u);  // The rotted original, skipped.
  EXPECT_EQ(report.epochs, kEpochs);
  EXPECT_EQ(AllRangePayloads(reopened, kEpochs), reference);
}

// The background scrubber thread verifies records while seals and
// queries keep running — the TSan job runs this suite with the real
// thread active.
TEST(DurableStoreTest, BackgroundScrubberRunsCleanAlongsideSealsAndQueries) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  DurableStoreOptions options = Options();
  options.scrub.interval_ms = 1;
  DurableStore<SpaceSaving> store(storage.get(), options);
  ASSERT_EQ(SealUpTo(store, 4), 4u);

  store.StartScrubber();
  for (uint64_t e = 4; e < 24; ++e) {
    const SpaceSaving summary = MakeEpochSummary(e);
    ASSERT_TRUE(store.Seal(kStream, summary, MetaFor(e, summary)));
    const auto outcome = store.QueryRangePayload(kStream, 0, e);
    ASSERT_TRUE(outcome.has_value());
  }
  store.StopScrubber();
  const ScrubStats stats = store.scrub_stats();
  EXPECT_GT(stats.passes, 0u);
  EXPECT_EQ(stats.corrupt_found, 0u);
  EXPECT_EQ(store.EpochCount(kStream), 24u);
}

// Disk-full during a seal: the failed epoch is NOT half-sealed — the
// store still serves everything durable, and the SAME epoch seals
// cleanly once space returns.
TEST(DurableStoreTest, EnospcSealFailsCleanAndRetries) {
  FaultFd faults;
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make({}, &faults);
  DurableStore<SpaceSaving> store(storage.get(), Options());
  ASSERT_EQ(SealUpTo(store, 3), 3u);

  faults.SetSticky(FaultFd::Kind::kENOSPC);
  const SpaceSaving summary = MakeEpochSummary(3);
  EXPECT_FALSE(store.Seal(kStream, summary, MetaFor(3, summary)));
  EXPECT_EQ(store.EpochCount(kStream), 3u);  // Nothing half-applied.
  const auto during = store.QueryRangePayload(kStream, 0, 2);
  ASSERT_TRUE(during.has_value());  // Queries keep serving.

  faults.Clear();
  EXPECT_TRUE(store.Seal(kStream, summary, MetaFor(3, summary)));
  EXPECT_EQ(store.EpochCount(kStream), 4u);
  const auto after = store.QueryRangePayload(kStream, 0, 3);
  ASSERT_TRUE(after.has_value());
  EXPECT_FALSE(after->partial);
}

// A stray file beside the segments (an operator's backup copy) is not
// a segment: it must neither override the records the log holds nor
// move the append cursor, and it is left exactly as it was.
TEST(DurableStoreTest, StrayFileInSegmentDirectoryIsIgnored) {
  MemStorage storage;
  const std::string stray = "durable/seg/00000000.bak";
  std::vector<uint8_t> stray_bytes;
  {
    DurableStore<SpaceSaving> store(&storage, Options());
    ASSERT_EQ(SealUpTo(store, 4), 4u);
    const auto segment = storage.Read("durable/seg/00000000");
    ASSERT_TRUE(segment.has_value());
    const SegmentScan scan = ScanSegment(*segment);
    ASSERT_FALSE(scan.entries.empty());
    stray_bytes.assign(segment->begin(),
                       segment->begin() + scan.entries[0].length);
    ASSERT_TRUE(storage.Rewrite(stray, stray_bytes));
  }
  DurableStore<SpaceSaving> reopened(&storage, Options());
  const OpenReport report = reopened.Open();
  EXPECT_EQ(report.segments, 1u);
  EXPECT_EQ(report.epochs, 4u);
  for (uint64_t e = 4; e < 8; ++e) {
    const SpaceSaving summary = MakeEpochSummary(e);
    ASSERT_TRUE(reopened.Seal(kStream, summary, MetaFor(e, summary)));
  }
  reopened.ScrubOnce();
  EXPECT_EQ(reopened.scrub_stats().corrupt_found, 0u);
  EXPECT_TRUE(reopened.QuarantinedLeaves(kStream).empty());
  EXPECT_EQ(*storage.Read(stray), stray_bytes);
  const auto outcome = reopened.QueryRangePayload(kStream, 0, 7);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->partial);
}

// MemStorage works as the durable backend too (the test double the
// chaos harness uses); the two-tier store is backend-agnostic.
TEST(DurableStoreTest, MemBackendRoundTrips) {
  BackendFactory factory(BackendKind::kMem);
  auto storage = factory.Make();
  constexpr uint64_t kEpochs = 5;
  std::vector<std::vector<uint8_t>> reference;
  {
    DurableStore<SpaceSaving> store(storage.get(), Options());
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
    reference = AllRangePayloads(store, kEpochs);
  }
  DurableStore<SpaceSaving> reopened(storage.get(), Options());
  reopened.Open();
  EXPECT_EQ(AllRangePayloads(reopened, kEpochs), reference);
}

}  // namespace
}  // namespace mergeable
