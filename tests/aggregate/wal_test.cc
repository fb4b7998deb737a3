// WAL framing, checksum rejection, and torn-tail detection, for every
// record type including checkpoints. The
// storage-facing tests run over both backends (MemStorage model and
// FileStorage on real files); the exhaustive byte-surgery loops stay on
// the in-memory model — they exercise framing logic, not the medium.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wal.h"
#include "storage_backends.h"

namespace mergeable {
namespace {

WalRecord Report(uint64_t shard, uint64_t epoch,
                 std::initializer_list<uint8_t> payload) {
  WalRecord record;
  record.type = WalRecordType::kReport;
  record.shard_id = shard;
  record.epoch = epoch;
  record.payload = std::vector<uint8_t>(payload);
  return record;
}

WalRecord Checkpoint(uint64_t epoch, std::vector<uint64_t> received,
                     std::vector<uint64_t> lost) {
  WalRecord record;
  record.type = WalRecordType::kCheckpoint;
  record.shard_id = 8;  // n_shards.
  record.epoch = epoch;
  record.payload = {10, 20, 30};
  record.received_shards = std::move(received);
  record.lost_shards = std::move(lost);
  return record;
}

class WalBackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  WalBackendTest() : factory_(GetParam()) {}
  BackendFactory factory_;
};

TEST_P(WalBackendTest, RoundTripsRecordsInOrder) {
  auto backend = factory_.Make();
  CrashableStorage& storage = *backend;
  WalWriter writer(&storage, "wal");
  WalRecord begin;
  begin.type = WalRecordType::kEpochBegin;
  begin.shard_id = 4;  // n_shards.
  begin.epoch = 9;
  ASSERT_TRUE(writer.Append(begin));
  ASSERT_TRUE(writer.Append(Report(0, 9, {1, 2, 3})));
  ASSERT_TRUE(writer.Append(Report(2, 9, {})));
  WalRecord lost;
  lost.type = WalRecordType::kShardLost;
  lost.shard_id = 1;
  lost.epoch = 9;
  ASSERT_TRUE(writer.Append(lost));
  ASSERT_TRUE(writer.Append(Checkpoint(9, {0, 2, 5}, {3})));
  EXPECT_EQ(writer.records_appended(), 5u);

  const WalReplay replay = ReplayWal(storage, "wal");
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, writer.bytes_appended());
  ASSERT_EQ(replay.records.size(), 5u);
  EXPECT_EQ(replay.records[0].type, WalRecordType::kEpochBegin);
  EXPECT_EQ(replay.records[0].shard_id, 4u);
  EXPECT_EQ(replay.records[1].shard_id, 0u);
  EXPECT_EQ(replay.records[1].payload, std::vector<uint8_t>({1, 2, 3}));
  EXPECT_EQ(replay.records[2].payload.size(), 0u);
  EXPECT_EQ(replay.records[3].type, WalRecordType::kShardLost);
  EXPECT_EQ(replay.records[3].shard_id, 1u);
  EXPECT_EQ(replay.records[4].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(replay.records[4].shard_id, 8u);
  EXPECT_EQ(replay.records[4].epoch, 9u);
  EXPECT_EQ(replay.records[4].payload, std::vector<uint8_t>({10, 20, 30}));
  EXPECT_EQ(replay.records[4].received_shards,
            std::vector<uint64_t>({0, 2, 5}));
  EXPECT_EQ(replay.records[4].lost_shards, std::vector<uint64_t>({3}));
}

TEST_P(WalBackendTest, MissingFileIsEmptyUntornLog) {
  auto backend = factory_.Make();
  const WalReplay replay = ReplayWal(*backend, "wal");
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.valid_bytes, 0u);
  EXPECT_FALSE(replay.torn_tail);
}

TEST_P(WalBackendTest, WriterStopsCountingOnCrashedAppend) {
  CrashPoint point;
  point.mode = CrashMode::kTornWrite;
  point.write_index = 1;
  point.mutation_seed = 3;
  auto backend = factory_.Make(point);
  CrashableStorage& storage = *backend;
  WalWriter writer(&storage, "wal");
  ASSERT_TRUE(writer.Append(Report(0, 1, {1})));
  EXPECT_FALSE(writer.Append(Report(1, 1, {2})));
  EXPECT_EQ(writer.records_appended(), 1u);

  storage.Restart();
  const WalReplay replay = ReplayWal(storage, "wal");
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].shard_id, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, WalBackendTest,
                         ::testing::Values(BackendKind::kMem,
                                           BackendKind::kFile),
                         [](const auto& info) {
                           return BackendName(info.param);
                         });

TEST(WalTest, TornFinalRecordKeepsValidPrefix) {
  for (const WalRecord& last :
       {Report(1, 1, {3, 4}), Checkpoint(1, {0, 1}, {})}) {
    MemStorage storage;
    WalWriter writer(&storage, "wal");
    ASSERT_TRUE(writer.Append(Report(0, 1, {1, 2})));
    const uint64_t first_end = writer.bytes_appended();
    ASSERT_TRUE(writer.Append(last));

    // Tear the second record at every possible split point: the first
    // record must always survive, and the tail must always be flagged.
    auto full = *storage.Read("wal");
    for (size_t cut = first_end + 1; cut < full.size(); ++cut) {
      MemStorage torn;
      ASSERT_TRUE(torn.Append(
          "wal", std::vector<uint8_t>(full.begin(), full.begin() + cut)));
      const WalReplay replay = ReplayWal(torn, "wal");
      ASSERT_EQ(replay.records.size(), 1u) << "cut=" << cut;
      EXPECT_EQ(replay.records[0].shard_id, 0u);
      EXPECT_EQ(replay.valid_bytes, first_end);
      EXPECT_TRUE(replay.torn_tail);
    }
  }
}

TEST(WalTest, BitFlipAnywhereInFinalRecordIsRejected) {
  for (const WalRecord& last :
       {Report(1, 1, {3, 4, 5, 6}), Checkpoint(1, {0, 1}, {2})}) {
    MemStorage storage;
    WalWriter writer(&storage, "wal");
    ASSERT_TRUE(writer.Append(Report(0, 1, {1, 2})));
    const uint64_t first_end = writer.bytes_appended();
    ASSERT_TRUE(writer.Append(last));

    const auto full = *storage.Read("wal");
    for (size_t byte = first_end; byte < full.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = full;
        flipped[byte] ^= static_cast<uint8_t>(1u << bit);
        MemStorage corrupt;
        ASSERT_TRUE(corrupt.Append("wal", flipped));
        const WalReplay replay = ReplayWal(corrupt, "wal");
        // The flip must not smuggle a different record through: either
        // the tail is rejected (usual), or — when the flip hits the
        // length field and happens to frame a checksummed prefix — never
        // accepted as a *valid different* record. Checksum coverage of
        // the body makes the second case impossible; assert the first.
        ASSERT_EQ(replay.records.size(), 1u)
            << "byte=" << byte << " bit=" << bit;
        EXPECT_TRUE(replay.torn_tail);
        EXPECT_EQ(replay.valid_bytes, first_end);
      }
    }
  }
}

TEST(WalTest, UnknownRecordTypeStopsReplay) {
  // A record with an unknown type frames and checksums correctly, so
  // only the type check can reject it.
  MemStorage storage;
  {
    WalRecord bogus = Report(3, 2, {7});
    bogus.type = static_cast<WalRecordType>(99);
    ASSERT_TRUE(storage.Append("wal", EncodeWalRecord(bogus)));
  }
  const WalReplay replay = ReplayWal(storage, "wal");
  EXPECT_TRUE(replay.records.empty());
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, 0u);
}

TEST(WalTest, UnsortedCheckpointShardSetStopsReplay) {
  // Shard sets are canonical (strictly ascending): a checksummed
  // checkpoint that breaks this is a writer bug, never replayed.
  for (const WalRecord& bogus :
       {Checkpoint(2, {5, 2}, {}), Checkpoint(2, {}, {4, 4})}) {
    MemStorage storage;
    ASSERT_TRUE(storage.Append("wal", EncodeWalRecord(Report(0, 2, {1}))));
    const uint64_t first_end = storage.Read("wal")->size();
    ASSERT_TRUE(storage.Append("wal", EncodeWalRecord(bogus)));
    const WalReplay replay = ReplayWal(storage, "wal");
    EXPECT_EQ(replay.records.size(), 1u);
    EXPECT_TRUE(replay.torn_tail);
    EXPECT_EQ(replay.valid_bytes, first_end);
  }
}

TEST(WalTest, ChecksumDiffersAcrossRecords) {
  const auto a = EncodeWalRecord(Report(0, 1, {1}));
  const auto b = EncodeWalRecord(Report(1, 1, {1}));
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace mergeable
