// Golden bytes for every persisted or wire record format: WAL1 (one
// record per type), SEG1 (a leaf and a merge-node record), EPH1, SUM1,
// RPT1 and NAK1. The hex strings were captured from the encoders and
// must never change: logs and segment files already on disk, and peers
// already deployed, depend on them. Each case asserts both directions —
// the encoder still writes these exact bytes, and the decoder accepts
// them with the same fields.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wal.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/store/segment.h"

namespace mergeable {
namespace {

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

const std::vector<uint8_t> kSummary = {0xde, 0xad, 0xbe, 0xef, 0x01,
                                       0x02, 0x03, 0x04, 0x05};

std::vector<uint8_t> TaggedSummary() {
  return EncodeTaggedPayload(SummaryTag::kSpaceSaving, kSummary);
}

EpochMeta Meta() {
  EpochMeta meta;
  meta.epoch = 12;
  meta.n = 4096;
  meta.shards_total = 8;
  meta.shards_received = 7;
  meta.lost_mass = 512;
  meta.lost_mass_estimated = true;
  return meta;
}

// Replays `bytes` as a one-record log.
WalRecord ReplayOne(const std::vector<uint8_t>& bytes) {
  MemStorage storage;
  EXPECT_TRUE(storage.Append("wal", bytes));
  const WalReplay replay = ReplayWal(storage, "wal");
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.records.size(), 1u);
  return replay.records.empty() ? WalRecord{} : replay.records[0];
}

TEST(GoldenBytesTest, WalRecordOfEveryType) {
  WalRecord begin;
  begin.type = WalRecordType::kEpochBegin;
  begin.shard_id = 4;
  begin.epoch = 9;
  WalRecord report;
  report.type = WalRecordType::kReport;
  report.shard_id = 2;
  report.epoch = 9;
  report.payload = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  WalRecord lost;
  lost.type = WalRecordType::kShardLost;
  lost.shard_id = 3;
  lost.epoch = 9;
  WalRecord checkpoint;
  checkpoint.type = WalRecordType::kCheckpoint;
  checkpoint.shard_id = 8;
  checkpoint.epoch = 9;
  checkpoint.payload = kSummary;
  checkpoint.received_shards = {0, 2, 5};
  checkpoint.lost_shards = {3};

  const struct {
    WalRecord record;
    const char* hex;
  } cases[] = {
      {begin,
       "57414c31180000000100000004000000000000000900000000000000000000008d"
       "fda89dc68f7dfa"},
      {report,
       "57414c312300000002000000020000000000000009000000000000000b00000001"
       "02030405060708090a0ba22d54c4676d03d8"},
      {lost,
       "57414c31180000000300000003000000000000000900000000000000000000005c"
       "048cc1370e5991"},
      {checkpoint,
       "57414c3149000000040000000800000000000000090000000000000009000000de"
       "adbeef01020304050300000000000000000000000200000000000000050000000000"
       "00000100000003000000000000001b4f39fe9d21ec7b"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(static_cast<uint32_t>(c.record.type));
    const std::vector<uint8_t> golden = FromHex(c.hex);
    EXPECT_EQ(EncodeWalRecord(c.record), golden);
    const WalRecord decoded = ReplayOne(golden);
    EXPECT_EQ(decoded.type, c.record.type);
    EXPECT_EQ(decoded.shard_id, c.record.shard_id);
    EXPECT_EQ(decoded.epoch, c.record.epoch);
    EXPECT_EQ(decoded.payload, c.record.payload);
    EXPECT_EQ(decoded.received_shards, c.record.received_shards);
    EXPECT_EQ(decoded.lost_shards, c.record.lost_shards);
  }
}

TEST(GoldenBytesTest, TaggedPayload) {
  const std::vector<uint8_t> golden = FromHex(
      "53554d310200000009000000deadbeef01020304054e36088874187790");
  EXPECT_EQ(TaggedSummary(), golden);
  const std::optional<TaggedPayload> decoded = DecodeTaggedPayload(golden);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->tag, SummaryTag::kSpaceSaving);
  EXPECT_EQ(decoded->payload, kSummary);
}

const char kEpochRecordHex[] =
    "455048314d0000000c00000000000000001000000000000008000000000000000700"
    "0000000000000002000000000000010000001d00000053554d310200000009000000"
    "deadbeef01020304054e360888741877904ed7296b12e02ad9";

TEST(GoldenBytesTest, EpochRecord) {
  const std::vector<uint8_t> golden = FromHex(kEpochRecordHex);
  EXPECT_EQ(EncodeEpochRecord(Meta(), TaggedSummary()), golden);
  const std::optional<EpochRecord> decoded = DecodeEpochRecord(golden);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->meta.epoch, 12u);
  EXPECT_EQ(decoded->meta.n, 4096u);
  EXPECT_EQ(decoded->meta.shards_total, 8u);
  EXPECT_EQ(decoded->meta.shards_received, 7u);
  EXPECT_EQ(decoded->meta.lost_mass, 512u);
  EXPECT_TRUE(decoded->meta.lost_mass_estimated);
  EXPECT_EQ(decoded->payload, TaggedSummary());
}

TEST(GoldenBytesTest, SegmentLeafAndNodeRecords) {
  const SegmentRecord leaf{5, 0, 3, FromHex(kEpochRecordHex)};
  const SegmentRecord node{5, 2, 1, TaggedSummary()};
  const std::vector<uint8_t> leaf_golden = FromHex(
      std::string("534547317500000005000000000000000000000003000000000000005d"
                  "000000") +
      kEpochRecordHex + "7f5a0ddef0efa96c");
  const std::vector<uint8_t> node_golden = FromHex(
      "534547313500000005000000000000000200000001000000000000001d00000053"
      "554d310200000009000000deadbeef01020304054e36088874187790ef4b42fb9e79"
      "c262");
  EXPECT_EQ(EncodeSegmentRecord(leaf), leaf_golden);
  EXPECT_EQ(EncodeSegmentRecord(node), node_golden);

  std::vector<uint8_t> file = leaf_golden;
  file.insert(file.end(), node_golden.begin(), node_golden.end());
  const SegmentScan scan = ScanSegment(file);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.corrupt_records, 0u);
  ASSERT_EQ(scan.entries.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const SegmentRecord& expected = i == 0 ? leaf : node;
    const SegmentRecord& got = scan.entries[i].record;
    EXPECT_TRUE(scan.entries[i].intact);
    EXPECT_EQ(got.stream, expected.stream);
    EXPECT_EQ(got.level, expected.level);
    EXPECT_EQ(got.index, expected.index);
    EXPECT_EQ(got.payload, expected.payload);
  }
}

TEST(GoldenBytesTest, ReportFrame) {
  WireReport report;
  report.shard_id = 6;
  report.epoch = 9;
  report.payload = kSummary;
  const std::vector<uint8_t> golden = FromHex(
      "525054310600000000000000090000000000000009000000deadbeef010203040"
      "5a0969a5ae4939d66");
  EXPECT_EQ(EncodeReportFrame(report), golden);
  const std::optional<WireReport> decoded = DecodeReportFrame(golden);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shard_id, 6u);
  EXPECT_EQ(decoded->epoch, 9u);
  EXPECT_EQ(decoded->payload, kSummary);
}

TEST(GoldenBytesTest, ControlFrame) {
  WireControl control;
  control.code = ControlCode::kRetryAfter;
  control.shard_id = 6;
  control.epoch = 9;
  control.retry_after_ms = 250;
  const std::vector<uint8_t> golden = FromHex(
      "4e414b311c0000000200000006000000000000000900000000000000fa000000000"
      "0000051ad1f14b468e271");
  EXPECT_EQ(EncodeControlFrame(control), golden);
  const std::optional<WireControl> decoded = DecodeControlFrame(golden);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->code, ControlCode::kRetryAfter);
  EXPECT_EQ(decoded->shard_id, 6u);
  EXPECT_EQ(decoded->epoch, 9u);
  EXPECT_EQ(decoded->retry_after_ms, 250u);
}

}  // namespace
}  // namespace mergeable
