// Write-ahead log for the aggregation coordinator.
//
// Every state transition the coordinator must not forget — the epoch
// opening, each accepted (shard, epoch, payload) report, each shard
// given up as lost — is appended to a log through Storage *before* the
// transition is applied in memory. Replaying the log therefore
// reconstructs the coordinator's durable state exactly, and dedup by
// (shard, epoch) makes the replay idempotent: a record made durable by
// a write whose acknowledgement was lost in a crash is merged once, not
// twice. A checkpoint is one more record in the same log: the fold of
// every report logged before it, so recovery restores the epoch's last
// checkpoint and replays only the records after it.
//
// Records use the shared framing of util/record_frame.h (magic
// 'W','A','L','1', length-prefixed body, u64 checksum). Body
// (little-endian, util/bytes.h):
//
//   u32  type         WalRecordType
//   u64  shard_id     (kEpochBegin and kCheckpoint: n_shards)
//   u64  epoch
//   u32  payload_len  + payload bytes (a summary's canonical encoding
//                     for kReport and kCheckpoint; else empty)
//   kCheckpoint only:
//   u32  count        + received shard ids, strictly ascending
//   u32  count        + lost shard ids, strictly ascending
//
// A crash can tear the final record (partial append) or flip a bit in
// it; ReplayWal returns the longest valid record prefix and flags the
// torn tail so recovery can truncate it. Everything before the tear is
// checksummed and therefore trustworthy. A torn checkpoint is no
// different: recovery falls back to the checkpoint before it.

#ifndef MERGEABLE_AGGREGATE_WAL_H_
#define MERGEABLE_AGGREGATE_WAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mergeable/aggregate/storage.h"

namespace mergeable {

enum class WalRecordType : uint32_t {
  // Opens an epoch: shard_id carries the shard count, payload is empty.
  kEpochBegin = 1,
  // One accepted report: payload is the summary's canonical encoding.
  kReport = 2,
  // The shard exhausted its retry budget; recovery must not retry it.
  kShardLost = 3,
  // The epoch's durable state so far: shard_id carries n_shards,
  // payload the merge of the received shards' reports (empty when none
  // merged yet), plus the received and lost shard sets.
  kCheckpoint = 4,
};

struct WalRecord {
  WalRecordType type = WalRecordType::kReport;
  uint64_t shard_id = 0;
  uint64_t epoch = 0;
  std::vector<uint8_t> payload;
  // kCheckpoint only; sorted.
  std::vector<uint64_t> received_shards;
  std::vector<uint64_t> lost_shards;
};

// Serializes one record (exposed for tests; WalWriter appends these).
std::vector<uint8_t> EncodeWalRecord(const WalRecord& record);

// Appends records to one log file through Storage.
class WalWriter {
 public:
  WalWriter(Storage* storage, std::string file);

  // Appends one record; false when the append did not durably complete
  // (the process is considered crashed — stop writing).
  bool Append(const WalRecord& record);

  uint64_t records_appended() const { return records_appended_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  const std::string& file() const { return file_; }

 private:
  Storage* storage_;
  std::string file_;
  uint64_t records_appended_ = 0;
  uint64_t bytes_appended_ = 0;
};

// What a log scan found.
struct WalReplay {
  // Every intact record, in append order (the valid prefix).
  std::vector<WalRecord> records;
  // Byte offset where the valid prefix ends.
  uint64_t valid_bytes = 0;
  // True when bytes past valid_bytes exist but do not form an intact
  // record (torn append or corrupted sector): recovery truncates them.
  bool torn_tail = false;
};

// Scans the named log file, stopping at the first record that fails to
// frame, checksum or parse. A missing file is an empty, untorn log.
WalReplay ReplayWal(const Storage& storage, const std::string& file);

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_WAL_H_
