#include "mergeable/aggregate/wal.h"

#include <utility>

#include "mergeable/util/bytes.h"
#include "mergeable/util/hash.h"
#include "mergeable/util/record_frame.h"

namespace mergeable {
namespace {

uint64_t WalChecksum(uint32_t, const uint8_t* body, size_t size) {
  return HashWords(body, size, MixHash(size, /*seed=*/0x57414c31));
}

// 'W' 'A' 'L' '1' read as a little-endian u32.
constexpr RecordFormat kWalFormat{0x314c4157, WalChecksum};

void PutShardSet(ByteWriter& writer, const std::vector<uint64_t>& shards) {
  writer.PutU32(static_cast<uint32_t>(shards.size()));
  for (uint64_t shard : shards) writer.PutU64(shard);
}

// Reads a shard set, validating the declared count against the bytes
// actually present before allocating, and requiring strictly ascending
// ids (canonical form; also rejects duplicates).
bool GetShardSet(ByteReader& reader, std::vector<uint64_t>* shards) {
  uint32_t count = 0;
  if (!reader.GetU32(&count) ||
      reader.remaining() / sizeof(uint64_t) < count) {
    return false;
  }
  shards->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t shard = 0;
    if (!reader.GetU64(&shard)) return false;
    if (!shards->empty() && shard <= shards->back()) return false;
    shards->push_back(shard);
  }
  return true;
}

// Parses one record body; std::nullopt for an unknown type or a body
// whose inner framing disagrees with its length.
std::optional<WalRecord> DecodeBody(ByteReader body) {
  uint32_t type = 0;
  WalRecord record;
  if (!body.GetU32(&type) ||
      type < static_cast<uint32_t>(WalRecordType::kEpochBegin) ||
      type > static_cast<uint32_t>(WalRecordType::kCheckpoint) ||
      !body.GetU64(&record.shard_id) || !body.GetU64(&record.epoch) ||
      !body.GetBytes(&record.payload)) {
    return std::nullopt;
  }
  record.type = static_cast<WalRecordType>(type);
  if (record.type == WalRecordType::kCheckpoint &&
      (!GetShardSet(body, &record.received_shards) ||
       !GetShardSet(body, &record.lost_shards))) {
    return std::nullopt;
  }
  if (!body.Exhausted()) return std::nullopt;
  return record;
}

}  // namespace

std::vector<uint8_t> EncodeWalRecord(const WalRecord& record) {
  ByteWriter body;
  body.PutU32(static_cast<uint32_t>(record.type));
  body.PutU64(record.shard_id);
  body.PutU64(record.epoch);
  body.PutBytes(record.payload);
  if (record.type == WalRecordType::kCheckpoint) {
    PutShardSet(body, record.received_shards);
    PutShardSet(body, record.lost_shards);
  }
  return EncodeRecordFrame(kWalFormat, body.bytes());
}

WalWriter::WalWriter(Storage* storage, std::string file)
    : storage_(storage), file_(std::move(file)) {}

bool WalWriter::Append(const WalRecord& record) {
  const std::vector<uint8_t> bytes = EncodeWalRecord(record);
  if (!storage_->Append(file_, bytes)) return false;
  ++records_appended_;
  bytes_appended_ += bytes.size();
  return true;
}

WalReplay ReplayWal(const Storage& storage, const std::string& file) {
  WalReplay replay;
  const std::optional<std::vector<uint8_t>> bytes = storage.Read(file);
  if (!bytes.has_value()) return replay;
  const RecordFrameScan scan = ScanRecordFrames(kWalFormat, *bytes);
  for (const RecordFrame& frame : scan.frames) {
    std::optional<WalRecord> record;
    if (frame.intact) record = DecodeBody(frame.BodyReader());
    if (!record.has_value()) {
      // The log's valid prefix ends at its first bad record.
      replay.valid_bytes = frame.offset;
      replay.torn_tail = true;
      return replay;
    }
    replay.records.push_back(std::move(*record));
  }
  replay.valid_bytes = scan.valid_bytes;
  replay.torn_tail = scan.torn_tail;
  return replay;
}

}  // namespace mergeable
