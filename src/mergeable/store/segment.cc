#include "mergeable/store/segment.h"

#include "mergeable/util/bytes.h"
#include "mergeable/util/hash.h"
#include "mergeable/util/record_frame.h"

namespace mergeable {
namespace {

uint64_t SegmentChecksum(uint32_t, const uint8_t* body, size_t size) {
  return HashWords(body, size, MixHash(size, /*seed=*/0x53454731));
}

// 'S' 'E' 'G' '1' read as a little-endian u32.
constexpr RecordFormat kSegmentFormat{0x31474553, SegmentChecksum};

// The entry for one frame: intact only when the checksum holds *and*
// the body parses (a checksummed but malformed body counts as corrupt).
SegmentEntry EntryFor(const RecordFrame& frame) {
  SegmentEntry entry;
  entry.offset = frame.offset;
  entry.length = frame.length;
  if (!frame.intact) return entry;
  ByteReader body = frame.BodyReader();
  SegmentRecord record;
  if (!body.GetU64(&record.stream) || !body.GetU32(&record.level) ||
      !body.GetU64(&record.index) || !body.GetBytes(&record.payload) ||
      !body.Exhausted()) {
    return entry;
  }
  entry.intact = true;
  entry.record = std::move(record);
  return entry;
}

}  // namespace

std::vector<uint8_t> EncodeSegmentRecord(const SegmentRecord& record) {
  ByteWriter body;
  body.PutU64(record.stream);
  body.PutU32(record.level);
  body.PutU64(record.index);
  body.PutBytes(record.payload);
  return EncodeRecordFrame(kSegmentFormat, body.bytes());
}

SegmentScan ScanSegment(const std::vector<uint8_t>& bytes) {
  const RecordFrameScan frames = ScanRecordFrames(kSegmentFormat, bytes);
  SegmentScan scan;
  scan.valid_bytes = frames.valid_bytes;
  scan.torn_tail = frames.torn_tail;
  for (const RecordFrame& frame : frames.frames) {
    scan.entries.push_back(EntryFor(frame));
    if (!scan.entries.back().intact) ++scan.corrupt_records;
  }
  return scan;
}

bool VerifySegmentRecordAt(const std::vector<uint8_t>& file_bytes,
                           uint64_t offset, uint64_t length) {
  const std::optional<RecordFrame> frame =
      ParseRecordFrameAt(kSegmentFormat, file_bytes, offset);
  return frame.has_value() && frame->length == length &&
         EntryFor(*frame).intact;
}

}  // namespace mergeable
