// Per-record-checksummed segment files: the durable store's log format.
//
// A segment file is a flat sequence of SEG1 records (the shared framing
// of util/record_frame.h: magic 'S','E','G','1', length-prefixed body,
// u64 checksum), one per sealed epoch leaf or dyadic merge node. Body:
//
//   u64 stream
//   u32 level          0 = epoch leaf, >=1 = dyadic merge node
//   u64 index          leaf index / node index at that level
//   u32 payload_len + payload
//              level 0: an epoch record (epoch_meta.h — metadata plus
//              tagged summary payload); level >= 1: a tagged summary
//              payload (wire.h)
//
// The format is append-only and latest-wins: a later record for the
// same (stream, level, index) supersedes an earlier one, which is how
// the scrubber repairs a rotted merge node without rewriting history.
// Scanning is resilient at two granularities: a torn tail (the record
// that was mid-append when the process died) ends the scan and is
// truncated away like a WAL tail, while a record whose framing is
// intact but whose checksum fails — bit rot — is reported with its
// location and skipped, so one flipped bit quarantines one record,
// not the rest of the file.

#ifndef MERGEABLE_STORE_SEGMENT_H_
#define MERGEABLE_STORE_SEGMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mergeable {

struct SegmentRecord {
  uint64_t stream = 0;
  uint32_t level = 0;
  uint64_t index = 0;
  std::vector<uint8_t> payload;
};

std::vector<uint8_t> EncodeSegmentRecord(const SegmentRecord& record);

// One record's location and parse within a scanned segment file.
struct SegmentEntry {
  uint64_t offset = 0;  // Byte offset of the frame within the file.
  uint64_t length = 0;  // Full frame length (magic..checksum).
  // False when the framing parsed but the checksum (or body) did not:
  // the record's identity fields cannot be trusted and are left zero.
  bool intact = false;
  SegmentRecord record;
};

struct SegmentScan {
  std::vector<SegmentEntry> entries;  // Intact and corrupt, in order.
  // Bytes of cleanly framed records; anything past this is a torn tail
  // (or garbage) the owner should truncate away.
  uint64_t valid_bytes = 0;
  bool torn_tail = false;
  uint64_t corrupt_records = 0;  // Framed-but-checksum-failed entries.
};

SegmentScan ScanSegment(const std::vector<uint8_t>& bytes);

// Re-verifies a single record frame in place (the scrubber's unit of
// work): true iff bytes [offset, offset+length) of `file_bytes` hold an
// intact record. Out-of-range slices are simply not intact.
bool VerifySegmentRecordAt(const std::vector<uint8_t>& file_bytes,
                           uint64_t offset, uint64_t length);

}  // namespace mergeable

#endif  // MERGEABLE_STORE_SEGMENT_H_
