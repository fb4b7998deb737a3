// Checksummed record framing shared by the on-disk logs — the
// coordinator's write-ahead log (WAL1, aggregate/wal.h) and the durable
// store's segment files (SEG1, store/segment.h) — by the epoch records
// inside them (EPH1, store/epoch_meta.h), and by the wire's uniform
// control frames (NAK1, BAT1, BVD1, QRY1, ANS1, TOP1; wire.h).
//
// A frame is
//
//   u32  magic       four ASCII bytes naming the format
//   u32  body_len    followed by body_len body bytes
//   u64  checksum    the format's checksum of the body
//
// and a log file is a flat sequence of frames. The body schema belongs
// to the format's owner; this module only frames, checksums and scans.
// A scan reports every frame's location and whether its checksum holds,
// and stops at the first bytes that do not frame at all (a torn tail:
// the append that was cut short by a crash). What a bad frame means is
// the owner's policy: the WAL ends its valid prefix at the first one, a
// segment file skips it.

#ifndef MERGEABLE_UTIL_RECORD_FRAME_H_
#define MERGEABLE_UTIL_RECORD_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/util/bytes.h"

namespace mergeable {

struct RecordFormat {
  uint32_t magic = 0;
  // A word hash of the body (HashWords, util/hash.h) under the
  // format's own seeding.
  uint64_t (*checksum)(uint32_t magic, const uint8_t* body,
                       size_t size) = nullptr;
};

// Frames `body` as one record of `format`.
std::vector<uint8_t> EncodeRecordFrame(const RecordFormat& format,
                                       const std::vector<uint8_t>& body);

// One frame within scanned bytes.
struct RecordFrame {
  uint64_t offset = 0;  // Byte offset of the frame (its magic).
  uint64_t length = 0;  // Full frame length, magic..checksum.
  bool intact = false;  // The checksum matches the body.
  // The body bytes, pointing into the scanned buffer.
  const uint8_t* body = nullptr;
  size_t body_size = 0;

  ByteReader BodyReader() const { return ByteReader(body, body_size); }
};

// Parses the frame starting at `offset`; std::nullopt when the bytes
// there do not frame a record (truncated, bad magic, or a length that
// runs past the end).
std::optional<RecordFrame> ParseRecordFrameAt(const RecordFormat& format,
                                              const std::vector<uint8_t>& bytes,
                                              uint64_t offset);

// The one frame that fills `bytes` exactly, if it is intact.
std::optional<RecordFrame> OpenRecordFrame(const RecordFormat& format,
                                           const std::vector<uint8_t>& bytes);

struct RecordFrameScan {
  std::vector<RecordFrame> frames;  // Intact and corrupt, in order.
  // End of the last frame; anything past it is a torn tail.
  uint64_t valid_bytes = 0;
  bool torn_tail = false;
};

RecordFrameScan ScanRecordFrames(const RecordFormat& format,
                                 const std::vector<uint8_t>& bytes);

}  // namespace mergeable

#endif  // MERGEABLE_UTIL_RECORD_FRAME_H_
