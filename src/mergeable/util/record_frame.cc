#include "mergeable/util/record_frame.h"

namespace mergeable {
namespace {

// Magic + body length prefix + checksum.
constexpr uint64_t kFrameOverhead = 4 + 4 + 8;

}  // namespace

std::vector<uint8_t> EncodeRecordFrame(const RecordFormat& format,
                                       const std::vector<uint8_t>& body) {
  ByteWriter frame;
  frame.PutU32(format.magic);
  frame.PutBytes(body);
  frame.PutU64(format.checksum(format.magic, body.data(), body.size()));
  return frame.TakeBytes();
}

std::optional<RecordFrame> ParseRecordFrameAt(const RecordFormat& format,
                                              const std::vector<uint8_t>& bytes,
                                              uint64_t offset) {
  if (offset > bytes.size()) return std::nullopt;
  ByteReader reader(bytes.data() + offset, bytes.size() - offset);
  uint32_t magic = 0;
  uint32_t body_size = 0;
  if (!reader.GetU32(&magic) || magic != format.magic ||
      !reader.GetU32(&body_size) || !reader.Skip(body_size)) {
    return std::nullopt;
  }
  uint64_t checksum = 0;
  if (!reader.GetU64(&checksum)) return std::nullopt;
  RecordFrame frame;
  frame.offset = offset;
  frame.length = kFrameOverhead + body_size;
  frame.body = bytes.data() + offset + 8;
  frame.body_size = body_size;
  frame.intact =
      checksum == format.checksum(format.magic, frame.body, body_size);
  return frame;
}

std::optional<RecordFrame> OpenRecordFrame(const RecordFormat& format,
                                           const std::vector<uint8_t>& bytes) {
  std::optional<RecordFrame> frame = ParseRecordFrameAt(format, bytes, 0);
  if (!frame.has_value() || !frame->intact || frame->length != bytes.size()) {
    return std::nullopt;
  }
  return frame;
}

RecordFrameScan ScanRecordFrames(const RecordFormat& format,
                                 const std::vector<uint8_t>& bytes) {
  RecordFrameScan scan;
  while (scan.valid_bytes < bytes.size()) {
    const std::optional<RecordFrame> frame =
        ParseRecordFrameAt(format, bytes, scan.valid_bytes);
    if (!frame.has_value()) {
      scan.torn_tail = true;
      break;
    }
    scan.valid_bytes += frame->length;
    scan.frames.push_back(*frame);
  }
  return scan;
}

}  // namespace mergeable
