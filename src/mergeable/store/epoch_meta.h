// Per-epoch metadata and range-query epsilon accounting for the store.
//
// A sealed epoch is more than its summary payload: the coordinator that
// produced it knows how much stream mass it aggregated and whether any
// shards were lost to the network (degraded coverage, DESIGN.md §7).
// The store persists that context next to the payload, because a range
// query's error report depends on it: for a summary family guaranteeing
// error <= epsilon * n under arbitrary merging, a query over epochs
// [t1, t2] keeps the native bound epsilon * (sum of aggregated mass) —
// mergeability holds for any subset and any tree — while every lost
// shard in a degraded epoch may hide up to its whole weight, widening
// the full-stream bound additively by the accumulated lost mass.
//
// Epoch record layout (little-endian, the shared framing of
// util/record_frame.h):
//
//   u32  magic       'E','P','H','1'
//   u32  body_len    followed by the body:
//          u64 epoch
//          u64 n                  mass aggregated into the summary
//          u64 shards_total
//          u64 shards_received
//          u64 lost_mass
//          u32 lost_mass_estimated (0 or 1)
//          u32 payload_len + payload   tagged summary payload (wire.h)
//   u64  checksum    FrameChecksum(epoch, n, body)

#ifndef MERGEABLE_STORE_EPOCH_META_H_
#define MERGEABLE_STORE_EPOCH_META_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace mergeable {

// What the store remembers about one sealed epoch, besides its payload.
struct EpochMeta {
  // Absolute epoch number (the stream's time axis).
  uint64_t epoch = 0;
  // Stream mass aggregated into the sealed summary (n_received in
  // coordinator terms). Summary types without an n() notion (KMV,
  // Bloom) let the caller supply item counts, or zero.
  uint64_t n = 0;
  // Shard coverage of the epoch's aggregation; equal totals mean the
  // epoch is complete. Zero totals mean coverage was not tracked.
  uint64_t shards_total = 0;
  uint64_t shards_received = 0;
  // Known or estimated stream mass the epoch failed to observe.
  uint64_t lost_mass = 0;
  bool lost_mass_estimated = false;

  bool degraded() const { return shards_received < shards_total; }
};

// The epsilon accounting a range query reports (the store-level analog
// of aggregate/epoch_accumulator.h's ErrorAccounting, accumulated over every
// epoch the range covers).
struct EpsilonReport {
  double epsilon = 0.0;            // Native per-summary epsilon.
  uint64_t epochs = 0;             // Epochs the range covers.
  uint64_t degraded_epochs = 0;    // Epochs with lost shards.
  double coverage = 1.0;           // Received / total shards over range.
  uint64_t n_received = 0;         // Mass actually aggregated.
  uint64_t lost_mass = 0;          // Accumulated unobserved mass.
  bool lost_mass_estimated = false;
  double received_bound = 0.0;     // epsilon * n_received.
  double full_stream_bound = 0.0;  // received_bound + lost_mass.
};

// Accumulates `metas[lo..hi]` (inclusive, indices into a contiguous
// epoch array) into the range's epsilon report.
EpsilonReport AccumulateEpsilon(const std::vector<EpochMeta>& metas,
                                uint64_t lo, uint64_t hi, double epsilon);

// Partial-coverage variant for deadline-bounded queries: the answer
// merged only epochs [lo..covered_hi] of the requested [lo..hi]
// (lo <= covered_hi <= hi). Uncovered epochs contribute nothing to the
// answer, so *all* of their mass is unobserved: each adds its received
// mass n plus its own lost mass to lost_mass, counts as degraded, and
// counts its shards as offered-but-not-received for coverage. The
// result is an exact widening — full_stream_bound equals the covered
// prefix's bound plus every byte of mass the deadline forced the
// answer to skip, so a partial answer never understates its error.
EpsilonReport AccumulateEpsilonPartial(const std::vector<EpochMeta>& metas,
                                       uint64_t lo, uint64_t hi,
                                       uint64_t covered_hi, double epsilon);

// Serializes `meta` together with the epoch's tagged summary payload
// (wire.h) into one self-checking record — what a level-0 store file
// holds.
std::vector<uint8_t> EncodeEpochRecord(const EpochMeta& meta,
                                       const std::vector<uint8_t>& payload);

// Parsed epoch record: the metadata plus the tagged payload bytes.
struct EpochRecord {
  EpochMeta meta;
  std::vector<uint8_t> payload;
};

// std::nullopt on truncation, bad magic, checksum mismatch, or trailing
// bytes. Storage can tear and flip bits, so decoding never aborts.
std::optional<EpochRecord> DecodeEpochRecord(
    const std::vector<uint8_t>& bytes);

}  // namespace mergeable

#endif  // MERGEABLE_STORE_EPOCH_META_H_
