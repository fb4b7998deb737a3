// Bench-side tracing wrappers around the public seams of the stack.
//
// No code under src/ is instrumented. Instead the benchmark inserts its
// own object at each seam the program already exposes:
//
//   TracedHandler  a FrameHandler around EpochService (what the socket
//                  server's workers call): HandleBatch / HandleQuery
//                  durations, the per-batch join key, captured frames.
//   TimedStore     the StoreT parameter of EpochService, forwarding to
//                  SummaryStore: seal and query time and the store's own
//                  per-query counters.
//   TimedStorage   a Storage around MemStorage: write and read calls,
//                  bytes, latency.
//
// Every wrapper is always in the call path; with tracing off it costs one
// relaxed atomic load per call, so the untraced and traced runs execute
// the same code and their difference is the tracing overhead.

#ifndef PERFBENCH_WRAPPERS_H_
#define PERFBENCH_WRAPPERS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/ingest_server.h"
#include "mergeable/store/summary_store.h"
#include "stats.h"

namespace perfbench {

// Frames kept for the single-threaded replays (ingest frames are
// ~136 KB each at batch 256, so this bounds the capture at ~9 MB).
inline constexpr size_t kCaptureFrames = 64;
inline constexpr size_t kCaptureAnswers = 256;

// Identity of a batch: its first record's (shard, epoch). Every
// (shard, epoch) is offered once, so the key is unique per batch and
// lets the reporter's RTT be joined to the handler's time.
inline uint64_t BatchKey(uint64_t shard, uint64_t epoch) {
  return (epoch << 16) | (shard & 0xffff);
}

struct Trace {
  std::atomic<bool> on{false};

  Recorder handle_batch_us;
  Recorder handle_query_us;
  Recorder store_seal_us;
  Recorder store_query_us;
  Recorder storage_write_us;

  std::atomic<uint64_t> store_queries{0};
  std::atomic<uint64_t> nodes_merged{0};
  std::atomic<uint64_t> node_hits{0};
  std::atomic<uint64_t> node_misses{0};
  std::atomic<uint64_t> range_hits{0};
  std::atomic<uint64_t> query_bytes_read{0};
  std::atomic<uint64_t> storage_writes{0};
  std::atomic<uint64_t> storage_bytes_written{0};
  std::atomic<uint64_t> storage_reads{0};

  std::mutex mu;
  std::unordered_map<uint64_t, double> batch_handle_us;  // BatchKey -> us.
  std::vector<std::vector<uint8_t>> frames;
  std::vector<std::vector<uint8_t>> answers;
};

class TimedStorage : public mergeable::Storage {
 public:
  TimedStorage(mergeable::Storage* inner, Trace* trace)
      : inner_(inner), trace_(trace) {}

  bool Append(const std::string& file,
              const std::vector<uint8_t>& bytes) override {
    return Timed(bytes, [&] { return inner_->Append(file, bytes); });
  }
  bool Rewrite(const std::string& file,
               const std::vector<uint8_t>& bytes) override {
    return Timed(bytes, [&] { return inner_->Rewrite(file, bytes); });
  }
  bool Truncate(const std::string& file, uint64_t size) override {
    return inner_->Truncate(file, size);
  }
  std::optional<std::vector<uint8_t>> Read(
      const std::string& file) const override {
    if (trace_->on.load(std::memory_order_relaxed)) {
      trace_->storage_reads.fetch_add(1, std::memory_order_relaxed);
    }
    return inner_->Read(file);
  }
  std::vector<std::string> List() const override { return inner_->List(); }

 private:
  template <typename F>
  bool Timed(const std::vector<uint8_t>& bytes, F&& write) {
    if (!trace_->on.load(std::memory_order_relaxed)) return write();
    const double t0 = NowUs();
    const bool ok = write();
    trace_->storage_write_us.Add(NowUs() - t0);
    trace_->storage_writes.fetch_add(1, std::memory_order_relaxed);
    trace_->storage_bytes_written.fetch_add(bytes.size(),
                                            std::memory_order_relaxed);
    return ok;
  }

  mergeable::Storage* inner_;
  Trace* trace_;
};

using Store = mergeable::SummaryStore<mergeable::SpaceSaving>;

// The StoreT EpochService is instantiated with; forwards every call the
// service makes to the SummaryStore.
class TimedStore {
 public:
  using RangeOutcome = Store::RangeOutcome;

  TimedStore(Store* inner, Trace* trace) : inner_(inner), trace_(trace) {}

  bool HasStream(uint64_t stream) const { return inner_->HasStream(stream); }
  uint64_t EpochCount(uint64_t stream) const {
    return inner_->EpochCount(stream);
  }
  uint64_t BaseEpoch(uint64_t stream) const {
    return inner_->BaseEpoch(stream);
  }
  const std::vector<mergeable::EpochMeta>& Metas(uint64_t stream) const {
    return inner_->Metas(stream);
  }
  const mergeable::StoreOptions& options() const { return inner_->options(); }

  bool SealResult(
      uint64_t stream, uint64_t epoch,
      const mergeable::AggregationResult<mergeable::SpaceSaving>& result,
      uint64_t expected_total_n) {
    if (!trace_->on.load(std::memory_order_relaxed)) {
      return inner_->SealResult(stream, epoch, result, expected_total_n);
    }
    const double t0 = NowUs();
    const bool ok = inner_->SealResult(stream, epoch, result, expected_total_n);
    last_seal_us_ = NowUs() - t0;
    trace_->store_seal_us.Add(last_seal_us_);
    return ok;
  }

  std::optional<RangeOutcome> QueryRangePayloadBounded(
      uint64_t stream, uint64_t t1, uint64_t t2,
      mergeable::QueryDeadline deadline) {
    if (!trace_->on.load(std::memory_order_relaxed)) {
      return inner_->QueryRangePayloadBounded(stream, t1, t2, deadline);
    }
    const double t0 = NowUs();
    std::optional<RangeOutcome> out =
        inner_->QueryRangePayloadBounded(stream, t1, t2, deadline);
    trace_->store_query_us.Add(NowUs() - t0);
    if (out.has_value()) {
      const mergeable::QueryStats& s = out->stats;
      trace_->store_queries.fetch_add(1, std::memory_order_relaxed);
      trace_->nodes_merged.fetch_add(s.nodes_merged, std::memory_order_relaxed);
      trace_->node_hits.fetch_add(s.node_cache_hits, std::memory_order_relaxed);
      trace_->node_misses.fetch_add(s.node_cache_misses,
                                    std::memory_order_relaxed);
      trace_->range_hits.fetch_add(s.range_cache_hit ? 1 : 0,
                                   std::memory_order_relaxed);
      trace_->query_bytes_read.fetch_add(s.bytes_read,
                                         std::memory_order_relaxed);
    }
    return out;
  }

  // Duration of the most recent traced SealResult. Written and read by
  // the sealer thread only (SealEpoch calls SealResult on the caller's
  // thread).
  double last_seal_us() const { return last_seal_us_; }

 private:
  Store* inner_;
  Trace* trace_;
  double last_seal_us_ = 0.0;
};

class TracedHandler : public mergeable::FrameHandler {
 public:
  TracedHandler(mergeable::FrameHandler* inner, Trace* trace)
      : inner_(inner), trace_(trace) {}

  std::vector<uint8_t> HandleReport(
      const std::vector<uint8_t>& frame) override {
    return inner_->HandleReport(frame);
  }
  std::vector<uint8_t> HandleTopology(
      const std::vector<uint8_t>& frame) override {
    return inner_->HandleTopology(frame);
  }

  std::vector<uint8_t> HandleBatch(const std::vector<uint8_t>& frame) override {
    if (!trace_->on.load(std::memory_order_relaxed)) {
      return inner_->HandleBatch(frame);
    }
    const double t0 = NowUs();
    std::vector<uint8_t> response = inner_->HandleBatch(frame);
    const double us = NowUs() - t0;
    trace_->handle_batch_us.Add(us);
    // BAT1: u32 magic, u32 body_len, u32 count, then u64 shard, u64 epoch.
    if (frame.size() >= 28) {
      uint64_t shard = 0;
      uint64_t epoch = 0;
      std::memcpy(&shard, frame.data() + 12, 8);
      std::memcpy(&epoch, frame.data() + 20, 8);
      std::lock_guard<std::mutex> lock(trace_->mu);
      trace_->batch_handle_us[BatchKey(shard, epoch)] = us;
      if (trace_->frames.size() < kCaptureFrames) {
        trace_->frames.push_back(frame);
      }
    }
    return response;
  }

  std::vector<uint8_t> HandleQuery(const std::vector<uint8_t>& frame) override {
    if (!trace_->on.load(std::memory_order_relaxed)) {
      return inner_->HandleQuery(frame);
    }
    const double t0 = NowUs();
    std::vector<uint8_t> response = inner_->HandleQuery(frame);
    trace_->handle_query_us.Add(NowUs() - t0);
    std::lock_guard<std::mutex> lock(trace_->mu);
    if (trace_->answers.size() < kCaptureAnswers) {
      trace_->answers.push_back(response);
    }
    return response;
  }

 private:
  mergeable::FrameHandler* inner_;
  Trace* trace_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WRAPPERS_H_
