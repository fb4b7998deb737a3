// The fault-tolerant aggregation coordinator.
//
// Workers summarize their shards and ship framed reports (wire.h) over a
// transport (transport.h) — the seeded in-process fault injector
// (fault.h) or the real socket path (server/). The coordinator collects
// exactly one report per shard for one epoch, surviving the faults the
// transport injects:
//
//   * malformed frames (truncated / bit-flipped) are rejected by the
//     frame checksum and the summary decoders, then retried;
//   * missing replies are retried with capped exponential backoff until
//     a per-shard deadline;
//   * duplicated and straggler frames are deduplicated by (shard, epoch);
//   * permanently lost shards degrade the answer instead of silently
//     biasing it: the result reports effective coverage
//     n_received / n_total and ErrorAccounting widens the error bound by
//     the unobserved mass.
//
// The epoch's reports live in an EpochAccumulator (epoch_accumulator.h),
// the sealing core shared with the server's EpochService: it owns the
// dedup rule, the received/lost sets and the fold. The coordinator is
// the pull loop around it: retries, the log and the checkpoints.
//
// The coordinator also survives *itself* (DESIGN.md §8): in durable mode
// every accepted report is appended to a write-ahead log (wal.h) before
// it is accepted, and the fold so far is checkpointed periodically as
// one more record of that log, all through a Storage backend. After a
// crash, Recover() truncates any torn tail, restores the epoch's last
// intact checkpoint, replays the records after it idempotently — dedup
// by (shard, epoch) makes a record whose acknowledgement died with the
// process merge exactly once — and ResumeDurable() refetches only the
// shards that were never durably recorded. Durable runs fold left-deep
// in ascending shard order, so a recovered epoch produces a summary
// byte-identical (canonical encodings) to an uninterrupted one.
//
// In-memory runs merge under the constructor's topology — the
// mergeability guarantee (the paper's central claim) is exactly what
// makes partial, reordered, retried, replayed aggregation sound:
// whatever subset of shards arrives, in whatever order they are merged,
// the result is a valid summary of the union of the received shards
// with the same epsilon.

#ifndef MERGEABLE_AGGREGATE_COORDINATOR_H_
#define MERGEABLE_AGGREGATE_COORDINATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mergeable/aggregate/epoch_accumulator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/transport.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wal.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/core/concepts.h"
#include "mergeable/core/merge_driver.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/check.h"
#include "mergeable/util/random.h"

namespace mergeable {

// Retry schedule: capped exponential backoff under a per-shard deadline.
// `multiplier` must be positive (BackoffBefore aborts otherwise); the
// backoff value saturates at max_backoff_ms, so huge attempt counts or
// multipliers can never overflow the schedule.
struct BackoffPolicy {
  uint32_t max_attempts = 4;
  uint64_t initial_backoff_ms = 10;
  double multiplier = 2.0;
  uint64_t max_backoff_ms = 1000;
  // An exchange that takes longer than this counts as timed out.
  uint64_t attempt_timeout_ms = 100;
  // No attempt starts after this much virtual time has elapsed for the
  // shard (retrying forever would stall the whole epoch).
  uint64_t deadline_ms = 5000;

  // Backoff inserted before `attempt` (zero before the first try).
  uint64_t BackoffBefore(uint32_t attempt) const;
};

// Knobs for durable (write-ahead log) runs.
struct DurableOptions {
  // Storage file name of the write-ahead log.
  std::string wal_file = "wal";
  // Append a checkpoint record after every this many accepted reports
  // (0 = log only, never checkpoint; recovery then replays the whole
  // log, which is still exact, just slower).
  uint64_t checkpoint_every = 8;
  // Retry schedule for transient Storage::Append failures (a disk-full
  // window that clears, a flaky EIO). max_attempts bounds the tries per
  // record; the backoff values are virtual time, accumulated in
  // wal_append_backoff_ms(). A *crashed* storage stays failed for the
  // whole process lifetime and consumes no write indices while down, so
  // retrying cannot shift the crash matrix: recovery stays byte-exact.
  BackoffPolicy append_retry{.max_attempts = 3,
                             .initial_backoff_ms = 1,
                             .multiplier = 2.0,
                             .max_backoff_ms = 16};
};

// What Recover() reconstructed from storage.
struct RecoveryInfo {
  // True when durable state for this epoch was found (an epoch-begin
  // or checkpoint record). False means the crash predated the first
  // durable write: nothing was lost, start the epoch from scratch.
  bool recovered = false;
  uint64_t epoch = 0;
  uint64_t n_shards = 0;
  bool used_checkpoint = false;
  uint64_t checkpoint_record = 0;  // Log position of the checkpoint used.
  uint64_t wal_records_total = 0;  // Intact records found in the log.
  uint64_t wal_records_applied = 0;  // Records replayed past the checkpoint.
  uint64_t duplicates_ignored = 0;   // Replay idempotence in action.
  uint64_t invalid_payloads = 0;     // Checksummed-but-undecodable reports
                                     // dropped (a writer bug, not a crash).
  bool torn_tail_truncated = false;  // A partial final record was cut off.
  // Shards neither received nor given up in the durable state — exactly
  // the fetch work ResumeDurable() still has to do.
  std::vector<uint64_t> pending_shards;
};

// Collects one epoch of reports for summary type S.
template <WireSummary S>
class Coordinator {
 public:
  // `validate` (optional) accepts a decoded summary before it is merged;
  // use it to enforce fleet-wide configuration (capacity, seeds) so a
  // stray incompatible report cannot abort the merge.
  Coordinator(uint64_t epoch, BackoffPolicy policy, MergeTopology topology,
              uint64_t seed = 0)
      : epoch_(epoch), policy_(policy), topology_(topology), rng_(seed) {}

  void set_validator(bool (*validate)(const S&)) { validate_ = validate; }

  uint64_t epoch() const { return epoch_; }

  // Cumulative WAL-append retry traffic (transient storage failures
  // ridden out under DurableOptions::append_retry).
  uint64_t wal_append_retries() const { return wal_append_retries_; }
  uint64_t wal_append_backoff_ms() const { return wal_append_backoff_ms_; }

  // Moves the coordinator to a new epoch, resetting every per-epoch
  // state: the accumulator, rejection counters, and any attached
  // durable storage. Reusing one coordinator across epochs without this
  // reset would let stale state leak into the next round, so the epoch
  // must actually change.
  void AdvanceEpoch(uint64_t new_epoch) {
    MERGEABLE_CHECK_MSG(new_epoch != epoch_,
                        "AdvanceEpoch requires a different epoch");
    epoch_ = new_epoch;
    ResetEpochState();
  }

  // Fetches the reports of shards [0, n_shards) from `transport`, with
  // retries, dedup and degraded-coverage accounting, and merges them
  // under the constructor's topology. In-memory only: a coordinator
  // crash loses the epoch (use RunDurable to survive that).
  AggregationResult<S> Run(Transport& transport, size_t n_shards) {
    ResetEpochState();
    return ShardLoop(transport, n_shards);
  }

  // Durable variant of Run: every accepted report is WAL-appended before
  // it is accepted and the fold so far is logged as a checkpoint record
  // every `options.checkpoint_every` reports, all through `storage`. If a
  // storage write fails mid-epoch the result comes back with
  // `crashed == true`; a fresh coordinator can then Recover() from the
  // same storage and ResumeDurable() the epoch.
  //
  // Durable runs merge left-deep in ascending shard order regardless of
  // the constructor's topology — a deterministic order is what makes the
  // recovered result byte-identical to an uninterrupted one (and by the
  // paper's merge-tree independence, the error bound does not care).
  AggregationResult<S> RunDurable(Transport& transport,
                                  size_t n_shards, Storage* storage,
                                  DurableOptions options = {}) {
    ResetEpochState();
    AttachStorage(storage, std::move(options));
    return ShardLoop(transport, n_shards);
  }

  // Rebuilds durable state from `storage` after a crash: truncates a
  // torn final record, restores the epoch's last intact checkpoint, and
  // replays the log records after it (idempotently). The coordinator
  // must be constructed for the same epoch the durable state belongs
  // to; records of other epochs are ignored.
  RecoveryInfo Recover(Storage* storage, DurableOptions options = {}) {
    ResetEpochState();
    AttachStorage(storage, std::move(options));
    RecoveryInfo info;
    info.epoch = epoch_;

    const WalReplay replay = ReplayWal(*storage, options_.wal_file);
    const std::vector<WalRecord>& records = replay.records;
    info.wal_records_total = records.size();
    size_t next = 0;  // First record the checkpoint does not cover.
    for (size_t i = records.size(); i-- > 0;) {
      if (records[i].type == WalRecordType::kCheckpoint &&
          records[i].epoch == epoch_) {
        RestoreCheckpoint(records[i]);
        info.used_checkpoint = true;
        info.checkpoint_record = i;
        next = i + 1;
        break;
      }
    }
    for (; next < records.size(); ++next) {
      const WalRecord& record = records[next];
      if (record.epoch != epoch_) continue;
      ++info.wal_records_applied;
      switch (record.type) {
        case WalRecordType::kEpochBegin:
          durable_n_shards_ = record.shard_id;
          break;
        case WalRecordType::kReport:
          // A record made durable twice (e.g. an append whose
          // acknowledgement died) is a duplicate: merged exactly once.
          if (accumulator_.Holds(record.shard_id)) {
            ++info.duplicates_ignored;
          } else if (std::optional<S> summary = DecodeReportPayload<S>(
                         ByteReader(record.payload))) {
            accumulator_.Add(record.shard_id, std::move(*summary));
          } else {
            ++info.invalid_payloads;
          }
          break;
        case WalRecordType::kShardLost:
          accumulator_.MarkLost(record.shard_id);
          break;
        case WalRecordType::kCheckpoint:
          break;  // Only the last one is restored; none follow it.
      }
    }
    if (replay.torn_tail) {
      // The tail bytes never formed a durable record; cut them so new
      // appends start at a clean boundary.
      storage->Truncate(options_.wal_file, replay.valid_bytes);
      info.torn_tail_truncated = true;
    }

    info.recovered = durable_n_shards_.has_value();
    info.n_shards = durable_n_shards_.value_or(0);
    for (uint64_t shard = 0; shard < info.n_shards; ++shard) {
      if (!accumulator_.Holds(shard)) info.pending_shards.push_back(shard);
    }
    return info;
  }

  // Finishes the epoch after Recover(): refetches only the shards not
  // yet durably recorded and keeps logging/checkpointing. `n_shards`
  // must match the epoch's durable shard count when one was recovered
  // (it seeds the epoch when the crash predated the first write).
  AggregationResult<S> ResumeDurable(Transport& transport,
                                     size_t n_shards) {
    MERGEABLE_CHECK_MSG(wal_.has_value(),
                        "ResumeDurable requires Recover() first");
    return ShardLoop(transport, n_shards);
  }

 private:
  // A fetched, validated report: the decoded summary plus the canonical
  // payload bytes it decoded from (what the WAL persists).
  struct FetchedReport {
    S summary;
    std::vector<uint8_t> payload;
  };

  void ResetEpochState() {
    incompatible_ = 0;
    accumulator_ = EpochAccumulator<S>();
    durable_n_shards_.reset();
    wal_.reset();
  }

  void AttachStorage(Storage* storage, DurableOptions options) {
    MERGEABLE_CHECK_MSG(storage != nullptr, "durable mode needs storage");
    options_ = std::move(options);
    wal_.emplace(storage, options_.wal_file);
  }

  // Logs the accumulator's fold so far. Codecs keep decoded and merged
  // states at the encode∘decode fixed point, so the in-memory state
  // always equals its checkpoint-restored image and recovery is
  // byte-exact for any crash point.
  bool WriteCheckpoint() {
    WalRecord checkpoint;
    checkpoint.type = WalRecordType::kCheckpoint;
    checkpoint.shard_id = *durable_n_shards_;
    checkpoint.epoch = epoch_;
    const std::optional<S>& folded = accumulator_.FoldPrefix();
    if (folded.has_value()) {
      ByteWriter writer;
      folded->EncodeTo(writer);
      checkpoint.payload = writer.TakeBytes();
    }
    checkpoint.received_shards = accumulator_.received_shards();
    checkpoint.lost_shards = accumulator_.lost_shards();
    return WalAppend(std::move(checkpoint));
  }

  void RestoreCheckpoint(const WalRecord& checkpoint) {
    durable_n_shards_ = checkpoint.shard_id;
    std::optional<S> folded;
    if (!checkpoint.payload.empty()) {
      folded = DecodeReportPayload<S>(ByteReader(checkpoint.payload));
      // The record checksum already vouched for these bytes; a decode
      // failure here is a checkpoint-writer bug.
      MERGEABLE_CHECK_MSG(folded.has_value(),
                          "checksummed checkpoint payload must decode");
    }
    accumulator_.Restore(checkpoint.received_shards, checkpoint.lost_shards,
                         std::move(folded));
  }

  // Logs a kEpochBegin, kReport or kShardLost record of this epoch.
  bool Log(WalRecordType type, uint64_t shard_id,
           std::vector<uint8_t> payload = {}) {
    WalRecord record;
    record.type = type;
    record.shard_id = shard_id;
    record.epoch = epoch_;
    record.payload = std::move(payload);
    return WalAppend(std::move(record));
  }

  // Appends `record` to the WAL; a no-op success when no log is attached
  // (in-memory runs). Transient append failures are retried under
  // options_.append_retry: a record only counts as lost once the bounded
  // schedule is exhausted, so one flaky write no longer aborts the epoch.
  bool WalAppend(WalRecord record) {
    if (!wal_.has_value()) return true;
    const BackoffPolicy& retry = options_.append_retry;
    const uint32_t attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
    for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        ++wal_append_retries_;
        wal_append_backoff_ms_ += retry.BackoffBefore(attempt);
      }
      if (wal_->Append(record)) return true;
    }
    return false;
  }

  // The loop shared by Run, RunDurable and ResumeDurable: collect, then
  // seal (left-deep when durable, else under the constructor's topology).
  // A storage failure marks the result crashed in place: moving a result
  // with a disengaged optional trips a GCC 12 false positive.
  AggregationResult<S> ShardLoop(Transport& transport, size_t n_shards) {
    AggregationResult<S> result;
    result.shards_total = n_shards;
    result.outcomes.reserve(n_shards);
    if (!CollectShards(transport, n_shards, &result)) {
      result.crashed = true;
      result.shards_received = accumulator_.received();
      return result;
    }
    AggregationResult<S> sealed = std::move(accumulator_).Seal(
        n_shards,
        wal_.has_value() ? MergeTopology::kLeftDeepChain : topology_, &rng_);
    result.shards_received = sealed.shards_received;
    result.incompatible_rejected = incompatible_;
    if (sealed.summary.has_value()) {
      result.summary.emplace(std::move(*sealed.summary));
    }
    return result;
  }

  // Shards already durably received or lost are skipped; everything
  // else is fetched and WAL-logged *before* the accumulator sees it (a
  // no-op in memory). False when a storage write failed.
  bool CollectShards(Transport& transport, size_t n_shards,
                     AggregationResult<S>* result) {
    if (!durable_n_shards_.has_value()) {
      if (!Log(WalRecordType::kEpochBegin, n_shards)) return false;
      durable_n_shards_ = n_shards;
    }
    MERGEABLE_CHECK_MSG(durable_n_shards_ == n_shards,
                        "shard count does not match the durable epoch");
    for (uint64_t shard = 0; shard < n_shards; ++shard) {
      ShardOutcome outcome;
      outcome.shard_id = shard;
      if (accumulator_.Holds(shard)) {
        // Durably recorded before this process started — not refetched;
        // that is the whole point of the log.
        outcome.status = accumulator_.Received(shard)
                             ? ShardOutcome::Status::kReceived
                             : ShardOutcome::Status::kLost;
        result->outcomes.push_back(outcome);
        continue;
      }
      std::optional<FetchedReport> fetched = FetchShard(transport, &outcome);
      result->retries += outcome.attempts > 0 ? outcome.attempts - 1 : 0;
      result->duplicates_rejected += outcome.duplicates;
      result->malformed_rejected += outcome.malformed;
      result->elapsed_ms = std::max(result->elapsed_ms, outcome.elapsed_ms);
      result->outcomes.push_back(outcome);
      if (!fetched.has_value()) {
        if (!Log(WalRecordType::kShardLost, shard)) return false;
        accumulator_.MarkLost(shard);
        continue;
      }
      // Write-ahead: the report must be durable before it can affect
      // the merged state, or a crash between the two would lose it.
      if (!Log(WalRecordType::kReport, shard, std::move(fetched->payload))) {
        return false;
      }
      accumulator_.Add(shard, std::move(fetched->summary));
      if (wal_.has_value() && options_.checkpoint_every > 0 &&
          accumulator_.received() % options_.checkpoint_every == 0 &&
          !WriteCheckpoint()) {
        return false;
      }
    }
    return true;
  }

  // Runs the retry loop for `outcome->shard_id`; returns the decoded
  // summary and its canonical payload bytes once a report is accepted.
  std::optional<FetchedReport> FetchShard(Transport& transport,
                                          ShardOutcome* outcome) {
    std::optional<FetchedReport> fetched;
    bool incompatible = false;
    for (uint32_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
      const uint64_t backoff = policy_.BackoffBefore(attempt);
      if (outcome->elapsed_ms + backoff > policy_.deadline_ms) break;
      outcome->elapsed_ms += backoff;
      ++outcome->attempts;
      DeliveryAttempt delivery = transport.Deliver(outcome->shard_id, attempt);
      outcome->elapsed_ms +=
          std::min(delivery.latency_ms, policy_.attempt_timeout_ms);
      for (std::vector<uint8_t>& frame : delivery.frames) {
        Accept(frame, outcome, &fetched, &incompatible);
      }
      if (fetched.has_value()) {
        outcome->status = ShardOutcome::Status::kReceived;
        break;
      }
      // An intact, decodable report that fails validation is a
      // configuration error on the worker, not a transient network fault:
      // retrying would fetch the same incompatible report again. Give the
      // shard up immediately.
      if (incompatible) break;
    }
    return fetched;
  }

  // Classifies one delivered frame: accepted into `fetched`, a duplicate,
  // malformed, or an intact report the validator refuses.
  void Accept(std::vector<uint8_t>& frame, ShardOutcome* outcome,
              std::optional<FetchedReport>* fetched, bool* incompatible) {
    std::optional<WireReport> report = DecodeReportFrame(frame);
    // A frame for another shard or epoch is a routing error, not a valid
    // report; stragglers from past epochs land here too.
    if (!report.has_value() || report->shard_id != outcome->shard_id ||
        report->epoch != epoch_) {
      ++outcome->malformed;
    } else if (fetched->has_value()) {
      ++outcome->duplicates;
    } else if (std::optional<S> summary =
                   DecodeReportPayload<S>(ByteReader(report->payload));
               !summary.has_value()) {
      ++outcome->malformed;
    } else if (validate_ != nullptr && !validate_(*summary)) {
      ++incompatible_;
      *incompatible = true;
    } else {
      fetched->emplace(
          FetchedReport{std::move(*summary), std::move(report->payload)});
    }
  }

  uint64_t epoch_;
  BackoffPolicy policy_;
  MergeTopology topology_;
  Rng rng_;
  bool (*validate_)(const S&) = nullptr;
  uint64_t incompatible_ = 0;

  // The epoch's reports and lost shards (dedup, fold order, checkpoint
  // image), plus the durable-mode state (see DESIGN.md §8).
  EpochAccumulator<S> accumulator_;
  DurableOptions options_;
  std::optional<WalWriter> wal_;
  // The epoch's shard count, once its begin record is logged.
  std::optional<uint64_t> durable_n_shards_;
  uint64_t wal_append_retries_ = 0;
  uint64_t wal_append_backoff_ms_ = 0;  // Virtual backoff accumulated.
};

// Worker-side convenience: encodes `summary` into a framed report for
// (shard_id, epoch).
template <WireSummary S>
std::vector<uint8_t> MakeReportFrame(const S& summary, uint64_t shard_id,
                                     uint64_t epoch) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  WireReport report;
  report.shard_id = shard_id;
  report.epoch = epoch;
  report.payload = writer.TakeBytes();
  return EncodeReportFrame(report);
}

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_COORDINATOR_H_
