// Single-threaded replays of frames captured by TracedHandler.
//
//   ReplayStages   times the stage functions a batch and a seal pass
//                  through, one public call at a time: BAT1 view,
//                  payload decode, dedup admit, verdict encode, the
//                  seal fold's merges (plain and canonical) and encodes,
//                  and the query answer's encode.
//   InprocKrps     feeds the captured frames straight into
//                  EpochService::HandleBatch + SealEpoch on one thread,
//                  with no socket, no wrapper and no contention: the
//                  per-report cost floor of the same trace.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "mergeable/aggregate/dedup.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/store/summary_store.h"
#include "stats.h"
#include "system.h"

namespace perfbench {

// Each stage is repeated until it has run this long, so per-call costs
// of tens of nanoseconds are averaged over many calls.
inline constexpr double kStageMinUs = 40'000.0;

struct StageCosts {
  double view_ns_per_report = 0.0;
  double decode_ns_per_report = 0.0;
  double dedup_admit_ns = 0.0;
  double verdict_encode_ns_per_batch = 0.0;
  double merge_ns = 0.0;
  double canonical_merge_ns = 0.0;
  double encode_ns = 0.0;
  double answer_encode_us = 0.0;
  double reports_per_batch = 0.0;
  bool frames_ok = true;  // Every captured frame viewed cleanly.
};

// Runs `body` (which returns how many operations it did) until
// kStageMinUs has elapsed; returns ns per operation.
template <typename F>
double NsPerOp(F&& body) {
  uint64_t ops = 0;
  const double t0 = NowUs();
  double elapsed = 0.0;
  do {
    ops += body();
    elapsed = NowUs() - t0;
  } while (elapsed < kStageMinUs);
  return ops == 0 ? 0.0 : 1000.0 * elapsed / static_cast<double>(ops);
}

inline StageCosts ReplayStages(
    const std::vector<std::vector<uint8_t>>& frames,
    const std::vector<std::vector<uint8_t>>& answers,
    uint64_t shards_per_epoch) {
  using mergeable::BatchRecordView;
  StageCosts costs;
  std::vector<std::vector<BatchRecordView>> views(frames.size());
  uint64_t reports = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    costs.frames_ok &= mergeable::ViewBatchFrame(frames[i], &views[i]);
    reports += views[i].size();
  }
  if (reports == 0) return costs;
  costs.reports_per_batch =
      static_cast<double>(reports) / static_cast<double>(frames.size());

  std::vector<BatchRecordView> scratch;
  costs.view_ns_per_report = NsPerOp([&] {
    for (const auto& frame : frames) mergeable::ViewBatchFrame(frame, &scratch);
    return reports;
  });

  costs.decode_ns_per_report = NsPerOp([&] {
    for (const auto& records : views) {
      for (const BatchRecordView& r : records) {
        mergeable::ByteReader reader(r.payload, r.payload_len);
        std::optional<SpaceSaving> s = SpaceSaving::DecodeFrom(reader);
        MERGEABLE_CHECK_MSG(s.has_value(), "captured payload must decode");
      }
    }
    return reports;
  });

  costs.dedup_admit_ns = NsPerOp([&] {
    mergeable::DedupWindow window(1u << 16);
    for (const auto& records : views) {
      for (const BatchRecordView& r : records) window.Admit(r.shard_id, r.epoch);
    }
    return reports;
  });

  std::vector<mergeable::WireBatchVerdict> verdicts(views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    verdicts[i].codes.assign(views[i].size(), mergeable::ControlCode::kAccepted);
  }
  costs.verdict_encode_ns_per_batch = NsPerOp([&] {
    for (const auto& v : verdicts) mergeable::EncodeBatchVerdictFrame(v);
    return static_cast<uint64_t>(verdicts.size());
  });

  // The seal fold over every complete epoch, in ascending shard order.
  std::map<uint64_t, std::map<uint64_t, SpaceSaving>> epochs;
  for (const auto& records : views) {
    for (const BatchRecordView& r : records) {
      mergeable::ByteReader reader(r.payload, r.payload_len);
      epochs[r.epoch].insert_or_assign(r.shard_id,
                                       *SpaceSaving::DecodeFrom(reader));
    }
  }
  std::vector<std::vector<SpaceSaving>> folds;
  for (auto& [epoch, shards] : epochs) {
    if (shards.size() != shards_per_epoch || shards_per_epoch < 2) continue;
    std::vector<SpaceSaving> parts;
    for (auto& [shard, summary] : shards) parts.push_back(summary);
    folds.push_back(std::move(parts));
  }
  if (!folds.empty()) {
    const uint64_t merges_per_pass =
        static_cast<uint64_t>(folds.size()) * (shards_per_epoch - 1);
    costs.merge_ns = NsPerOp([&] {
      for (const auto& parts : folds) {
        SpaceSaving acc = parts[0];
        for (size_t i = 1; i < parts.size(); ++i) acc.Merge(parts[i]);
      }
      return merges_per_pass;
    });
    costs.canonical_merge_ns = NsPerOp([&] {
      for (const auto& parts : folds) {
        SpaceSaving acc = mergeable::CanonicalForm(parts[0]);
        for (size_t i = 1; i < parts.size(); ++i) {
          mergeable::CanonicalMergeInto(acc, parts[i]);
        }
      }
      return merges_per_pass;
    });
    costs.encode_ns = NsPerOp([&] {
      uint64_t n = 0;
      for (const auto& parts : folds) {
        for (const SpaceSaving& s : parts) {
          mergeable::EncodeSummary(s);
          ++n;
        }
      }
      return n;
    });
  }

  std::vector<mergeable::WireAnswer> decoded;
  for (const auto& frame : answers) {
    std::optional<mergeable::WireAnswer> a = mergeable::DecodeAnswerFrame(frame);
    if (a.has_value()) decoded.push_back(std::move(*a));
  }
  if (!decoded.empty()) {
    costs.answer_encode_us = NsPerOp([&] {
      for (const auto& a : decoded) mergeable::EncodeAnswerFrame(a);
      return static_cast<uint64_t>(decoded.size());
    }) / 1000.0;
  }
  return costs;
}

// Reports per second (thousands) of the captured frames replayed into a
// fresh EpochService + store on one thread. Only frames inside the
// longest run of contiguous complete epochs are replayed, so every
// replayed report is sealed.
inline double InprocKrps(const Spec& spec,
                         const std::vector<std::vector<uint8_t>>& frames,
                         double min_seconds) {
  using mergeable::BatchRecordView;
  std::vector<std::vector<BatchRecordView>> views(frames.size());
  std::map<uint64_t, uint64_t> shards_seen;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (!mergeable::ViewBatchFrame(frames[i], &views[i])) return 0.0;
    for (const BatchRecordView& r : views[i]) ++shards_seen[r.epoch];
  }
  // Longest contiguous run [a, b] of complete epochs.
  uint64_t best_a = 0, best_len = 0, run_a = 0, run_len = 0, prev = 0;
  for (const auto& [epoch, count] : shards_seen) {
    const bool complete = count == spec.shards_per_epoch;
    if (complete && run_len > 0 && epoch == prev + 1) {
      ++run_len;
    } else if (complete) {
      run_a = epoch;
      run_len = 1;
    } else {
      run_len = 0;
    }
    prev = epoch;
    if (run_len > best_len) {
      best_a = run_a;
      best_len = run_len;
    }
  }
  if (best_len == 0) return 0.0;
  const uint64_t a = best_a;
  const uint64_t b = best_a + best_len - 1;
  std::vector<size_t> chosen;
  uint64_t reports = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    const bool inside = std::all_of(
        views[i].begin(), views[i].end(),
        [&](const BatchRecordView& r) { return r.epoch >= a && r.epoch <= b; });
    if (inside && !views[i].empty()) {
      chosen.push_back(i);
      reports += views[i].size();
    }
  }
  // Seal schedule: after chosen frame j, seal up to seal_to[j].
  std::vector<uint64_t> seal_to(chosen.size());
  {
    std::map<uint64_t, uint64_t> have;
    uint64_t next = a;
    for (size_t j = 0; j < chosen.size(); ++j) {
      for (const BatchRecordView& r : views[chosen[j]]) ++have[r.epoch];
      while (next <= b && have[next] == spec.shards_per_epoch) ++next;
      seal_to[j] = next;  // Exclusive.
    }
  }

  double timed_us = 0.0;
  uint64_t replayed = 0;
  for (int pass = 0; pass < 1000 && timed_us < min_seconds * 1e6; ++pass) {
    mergeable::MemStorage backend;
    Store store(&backend, StoreConfig());
    mergeable::EpochService<SpaceSaving, Store> service(&store,
                                                       ServiceConfig(spec));
    uint64_t sealed = a;
    const double t0 = NowUs();
    for (size_t j = 0; j < chosen.size(); ++j) {
      service.HandleBatch(frames[chosen[j]]);
      for (; sealed < seal_to[j]; ++sealed) {
        // Offered mass = what arrived, so the seal accounts no loss.
        service.SealEpoch(sealed, 0);
      }
    }
    timed_us += NowUs() - t0;
    replayed += reports;
  }
  return timed_us <= 0.0 ? 0.0
                         : static_cast<double>(replayed) / timed_us * 1e3;
}

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
