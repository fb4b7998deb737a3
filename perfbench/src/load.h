// The load the benchmark offers a System, and what it observes of it:
// reporter threads (closed-loop, or one open-loop paced reporter), the
// bench's sealer thread, and the query client with its answer checks.
//
// Reporters offer epochs in rounds: round k of reporter r is every
// (shard, epoch) of r's shard slice for the round's epochs, buffered
// into one BAT1 batch and flushed. The sealer seals an epoch as soon as
// every reporter has had the round containing it acknowledged, and
// reporters wait when they run more than max_lag_epochs ahead of the
// sealed history (the bound that keeps pending state finite).
//
// Closed-loop reporters offer a fixed-length trace (trace_rounds()
// rounds), so the history a run seals, and with it the memory the store
// holds, does not depend on how fast the system ingests. The paced
// reporter's length is fixed by its pace and runs until Stop().

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "inputs.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/client.h"
#include "stats.h"
#include "system.h"

namespace perfbench {

struct BatchSample {
  double t_done = 0.0;    // Verdict received (NowUs).
  double rtt_us = 0.0;       // Flush -> verdict.
  double open_rtt_us = 0.0;  // Open loop: due -> verdict; else rtt_us.
  double buffer_us = 0.0;  // BufferReport calls for the batch's reports.
  double cycle_us = 0.0;  // Whole round on the reporter.
  double lag_wait_us = 0.0;  // Waiting for the sealer to catch up.
  double pace_us = 0.0;   // Open loop: sleeping until the round is due.
  double late_us = 0.0;   // Open loop: how late the round started.
  uint32_t reports = 0;
  uint64_t key = 0;       // BatchKey of the first record.
};

struct SealSample {
  double t_done = 0.0;
  double latency_us = 0.0;  // Epoch acknowledged in full -> sealed.
  double call_us = 0.0;     // The SealEpoch call.
  double store_us = -1.0;   // Its store seal (traced runs only).
};

// Queries run at ~10^4/s; every query is checked and counted, but only
// every kQuerySampleEvery-th one keeps its sample, so the benchmark's
// own buffers stay a small part of peak_rss_mb.
inline constexpr uint64_t kQuerySampleEvery = 8;

struct QuerySample {
  double t_done = 0.0;
  double rtt_us = 0.0;
  double cycle_us = 0.0;  // Including the client's answer check.
};

// Checks one answer against the exact reference: kOk, not partial, the
// full requested (or window-resolved) range covered, no lost mass, the
// summary's mass exact, and every probe item's exact count bracketed by
// the decoded summary within the answer's own received_bound.
inline bool CheckAnswer(const Inputs& inputs, const mergeable::WireQuery& q,
                        const std::optional<mergeable::WireAnswer>& answer,
                        uint64_t sealed_hi) {
  if (!answer.has_value() ||
      answer->status != mergeable::AnswerStatus::kOk || answer->partial) {
    return false;
  }
  const uint64_t t1 = answer->t1;
  const uint64_t t2 = answer->t2;
  if (q.window > 0) {
    if (t2 < sealed_hi || t2 - t1 + 1 != std::min(q.window, t2 + 1)) {
      return false;
    }
  } else if (t1 != q.t1 || t2 != q.t2) {
    return false;
  }
  const uint64_t mass = inputs.RangeMass(t1, t2);
  if (answer->epochs_covered != t2 - t1 + 1 || answer->lost_mass != 0 ||
      answer->n_received != mass) {
    return false;
  }
  const std::optional<mergeable::TaggedPayload> tagged =
      mergeable::DecodeTaggedPayload(answer->payload);
  if (!tagged.has_value()) return false;
  mergeable::ByteReader reader(tagged->payload);
  const std::optional<SpaceSaving> summary = SpaceSaving::DecodeFrom(reader);
  if (!summary.has_value() || !reader.Exhausted() || summary->n() != mass) {
    return false;
  }
  const double bound = answer->received_bound;
  for (size_t p = 0; p < kProbes; ++p) {
    const uint64_t exact = inputs.RangeProbe(p, t1, t2);
    const uint64_t lower = summary->LowerEstimate(kProbeItems[p]);
    const uint64_t upper = summary->UpperEstimate(kProbeItems[p]);
    if (lower > exact || upper < exact ||
        static_cast<double>(upper - exact) > bound ||
        static_cast<double>(exact - lower) > bound) {
      return false;
    }
  }
  return true;
}

// The two CPUs a run uses. The server's threads (epoll loop and worker)
// and the live query client run on one; the reporters and the sealer on
// the other, so the sealer's SealEpoch runs at the same time as the
// server's HandleBatch / HandleQuery and they contend for the service
// mutex. (The checked queries after an ingest window run from the main
// thread, on the then idle load CPU.) Fixing
// the CPUs, rather than letting threads roam over every vCPU of a
// shared virtual machine, keeps the run-to-run spread down
// (STEADINESS.md). The two highest-numbered CPUs the process may use;
// the same one twice when only one is allowed.
struct Cpus {
  int server = -1;
  int load = -1;
};

inline Cpus ChooseCpus() {
  Cpus cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus.server < 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (cpus.load < 0) {
      cpus.load = cpu;
    } else {
      cpus.server = cpu;
    }
  }
  if (cpus.server < 0) cpus.server = cpus.load;
  return cpus;
}

// Confines the calling thread, and every thread it starts afterwards,
// to `cpu`.
inline void PinCallingThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

inline mergeable::BackoffPolicy ReporterPolicy() {
  mergeable::BackoffPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 16;
  return policy;
}

class Load {
 public:
  // `trace_seconds` sizes a closed-loop trace: trace_epochs_per_s epochs
  // for each of those seconds.
  Load(System* system, double seconds, double trace_seconds)
      : sys_(system),
        spec_(system->spec()),
        first_epoch_(spec_.history_epochs),
        reporters_(spec_.reporters == 0 ? 1 : spec_.reporters),
        shards_per_reporter_(spec_.shards_per_epoch / reporters_),
        epochs_per_round_(spec_.batch / shards_per_reporter_),
        max_lag_(std::max<uint64_t>(spec_.max_lag_epochs,
                                    2 * epochs_per_round_)),
        trace_rounds_(spec_.reporters == 0
                          ? std::numeric_limits<int64_t>::max()
                          : std::max<int64_t>(
                                1, static_cast<int64_t>(
                                       spec_.trace_epochs_per_s * trace_seconds /
                                       static_cast<double>(epochs_per_round_)))),
        acks_(reporters_),
        acked_through_(reporters_, static_cast<int64_t>(first_epoch_) - 1),
        sealed_through_(static_cast<int64_t>(first_epoch_) - 1),
        stop_round_(trace_rounds_),
        sealed_atomic_(sealed_through_),
        batches_(reporters_),
        offered_(reporters_, 0),
        accepted_(reporters_, 0),
        retries_(reporters_, 0) {
    MERGEABLE_CHECK_MSG(
        shards_per_reporter_ * reporters_ == spec_.shards_per_epoch &&
            epochs_per_round_ * shards_per_reporter_ == spec_.batch,
        "batch must hold whole epochs of each reporter's shards");
    // Reserved, not touched: only the pages samples are written to
    // become resident, and no growth copy doubles them.
    const auto expected = static_cast<size_t>(seconds + 5.0);
    seals_.reserve(expected * 8000);
    queries_.reserve(expected * 40000 / kQuerySampleEvery);
    for (auto& b : batches_) b.reserve(expected * 2000);
  }

  // Joins the threads if Stop() was not reached.
  ~Load() {
    if (sealer_.joinable()) Stop();
  }
  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  // Starts the sealer and reporters on the calling thread's CPU, and the
  // live query client (if any) on `query_cpu`.
  void Start(uint64_t seed, int query_cpu) {
    sealer_ = std::thread([this] { SealerLoop(); });
    for (size_t r = 0; r < reporters_; ++r) {
      threads_.emplace_back([this, r] { ReporterLoop(r); });
    }
    if (spec_.live_queries) {
      query_thread_ = std::thread([this, seed, query_cpu] {
        PinCallingThread(query_cpu);
        QueryLoop(seed, [this] { return stop_queries_.load(); }, &queries_);
      });
    }
  }

  // Stops every thread: reporters finish the same final round (so every
  // offered epoch is complete), the sealer seals through it. A round is
  // started, or refused, under mu_, so no reporter can start a round
  // past the one this decides is the last.
  void Stop() {
    stop_queries_.store(true);
    if (query_thread_.joinable()) query_thread_.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_round_ = std::min(stop_round_, max_round_started_ + 1);
    }
    for (std::thread& t : threads_) t.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      reporters_done_ = true;
    }
    cv_.notify_all();
    sealer_.join();
  }

  // Rounds in a closed-loop trace (unbounded for the paced reporter).
  int64_t trace_rounds() const { return trace_rounds_; }

  // Blocks until the first `rounds` rounds are sealed or NowUs() passes
  // `deadline_us`; returns whether they were sealed.
  bool WaitSealedRounds(int64_t rounds, double deadline_us) {
    const int64_t last = static_cast<int64_t>(first_epoch_) +
                         rounds * static_cast<int64_t>(epochs_per_round_) - 1;
    std::unique_lock<std::mutex> lock(mu_);
    while (sealed_through_ < last) {
      const double left = deadline_us - NowUs();
      if (left <= 0) return false;
      cv_.wait_for(lock, std::chrono::duration<double, std::micro>(
                             std::min(left, 100'000.0)));
    }
    return true;
  }

  // Checked queries over the final history, from the calling thread.
  void RunQueriesFor(uint64_t seed, double us) {
    const double end = NowUs() + us;
    QueryLoop(seed ^ 0xabcdefull, [end] { return NowUs() >= end; }, &queries_);
  }

  uint64_t offered() const { return Total(offered_); }
  uint64_t accepted() const { return Total(accepted_); }
  uint64_t retries() const { return Total(retries_); }
  uint64_t seal_failures() const { return seal_failures_; }
  uint64_t queries() const { return queries_sent_; }
  uint64_t queries_failed() const { return queries_failed_; }
  std::vector<BatchSample> batches() const {
    std::vector<BatchSample> all;
    for (const auto& b : batches_) all.insert(all.end(), b.begin(), b.end());
    return all;
  }
  const std::vector<SealSample>& seals() const { return seals_; }
  const std::vector<QuerySample>& query_samples() const { return queries_; }

 private:
  static uint64_t Total(const std::vector<uint64_t>& v) {
    uint64_t total = 0;
    for (uint64_t x : v) total += x;
    return total;
  }

  void ReporterLoop(size_t r) {
    mergeable::IngestClient client(sys_->server().port());
    MERGEABLE_CHECK_MSG(client.connected(), "reporter failed to connect");
    mergeable::BatchOptions options;
    options.max_reports = spec_.batch + 1;  // Flushed explicitly below.
    options.max_bytes = 1u << 20;
    client.set_batch_options(options);
    const mergeable::BackoffPolicy policy = ReporterPolicy();
    const Inputs& inputs = sys_->inputs();
    const uint64_t shard_lo = r * shards_per_reporter_;
    const bool paced = spec_.reporters == 0;
    const double interval_us =
        paced ? 1e6 * static_cast<double>(epochs_per_round_) /
                    spec_.paced_epochs_per_s
              : 0.0;
    const double t_origin = NowUs();
    std::vector<BatchSample>& out = batches_[r];

    for (int64_t k = 0;; ++k) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (k >= stop_round_) break;
        max_round_started_ = std::max(max_round_started_, k);
      }
      BatchSample sample;
      const double t_round = NowUs();
      const uint64_t e0 = first_epoch_ + k * epochs_per_round_;
      const uint64_t e_last = e0 + epochs_per_round_ - 1;
      double t_due = t_round;
      if (paced) {
        t_due = t_origin + static_cast<double>(k) * interval_us;
        if (t_due > t_round) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::micro>(t_due - t_round));
        }
      }
      const double t_lag = NowUs();
      sample.pace_us = t_lag - t_round;  // The pacing sleep, oversleep included.
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return static_cast<int64_t>(e_last) <=
                 sealed_through_ + static_cast<int64_t>(max_lag_);
        });
      }
      const double t_buf = NowUs();
      sample.lag_wait_us = t_buf - t_lag;
      if (paced) sample.late_us = std::max(0.0, t_buf - t_due);
      for (uint64_t e = e0; e <= e_last; ++e) {
        for (uint64_t s = shard_lo; s < shard_lo + shards_per_reporter_; ++s) {
          client.BufferReport({s, e, inputs.Payload(e, s)}, policy);
        }
      }
      const double t_flush = NowUs();
      const mergeable::BatchOutcome outcome = client.Flush(policy);
      const double t_done = NowUs();
      {
        std::lock_guard<std::mutex> lock(mu_);
        acks_[r].emplace_back(static_cast<int64_t>(e_last), t_done);
        acked_through_[r] = static_cast<int64_t>(e_last);
      }
      cv_.notify_all();
      offered_[r] += spec_.batch;
      accepted_[r] += outcome.accepted;
      sample.t_done = t_done;
      sample.rtt_us = t_done - t_flush;
      sample.open_rtt_us = paced ? t_done - t_due : sample.rtt_us;
      sample.buffer_us = t_flush - t_buf;
      sample.cycle_us = NowUs() - t_round;
      sample.reports = spec_.batch;
      sample.key = BatchKey(shard_lo, e0);
      out.push_back(sample);
    }
    retries_[r] = client.stats().retries;
  }

  void SealerLoop() {
    auto& service = sys_->service();
    auto& store = sys_->store();
    Trace& trace = sys_->trace();
    const Inputs& inputs = sys_->inputs();
    int64_t next = static_cast<int64_t>(first_epoch_);
    std::vector<double> complete_at;
    for (;;) {
      int64_t through = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return MinAckedLocked() >= next || reporters_done_; });
        through = MinAckedLocked();
        if (through < next) {
          if (reporters_done_) return;
          continue;
        }
        complete_at.clear();
        for (int64_t e = next; e <= through; ++e) {
          double t = 0.0;
          for (const auto& acks : acks_) {
            for (const auto& [last, when] : acks) {
              if (last >= e) {
                t = std::max(t, when);
                break;
              }
            }
          }
          complete_at.push_back(t);
        }
        for (auto& acks : acks_) {
          while (!acks.empty() && acks.front().first <= through) {
            acks.pop_front();
          }
        }
      }
      for (int64_t e = next; e <= through; ++e) {
        const bool traced = trace.on.load(std::memory_order_relaxed);
        const double t0 = NowUs();
        const bool ok =
            service.SealEpoch(static_cast<uint64_t>(e),
                              inputs.EpochMass(static_cast<uint64_t>(e)));
        const double t1 = NowUs();
        if (!ok) ++seal_failures_;
        SealSample sample;
        sample.t_done = t1;
        sample.latency_us = t1 - complete_at[e - next];
        sample.call_us = t1 - t0;
        if (traced && trace.on.load(std::memory_order_relaxed)) {
          sample.store_us = store.last_seal_us();
        }
        seals_.push_back(sample);
        {
          std::lock_guard<std::mutex> lock(mu_);
          sealed_through_ = e;
        }
        sealed_atomic_.store(e);
        cv_.notify_all();
      }
      next = through + 1;
    }
  }

  template <typename StopFn>
  void QueryLoop(uint64_t seed, StopFn stop, std::vector<QuerySample>* out) {
    mergeable::IngestClient client(sys_->server().port());
    MERGEABLE_CHECK_MSG(client.connected(), "query client failed to connect");
    const Inputs& inputs = sys_->inputs();
    QueryGen gen(seed, spec_.query_span);
    while (!stop()) {
      const double t0 = NowUs();
      const uint64_t sealed_hi = static_cast<uint64_t>(sealed_atomic_.load());
      const mergeable::WireQuery query = gen.Next(kStream, sealed_hi);
      const double t_send = NowUs();
      const std::optional<mergeable::WireAnswer> answer = client.Query(query);
      const double t_recv = NowUs();
      const bool ok = CheckAnswer(inputs, query, answer, sealed_hi);
      if (!ok) ++queries_failed_;
      if (queries_sent_++ % kQuerySampleEvery != 0) continue;
      QuerySample sample;
      sample.t_done = t_recv;
      sample.rtt_us = t_recv - t_send;
      sample.cycle_us = NowUs() - t0;
      out->push_back(sample);
    }
  }

  int64_t MinAckedLocked() const {
    return *std::min_element(acked_through_.begin(), acked_through_.end());
  }

  System* sys_;
  const Spec& spec_;
  const uint64_t first_epoch_;
  const size_t reporters_;
  const uint64_t shards_per_reporter_;
  const uint64_t epochs_per_round_;
  const uint64_t max_lag_;
  const int64_t trace_rounds_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<std::pair<int64_t, double>>> acks_;  // Guarded.
  std::vector<int64_t> acked_through_;                        // Guarded.
  int64_t sealed_through_;                                    // Guarded.
  bool reporters_done_ = false;                               // Guarded.
  int64_t max_round_started_ = -1;                            // Guarded.
  int64_t stop_round_;  // Guarded. Rounds k >= stop_round_ never start.
  std::atomic<int64_t> sealed_atomic_;
  std::atomic<bool> stop_queries_{false};

  // Per-thread results, read after the threads are joined.
  std::vector<std::vector<BatchSample>> batches_;
  std::vector<uint64_t> offered_;
  std::vector<uint64_t> accepted_;
  std::vector<uint64_t> retries_;
  std::vector<SealSample> seals_;
  uint64_t seal_failures_ = 0;
  // Written by one query loop at a time (the live client, then the
  // checked queries after it is joined).
  std::vector<QuerySample> queries_;
  uint64_t queries_sent_ = 0;
  uint64_t queries_failed_ = 0;

  std::thread sealer_;
  std::vector<std::thread> threads_;
  std::thread query_thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
