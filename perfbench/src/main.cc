// perfbench: one seeded ingest -> seal -> query run through the real
// stack, with every end-to-end metric (--trace 0) or every per-layer
// metric and the attribution table (--trace 1).
//
//   perfbench --workload <ingest_mem|query_mix> --seed <n> --seconds <s>
//             --trace <0|1>
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "load.h"
#include "replay.h"
#include "stats.h"
#include "system.h"
#include "wrappers.h"

namespace perfbench {
namespace {

// Set-up is repeated and its median reported, so that one slow
// allocation or page-cache miss does not decide setup_s.
constexpr int kSetups = 3;
// Share of --seconds planned for ingesting (it sizes the closed-loop
// trace); the rest goes to checked queries over the history sealed.
// With only 10 of 50 s of queries, their median over 1-s slices swung
// with the host's speed episodes (STEADINESS.md); 20 s holds steadier.
constexpr double kIngestShare = 0.6;
constexpr double kWarmupUs = 500'000.0;
// A closed-loop trace that has not been sealed after this multiple of
// its planned ingest time is cut there, so a slow build still ends
// within the run's time limit (its result then says so).
constexpr double kMaxStretch = 2.5;
// Throughputs and medians are the median over slices of this length,
// so a short stall on the shared machine moves one slice, not the run.
constexpr double kSliceUs = 1'000'000.0;
constexpr size_t kTailSliceSamples = 1000;

// Why each workload exists (also in BENCHMARK.json):
//   ingest_mem  a fixed trace of 64-shard epochs over 2 reporters, batch
//               256, no queries while ingesting: frame view, payload
//               decode, dedup, apply and the 64-way seal fold do the work.
//               The trace is 1600 epochs per second of the planned
//               ingest window (0.6 * --seconds), about the measured rate
//               (1660-1950 epochs/s), so the history (and the store's
//               memory) is the same however fast it is sealed. A query
//               client, on the then idle load CPU, then checks the
//               history.
//   query_mix   a sealed 2^14-epoch history; one closed-loop query client
//               (half window, half historical ranges) beside a reporter
//               paced so that seals hold the service mutex ~10% of the
//               time: 15 canonical merges (~4.7 us) + a store seal
//               (~27 us) ~= 97 us per 16-shard epoch, so ~1000 epochs/s.
//               The ring holds 1024 epochs, the window length of ~73% of
//               Zipf(1) windows over [1, 2^14]. Cover merge, node cache,
//               window ring and answer encode do the work.
std::optional<Spec> SpecFor(const std::string& name) {
  Spec spec;
  spec.name = name;
  if (name == "ingest_mem") {
    spec.shards_per_epoch = 64;
    spec.reporters = 2;
    spec.batch = 256;
    spec.trace_epochs_per_s = 1600.0;
    spec.queries_after = true;
    spec.query_span = 4096;
    spec.max_lag_epochs = 16;
  } else if (name == "query_mix") {
    spec.shards_per_epoch = 16;
    spec.reporters = 0;
    spec.paced_epochs_per_s = 1000.0;
    spec.batch = 64;
    spec.history_epochs = 1u << 14;
    spec.window_capacity = 1024;
    spec.live_queries = true;
    spec.query_span = 1u << 14;
  } else {
    return std::nullopt;
  }
  return spec;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

void SleepUs(double us) {
  if (us > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
  }
}

template <typename T, typename F>
std::vector<double> Select(const std::vector<T>& samples, double lo, double hi,
                           F&& field) {
  std::vector<double> out;
  for (const T& s : samples) {
    if (s.t_done >= lo && s.t_done < hi) out.push_back(field(s));
  }
  return out;
}

// Median over equal slices (~kSliceUs) of [lo, hi) of stat(samples in
// the slice, slice length in us).
template <typename T, typename F, typename Stat>
double SliceMedian(const std::vector<T>& samples, double lo, double hi,
                   F&& field, Stat&& stat) {
  const int n = std::max(1, static_cast<int>((hi - lo) / kSliceUs));
  const double width = (hi - lo) / n;
  std::vector<double> per_slice;
  for (int i = 0; i < n; ++i) {
    const std::vector<double> v =
        Select(samples, lo + i * width, lo + (i + 1) * width, field);
    if (!v.empty()) per_slice.push_back(stat(v, width));
  }
  return Median(per_slice);
}

// The p99 as the median over slices that each hold at least
// kTailSliceSamples samples (so >= 10 lie beyond each slice's p99), and
// are at least kSliceUs long.
template <typename T, typename F>
double SliceP99(const std::vector<T>& samples, double lo, double hi, F&& field) {
  const size_t count = Select(samples, lo, hi, field).size();
  const int n = std::max<int>(
      1, std::min<int>(static_cast<int>(count / kTailSliceSamples),
                       static_cast<int>((hi - lo) / kSliceUs)));
  const double width = (hi - lo) / n;
  std::vector<double> per_slice;
  for (int i = 0; i < n; ++i) {
    const std::vector<double> v =
        Select(samples, lo + i * width, lo + (i + 1) * width, field);
    if (!v.empty()) per_slice.push_back(Percentile(v, 99));
  }
  return Median(per_slice);
}

// Queries per second from the sampled queries of a slice.
double QueryRate(const std::vector<double>& v, double width_us) {
  return static_cast<double>(v.size() * kQuerySampleEvery) * 1e6 / width_us;
}
double P50(const std::vector<double>& v, double) { return Percentile(v, 50); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void Row(const char* stage, double us, double total) {
  std::printf("    %-34s %12.3f us %7.1f%%\n", stage, us,
              total == 0.0 ? 0.0 : 100.0 * us / total);
}

int Run(const Args& args, const Spec& spec) {
  // The server's threads are started by System, the load's by Load.
  const Cpus cpus = ChooseCpus();
  PinCallingThread(cpus.server);
  std::vector<double> setups;
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();
    const double t0 = NowUs();
    sys = std::make_unique<System>(spec, args.seed);
    setups.push_back((NowUs() - t0) / 1e6);
  }
  PinCallingThread(cpus.load);
  Trace& trace = sys->trace();
  const double seconds = args.seconds;
  const double ingest_s = spec.queries_after ? kIngestShare * seconds : seconds;
  Load load(sys.get(), seconds, ingest_s);

  // Phases: warm-up, then the measured ingest window [t0, t2). A traced
  // run measures [t0, t1) untraced and [t1, t2) traced, for the
  // overhead. Ingest workloads then spend the rest of --seconds on
  // checked queries over the history they built, [tq0, tq1).
  //
  // The window ends when the closed-loop trace is sealed (its traced
  // half starts when half of it is), or after ingest_s for the paced
  // reporter.
  load.Start(args.seed, cpus.server);
  SleepUs(kWarmupUs);
  const double t0 = NowUs();
  bool cut = false;
  auto ingest_through = [&](double share) {
    if (spec.reporters == 0) {
      SleepUs(t0 + share * 1e6 * ingest_s - NowUs());
    } else if (!load.WaitSealedRounds(
                   std::max<int64_t>(1, static_cast<int64_t>(
                                            share * load.trace_rounds())),
                   t0 + kMaxStretch * share * 1e6 * ingest_s)) {
      cut = true;
    }
  };
  double t1 = 0.0;
  double t2 = 0.0;
  mergeable::EpochServiceStats svc0;
  mergeable::StoreStats store0;
  if (args.trace) {
    ingest_through(0.5);
    svc0 = sys->service().stats();
    store0 = sys->inner().stats();
    t1 = NowUs();
    trace.on.store(true);
    ingest_through(1.0);
    trace.on.store(false);
    t2 = NowUs();
  } else {
    ingest_through(1.0);
    t2 = t1 = NowUs();
  }
  if (cut) {
    std::printf("NOTE: trace of %lld rounds not sealed within %.0f s; "
                "the ingest window ends there\n",
                static_cast<long long>(load.trace_rounds()),
                kMaxStretch * ingest_s);
  }
  mergeable::EpochServiceStats svc1 = sys->service().stats();
  const mergeable::StoreStats store1 = sys->inner().stats();
  load.Stop();

  // Per-layer samples of the traced ingest window.
  const std::vector<double> handle_batch = trace.handle_batch_us.Take();
  const std::vector<double> store_seal = trace.store_seal_us.Take();
  const std::vector<double> storage_write = trace.storage_write_us.Take();
  const uint64_t storage_writes = trace.storage_writes.exchange(0);
  const uint64_t storage_bytes = trace.storage_bytes_written.exchange(0);
  uint64_t storage_reads = trace.storage_reads.exchange(0);

  double tq0 = t0;
  double tq1 = t2;
  if (spec.queries_after) {
    // The first queries run against a cold node cache; they are checked
    // but not timed.
    if (args.trace) {
      svc0 = sys->service().stats();
      trace.on.store(true);
    }
    tq0 = NowUs() + kWarmupUs;
    load.RunQueriesFor(args.seed, kWarmupUs + 1e6 * (seconds - ingest_s));
    tq1 = NowUs();
    trace.on.store(false);
    if (args.trace) {
      svc1 = sys->service().stats();
      storage_reads = trace.storage_reads.exchange(0);
    }
  }
  const std::vector<double> handle_query = trace.handle_query_us.Take();
  const std::vector<double> store_query = trace.store_query_us.Take();
  const mergeable::AdmissionStats admission = sys->server().admission_stats();

  // ---- Correctness ----
  const uint64_t S = spec.shards_per_epoch;
  uint64_t attempted = load.offered() + load.queries();
  uint64_t failed = (load.offered() - load.accepted()) + load.queries_failed();
  std::vector<std::string> problems;
  if (load.offered() != load.accepted()) problems.push_back("reports not accepted");
  if (load.queries_failed() > 0) problems.push_back("query answers failed checks");
  const uint64_t epochs = spec.history_epochs + load.offered() / S;
  const auto& metas = sys->store().Metas(kStream);
  if (metas.size() != epochs || load.seal_failures() > 0) {
    problems.push_back("offered epochs not all sealed");
    failed += (epochs > metas.size() ? epochs - metas.size() : 0) * S;
  }
  uint64_t bad_epochs = 0;
  for (size_t i = 0; i < metas.size(); ++i) {
    const mergeable::EpochMeta& m = metas[i];
    if (m.epoch != i || m.n != sys->inputs().EpochMass(i) || m.lost_mass != 0 ||
        m.shards_received != S || m.shards_total != S) {
      ++bad_epochs;
    }
  }
  if (bad_epochs > 0) {
    problems.push_back("sealed epoch metadata differs from offered mass");
    failed += bad_epochs * S;
  }
  uint64_t disk_bytes = 0;
  for (const std::string& file : sys->backend().List()) {
    disk_bytes += sys->backend().Read(file).value_or(std::vector<uint8_t>{}).size();
  }
  const double peak_rss = PeakRssMb();
  const bool correct = problems.empty() && failed == 0;
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  const std::vector<BatchSample> batches = load.batches();
  const std::vector<SealSample>& seals = load.seals();
  // Live (query_mix) or after the ingest window (ingest_mem), never both.
  const std::vector<QuerySample>& qs = load.query_samples();
  std::vector<Metric> metrics;
  std::vector<Metric> printed_only;

  if (!args.trace) {
    auto reports = [](const BatchSample& b) { return double(b.reports); };
    auto rtt = [](const BatchSample& b) { return b.open_rtt_us; };
    auto seal = [](const SealSample& s) { return s.latency_us; };
    auto qrtt = [](const QuerySample& q) { return q.rtt_us; };
    const double qlo = spec.live_queries ? t0 : tq0;
    const double qhi = spec.live_queries ? t2 : tq1;
    const std::vector<double> all_rtt = Select(batches, t0, t2, rtt);
    const std::vector<double> all_q = Select(qs, qlo, qhi, qrtt);
    const std::string rtt_n = "n=" + std::to_string(all_rtt.size());
    const std::string q_n =
        "sampled n=" + std::to_string(all_q.size()) + " of every " +
        std::to_string(kQuerySampleEvery);
    metrics = {
        {"ingest_krps",
         SliceMedian(batches, t0, t2, reports,
                     [](const std::vector<double>& v, double w) {
                       return Sum(v) * 1e3 / w;
                     }),
         "krps", "reports=" + std::to_string(uint64_t(Sum(Select(batches, t0, t2, reports))))},
        {"batch_rtt_p50_us", SliceMedian(batches, t0, t2, rtt, P50), "us", rtt_n},
        {"seal_p50_us", SliceMedian(seals, t0, t2, seal, P50), "us",
         "n=" + std::to_string(Select(seals, t0, t2, seal).size())},
        {"query_qps", SliceMedian(qs, qlo, qhi, qrtt, QueryRate), "1/s", q_n},
        {"query_p50_us", SliceMedian(qs, qlo, qhi, qrtt, P50), "us", q_n},
        {"peak_rss_mb", peak_rss, "MB", ""},
        {"disk_bytes_per_epoch", Ratio(double(disk_bytes), double(metas.size())), "B",
         "epochs=" + std::to_string(metas.size())},
        {"setup_s", Median(setups), "s", "median of " + std::to_string(setups.size())},
    };
    // Printed, not gated: on a shared machine these tails move several
    // fold between runs of the same code (see STEADINESS.md).
    printed_only = {
        {"batch_rtt_p99_us", SliceP99(batches, t0, t2, rtt), "us", rtt_n},
        {"query_p99_us", SliceP99(qs, qlo, qhi, qrtt), "us", q_n},
    };
  } else {
    // ---- Per-layer metrics from the traced window [t1, t2) ----
    std::vector<BatchSample> tb;
    for (const BatchSample& b : batches) {
      if (b.t_done >= t1 && b.t_done < t2) tb.push_back(b);
    }
    auto field = [&](auto f) { return Select(batches, t1, t2, f); };
    const std::vector<double> rtt = field([](const BatchSample& b) { return b.rtt_us; });
    const double reports = Sum(field([](const BatchSample& b) { return double(b.reports); }));
    const double untraced_reports = Sum(
        Select(batches, t0, t1, [](const BatchSample& b) { return double(b.reports); }));
    std::vector<SealSample> ts;
    for (const SealSample& s : seals) {
      if (s.store_us >= 0.0) ts.push_back(s);
    }
    std::vector<double> seal_call, seal_fold;
    for (const SealSample& s : ts) {
      seal_call.push_back(s.call_us);
      seal_fold.push_back(s.call_us - s.store_us);
    }
    const double traced_seals = double(ts.size());
    const double traced_us = t2 - t1;

    // Stage replay and the single-threaded baseline on captured frames.
    std::vector<std::vector<uint8_t>> frames, answers;
    {
      std::lock_guard<std::mutex> lock(trace.mu);
      frames = trace.frames;
      answers = trace.answers;
    }
    const StageCosts st = ReplayStages(frames, answers, S);
    if (!st.frames_ok) {
      std::printf("CHECK FAILED: captured frame did not view\n");
    }
    const double inproc = InprocKrps(spec, frames, 1.0);

    const double rpb = st.reports_per_batch;
    const double stage_view = st.view_ns_per_report * rpb / 1e3;
    const double stage_decode = st.decode_ns_per_report * rpb / 1e3;
    const double stage_dedup = st.dedup_admit_ns * rpb / 1e3;
    const double stage_verdict = st.verdict_encode_ns_per_batch / 1e3;
    const double stages_in_handler = stage_view + stage_decode + stage_dedup + stage_verdict;
    const double mean_handle = Mean(handle_batch);
    const double mean_rtt = Mean(rtt);
    const double mean_buffer = Mean(field([](const BatchSample& b) { return b.buffer_us; }));
    const double mean_lag = Mean(field([](const BatchSample& b) { return b.lag_wait_us; }));
    const double mean_cycle = Mean(field([](const BatchSample& b) {
      return b.cycle_us - b.pace_us;
    }));
    const double unattributed = mean_cycle - mean_lag - mean_buffer - mean_rtt;
    const double transport = mean_rtt - mean_handle;
    const double lock_wait = mean_handle - stages_in_handler;

    const double traced_rate = spec.live_queries
                                   ? double(handle_query.size()) / traced_us
                                   : reports / traced_us;
    double untraced_rate = untraced_reports / (t1 - t0);
    if (spec.live_queries) {
      untraced_rate =
          double(Select(qs, t0, t1, [](const QuerySample& q) { return q.rtt_us; })
                     .size() *
                 kQuerySampleEvery) /
          (t1 - t0);
    }
    const uint64_t store_queries = trace.store_queries.load();
    const double answered = double(svc1.queries_answered - svc0.queries_answered);
    const double busy_us = Sum(handle_batch) + Sum(seal_call) +
                           (spec.live_queries ? Sum(handle_query) : 0.0);
    std::vector<double> late;
    for (const BatchSample& b : tb) late.push_back(b.late_us);
    const double qlo = spec.live_queries ? t1 : tq0;
    const double qhi = spec.live_queries ? t2 : tq1;
    const std::vector<double> qrtt =
        Select(qs, qlo, qhi, [](const QuerySample& q) { return q.rtt_us; });
    const std::vector<double> qcycle =
        Select(qs, qlo, qhi, [](const QuerySample& q) { return q.cycle_us; });

    metrics = {
        {"client.buffer_ns_per_report", Ratio(Sum(field([](const BatchSample& b) {
                                                return b.buffer_us;
                                              })) * 1e3, reports), "ns"},
        {"client.retries", double(load.retries()), "count"},
        {"transport.us_per_batch", transport, "us"},
        {"transport.us_per_query", Mean(qrtt) - Mean(handle_query), "us"},
        {"admission.shed_reports", double(admission.shed_reports), "count"},
        {"epoch_service.handle_batch_us_p50", Percentile(handle_batch, 50), "us",
         "n=" + std::to_string(handle_batch.size())},
        {"epoch_service.handle_batch_us_p99", Percentile(handle_batch, 99), "us"},
        {"epoch_service.busy_frac", busy_us / traced_us, "frac"},
        {"epoch_service.seal_busy_frac", Sum(seal_call) / traced_us, "frac",
         "seals=" + std::to_string(seal_call.size())},
        {"epoch_service.lock_wait_us_per_batch", lock_wait, "us"},
        {"epoch_service.seal_fold_us_p50", Percentile(seal_fold, 50), "us",
         "n=" + std::to_string(seal_fold.size())},
        {"epoch_service.seal_us_p99", Percentile(seal_call, 99), "us"},
        {"epoch_service.handle_query_us_p50", Percentile(handle_query, 50), "us",
         "n=" + std::to_string(handle_query.size())},
        {"epoch_service.handle_query_us_p99", Percentile(handle_query, 99), "us"},
        {"epoch_service.window_ring_frac",
         Ratio(double(svc1.queries_window_ring - svc0.queries_window_ring), answered),
         "frac"},
        {"epoch_service.inproc_krps", inproc, "krps"},
        {"aggregate.batch_view_ns_per_report", st.view_ns_per_report, "ns"},
        {"aggregate.dedup_admit_ns", st.dedup_admit_ns, "ns"},
        {"aggregate.verdict_encode_ns_per_batch", st.verdict_encode_ns_per_batch, "ns"},
        {"aggregate.answer_encode_us", st.answer_encode_us, "us"},
        {"frequency.decode_ns_per_report", st.decode_ns_per_report, "ns"},
        {"frequency.merge_ns", st.merge_ns, "ns"},
        {"frequency.canonical_merge_ns", st.canonical_merge_ns, "ns"},
        {"frequency.encode_ns", st.encode_ns, "ns"},
        {"store.seal_us_p50", Percentile(store_seal, 50), "us"},
        {"store.seal_us_p99", Percentile(store_seal, 99), "us"},
        {"store.node_merges_per_epoch",
         Ratio(double(store1.node_merges - store0.node_merges), traced_seals), "count"},
        {"store.bytes_written_per_epoch",
         Ratio(double(store1.bytes_written - store0.bytes_written), traced_seals), "B"},
        {"store.query_us_p50", Percentile(store_query, 50), "us",
         "n=" + std::to_string(store_query.size())},
        {"store.query_us_p99", Percentile(store_query, 99), "us"},
        {"store.nodes_merged_per_query",
         Ratio(double(trace.nodes_merged.load()), double(store_queries)), "count"},
        {"store.cache_hit_frac",
         Ratio(double(trace.node_hits.load()),
               double(trace.node_hits.load() + trace.node_misses.load())), "frac"},
        {"store.range_cache_hit_frac",
         Ratio(double(trace.range_hits.load()), double(store_queries)), "frac"},
        {"store.bytes_read_per_query",
         Ratio(double(trace.query_bytes_read.load()), double(store_queries)), "B"},
        {"storage.append_us_p50", Percentile(storage_write, 50), "us",
         "n=" + std::to_string(storage_write.size())},
        {"storage.append_us_p99", Percentile(storage_write, 99), "us"},
        {"storage.appends_per_epoch", Ratio(double(storage_writes), traced_seals), "count"},
        {"storage.bytes_appended_per_epoch", Ratio(double(storage_bytes), traced_seals), "B"},
        {"storage.reads_per_query",
         Ratio(double(storage_reads), double(handle_query.size())), "count"},
        {"trace.overhead_frac", 1.0 - Ratio(traced_rate, untraced_rate), "frac"},
        {"trace.unattributed_us_per_batch", unattributed, "us"},
        {"loadgen.late_us_p99", Percentile(late, 99), "us"},
        {"loadgen.batch_rtt_p99_us", SliceP99(batches, t1, t2, [](const BatchSample& b) {
           return b.open_rtt_us;
         }), "us"},
        {"loadgen.query_p99_us",
         SliceP99(qs, qlo, qhi, [](const QuerySample& q) { return q.rtt_us; }), "us",
         "sampled n=" + std::to_string(qrtt.size())},
    };

    // ---- Attribution table ----
    std::printf("== %s attribution, traced window %.2f s, %zu batches x %.0f reports\n",
                spec.name.c_str(), traced_us / 1e6, tb.size(), rpb);
    std::printf("  per batch (reporter round, pacing sleep excluded): measured %.3f us\n",
                mean_cycle);
    Row("client.buffer", mean_buffer, mean_cycle);
    Row("loadgen.seal_lag_wait", mean_lag, mean_cycle);
    Row("transport (rtt - handle)", transport, mean_cycle);
    Row("aggregate.batch_view", stage_view, mean_cycle);
    Row("frequency.decode", stage_decode, mean_cycle);
    Row("aggregate.dedup_admit", stage_dedup, mean_cycle);
    Row("aggregate.verdict_encode", stage_verdict, mean_cycle);
    Row("epoch_service.lock_wait+apply", lock_wait, mean_cycle);
    Row("trace.unattributed", unattributed, mean_cycle);
    std::printf("    %-34s %12.3f us  (rtt %.3f, handle_batch %.3f)\n", "sum",
                mean_buffer + mean_lag + transport + stages_in_handler + lock_wait +
                    unattributed,
                mean_rtt, mean_handle);
    std::printf("    per report: %.3f ns\n", Ratio(mean_cycle * 1e3, rpb));
    // Tail: batches above the p99 RTT, joined to their HandleBatch time.
    const double p99 = Percentile(rtt, 99);
    std::vector<double> tail_rtt, tail_handle;
    {
      std::lock_guard<std::mutex> lock(trace.mu);
      for (const BatchSample& b : tb) {
        auto it = trace.batch_handle_us.find(b.key);
        if (b.rtt_us > p99 && it != trace.batch_handle_us.end()) {
          tail_rtt.push_back(b.rtt_us);
          tail_handle.push_back(it->second);
        }
      }
    }
    const double tail_total = Mean(tail_rtt);
    std::printf("  tail: %zu batches with rtt > p99 (%.3f us): mean rtt %.3f us\n",
                tail_rtt.size(), p99, tail_total);
    Row("transport (rtt - handle)", tail_total - Mean(tail_handle), tail_total);
    Row("handler stages (replayed)", stages_in_handler, tail_total);
    Row("epoch_service.lock_wait+apply", Mean(tail_handle) - stages_in_handler, tail_total);
    // Queries.
    const double mean_q = Mean(qcycle);
    const double store_per_q = Ratio(Sum(store_query), double(handle_query.size()));
    std::printf("  per query (%zu sampled): measured %.3f us\n", qrtt.size(), mean_q);
    Row("transport (rtt - handle)", Mean(qrtt) - Mean(handle_query), mean_q);
    Row("store.query", store_per_q, mean_q);
    Row("aggregate.answer_encode", st.answer_encode_us, mean_q);
    Row("epoch_service lock+ring+decode",
        Mean(handle_query) - store_per_q - st.answer_encode_us, mean_q);
    Row("client gen+check (unattributed)", mean_q - Mean(qrtt), mean_q);
  }

  PrintResult(spec.name, correct, attempted, failed, metrics, printed_only);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  const std::optional<Spec> spec = SpecFor(args.workload);
  if (!spec.has_value() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <ingest_mem|query_mix> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  return Run(args, *spec);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
