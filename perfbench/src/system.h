// One workload's system under test, assembled from the real stack:
//
//   IngestClient -> ShardedIngestServer -> TracedHandler
//     -> EpochService<SpaceSaving, TimedStore>
//     -> SummaryStore<SpaceSaving> -> TimedStorage -> MemStorage
//
// plus the workload's seeded inputs. Constructing a System is the
// workload's set-up: inputs generated, store created, server listening,
// and (query_mix) the sealed history built.

#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "inputs.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/server/sharded_server.h"
#include "mergeable/store/summary_store.h"
#include "wrappers.h"

namespace perfbench {

using mergeable::SpaceSaving;

inline constexpr uint64_t kStream = 1;
inline constexpr size_t kStoreCacheEntries = 1024;

struct Spec {
  std::string name;
  uint64_t shards_per_epoch = 0;
  // Closed-loop reporter connections; each owns an equal slice of the
  // shards. 0 selects one open-loop reporter paced at paced_epochs_per_s.
  size_t reporters = 0;
  double paced_epochs_per_s = 0.0;
  // Closed-loop trace length: this many epochs per second of the ingest
  // window, a fixed count whatever rate the system reaches.
  double trace_epochs_per_s = 0.0;
  uint32_t batch = 0;  // Reports per flush; a multiple of shards/reporter.
  uint64_t history_epochs = 0;   // Sealed during set-up.
  uint64_t window_capacity = 0;  // EpochService's resident window ring.
  bool live_queries = false;     // A closed-loop query client during the run.
  bool queries_after = false;    // Checked queries after the ingest window.
  uint64_t query_span = 0;       // Queries address the newest this many epochs.
  uint64_t max_lag_epochs = 0;   // Reporters wait when this far past sealed.
};

inline mergeable::StoreOptions StoreConfig() {
  mergeable::StoreOptions options;
  options.prefix = "store";
  options.cache_capacity = kStoreCacheEntries;
  options.epsilon = kEpsilon;
  return options;
}

inline mergeable::EpochServiceConfig ServiceConfig(const Spec& spec) {
  mergeable::EpochServiceConfig config;
  config.stream = kStream;
  config.shards_per_epoch = spec.shards_per_epoch;
  config.dedup_capacity = 1u << 16;
  config.window_capacity = spec.window_capacity;
  return config;
}

inline mergeable::ShardedServerConfig ServerConfig(const Spec& spec) {
  mergeable::ShardedServerConfig config;
  config.shards = 1;
  config.workers_per_shard = 1;
  // Sized so the healthy run sheds nothing: reporters are synchronous,
  // so queue depth is bounded by connections x batch.
  config.admission.hard_cap = std::max<size_t>(4096, 8 * spec.batch);
  config.admission.high_watermark = config.admission.hard_cap / 2;
  config.admission.low_watermark = config.admission.hard_cap / 8;
  config.admission.byte_budget = 64u << 20;
  config.admission.retry_after_ms = 1;
  return config;
}

class System {
 public:
  using Service = mergeable::EpochService<SpaceSaving, TimedStore>;

  System(const Spec& spec, uint64_t seed)
      : spec_(spec),
        inputs_(seed, spec.shards_per_epoch),
        storage_(&backend_, &trace_),
        inner_(&storage_, StoreConfig()),
        store_(&inner_, &trace_),
        service_(&store_, ServiceConfig(spec)),
        handler_(&service_, &trace_),
        server_(&handler_, ServerConfig(spec)) {
    MERGEABLE_CHECK_MSG(server_.Start(), "server failed to start");
    SealHistory();
  }
  ~System() { server_.Stop(); }

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  const Spec& spec() const { return spec_; }
  const Inputs& inputs() const { return inputs_; }
  Trace& trace() { return trace_; }
  Store& inner() { return inner_; }
  TimedStore& store() { return store_; }
  Service& service() { return service_; }
  mergeable::ShardedIngestServer& server() { return server_; }
  mergeable::MemStorage& backend() { return backend_; }

 private:
  // The query workload's history: every epoch offered in-process
  // through the same HandleBatch + SealEpoch calls the socket path uses.
  void SealHistory() {
    for (uint64_t e = 0; e < spec_.history_epochs; ++e) {
      mergeable::WireBatch batch;
      for (uint64_t s = 0; s < spec_.shards_per_epoch; ++s) {
        batch.reports.push_back({s, e, inputs_.Payload(e, s)});
      }
      const std::optional<mergeable::WireBatchVerdict> verdict =
          mergeable::DecodeBatchVerdictFrame(
              service_.HandleBatch(mergeable::EncodeBatchFrame(batch)));
      MERGEABLE_CHECK_MSG(verdict.has_value() &&
                              verdict->batch_code ==
                                  mergeable::ControlCode::kAccepted,
                          "history batch refused");
      for (mergeable::ControlCode code : verdict->codes) {
        MERGEABLE_CHECK_MSG(code == mergeable::ControlCode::kAccepted,
                            "history report refused");
      }
      MERGEABLE_CHECK_MSG(service_.SealEpoch(e, inputs_.EpochMass(e)),
                          "history seal failed");
    }
  }

  Spec spec_;
  Trace trace_;
  Inputs inputs_;
  mergeable::MemStorage backend_;
  TimedStorage storage_;
  Store inner_;
  TimedStore store_;
  Service service_;
  TracedHandler handler_;
  mergeable::ShardedIngestServer server_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
