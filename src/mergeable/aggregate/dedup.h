// A bounded FIFO memory of (shard, epoch) keys. No ingest path uses it
// any more: EpochAccumulator (epoch_accumulator.h) dedups by membership
// in the epoch's pending reports, which a FIFO window cannot do — it
// forgets keys whose reports are still pending. It remains only for the
// perfbench `aggregate.dedup_admit_ns` row and dedup_test, and retires
// with them.

#ifndef MERGEABLE_AGGREGATE_DEDUP_H_
#define MERGEABLE_AGGREGATE_DEDUP_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <set>
#include <utility>

#include "mergeable/util/check.h"

namespace mergeable {

class DedupWindow {
 public:
  explicit DedupWindow(size_t capacity) : capacity_(capacity) {
    MERGEABLE_CHECK_MSG(capacity >= 1, "DedupWindow capacity must be >= 1");
  }

  // True when (shard, epoch) was not in the window — the key is
  // recorded (evicting the oldest key when the window is full). False
  // for a duplicate: nothing is inserted, nothing grows.
  bool Admit(uint64_t shard, uint64_t epoch) {
    const Key key{shard, epoch};
    if (seen_.count(key) != 0) return false;
    if (order_.size() >= capacity_) {
      seen_.erase(order_.front());
      order_.pop_front();
      ++evictions_;
    }
    seen_.insert(key);
    order_.push_back(key);
    return true;
  }

  bool Contains(uint64_t shard, uint64_t epoch) const {
    return seen_.count(Key{shard, epoch}) != 0;
  }

  size_t size() const { return order_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const { return evictions_; }

 private:
  using Key = std::pair<uint64_t, uint64_t>;

  size_t capacity_;
  std::set<Key> seen_;
  std::deque<Key> order_;
  uint64_t evictions_ = 0;
};

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_DEDUP_H_
