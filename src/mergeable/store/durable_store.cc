#include "mergeable/store/durable_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace mergeable {

DurableLog::DurableLog(Storage* durable, const DurableStoreOptions& options)
    : durable_(durable),
      seg_dir_(options.prefix + "/seg"),
      store_prefix_(options.store.prefix),
      segment_bytes_(options.segment_bytes),
      scrub_options_(options.scrub) {
  MERGEABLE_CHECK_MSG(durable != nullptr, "DurableLog needs storage");
  MERGEABLE_CHECK_MSG(segment_bytes_ > 0, "segment_bytes must be positive");
}

DurableLog::~DurableLog() { StopScrubber(); }

std::string DurableLog::SegmentFileName(uint64_t segment) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08llu",
                static_cast<unsigned long long>(segment));
  return seg_dir_ + "/" + buf;
}

std::optional<uint64_t> DurableLog::ParseSegmentFileName(
    const std::string& file) const {
  const std::string lead = seg_dir_ + "/";
  if (file.size() <= lead.size() || file.compare(0, lead.size(), lead) != 0) {
    return std::nullopt;
  }
  uint64_t segment = 0;
  for (size_t i = lead.size(); i < file.size(); ++i) {
    if (file[i] < '0' || file[i] > '9') return std::nullopt;
    segment = segment * 10 + static_cast<uint64_t>(file[i] - '0');
  }
  // Digits only is not enough: "0" or a 9-digit "000000000" is not a
  // name this log writes.
  if (SegmentFileName(segment) != file) return std::nullopt;
  return segment;
}

std::vector<uint64_t> DurableLog::Load(OpenReport* report) {
  std::lock_guard<std::mutex> lock(mu_);
  manifest_.clear();
  quarantine_.clear();
  scrub_cursor_.reset();
  current_segment_ = 0;
  current_size_ = 0;

  // Latest record wins per (stream, level, index): a scrub repair is a
  // re-append, so later copies supersede rotted earlier ones.
  std::map<RecordKey, std::vector<uint8_t>> payloads;
  bool saw_segment = false;
  for (const std::string& file : durable_->List()) {
    const std::optional<uint64_t> segment = ParseSegmentFileName(file);
    if (!segment.has_value()) continue;  // Not one of ours.
    const std::optional<std::vector<uint8_t>> bytes = durable_->Read(file);
    if (!bytes.has_value()) continue;
    ++report->segments;
    SegmentScan scan = ScanSegment(*bytes);
    if (scan.torn_tail) {
      // Same discipline as the WAL: the record that was mid-append when
      // the process died is dropped, everything before it is kept.
      durable_->Truncate(file, scan.valid_bytes);
      ++report->torn_tails;
    }
    report->corrupt_records += scan.corrupt_records;
    for (SegmentEntry& entry : scan.entries) {
      if (!entry.intact) continue;
      const RecordKey key{entry.record.stream, entry.record.level,
                          entry.record.index};
      manifest_[key] =
          RecordLocation{file, entry.offset, entry.length};
      payloads[key] = std::move(entry.record.payload);
    }
    if (!saw_segment || *segment >= current_segment_) {
      saw_segment = true;
      current_segment_ = *segment;
      current_size_ = scan.valid_bytes;
    }
  }
  report->records = payloads.size();

  std::vector<uint64_t> streams;
  for (auto& [key, payload] : payloads) {
    const auto& [stream, level, index] = key;
    warm_.Rewrite(NodeFileName(store_prefix_, stream, level, index), payload);
    if (level == 0 && (streams.empty() || streams.back() != stream)) {
      streams.push_back(stream);
    }
  }
  return streams;
}

bool DurableLog::AppendRecordLocked(uint64_t stream, uint32_t level,
                                    uint64_t index,
                                    const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> frame =
      EncodeSegmentRecord(SegmentRecord{stream, level, index, payload});
  if (current_size_ > 0 && current_size_ + frame.size() > segment_bytes_) {
    ++current_segment_;
    current_size_ = 0;
  }
  const std::string file = SegmentFileName(current_segment_);
  if (!durable_->Append(file, frame)) return false;
  manifest_[RecordKey{stream, level, index}] =
      RecordLocation{file, current_size_, frame.size()};
  current_size_ += frame.size();
  return true;
}

bool DurableLog::AppendRecord(uint64_t stream, uint32_t level, uint64_t index,
                              const std::vector<uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendRecordLocked(stream, level, index, payload);
}

bool DurableLog::AppendNodeFromWarm(uint64_t stream, uint32_t level,
                                    uint64_t index) {
  const std::optional<std::vector<uint8_t>> payload =
      warm_.Read(NodeFileName(store_prefix_, stream, level, index));
  std::lock_guard<std::mutex> lock(mu_);
  if (!payload.has_value() ||
      !AppendRecordLocked(stream, level, index, *payload)) {
    ++node_append_failures_;
    return false;
  }
  return true;
}

uint64_t DurableLog::ScrubPassLocked(uint64_t max_records) {
  ++scrub_stats_.passes;
  if (manifest_.empty()) return 0;
  const uint64_t target = max_records == 0
                              ? manifest_.size()
                              : std::min<uint64_t>(max_records,
                                                   manifest_.size());
  auto it = scrub_cursor_.has_value()
                ? manifest_.upper_bound(*scrub_cursor_)
                : manifest_.begin();
  // One read per touched file per pass, not per record.
  std::map<std::string, std::optional<std::vector<uint8_t>>> file_cache;
  std::vector<RecordKey> corrupt;
  uint64_t processed = 0;
  while (processed < target) {
    if (it == manifest_.end()) it = manifest_.begin();
    const RecordKey key = it->first;
    const RecordLocation& loc = it->second;
    auto cached = file_cache.find(loc.file);
    if (cached == file_cache.end()) {
      cached = file_cache.emplace(loc.file, durable_->Read(loc.file)).first;
    }
    const bool intact =
        cached->second.has_value() &&
        VerifySegmentRecordAt(*cached->second, loc.offset, loc.length);
    ++scrub_stats_.records_verified;
    if (intact) {
      scrub_stats_.bytes_verified += loc.length;
    } else {
      ++scrub_stats_.corrupt_found;
      corrupt.push_back(key);
    }
    ++processed;
    scrub_cursor_ = key;
    ++it;
  }
  for (const RecordKey& key : corrupt) {
    const auto& [stream, level, index] = key;
    if (level >= 1) {
      // Derived data: re-append the warm copy so the *next* restart
      // reads an intact record (latest wins); if even that fails, drop
      // the record — a restart rebuilds internal nodes from children.
      const std::optional<std::vector<uint8_t>> payload =
          warm_.Read(NodeFileName(store_prefix_, stream, level, index));
      if (payload.has_value() &&
          AppendRecordLocked(stream, level, index, *payload)) {
        ++scrub_stats_.nodes_repaired;
      } else {
        ++node_append_failures_;
        manifest_.erase(key);
      }
    } else {
      // Primary data whose durable truth is gone. The warm copy cannot
      // vouch for bytes the disk no longer holds — serving it would
      // hide the loss until the next restart surfaced it. Quarantine
      // the epoch: queries clamp around it and account its whole mass.
      if (quarantine_[stream].insert(index).second) {
        ++scrub_stats_.epochs_quarantined;
      }
      manifest_.erase(key);
    }
  }
  return processed;
}

uint64_t DurableLog::ScrubPass(uint64_t max_records) {
  std::lock_guard<std::mutex> lock(mu_);
  return ScrubPassLocked(max_records);
}

void DurableLog::StartScrubber() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (scrubber_running_) return;
  stop_scrubber_ = false;
  scrubber_running_ = true;
  scrub_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(thread_mu_);
    while (!stop_scrubber_) {
      thread_cv_.wait_for(
          lk, std::chrono::milliseconds(scrub_options_.interval_ms),
          [this] { return stop_scrubber_; });
      if (stop_scrubber_) break;
      lk.unlock();
      ScrubPass(scrub_options_.max_records_per_pass);
      lk.lock();
    }
  });
}

void DurableLog::StopScrubber() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!scrubber_running_) return;
    stop_scrubber_ = true;
  }
  thread_cv_.notify_all();
  scrub_thread_.join();
  std::lock_guard<std::mutex> lock(thread_mu_);
  scrubber_running_ = false;
}

std::optional<uint64_t> DurableLog::FirstQuarantinedIn(
    uint64_t stream, uint64_t lo_index, uint64_t hi_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = quarantine_.find(stream);
  if (it == quarantine_.end()) return std::nullopt;
  auto leaf = it->second.lower_bound(lo_index);
  if (leaf == it->second.end() || *leaf > hi_index) return std::nullopt;
  return *leaf;
}

std::vector<uint64_t> DurableLog::QuarantinedLeaves(uint64_t stream) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = quarantine_.find(stream);
  if (it == quarantine_.end()) return {};
  return std::vector<uint64_t>(it->second.begin(), it->second.end());
}

ScrubStats DurableLog::scrub_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scrub_stats_;
}

uint64_t DurableLog::node_append_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return node_append_failures_;
}

}  // namespace mergeable
