// Small measurement helpers: a clock, percentiles, a thread-safe sample
// recorder, and the result printer (human-readable lines, then the one
// JSON object the benchmark contract asks for as the last line).

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Microseconds since the first call (one epoch for every thread).
double NowUs();

// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

// Samples appended from several threads.
class Recorder {
 public:
  void Add(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(value);
  }
  std::vector<double> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    out.swap(values_);
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note = {};  // Printed beside the value only (sample counts etc.).
};

// Prints every metric as a line, then the contract's JSON object last.
// `printed_only` metrics get a line but stay out of the JSON.
void PrintResult(const std::string& workload, bool correct,
                 uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics,
                 const std::vector<Metric>& printed_only);

// Peak resident set of this process, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
