// Timing helpers shared by the perfbench workloads: clocks, order
// statistics, slice-median rates, peak RSS, the host probe and the result
// line. Nothing here reads program state; it only measures.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty. Reorders the sample.
template <class T>
double percentile_in_place(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return static_cast<double>(values[rank - 1]);
}
/// As above on a copy, so callers keep their sample order.
inline double percentile(std::vector<double> values, double q) {
  return percentile_in_place(values, q);
}
inline double median(std::vector<double> values) {
  return percentile_in_place(values, 0.5);
}

/// Median over equal slices of [start_ns, end_ns) of the rate inside each
/// slice. `done_ns[b]` is when the `counts[b]` operations of batch b
/// completed, ascending; batch b took from done_ns[b - 1] (start_ns for the
/// first) to done_ns[b]. A slice's rate is its batches' operations over
/// their summed time, so it is not rounded to whole batches per slice.
double slice_median_rate(const std::vector<std::uint64_t>& done_ns,
                         const std::vector<std::uint32_t>& counts,
                         std::uint64_t start_ns, std::uint64_t end_ns,
                         std::size_t slices);

/// Peak resident set of this process so far, MiB. The workloads read it
/// when the timed phase ends, before the checks: it covers set-up, warm-up
/// and serving, while the benchmark keeps only per-drain and per-slice
/// records during the timed phase, so its own memory hardly grows with
/// throughput.
double peak_rss_mib();

/// A fixed integer loop owned by the benchmark, timed in milliseconds.
/// Printed before and after each workload to show how fast the host ran;
/// never reported as a metric.
double host_probe_ms();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports: the result line is printed from this.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
/// `correct` is true only when operations were attempted and none failed:
/// every operation of every workload is checked, and no failure is
/// expected of the program.
std::string result_json(const RunResult& result);

}  // namespace perfbench
