#include "measure.h"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

double slice_median_rate(const std::vector<std::uint64_t>& done_ns,
                         const std::vector<std::uint32_t>& counts,
                         std::uint64_t start_ns, std::uint64_t end_ns,
                         std::size_t slices) {
  if (slices == 0 || end_ns <= start_ns) return 0.0;
  const double width = static_cast<double>(end_ns - start_ns) /
                       static_cast<double>(slices);
  std::vector<double> ops(slices, 0.0);
  std::vector<double> ns(slices, 0.0);
  std::uint64_t previous = start_ns;
  for (std::size_t b = 0; b < done_ns.size(); ++b) {
    const std::uint64_t t = done_ns[b];
    if (t >= start_ns && t < end_ns) {
      auto s = static_cast<std::size_t>(static_cast<double>(t - start_ns) / width);
      s = std::min(s, slices - 1);
      ops[s] += counts[b];
      ns[s] += static_cast<double>(t - std::max(previous, start_ns));
    }
    previous = t;
  }
  std::vector<double> rates;
  for (std::size_t s = 0; s < slices; ++s) {
    if (ns[s] > 0) rates.push_back(ops[s] / (ns[s] * 1e-9));
  }
  return median(std::move(rates));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_probe_ms() {
  const std::uint64_t start = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 61;
  }
  const double ms = seconds_between(start, now_ns()) * 1e3;
  // Keeps the loop observable so it cannot be folded away.
  if (acc == 42) std::fprintf(stderr, "probe %llu\n",
                              static_cast<unsigned long long>(acc));
  return ms;
}

std::string result_json(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.attempted > 0 && result.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(value, sizeof value, "%.9g", v);
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
