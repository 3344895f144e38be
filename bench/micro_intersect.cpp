// Microbenchmark for the shared sorted-set intersection kernels
// (algo/intersect.h): scalar merge, galloping and SSE2/AVX2 block
// compare, swept across skewed list-length ratios.
//
// The skew sweep is the point: the adjacency intersections behind the
// triangle census, Jaccard scoring and the kSuggest mutual-count all hit
// wildly asymmetric list pairs (a celebrity row against a leaf row), and
// each kernel has a regime where it wins — merge at ratio ~1, galloping
// once the ratio passes ~32, SIMD in between. `pick_auto` encodes that
// heuristic; this bench is how its thresholds were calibrated.
//
// Every kernel must return the identical count on every pair — the
// dispatch-invariance contract the serving checksums rely on — so the
// bench asserts agreement and exits nonzero on divergence. Results are
// published to BENCH_intersect.json (override GPLUS_BENCH_INTERSECT_JSON)
// as Melem/s per (kernel, ratio) for the CI artifact; unavailable SIMD
// tiers on the host are reported as 0 and skipped.
//
// GPLUS_SEED overrides the list-generation seed; GPLUS_INTERSECT_REPEAT
// the measurement repeat count (default 7, best-of).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "algo/intersect.h"
#include "bench_common.h"
#include "stats/rng.h"

namespace {

using namespace gplus;
using algo::IntersectKernel;

// Sorted duplicate-free list of `count` values drawn from [0, universe).
std::vector<graph::NodeId> make_sorted(stats::Rng& rng, std::size_t count,
                                       std::uint64_t universe) {
  std::vector<graph::NodeId> values;
  values.reserve(count);
  while (values.size() < count) {
    values.push_back(static_cast<graph::NodeId>(rng.next_below(universe)));
    if (values.size() == count) {
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
    }
  }
  return values;
}

struct Scenario {
  const char* name;    // JSON-friendly ratio label
  std::size_t small;   // shorter list length
  std::size_t large;   // longer list length
};

struct Cell {
  double melems_per_s = 0.0;  // (|a| + |b|) processed per second, millions
  std::size_t count = 0;      // intersection size (must agree across kernels)
  bool available = false;
};

}  // namespace

int main() {
  bench::banner("micro_intersect",
                "sorted-set intersection kernels across list-length skew");
  const std::uint64_t seed = bench::seed();
  const std::size_t repeats = bench::env_or("GPLUS_INTERSECT_REPEAT", 7);

  // Fixed work volume per scenario: the large list stays 64k entries and
  // the small side shrinks, so ratios isolate the skew effect rather than
  // the footprint. Universe 4x the large list keeps overlap plausible.
  const std::size_t kLarge = 1u << 16;
  const Scenario scenarios[] = {
      {"r1", kLarge, kLarge},
      {"r8", kLarge / 8, kLarge},
      {"r64", kLarge / 64, kLarge},
      {"r512", kLarge / 512, kLarge},
  };
  const IntersectKernel kernels[] = {
      IntersectKernel::kScalar,
      IntersectKernel::kGalloping,
      IntersectKernel::kSse,
      IntersectKernel::kAvx2,
  };

  std::printf("host SIMD: sse=%s avx2=%s  (repeats: best of %zu)\n\n",
              algo::sse_intersect_available() ? "yes" : "no",
              algo::avx2_intersect_available() ? "yes" : "no", repeats);
  std::printf("%-10s", "ratio");
  for (const IntersectKernel k : kernels) {
    std::printf(" %12s", algo::intersect_kernel_name(k).data());
  }
  std::printf("   (Melem/s)\n");

  int failures = 0;
  std::vector<std::pair<std::string, double>> json_fields;
  for (const Scenario& s : scenarios) {
    stats::Rng rng(seed + s.small);
    const auto a = make_sorted(rng, s.small, kLarge * 4);
    const auto b = make_sorted(rng, s.large, kLarge * 4);
    const double elems = static_cast<double>(a.size() + b.size());

    Cell cells[std::size(kernels)];
    for (std::size_t k = 0; k < std::size(kernels); ++k) {
      const IntersectKernel kernel = kernels[k];
      if ((kernel == IntersectKernel::kSse &&
           !algo::sse_intersect_available()) ||
          (kernel == IntersectKernel::kAvx2 &&
           !algo::avx2_intersect_available())) {
        continue;
      }
      cells[k].available = true;
      cells[k].count = algo::intersect_count(a, b, kernel);
      double best_s = 1e300;
      for (std::size_t r = 0; r < repeats; ++r) {
        // Enough inner iterations to lift tiny pairs above timer noise.
        const std::size_t iters = std::max<std::size_t>(1, (1u << 22) / elems);
        volatile std::size_t sink = 0;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < iters; ++i) {
          sink = sink + algo::intersect_count(a, b, kernel);
        }
        const auto stop = std::chrono::steady_clock::now();
        const double elapsed =
            std::chrono::duration<double>(stop - start).count() /
            static_cast<double>(iters);
        best_s = std::min(best_s, elapsed);
      }
      cells[k].melems_per_s = elems / best_s / 1e6;
    }

    // Dispatch-invariance check: every available kernel, same count.
    std::size_t reference = cells[0].count;  // scalar always runs
    std::printf("%-10s", s.name);
    for (std::size_t k = 0; k < std::size(kernels); ++k) {
      if (!cells[k].available) {
        std::printf(" %12s", "n/a");
        continue;
      }
      std::printf(" %12.1f", cells[k].melems_per_s);
      if (cells[k].count != reference) {
        std::printf("\nVIOLATION: %s count %zu != scalar %zu on %s\n",
                    algo::intersect_kernel_name(kernels[k]).data(),
                    cells[k].count, reference, s.name);
        ++failures;
      }
      json_fields.emplace_back(
          std::string("melems_") +
              std::string(algo::intersect_kernel_name(kernels[k])) + "_" +
              s.name,
          cells[k].melems_per_s);
    }
    std::printf("   |a∩b|=%zu\n", reference);
  }

  const char* json_env = std::getenv("GPLUS_BENCH_INTERSECT_JSON");
  const std::string json_path = json_env != nullptr && *json_env != '\0'
                                    ? json_env
                                    : "BENCH_intersect.json";
  {
    std::ofstream out(json_path);
    out.precision(1);
    out << std::fixed;
    out << "{\n  \"bench\": \"micro_intersect\",\n  \"seed\": " << seed;
    for (const auto& [field, value] : json_fields) {
      out << ",\n  \"" << field << "\": " << value;
    }
    out << "\n}\n";
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  if (failures != 0) {
    std::printf("%d violation(s)\n", failures);
    return 1;
  }
  return 0;
}
