// The three perfbench workloads. Each runs its set-up, a warm-up, a timed
// closed-loop phase and then its correctness checks, and fills a
// RunResult. Untraced runs report the end-to-end metrics; the traced run
// drives every workload with spans around the calls into each layer and
// reports the per-layer metrics plus tracing overhead.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "measure.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshot files and the span dump.
  std::filesystem::path work_dir;
};

/// Untraced runs: end-to-end metrics of one workload.
RunResult run_cold_serve(const Options& options);
RunResult run_hot_cluster(const Options& options);
RunResult run_pipeline(const Options& options);

/// Traced run: each workload runs `seconds / 2` of alternating untraced
/// and traced slices (passes, for the pipeline); the per-layer metrics are
/// derived from the spans of the traced ones. Each half appends its
/// per-layer metrics and its `trace.overhead_*_pct` to `result` and
/// records spans into `tracer`.
void trace_serving(const Options& options, Tracer& tracer, RunResult& result);
void trace_pipeline(const Options& options, Tracer& tracer, RunResult& result);

}  // namespace perfbench
