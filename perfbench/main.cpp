// perfbench: the repository benchmark program.
//
//   perfbench --workload cold-serve|hot-cluster|snapshot-pipeline
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 runs one workload and prints its end-to-end metrics; --trace 1
// runs every workload traced and prints the per-layer metrics (the
// per-layer map spans all three workloads). The last stdout line is the
// JSON result; every line before it is diagnosis for a human.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold-serve|hot-cluster|snapshot-pipeline --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.work_dir = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (options.workload != "cold-serve" && options.workload != "hot-cluster" &&
      options.workload != "snapshot-pipeline") {
    return usage("unknown workload");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    std::printf("host probe before: %.2f ms\n", host_probe_ms());
    RunResult result;
    if (options.trace) {
      Tracer tracer(true);
      trace_serving(options, tracer, result);
      trace_pipeline(options, tracer, result);
      const auto path = options.work_dir / ("trace-" + options.workload + "-" +
                                            std::to_string(options.seed) + ".jsonl");
      tracer.write_jsonl(path);
      std::printf("%zu spans written to %s\n", tracer.spans().size(), path.c_str());
    } else if (options.workload == "cold-serve") {
      result = run_cold_serve(options);
    } else if (options.workload == "hot-cluster") {
      result = run_hot_cluster(options);
    } else {
      result = run_pipeline(options);
    }
    std::printf("host probe after: %.2f ms\n", host_probe_ms());
    std::printf("%s\n", result_json(result).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
