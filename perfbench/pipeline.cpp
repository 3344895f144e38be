// snapshot-pipeline: one operation is one full pass — stream the
// generator into the out-of-core v3 builder, open the file off mmap, and
// run the §3.3 pass (digests, degrees, SCC, HyperANF, sampled census).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "algo/motifs.h"
#include "core/parallel.h"
#include "geo/world.h"
#include "reference.h"
#include "serve/snapshot_build.h"
#include "serve/snapshot_file.h"
#include "serve/snapshot_stats.h"
#include "synth/population.h"
#include "synth/stream_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = gplus::serve;
using gplus::graph::NodeId;

constexpr std::size_t kNodes = 200'000;
// The graph is the same in every run, like the serving dataset; the run
// seed drives the HyperANF hash salt, the triad sample and the BFS check
// sources.
constexpr std::uint64_t kGraphSeed = 42;
// Small enough that the build flushes and merges several sorted runs.
constexpr std::size_t kSortBufferEdges = std::size_t{1} << 18;
// Reduced HyperANF precision (2^4 registers per node) and the default
// hop cap; the undirected view, as the paper's distance figures use.
constexpr unsigned kAnfPrecision = 4;
constexpr std::size_t kAnfMaxHops = 64;
constexpr std::uint64_t kTriadSamples = 200'000;
constexpr int kSetupReps = 3;
constexpr int kMinPasses = 3;
constexpr int kMinOverheadPairs = 2;
constexpr std::size_t kBfsSources = 48;
// HyperANF's mean distance may differ from exact BFS by this share: at
// 2^4 registers a single counter has ~26% relative error (1.04/sqrt(16)),
// and the neighbourhood function averages n counters per hop.
constexpr double kAnfTolerance = 0.10;

struct Generator {
  gplus::synth::PopulationModel population;
  gplus::geo::World world;
  std::optional<gplus::synth::StreamingGraphGen> gen;
};

std::unique_ptr<Generator> make_generator(Tracer& tracer) {
  auto g = std::make_unique<Generator>();
  {
    Span s(tracer, "synth.generator", 0);
    gplus::synth::StreamGenConfig config;
    config.node_count = kNodes;
    config.seed = kGraphSeed;
    g->gen.emplace(config, g->population, g->world);
  }
  // Warm-up of the generator: one full edge stream into a counting sink.
  std::uint64_t edges = 0;
  {
    Span s(tracer, "synth.stream", 0);
    g->gen->stream_edges([&](NodeId, NodeId) { ++edges; });
  }
  if (edges == 0) throw std::runtime_error("pipeline: generator emitted no edges");
  return g;
}

struct PassResult {
  serve::OutOfCoreStats build;
  bool verified = false;
  serve::SnapshotDegreeStats degrees;
  std::vector<std::uint64_t> scc_sizes;
  gplus::algo::NeighborhoodFunction anf;
  gplus::algo::SampledTriadCensus sampled;
  double seconds = 0.0;
};

serve::SnapshotAnfOptions anf_options(std::uint64_t seed) {
  serve::SnapshotAnfOptions options;
  options.precision = kAnfPrecision;
  options.max_hops = kAnfMaxHops;
  options.undirected = true;
  options.seed = seed;
  return options;
}

PassResult run_pass(const Generator& g, const std::filesystem::path& work,
                    std::uint64_t seed, std::uint64_t pass, Tracer& tracer) {
  PassResult r;
  const std::uint64_t t0 = now_ns();
  const auto snap = work / "pipeline.snap";
  {
    Span whole(tracer, "pipeline.pass", pass);
    {
      Span build(tracer, "build", pass);
      serve::OutOfCoreOptions options;
      options.work_dir = work / "build";
      options.sort_buffer_edges = kSortBufferEdges;
      // Stage spans follow the builder's durable checkpoints: ingest runs
      // until finish(), then merge, encode and assemble end at their
      // named stages.
      std::uint32_t stage = tracer.open("build.ingest", pass);
      options.checkpoint = [&](std::string_view name) {
        const char* next = name == "merged_reverse" ? "build.encode"
                           : name == "encoded"      ? "build.assemble"
                                                    : nullptr;
        if (name == "merged_reverse" || name == "encoded" || name == "assemble") {
          tracer.close(stage);
          stage = next != nullptr ? tracer.open(next, pass) : kNoParent;
        }
        return true;
      };
      serve::OutOfCoreSnapshotBuilder builder(kNodes, std::move(options));
      g.gen->stream_edges([&](NodeId a, NodeId b) { builder.add_edge(a, b); });
      for (NodeId u = 0; u < kNodes; ++u) builder.set_profile(u, g.gen->profile(u));
      tracer.close(stage);
      stage = tracer.open("build.merge", pass);
      r.build = builder.finish(snap);
    }
    std::optional<serve::MappedSnapshot> mapped;
    {
      Span s(tracer, "snapshot.open", pass);
      mapped.emplace(snap);
    }
    const serve::SnapshotView& view = mapped->view();
    {
      Span s(tracer, "snapshot.verify", pass);
      try {
        view.verify_sections();
        r.verified = true;
      } catch (const std::exception& e) {
        std::printf("verify_sections: %s\n", e.what());
      }
    }
    {
      Span s(tracer, "stats.degree", pass);
      r.degrees = serve::snapshot_degree_stats(view);
    }
    {
      Span s(tracer, "stats.scc", pass);
      r.scc_sizes = serve::snapshot_scc(view).sizes;
    }
    {
      Span s(tracer, "stats.anf", pass);
      r.anf = serve::snapshot_anf(view, anf_options(seed));
    }
    {
      Span s(tracer, "motifs.sample", pass);
      gplus::algo::TriadSampleConfig config;
      config.samples = kTriadSamples;
      config.seed = seed;
      r.sampled = gplus::algo::sample_triad_census_of_view(view, config);
    }
  }
  std::sort(r.scc_sizes.begin(), r.scc_sizes.end(), std::greater<>());
  r.seconds = seconds_between(t0, now_ns());
  return r;
}

bool same_answer(const PassResult& a, const PassResult& b) {
  return a.build.edge_count == b.build.edge_count &&
         a.build.total_bytes == b.build.total_bytes && a.verified == b.verified &&
         a.degrees.out_degree_hist == b.degrees.out_degree_hist &&
         a.degrees.in_degree_hist == b.degrees.in_degree_hist &&
         a.scc_sizes == b.scc_sizes &&
         a.anf.reachable_pairs == b.anf.reachable_pairs &&
         a.sampled.closed_fraction == b.sampled.closed_fraction;
}

// Checks one pass against the benchmark's own computations over the
// streamed edges. Returns an empty string when every check holds.
std::string check_pass(const Generator& g, const PassResult& r, std::uint64_t seed) {
  std::vector<std::uint64_t> edges;
  g.gen->stream_edges([&](NodeId a, NodeId b) {
    edges.push_back((static_cast<std::uint64_t>(a) << 32) | b);
  });
  ref::sort_unique_edges(edges);
  if (!r.verified) return "section digests did not verify";
  if (r.build.edge_count != edges.size() || r.degrees.edges != edges.size()) {
    return "edge count " + std::to_string(r.build.edge_count) + " != " +
           std::to_string(edges.size());
  }
  if (r.degrees.out_degree_hist != ref::out_degree_hist(kNodes, edges) ||
      r.degrees.in_degree_hist != ref::in_degree_hist(kNodes, edges)) {
    return "degree histogram differs";
  }
  if (r.scc_sizes != ref::scc_sizes(kNodes, edges)) return "SCC sizes differ";

  const auto& pairs = r.anf.reachable_pairs;
  for (std::size_t h = 1; h < pairs.size(); ++h) {
    if (pairs[h] < pairs[h - 1]) return "HyperANF not monotone at hop " + std::to_string(h);
  }
  const auto adjacency = ref::union_adjacency(kNodes, edges);
  std::vector<NodeId> sources;
  std::uint64_t state = seed ^ 0xB5AD4ECEDA1CE2A9ULL;
  while (sources.size() < kBfsSources) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto u = static_cast<NodeId>((state >> 33) % kNodes);
    if (!adjacency[u].empty()) sources.push_back(u);
  }
  const double exact_mean = ref::sampled_mean_distance(adjacency, sources);
  const double anf_error = std::abs(r.anf.mean_distance - exact_mean) / exact_mean;
  std::printf("anf mean distance %.4f, exact BFS (%zu sources) %.4f, error %.4f "
              "(tolerance %.2f)\n",
              r.anf.mean_distance, sources.size(), exact_mean, anf_error, kAnfTolerance);
  if (anf_error > kAnfTolerance) return "HyperANF mean distance outside tolerance";

  const auto closure = ref::exact_closure(adjacency);
  const double exact = closure.closure();
  // 5 binomial standard errors, with an absolute floor for tiny closures.
  const double sigma = std::sqrt(exact * (1.0 - exact) /
                                 static_cast<double>(std::max<std::uint64_t>(1, r.sampled.sampled)));
  const double tolerance = std::max(5.0 * sigma, 0.002);
  std::printf("closure exact %.5f (wedges %llu), sampled %.5f, tolerance %.5f\n", exact,
              static_cast<unsigned long long>(closure.wedges), r.sampled.closed_fraction,
              tolerance);
  if (r.sampled.total_wedges != closure.wedges) return "wedge population differs";
  if (std::abs(r.sampled.closed_fraction - exact) > tolerance) {
    return "sampled closure outside binomial tolerance";
  }
  return {};
}

// Runs passes until `seconds` elapsed and at least `min_passes` ran.
std::vector<PassResult> timed_passes(const Generator& g, const Options& options,
                                     double seconds, int min_passes) {
  Tracer off(false);
  std::vector<PassResult> passes;
  const std::uint64_t start = now_ns();
  while (static_cast<int>(passes.size()) < min_passes ||
         seconds_between(start, now_ns()) < seconds) {
    passes.push_back(run_pass(g, options.work_dir, options.seed, 1 + passes.size(), off));
  }
  return passes;
}

// Failed passes: all of them when the first fails its checks, plus any
// later pass whose answer differs from the first.
std::uint64_t failed_passes(const Generator& g, const std::vector<PassResult>& passes,
                            std::uint64_t seed) {
  const std::string why = check_pass(g, passes.front(), seed);
  std::printf("check snapshot-pipeline: %s\n", why.empty() ? "ok" : why.c_str());
  if (!why.empty()) return passes.size();
  std::uint64_t failed = 0;
  for (const PassResult& p : passes) failed += same_answer(p, passes.front()) ? 0 : 1;
  return failed;
}

std::vector<double> pass_seconds(const std::vector<PassResult>& passes) {
  std::vector<double> out;
  for (const PassResult& p : passes) out.push_back(p.seconds);
  return out;
}

}  // namespace

RunResult run_pipeline(const Options& options) {
  gplus::core::set_thread_count(2);
  Tracer off(false);
  // Set-up: the generator's latent state plus its warm-up stream, from
  // scratch each rep; then one untimed warm-up pass.
  std::vector<double> reps;
  std::unique_ptr<Generator> g;
  for (int i = 0; i < kSetupReps; ++i) {
    g.reset();
    const std::uint64_t t0 = now_ns();
    g = make_generator(off);
    reps.push_back(seconds_between(t0, now_ns()));
  }
  const PassResult warm = run_pass(*g, options.work_dir, options.seed, 0, off);
  const double setup_s = median(reps) + warm.seconds;
  std::printf("set-up reps: %.3f %.3f %.3f s, warm-up pass %.3f s\n", reps[0], reps[1],
              reps[2], warm.seconds);

  const auto passes = timed_passes(*g, options, options.seconds, kMinPasses);
  const double rss = peak_rss_mib();
  const auto secs = pass_seconds(passes);
  std::printf("timed phase: %zu passes (%zu latency samples), build runs %llu, pass s:",
              passes.size(), secs.size(),
              static_cast<unsigned long long>(passes.front().build.run_count));
  for (const double s : secs) std::printf(" %.3f", s);
  std::printf("\n");

  RunResult r;
  r.attempted = passes.size();
  r.failed = failed_passes(*g, passes, options.seed);
  std::vector<double> rates;
  for (const double s : secs) rates.push_back(1.0 / s);
  r.add("setup_s", setup_s, "s");
  r.add("ops_per_s", median(rates), "1/s");
  r.add("latency_p50_ms", median(secs) * 1e3, "ms");
  // Fewer than forty passes hold no tail, so the pipeline reports its
  // median alone, under both names.
  r.add("latency_p99_ms", median(secs) * 1e3, "ms");
  r.add("peak_rss_mib", rss, "MiB");
  r.add("snapshot_bytes_per_edge",
        static_cast<double>(passes.front().build.total_bytes) /
            static_cast<double>(passes.front().build.edge_count),
        "B/edge");
  return r;
}

void trace_pipeline(const Options& options, Tracer& tracer, RunResult& r) {
  gplus::core::set_thread_count(2);
  Tracer off(false);
  auto g = make_generator(tracer);
  run_pass(*g, options.work_dir, options.seed, 0, off);  // warm-up
  // Tracing overhead: pairs of passes, untraced and traced in ABBA order
  // so the host's drift reaches both alike; the median over pairs of the
  // share of throughput the traced pass lost.
  std::vector<PassResult> all;
  std::vector<PassResult> traced;
  std::vector<double> lost;
  const std::uint64_t start = now_ns();
  for (int k = 0; k < kMinOverheadPairs || seconds_between(start, now_ns()) < options.seconds / 2;
       ++k) {
    std::array<double, 2> secs{};  // untraced, traced
    for (int j = 0; j < 2; ++j) {
      const bool on = (j == 1) == (k % 2 == 0);
      all.push_back(run_pass(*g, options.work_dir, options.seed, 1 + all.size(),
                             on ? tracer : off));
      secs[on] = all.back().seconds;
      if (on) traced.push_back(all.back());
    }
    lost.push_back(100.0 * (1.0 - secs[0] / secs[1]));
  }

  // The benchmark's own scan of every row of the last pass's file, and
  // HyperANF at 1 lane against 2 lanes on the same view.
  std::uint64_t entries = 0;
  double anf_speedup = 0.0;
  {
    serve::MappedSnapshot mapped(options.work_dir / "pipeline.snap");
    const auto& view = mapped.view();
    {
      Span s(tracer, "decode.scan", 0);
      for (NodeId u = 0; u < view.node_count(); ++u) {
        auto scan = view.out_scan(u);
        NodeId v = 0;
        while (scan.next(v)) ++entries;
      }
    }
    // Two lanes first, so the one-lane run is not the one that pays for
    // first touching the mapping.
    std::uint64_t t0 = now_ns();
    {
      Span s(tracer, "parallel.anf_2lane", 0);
      serve::snapshot_anf(view, anf_options(options.seed));
    }
    const double two = seconds_between(t0, now_ns());
    gplus::core::set_thread_count(1);
    t0 = now_ns();
    {
      Span s(tracer, "parallel.anf_1lane", 0);
      serve::snapshot_anf(view, anf_options(options.seed));
    }
    anf_speedup = seconds_between(t0, now_ns()) / two;
    gplus::core::set_thread_count(2);
  }

  const double n = static_cast<double>(traced.size());
  auto per_pass = [&](const char* name) { return tracer.total_s(name) / n; };
  r.add("synth.stream_s", tracer.total_s("synth.stream"), "s");
  r.add("build.ingest_s", per_pass("build.ingest"), "s");
  r.add("build.merge_s", per_pass("build.merge"), "s");
  r.add("build.encode_s", per_pass("build.encode"), "s");
  r.add("build.assemble_s", per_pass("build.assemble"), "s");
  r.add("build.runs", static_cast<double>(traced.front().build.run_count), "count");
  r.add("snapshot.open_us", per_pass("snapshot.open") * 1e6, "us");
  r.add("snapshot.verify_s", per_pass("snapshot.verify"), "s");
  r.add("decode.scan_medges_per_s",
        static_cast<double>(entries) * 1e-6 / tracer.total_s("decode.scan"), "Medges/s");
  r.add("stats.degree_s", per_pass("stats.degree"), "s");
  r.add("stats.scc_s", per_pass("stats.scc"), "s");
  r.add("stats.anf_s", per_pass("stats.anf"), "s");
  r.add("motifs.sample_s", per_pass("motifs.sample"), "s");
  r.add("motifs.wedges_per_s",
        static_cast<double>(traced.front().sampled.sampled) / per_pass("motifs.sample"),
        "1/s");
  r.add("parallel.anf_speedup", anf_speedup, "ratio");
  r.add("trace.overhead_pipeline_pct", median(lost), "%");

  r.attempted += all.size();
  r.failed += failed_passes(*g, all, options.seed);
}

}  // namespace perfbench
