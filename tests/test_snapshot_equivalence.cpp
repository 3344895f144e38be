// v2 / v3 serving equivalence: the compressed format is a storage
// decision, not a behavior change.
//
// One seeded graph is built four ways — v2 flat, v3 compressed (in
// memory), v3 out-of-core (streamed through sorted runs to disk) and the
// same v3 file reopened off mmap — and every engine request family must
// produce byte-identical (status, flags, payload) across all of them,
// including paging edges, deadline-clipped partials and error statuses.
// The out-of-core file must equal the in-memory v3 bytes exactly, and v3
// emission must be bit-stable across GPLUS_THREADS (the CTest suite runs
// this binary at the default and at GPLUS_THREADS=1; tools/run_tsan.sh
// races it under TSan).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "algo/intersect.h"
#include "algo/motifs.h"
#include "core/dataset.h"
#include "core/parallel.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "serve/snapshot_file.h"

namespace gplus::serve {
namespace {

class SnapshotEquivalence : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 2'500;

  /// Scratch path unique to this process: ctest -j runs the default and
  /// GPLUS_THREADS=1 variants of a case concurrently.
  static std::filesystem::path scratch(const std::string& stem) {
    return std::filesystem::temp_directory_path() /
           (stem + "_" + std::to_string(::getpid()) + ".snap");
  }

  static const core::Dataset& dataset() {
    static const core::Dataset instance = core::make_standard_dataset(kNodes, 7);
    return instance;
  }
  static const SnapshotBuffer& v2() {
    static const SnapshotBuffer instance = build_snapshot(dataset());
    return instance;
  }
  static const SnapshotBuffer& v3() {
    static const SnapshotBuffer instance = [] {
      SnapshotOptions options;
      options.version = kSnapshotVersion3;
      return build_snapshot(dataset(), options);
    }();
    return instance;
  }

  /// Streams the dataset's graph + profiles through the out-of-core
  /// builder into `path` (fresh scratch dir next to it).
  static OutOfCoreStats build_out_of_core(const std::filesystem::path& path) {
    OutOfCoreOptions options;
    options.work_dir = path.string() + ".work";
    options.sort_buffer_edges = 4'096;  // force several runs + a real merge
    OutOfCoreSnapshotBuilder builder(dataset().graph().node_count(),
                                     std::move(options));
    const auto& g = dataset().graph();
    for (graph::NodeId u = 0; u < g.node_count(); ++u) {
      for (const graph::NodeId v : g.out_neighbors(u)) builder.add_edge(u, v);
      builder.set_profile(u, dataset().profiles[u]);
    }
    return builder.finish(path);
  }
};

TEST_F(SnapshotEquivalence, OutOfCoreFileEqualsInMemoryV3Bytes) {
  const auto path = scratch("gplus_equiv");
  const auto stats = build_out_of_core(path);
  EXPECT_GT(stats.run_count, 1u) << "sort buffer did not force a merge";
  EXPECT_EQ(stats.edge_count, dataset().graph().edge_count());
  const SnapshotBuffer from_disk = load_snapshot(path);
  ASSERT_EQ(from_disk.size(), v3().size());
  EXPECT_EQ(std::memcmp(from_disk.bytes().data(), v3().bytes().data(),
                        v3().size()),
            0)
      << "out-of-core build diverged from the in-memory v3 builder";
  std::filesystem::remove(path);
}

TEST_F(SnapshotEquivalence, V3EmissionIsThreadCountInvariant) {
  core::set_thread_count(1);
  SnapshotOptions options;
  options.version = kSnapshotVersion3;
  const SnapshotBuffer serial = build_snapshot(dataset(), options);
  core::set_thread_count(4);
  const SnapshotBuffer threaded = build_snapshot(dataset(), options);
  core::set_thread_count(0);
  ASSERT_EQ(serial.size(), threaded.size());
  EXPECT_EQ(std::memcmp(serial.bytes().data(), threaded.bytes().data(),
                        serial.size()),
            0);
}

// Absolute byte pins: the FNV-1a-64 of every file the writers emit for
// the fixture dataset. The relative suites above prove the builders agree
// with each other; these prove none of them drifted. A deliberate format
// change re-records them in the same commit and says why.
std::uint64_t fnv1a64(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

class SnapshotBytes : public SnapshotEquivalence {};

TEST_F(SnapshotBytes, PinnedDigests) {
  const auto built = [](std::uint32_t version, bool country_index) {
    SnapshotOptions options;
    options.version = version;
    options.country_index = country_index;
    return fnv1a64(build_snapshot(dataset(), options).bytes());
  };
  EXPECT_EQ(built(kSnapshotVersion2, true), 0x5e15825df37c850eULL) << "v2";
  EXPECT_EQ(built(kSnapshotVersion2, false), 0x1ac2e9a5c207208fULL)
      << "v2 lean";
  EXPECT_EQ(built(kSnapshotVersion3, true), 0x7be4a2e0cfcc099fULL) << "v3";
  EXPECT_EQ(built(kSnapshotVersion3, false), 0x7a1035915d2f40ffULL)
      << "v3 lean";

  const auto path = scratch("gplus_pinned");
  build_out_of_core(path);
  EXPECT_EQ(fnv1a64(load_snapshot(path).bytes()), 0x7be4a2e0cfcc099fULL)
      << "out-of-core";
  std::filesystem::remove(path);

  // Every shard, from both source formats: the split reads rows through
  // the format-agnostic scans, so a v2 and a v3 source give equal shards.
  struct Split {
    ShardingPolicy policy;
    std::size_t shard_count;
    std::vector<std::uint64_t> want;
  };
  const Split splits[] = {
      {ShardingPolicy::kRankStripe,
       4,
       {0xacff641c4f2c078bULL,
        0x4fab767d94ea8079ULL,
        0x46ded11de1582cc3ULL,
        0xaea11bf20e1ae2e4ULL}},
      {ShardingPolicy::kRankRange,
       3,
       {0x34174f2f1f7f6e17ULL,
        0x848122c65e2eae1cULL,
        0x39a6981c10efe337ULL}},
  };
  const SnapshotView flat(v2().bytes());
  const SnapshotView compressed(v3().bytes());
  for (const Split& split : splits) {
    const ShardingOptions options{.shard_count = split.shard_count,
                                  .policy = split.policy};
    const ShardedSnapshot from_v2 = split_snapshot(flat, options);
    const ShardedSnapshot from_v3 = split_snapshot(compressed, options);
    const auto name = sharding_policy_name(split.policy);
    ASSERT_EQ(from_v2.routing.owner, from_v3.routing.owner) << name;
    ASSERT_EQ(from_v2.shards.size(), split.want.size()) << name;
    ASSERT_EQ(from_v3.shards.size(), split.want.size()) << name;
    for (std::size_t s = 0; s < split.want.size(); ++s) {
      const auto a = from_v2.shards[s].bytes();
      const auto b = from_v3.shards[s].bytes();
      ASSERT_EQ(a.size(), b.size()) << name << " shard " << s;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0)
          << name << " shard " << s << ": v2 and v3 sources diverged";
      EXPECT_EQ(fnv1a64(a), split.want[s]) << name << " shard " << s;
    }
  }
}

// Exercises every request family over one engine, folding each response
// into a caller-visible trace for comparison.
std::vector<Response> run_families(const SnapshotView& view) {
  RequestEngine engine(&view);
  std::vector<Response> trace;
  auto run = [&](Request q) {
    Response r;
    engine.execute(q, r);
    trace.push_back(std::move(r));
  };
  const auto n = static_cast<graph::NodeId>(view.node_count());
  for (graph::NodeId u = 0; u < n; u += 17) {
    run({.type = RequestType::kGetProfile, .user = u});
    run({.type = RequestType::kDegree, .user = u});
    run({.type = RequestType::kReciprocity, .user = u});
    // Circle pages: first page, mid-list page, off-the-end page.
    run({.type = RequestType::kGetOutCircle, .user = u, .limit = 8});
    run({.type = RequestType::kGetOutCircle,
         .user = u,
         .offset = 4,
         .limit = 1000});
    run({.type = RequestType::kGetInCircle, .user = u, .limit = 64});
    run({.type = RequestType::kGetInCircle,
         .user = u,
         .offset = 100'000,
         .limit = 10});
    // Deadline-clipped circle page (partial payloads must agree too).
    run({.type = RequestType::kGetOutCircle,
         .user = u,
         .limit = 1000,
         .cost_budget = 3});
    run({.type = RequestType::kShortestPath,
         .user = u,
         .target = static_cast<graph::NodeId>((u * 31 + 7) % n)});
    run({.type = RequestType::kShortestPath,
         .user = u,
         .target = static_cast<graph::NodeId>((u + 1) % n),
         .cost_budget = 25});
    // Suggest: full 2-hop walk, a default-limit page, and a
    // deadline-clipped partial (header patching must agree byte-for-byte).
    run({.type = RequestType::kSuggest, .user = u, .limit = 10});
    run({.type = RequestType::kSuggest, .user = u});
    run({.type = RequestType::kSuggest,
         .user = u,
         .limit = 25,
         .cost_budget = 40});
  }
  run({.type = RequestType::kTopK, .limit = 50});
  run({.type = RequestType::kTopK, .limit = 7, .cost_budget = 4});
  // Error statuses must match as well.
  run({.type = RequestType::kGetProfile, .user = n});
  run({.type = RequestType::kGetOutCircle, .user = n + 5, .limit = 10});
  run({.type = RequestType::kShortestPath, .user = 0, .target = n});
  run({.type = RequestType::kSuggest, .user = n, .limit = 5});
  run({.type = RequestType::kSuggest, .user = 0, .limit = 10'000});
  return trace;
}

void expect_identical(const std::vector<Response>& a,
                      const std::vector<Response>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << what << " request " << i;
    EXPECT_EQ(a[i].flags, b[i].flags) << what << " request " << i;
    ASSERT_EQ(a[i].payload.size(), b[i].payload.size())
        << what << " request " << i;
    EXPECT_EQ(a[i].payload, b[i].payload) << what << " request " << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << what << " request " << i;
  }
}

TEST_F(SnapshotEquivalence, EveryRequestFamilyByteIdenticalAcrossFormats) {
  const SnapshotView flat(v2().bytes());
  const SnapshotView compressed(v3().bytes());
  ASSERT_FALSE(flat.adjacency_compressed());
  ASSERT_TRUE(compressed.adjacency_compressed());
  const auto want = run_families(flat);
  expect_identical(want, run_families(compressed), "v2 vs v3");

  const auto path = scratch("gplus_equiv_mmap");
  save_snapshot(v3(), path);
  {
    MappedSnapshot mapped(path);
    expect_identical(want, run_families(mapped.view()), "v2 vs v3-mmap");
  }
  std::filesystem::remove(path);
}

TEST_F(SnapshotEquivalence, ScanAndLookupSurfacesAgree) {
  const SnapshotView flat(v2().bytes());
  const SnapshotView compressed(v3().bytes());
  for (graph::NodeId u = 0; u < flat.node_count(); ++u) {
    ASSERT_EQ(compressed.out_degree(u), flat.out_degree(u)) << u;
    ASSERT_EQ(compressed.in_degree(u), flat.in_degree(u)) << u;
    ASSERT_EQ(compressed.reciprocal_out_degree(u),
              flat.reciprocal_out_degree(u))
        << u;
    NeighborScan scan = compressed.out_scan(u);
    const auto want = flat.out_neighbors(u);
    ASSERT_EQ(scan.size(), want.size()) << u;
    graph::NodeId got = 0;
    for (const graph::NodeId w : want) {
      ASSERT_TRUE(scan.next(got)) << u;
      ASSERT_EQ(got, w) << u;
      ASSERT_TRUE(compressed.has_out_edge(u, w)) << u << "->" << w;
    }
  }
}

TEST_F(SnapshotEquivalence, TriadCensusIdenticalAcrossFormatsAndKernels) {
  // The exact census must not care where the adjacency lives: in-RAM
  // CSR, flat v2, compressed v3 or the same v3 bytes off mmap — and must
  // not care which intersection kernel enumerates the triangles.
  const algo::TriadCensus want = algo::triad_census(dataset().graph());
  ASSERT_GT(want.closed(), 0u);

  const SnapshotView flat(v2().bytes());
  EXPECT_EQ(algo::triad_census_of_view(flat), want) << "v2 flat";
  const SnapshotView compressed(v3().bytes());
  EXPECT_EQ(algo::triad_census_of_view(compressed), want) << "v3 compressed";

  const auto path = scratch("gplus_equiv_census");
  save_snapshot(v3(), path);
  {
    MappedSnapshot mapped(path);
    EXPECT_EQ(algo::triad_census_of_view(mapped.view()), want) << "v3 mmap";
    for (std::size_t k = 0; k < algo::kIntersectKernelCount; ++k) {
      const auto kernel = static_cast<algo::IntersectKernel>(k);
      algo::set_default_intersect_kernel(kernel);
      const algo::TriadCensus got = algo::triad_census_of_view(mapped.view());
      algo::set_default_intersect_kernel(algo::IntersectKernel::kAuto);
      EXPECT_EQ(got, want) << "kernel "
                           << algo::intersect_kernel_name(kernel);
    }
  }
  std::filesystem::remove(path);
}

TEST_F(SnapshotEquivalence, SampledCensusIdenticalAcrossFormats) {
  // The wedge sampler's probes run through each format's own edge lookup
  // (binary search on v2, block-skip varint decode on v3): identical
  // estimates prove the compressed membership path end to end.
  algo::TriadSampleConfig config;
  config.samples = 20'000;
  config.seed = 13;
  const algo::SampledTriadCensus want =
      algo::sample_triad_census(dataset().graph(), config);
  ASSERT_GT(want.total_wedges, 0u);

  const auto check = [&](const SnapshotView& view, const char* label) {
    const algo::SampledTriadCensus got =
        algo::sample_triad_census_of_view(view, config);
    EXPECT_EQ(got.total_wedges, want.total_wedges) << label;
    EXPECT_EQ(got.closed_fraction, want.closed_fraction) << label;
    for (std::size_t k = 0; k < algo::kTriadClassCount; ++k) {
      EXPECT_EQ(got.estimated_counts[k], want.estimated_counts[k])
          << label << " class " << k;
    }
  };
  const SnapshotView flat(v2().bytes());
  check(flat, "v2 flat");
  const SnapshotView compressed(v3().bytes());
  check(compressed, "v3 compressed");

  const auto path = scratch("gplus_equiv_census_sampled");
  save_snapshot(v3(), path);
  {
    MappedSnapshot mapped(path);
    check(mapped.view(), "v3 mmap");
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gplus::serve
