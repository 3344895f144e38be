// Kernel-variant equivalence for the shared sorted-set intersection layer
// (algo/intersect.h). The load-bearing property: every kernel — scalar,
// galloping, SSE, AVX2 — returns the same count and the same
// ascending element sequence as std::set_intersection on every input, so
// variant dispatch can never change a serving payload. Edge cases (empty,
// disjoint, identical, subset, extreme skew) are pinned
// explicitly; a seeded fuzz sweep covers the space in between.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/intersect.h"
#include "stats/rng.h"

namespace {

using gplus::algo::IntersectKernel;
using gplus::graph::NodeId;

// Every concrete variant (kAuto exercised separately — it resolves to one
// of these, so equivalence of the concrete set covers it).
const IntersectKernel kAllKernels[] = {
    IntersectKernel::kScalar,
    IntersectKernel::kGalloping,
    IntersectKernel::kSse,
    IntersectKernel::kAvx2,
};

std::vector<NodeId> reference_intersection(const std::vector<NodeId>& a,
                                           const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// Asserts the full contract for one input pair: count and elements match
// the reference for every kernel, both directions, plus kAuto.
void expect_all_kernels_match(const std::vector<NodeId>& a,
                              const std::vector<NodeId>& b,
                              const std::string& label) {
  const std::vector<NodeId> want = reference_intersection(a, b);
  std::vector<NodeId> got;
  for (const IntersectKernel kernel : kAllKernels) {
    const auto name = std::string(gplus::algo::intersect_kernel_name(kernel));
    EXPECT_EQ(gplus::algo::intersect_count(a, b, kernel), want.size())
        << label << ": count(" << name << ")";
    EXPECT_EQ(gplus::algo::intersect_count(b, a, kernel), want.size())
        << label << ": reversed count(" << name << ")";
    EXPECT_EQ(gplus::algo::intersect(a, b, got, kernel), want.size())
        << label << ": intersect(" << name << ")";
    EXPECT_EQ(got, want) << label << ": elements(" << name << ")";
    EXPECT_EQ(gplus::algo::intersect(b, a, got, kernel), want.size())
        << label << ": reversed intersect(" << name << ")";
    EXPECT_EQ(got, want) << label << ": reversed elements(" << name << ")";
  }
  EXPECT_EQ(gplus::algo::intersect_count(a, b), want.size())
      << label << ": count(auto)";
  EXPECT_EQ(gplus::algo::intersect(a, b, got), want.size())
      << label << ": intersect(auto)";
  EXPECT_EQ(got, want) << label << ": elements(auto)";
}

// Ascending duplicate-free list of `count` draws from [0, universe).
std::vector<NodeId> random_sorted(gplus::stats::Rng& rng, std::size_t count,
                                  std::uint64_t universe) {
  std::vector<NodeId> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(static_cast<NodeId>(rng.next_below(universe)));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

TEST(IntersectKernels, EmptyInputs) {
  expect_all_kernels_match({}, {}, "both empty");
  expect_all_kernels_match({}, {1, 2, 3}, "left empty");
  expect_all_kernels_match({7}, {}, "right empty");
}

TEST(IntersectKernels, DisjointLists) {
  expect_all_kernels_match({1, 3, 5, 7}, {2, 4, 6, 8}, "interleaved disjoint");
  expect_all_kernels_match({1, 2, 3, 4}, {100, 200, 300}, "range disjoint");
  // Disjoint across distant value ranges.
  expect_all_kernels_match({1, 2, 3}, {40'960, 81'920, 123'456},
                           "window disjoint");
}

TEST(IntersectKernels, IdenticalLists) {
  const std::vector<NodeId> v{0, 1, 5, 9, 4096, 4097, 1'000'000};
  expect_all_kernels_match(v, v, "identical");
}

TEST(IntersectKernels, SubsetLists) {
  expect_all_kernels_match({2, 4, 6}, {1, 2, 3, 4, 5, 6, 7}, "strict subset");
  expect_all_kernels_match({0}, {0, 1, 2, 3, 4, 5, 6, 7, 8}, "singleton");
}

TEST(IntersectKernels, SingleElementAndBoundaryValues) {
  const NodeId max = std::numeric_limits<NodeId>::max();
  expect_all_kernels_match({0, max}, {max}, "max id");
  expect_all_kernels_match({0}, {0}, "zero only");
  expect_all_kernels_match({max - 1}, {max}, "adjacent near max");
}

TEST(IntersectKernels, ExtremeSkew) {
  // One tiny list against one long dense list — galloping's home turf and
  // the SIMD tail-handling stress case.
  std::vector<NodeId> big(5000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<NodeId>(3 * i);
  }
  expect_all_kernels_match({0, 7'500, 14'997}, big, "tiny vs dense");
  expect_all_kernels_match({big.back()}, big, "last element only");
  expect_all_kernels_match({big.back() + 1}, big, "past the end");
}

TEST(IntersectKernels, RandomizedFuzz) {
  gplus::stats::Rng rng(20'260'808);
  for (int round = 0; round < 200; ++round) {
    // Sizes and universes swept across skew regimes, including empties.
    const std::size_t len_a = rng.next_below(300);
    const std::size_t len_b = rng.next_below(300) * (rng.next_below(8) + 1);
    const std::uint64_t universe = 1 + rng.next_below(20'000);
    const auto a = random_sorted(rng, len_a, universe);
    const auto b = random_sorted(rng, len_b, universe);
    expect_all_kernels_match(a, b, "fuzz round " + std::to_string(round));
    if (HasFailure()) break;  // one diagnostic is enough
  }
}

TEST(IntersectKernels, OutputVectorIsClearedAndRefilled) {
  const std::vector<NodeId> a{1, 2, 3};
  const std::vector<NodeId> b{2, 3, 4};
  const std::vector<NodeId> lone{1};
  const std::vector<NodeId> other{2};
  std::vector<NodeId> out{99, 98, 97};
  EXPECT_EQ(gplus::algo::intersect(a, b, out), 2u);
  EXPECT_EQ(out, (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(gplus::algo::intersect(lone, other, out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectKernels, NamesRoundTrip) {
  using gplus::algo::intersect_kernel_by_name;
  using gplus::algo::intersect_kernel_name;
  for (const IntersectKernel kernel : kAllKernels) {
    EXPECT_EQ(intersect_kernel_by_name(intersect_kernel_name(kernel)), kernel);
  }
  EXPECT_EQ(intersect_kernel_by_name("auto"), IntersectKernel::kAuto);
  EXPECT_EQ(intersect_kernel_by_name("no-such-kernel"), IntersectKernel::kAuto);
  EXPECT_EQ(intersect_kernel_by_name(""), IntersectKernel::kAuto);
}

TEST(IntersectKernels, ProcessDefaultOverridesAuto) {
  // Every concrete default must leave kAuto results unchanged — that is
  // the whole point of the dispatch-invariance contract.
  gplus::stats::Rng rng(7);
  const auto a = random_sorted(rng, 200, 4'000);
  const auto b = random_sorted(rng, 60, 4'000);
  const auto want = reference_intersection(a, b);
  for (const IntersectKernel kernel : kAllKernels) {
    gplus::algo::set_default_intersect_kernel(kernel);
    EXPECT_EQ(gplus::algo::default_intersect_kernel(), kernel);
    std::vector<NodeId> got;
    EXPECT_EQ(gplus::algo::intersect(a, b, got), want.size());
    EXPECT_EQ(got, want);
  }
  gplus::algo::set_default_intersect_kernel(IntersectKernel::kAuto);
  EXPECT_EQ(gplus::algo::default_intersect_kernel(), IntersectKernel::kAuto);
}

TEST(IntersectKernels, AvailabilityImpliesSseWhenAvx2) {
  // The fallback ladder (avx2 -> sse -> scalar) requires SSE whenever
  // AVX2 reports available.
  if (gplus::algo::avx2_intersect_available()) {
    EXPECT_TRUE(gplus::algo::sse_intersect_available());
  }
}

TEST(IntersectKernels, SkewThresholdOverrideSteersAutoDispatch) {
  using gplus::algo::intersect_skew_threshold;
  using gplus::algo::set_intersect_skew_threshold;
  const std::size_t initial = intersect_skew_threshold();
  EXPECT_GE(initial, 2u);

  set_intersect_skew_threshold(7);
  EXPECT_EQ(intersect_skew_threshold(), 7u);

  // Dispatch stays result-invariant at any threshold — only speed moves.
  gplus::stats::Rng rng(11);
  const auto a = random_sorted(rng, 900, 50'000);
  const auto b = random_sorted(rng, 30, 50'000);
  const auto want = reference_intersection(a, b);
  for (const std::size_t ratio : {2u, 7u, 1'000'000u}) {
    set_intersect_skew_threshold(ratio);
    std::vector<NodeId> got;
    EXPECT_EQ(gplus::algo::intersect(a, b, got), want.size()) << ratio;
    EXPECT_EQ(got, want) << ratio;
  }

  set_intersect_skew_threshold(0);  // restore the env/default value
  EXPECT_EQ(intersect_skew_threshold(), initial);
}

TEST(IntersectEnv, StrictParsersAcceptValidInput) {
  using gplus::algo::intersect_kernel_from_env;
  using gplus::algo::parse_intersect_skew_env;
  EXPECT_EQ(intersect_kernel_from_env("auto"), IntersectKernel::kAuto);
  EXPECT_EQ(intersect_kernel_from_env("galloping"),
            IntersectKernel::kGalloping);
  EXPECT_EQ(intersect_kernel_from_env("avx2"), IntersectKernel::kAvx2);
  EXPECT_EQ(parse_intersect_skew_env("2"), 2u);
  EXPECT_EQ(parse_intersect_skew_env("32"), 32u);
  EXPECT_EQ(parse_intersect_skew_env("1000000"), 1'000'000u);
}

// Typo'd env overrides fail fast with a one-line diagnostic rather than
// silently benchmarking the wrong kernel (the old behaviour mapped any
// unknown GPLUS_INTERSECT name to kAuto).
TEST(IntersectEnvDeathTest, InvalidEnvValuesFailFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  using gplus::algo::intersect_kernel_from_env;
  using gplus::algo::parse_intersect_skew_env;
  const auto died = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(intersect_kernel_from_env("gallopping"), died,
              "invalid GPLUS_INTERSECT");
  EXPECT_EXIT(intersect_kernel_from_env("AVX2"), died,
              "invalid GPLUS_INTERSECT");
  EXPECT_EXIT(intersect_kernel_from_env(""), died, "invalid GPLUS_INTERSECT");
  EXPECT_EXIT(intersect_kernel_from_env("bitset"), died,
              "invalid GPLUS_INTERSECT");
  EXPECT_EXIT(parse_intersect_skew_env("1"), died,
              "invalid GPLUS_INTERSECT_SKEW");
  EXPECT_EXIT(parse_intersect_skew_env("1000001"), died,
              "invalid GPLUS_INTERSECT_SKEW");
  EXPECT_EXIT(parse_intersect_skew_env("32x"), died,
              "invalid GPLUS_INTERSECT_SKEW");
  EXPECT_EXIT(parse_intersect_skew_env("-8"), died,
              "invalid GPLUS_INTERSECT_SKEW");
}

TEST(IntersectKernels, MergeIntersectCountGeneric) {
  using gplus::algo::merge_intersect_count;
  const std::vector<std::string> a{"ann", "bob", "eve"};
  const std::vector<std::string> b{"bob", "carl", "eve", "zed"};
  EXPECT_EQ(merge_intersect_count<std::string>(a, b), 2u);
  EXPECT_EQ(merge_intersect_count<std::string>(a, {}), 0u);
  const std::vector<int> x{-5, 0, 3};
  const std::vector<int> y{-5, 3, 9};
  EXPECT_EQ(merge_intersect_count<int>(x, y), 2u);
}

}  // namespace
