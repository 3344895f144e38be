// Shared sorted-set intersection kernels (DESIGN.md §14).
//
// One contract, many engines: every kernel below consumes two ascending,
// duplicate-free id lists and produces the *same* count and the *same*
// ascending output elements. Variant choice is a pure performance decision
// — the serving payloads built on top (kSuggest, triangles, jaccard) are
// bit-identical no matter which kernel ran, which CPU features exist, or
// what GPLUS_THREADS is. That invariant is fuzzed in tests/test_intersect.
//
// Variants:
//   kScalar     textbook two-pointer merge — the reference everyone must
//               match, and the portable fallback.
//   kGalloping  iterate the shorter list, exponential+binary search the
//               longer; wins when the length ratio is large (a user's
//               small circle against a celebrity's million followers).
//   kSse        4-lane SSE2 block compare (all-pairs via lane rotation);
//               scalar fallback off x86-64.
//   kAvx2       8-lane AVX2 block compare, compiled with a per-function
//               target attribute (no global -mavx2) and dispatched off
//               __builtin_cpu_supports; falls back to kSse, then scalar.
//   kAuto       runtime heuristic (skew ratio, then widest SIMD available),
//               overridable process-wide for A/B runs via the
//               GPLUS_INTERSECT env var or set_default_intersect_kernel().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/types.h"

namespace gplus::algo {

/// Kernel selector. kAuto resolves at call time; the rest force a variant
/// (falling back down the SIMD ladder when the CPU lacks the feature).
enum class IntersectKernel : std::uint8_t {
  kAuto = 0,
  kScalar,
  kGalloping,
  kSse,
  kAvx2,
};
inline constexpr std::size_t kIntersectKernelCount = 5;

/// Display name ("auto", "scalar", "galloping", "sse", "avx2").
std::string_view intersect_kernel_name(IntersectKernel kernel) noexcept;

/// Parses a kernel name; returns kAuto for unknown strings.
IntersectKernel intersect_kernel_by_name(std::string_view name) noexcept;

/// Strict variant for environment input: an unknown name prints a
/// one-line diagnostic (listing the valid names) to stderr and exits
/// with status 2 instead of silently degrading to kAuto — a typo'd
/// GPLUS_INTERSECT must not quietly benchmark the wrong kernel.
IntersectKernel intersect_kernel_from_env(const char* raw);

/// True when the named SIMD tier will actually run vectorised on this
/// host (false means the variant silently falls back — still correct).
bool sse_intersect_available() noexcept;
bool avx2_intersect_available() noexcept;

/// Process-wide default used when kAuto is requested. Initialised once
/// from the GPLUS_INTERSECT env var (kernel name) if set, else kAuto
/// (= pure heuristic). Setting kAuto restores the heuristic. Thread-safe;
/// intended for benches and the variant-equivalence tests.
void set_default_intersect_kernel(IntersectKernel kernel) noexcept;
IntersectKernel default_intersect_kernel() noexcept;

/// kAuto's skew threshold: length ratios at or above it pick galloping.
/// Initialised once from the GPLUS_INTERSECT_SKEW env var (strictly
/// parsed — integer in [2, 1000000], else a one-line stderr diagnostic
/// and exit 2) when set, else 32. `set_intersect_skew_threshold(0)`
/// restores that initial value. Thread-safe; for benches and tests.
void set_intersect_skew_threshold(std::size_t ratio) noexcept;
std::size_t intersect_skew_threshold() noexcept;

/// Strict GPLUS_INTERSECT_SKEW parser (exposed for death tests).
std::size_t parse_intersect_skew_env(const char* raw);

/// |a ∩ b| for ascending duplicate-free lists.
std::size_t intersect_count(std::span<const graph::NodeId> a,
                            std::span<const graph::NodeId> b,
                            IntersectKernel kernel =
                                IntersectKernel::kAuto) noexcept;

/// a ∩ b (ascending) assigned into `out` (cleared first, capacity kept);
/// returns the element count. Same element sequence from every kernel.
std::size_t intersect(std::span<const graph::NodeId> a,
                      std::span<const graph::NodeId> b,
                      std::vector<graph::NodeId>& out,
                      IntersectKernel kernel = IntersectKernel::kAuto);

/// Generic scalar merge-intersection count for any ascending duplicate-free
/// sequences (strings, ints, ...). The u32 kernels above are the fast path;
/// this is the same algorithm for element types they cannot vectorise.
template <typename T>
std::size_t merge_intersect_count(std::span<const T> a, std::span<const T> b) {
  std::size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace gplus::algo
