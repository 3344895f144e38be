// Reference computations the benchmark checks the program against.
//
// Everything here is deliberately naive and shares no code with the
// serving or snapshot layers: textbook BFS, brute-force 2-hop scoring,
// sort+unique edge lists, Kosaraju, exact wedge closure. The serving
// references mirror only the engine's documented caps (hop limit, node
// budget, suggest frontier cap and expand budget, circle cap).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.h"

namespace perfbench::ref {

using gplus::graph::DiGraph;
using gplus::graph::NodeId;

inline constexpr std::uint32_t kUnreachable = 0xFFFFFFFFU;

/// Textbook BFS over out-edges from `source`: the hop distance to each of
/// `targets` (kUnreachable when not reached within `max_depth` hops).
std::vector<std::uint32_t> bfs_distances(const DiGraph& g, NodeId source,
                                         std::span<const NodeId> targets,
                                         std::uint32_t max_depth);

/// The suggest caps the engine documents (EngineConfig / DESIGN.md §14).
struct SuggestCaps {
  std::uint32_t cap = 50;
  std::uint32_t frontier_cap = 256;
  std::uint64_t expand_budget = 65'536;
};

struct SuggestEntry {
  NodeId node = 0;
  std::uint32_t common = 0;
  std::uint32_t mutual = 0;
  std::uint32_t recip_milli = 0;
  std::uint64_t aa_micro = 0;
};

struct SuggestAnswer {
  std::uint32_t candidates = 0;
  std::uint64_t scanned = 0;
  std::vector<SuggestEntry> entries;
};

/// Brute-force friend-of-friend suggestion: common-neighbor and
/// Adamic-Adar counts over the first `frontier_cap` out-neighbors, ranked
/// (Adamic-Adar desc, common desc, id asc), with the reciprocation score
/// of DESIGN.md §14. `max_in_degree` is the graph's largest in-degree.
SuggestAnswer suggest(const DiGraph& g, NodeId u, std::uint32_t limit,
                      const SuggestCaps& caps, std::uint64_t max_in_degree);

/// Gong-style reciprocation likelihood in [0, 1000] (DESIGN.md §14).
std::uint32_t reciprocation_milli(std::uint64_t mutual, std::uint64_t in_w,
                                  std::uint64_t out_w, std::uint64_t max_in);

/// Number of u's out-neighbors v with v -> u.
std::uint64_t reciprocal_out_degree(const DiGraph& g, NodeId u);

/// Largest in-degree of the graph.
std::uint64_t max_in_degree(const DiGraph& g);

// ---- Pipeline references over a packed (src << 32 | dst) edge list. ----

/// Sorts, de-duplicates and drops self-loops.
void sort_unique_edges(std::vector<std::uint64_t>& edges);

/// (degree, node count) ascending, every node counted (degree 0 too).
using DegreeHist = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
DegreeHist out_degree_hist(std::size_t n, const std::vector<std::uint64_t>& edges);
DegreeHist in_degree_hist(std::size_t n, const std::vector<std::uint64_t>& edges);

/// Strongly connected component sizes (Kosaraju), descending.
std::vector<std::uint64_t> scc_sizes(std::size_t n,
                                     const std::vector<std::uint64_t>& edges);

/// Undirected union adjacency (sorted, self excluded), one row per node.
std::vector<std::vector<NodeId>> union_adjacency(
    std::size_t n, const std::vector<std::uint64_t>& edges);

/// Exact wedge closure of the union graph: 3·triangles / Σ C(d, 2).
struct Closure {
  std::uint64_t wedges = 0;
  std::uint64_t triangles = 0;
  double closure() const noexcept {
    return wedges == 0 ? 0.0
                       : 3.0 * static_cast<double>(triangles) /
                             static_cast<double>(wedges);
  }
};
Closure exact_closure(const std::vector<std::vector<NodeId>>& adjacency);

/// Mean hop distance over reachable pairs (distance >= 1) from the given
/// sources, by exact BFS over the union adjacency.
double sampled_mean_distance(const std::vector<std::vector<NodeId>>& adjacency,
                             std::span<const NodeId> sources);

}  // namespace perfbench::ref
