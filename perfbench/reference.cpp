#include "reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

namespace perfbench::ref {

std::vector<std::uint32_t> bfs_distances(const DiGraph& g, NodeId source,
                                         std::span<const NodeId> targets,
                                         std::uint32_t max_depth) {
  std::vector<std::uint32_t> dist(g.node_count(), kUnreachable);
  std::set<NodeId> missing(targets.begin(), targets.end());
  std::vector<NodeId> queue{source};
  dist[source] = 0;
  missing.erase(source);
  for (std::size_t head = 0; head < queue.size() && !missing.empty(); ++head) {
    const NodeId x = queue[head];
    if (dist[x] >= max_depth) continue;
    for (const NodeId y : g.out_neighbors(x)) {
      if (dist[y] != kUnreachable) continue;
      dist[y] = dist[x] + 1;
      missing.erase(y);
      queue.push_back(y);
    }
  }
  std::vector<std::uint32_t> out;
  out.reserve(targets.size());
  for (const NodeId t : targets) out.push_back(dist[t]);
  return out;
}

std::uint32_t reciprocation_milli(std::uint64_t mutual, std::uint64_t in_w,
                                  std::uint64_t out_w, std::uint64_t max_in) {
  const double m = static_cast<double>(mutual);
  const double mutual_f = m / (m + 4.0);
  const double balance = std::min(
      1.0, static_cast<double>(out_w + 1) / static_cast<double>(in_w + 1));
  const double hub =
      max_in > 0 ? std::log2(1.0 + static_cast<double>(in_w)) /
                       std::log2(1.0 + static_cast<double>(max_in))
                 : 0.0;
  const double score = 0.55 * mutual_f + 0.30 * balance + 0.15 * (1.0 - hub);
  return static_cast<std::uint32_t>(std::llround(score * 1000.0));
}

SuggestAnswer suggest(const DiGraph& g, NodeId u, std::uint32_t limit,
                      const SuggestCaps& caps, std::uint64_t max_in_degree) {
  const auto friend_span = g.out_neighbors(u);
  const std::vector<NodeId> friends(friend_span.begin(), friend_span.end());
  const std::set<NodeId> friend_set(friends.begin(), friends.end());

  // Candidate w -> (common neighbors, Adamic-Adar sum), accumulated over
  // friends in ascending order and their rows in ascending order.
  std::map<NodeId, std::pair<std::uint32_t, double>> scores;
  SuggestAnswer answer;
  const std::size_t frontier =
      std::min<std::size_t>(friends.size(), caps.frontier_cap);
  for (std::size_t i = 0; i < frontier; ++i) {
    const NodeId v = friends[i];
    const std::uint64_t deg_v = g.out_degree(v) + g.in_degree(v);
    const double aa_term =
        1.0 / std::log(static_cast<double>(std::max<std::uint64_t>(deg_v, 2)));
    for (const NodeId w : g.out_neighbors(v)) {
      if (answer.scanned >= caps.expand_budget) break;
      ++answer.scanned;
      if (w == u || friend_set.count(w) != 0) continue;
      auto& cell = scores[w];
      cell.first += 1;
      cell.second += aa_term;
    }
    if (answer.scanned >= caps.expand_budget) break;
  }

  struct Ranked {
    NodeId node;
    std::uint32_t common;
    std::int64_t aa_micro;
  };
  std::vector<Ranked> ranked;
  for (const auto& [w, cell] : scores) {
    ranked.push_back({w, cell.first,
                      static_cast<std::int64_t>(std::llround(cell.second * 1e6))});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.aa_micro != b.aa_micro) return a.aa_micro > b.aa_micro;
    if (a.common != b.common) return a.common > b.common;
    return a.node < b.node;
  });

  answer.candidates = static_cast<std::uint32_t>(ranked.size());
  const std::uint32_t k = limit == 0 ? caps.cap : limit;
  const std::size_t count = std::min<std::size_t>(k, ranked.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Ranked& c = ranked[i];
    std::uint32_t mutual = 0;
    for (const NodeId x : g.out_neighbors(c.node)) {
      mutual += friend_set.count(x) != 0 ? 1 : 0;
    }
    SuggestEntry e;
    e.node = c.node;
    e.common = c.common;
    e.mutual = mutual;
    e.recip_milli = reciprocation_milli(mutual, g.in_degree(c.node),
                                        g.out_degree(c.node), max_in_degree);
    e.aa_micro = static_cast<std::uint64_t>(c.aa_micro);
    answer.entries.push_back(e);
  }
  return answer;
}

std::uint64_t reciprocal_out_degree(const DiGraph& g, NodeId u) {
  std::uint64_t count = 0;
  for (const NodeId v : g.out_neighbors(u)) {
    const auto back = g.out_neighbors(v);
    count += std::find(back.begin(), back.end(), u) != back.end() ? 1 : 0;
  }
  return count;
}

std::uint64_t max_in_degree(const DiGraph& g) {
  std::uint64_t best = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    best = std::max<std::uint64_t>(best, g.in_degree(u));
  }
  return best;
}

void sort_unique_edges(std::vector<std::uint64_t>& edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::erase_if(edges, [](std::uint64_t e) { return (e >> 32) == (e & 0xFFFFFFFFULL); });
}

namespace {

NodeId src_of(std::uint64_t e) { return static_cast<NodeId>(e >> 32); }
NodeId dst_of(std::uint64_t e) { return static_cast<NodeId>(e & 0xFFFFFFFFULL); }

DegreeHist hist_of(const std::vector<std::uint64_t>& degree) {
  std::map<std::uint64_t, std::uint64_t> counts;
  for (const std::uint64_t d : degree) ++counts[d];
  return DegreeHist(counts.begin(), counts.end());
}

// Compressed adjacency built from the edge list: offsets + targets.
struct Csr {
  std::vector<std::uint64_t> offsets;
  std::vector<NodeId> targets;
};

Csr csr_of(std::size_t n, const std::vector<std::uint64_t>& edges, bool reverse) {
  Csr csr;
  csr.offsets.assign(n + 1, 0);
  for (const std::uint64_t e : edges) ++csr.offsets[(reverse ? dst_of(e) : src_of(e)) + 1];
  for (std::size_t i = 0; i < n; ++i) csr.offsets[i + 1] += csr.offsets[i];
  csr.targets.resize(edges.size());
  std::vector<std::uint64_t> fill(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const std::uint64_t e : edges) {
    const NodeId a = reverse ? dst_of(e) : src_of(e);
    csr.targets[fill[a]++] = reverse ? src_of(e) : dst_of(e);
  }
  return csr;
}

}  // namespace

DegreeHist out_degree_hist(std::size_t n, const std::vector<std::uint64_t>& edges) {
  std::vector<std::uint64_t> degree(n, 0);
  for (const std::uint64_t e : edges) ++degree[src_of(e)];
  return hist_of(degree);
}

DegreeHist in_degree_hist(std::size_t n, const std::vector<std::uint64_t>& edges) {
  std::vector<std::uint64_t> degree(n, 0);
  for (const std::uint64_t e : edges) ++degree[dst_of(e)];
  return hist_of(degree);
}

std::vector<std::uint64_t> scc_sizes(std::size_t n,
                                     const std::vector<std::uint64_t>& edges) {
  const Csr fwd = csr_of(n, edges, false);
  const Csr rev = csr_of(n, edges, true);

  // Pass 1: finishing order of an iterative DFS over the forward graph.
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<std::pair<NodeId, std::uint64_t>> stack;
  for (NodeId root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = 1;
    stack.push_back({root, fwd.offsets[root]});
    while (!stack.empty()) {
      auto& [x, next] = stack.back();
      if (next < fwd.offsets[x + 1]) {
        const NodeId y = fwd.targets[next++];
        if (!seen[y]) {
          seen[y] = 1;
          stack.push_back({y, fwd.offsets[y]});
        }
      } else {
        order.push_back(x);
        stack.pop_back();
      }
    }
  }

  // Pass 2: reverse graph in decreasing finishing order; each tree is one
  // strongly connected component.
  std::vector<std::uint8_t> assigned(n, 0);
  std::vector<std::uint64_t> sizes;
  std::vector<NodeId> todo;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (assigned[*it]) continue;
    std::uint64_t size = 0;
    assigned[*it] = 1;
    todo.push_back(*it);
    while (!todo.empty()) {
      const NodeId x = todo.back();
      todo.pop_back();
      ++size;
      for (std::uint64_t i = rev.offsets[x]; i < rev.offsets[x + 1]; ++i) {
        const NodeId y = rev.targets[i];
        if (!assigned[y]) {
          assigned[y] = 1;
          todo.push_back(y);
        }
      }
    }
    sizes.push_back(size);
  }
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  return sizes;
}

std::vector<std::vector<NodeId>> union_adjacency(
    std::size_t n, const std::vector<std::uint64_t>& edges) {
  std::vector<std::vector<NodeId>> adj(n);
  for (const std::uint64_t e : edges) {
    if (src_of(e) == dst_of(e)) continue;
    adj[src_of(e)].push_back(dst_of(e));
    adj[dst_of(e)].push_back(src_of(e));
  }
  for (auto& row : adj) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return adj;
}

Closure exact_closure(const std::vector<std::vector<NodeId>>& adjacency) {
  const std::size_t n = adjacency.size();
  Closure result;
  // Orient every edge from lower to higher (degree, id) rank; each
  // triangle is then counted once, at its lowest-ranked corner.
  auto before = [&](NodeId a, NodeId b) {
    const auto da = adjacency[a].size();
    const auto db = adjacency[b].size();
    return da != db ? da < db : a < b;
  };
  std::vector<std::vector<NodeId>> higher(n);
  for (NodeId u = 0; u < n; ++u) {
    const std::uint64_t d = adjacency[u].size();
    result.wedges += d * (d - 1) / 2;  // 0 for d = 0 in unsigned arithmetic
    for (const NodeId v : adjacency[u]) {
      if (before(u, v)) higher[u].push_back(v);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : higher[u]) {
      const auto& a = higher[u];
      const auto& b = higher[v];
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
          ++i;
        } else if (b[j] < a[i]) {
          ++j;
        } else {
          ++result.triangles;
          ++i;
          ++j;
        }
      }
    }
  }
  return result;
}

double sampled_mean_distance(const std::vector<std::vector<NodeId>>& adjacency,
                             std::span<const NodeId> sources) {
  const std::size_t n = adjacency.size();
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::vector<NodeId> queue;
  double total = 0.0;
  double pairs = 0.0;
  for (const NodeId s : sources) {
    std::fill(dist.begin(), dist.end(), kUnreachable);
    queue.assign(1, s);
    dist[s] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId x = queue[head];
      for (const NodeId y : adjacency[x]) {
        if (dist[y] != kUnreachable) continue;
        dist[y] = dist[x] + 1;
        total += dist[y];
        pairs += 1.0;
        queue.push_back(y);
      }
    }
  }
  return pairs == 0.0 ? 0.0 : total / pairs;
}

}  // namespace perfbench::ref
