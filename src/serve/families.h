// The multi-row request families, written once over a row source
// (serve/row_source.h) and run by both servers (DESIGN.md §13–14):
// ShortestPath and TopK, defined here, and Suggest, defined in
// suggest.cpp.
//
// ShortestPath and TopK live in a header, so each server compiles its own
// copy in the unit that calls it: RequestEngine's single-view copy in
// engine.cpp, ClusterServer's owner-shard copy in cluster.cpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "serve/engine.h"
#include "serve/node_map.h"
#include "serve/wire.h"

namespace gplus::serve {

/// The TopK order: in-degree descending, ties by ascending id.
inline bool ranks_before(const RankedNode& a, const RankedNode& b) noexcept {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

/// Per-thread ShortestPath scratch, reused by every path request the
/// thread runs. `settled` holds each settled node's depth from the user
/// (index 0) and from the target (index 1), kPathUnreachable where that
/// side has not reached it; its entries are the request's settled nodes,
/// at most `path_node_budget`, and so are the frontiers'.
struct PathScratch {
  using Depths = std::array<std::uint32_t, 2>;
  static constexpr Depths kUnsettled{kPathUnreachable, kPathUnreachable};

  NodeMap<Depths> settled;
  std::vector<graph::NodeId> fwd_frontier;
  std::vector<graph::NodeId> bwd_frontier;
  std::vector<graph::NodeId> next;
};

/// This thread's path scratch (one per thread, shared by both servers'
/// instantiations).
inline PathScratch& path_scratch() {
  thread_local PathScratch scratch;
  return scratch;
}

// Payload: distance u32 (kPathUnreachable when no path within bounds),
// expanded u64 (nodes settled — deterministic, part of the wire contract).
//
// Bidirectional BFS: a forward frontier over out-edges from the user and a
// backward frontier over in-edges from the target, always expanding the
// smaller side. Frontiers expand level-synchronously in sorted adjacency
// order, so the expansion count (and thus the payload) is thread-count
// independent. Each level is one row-source phase: in the cluster, every
// frontier node's rows come from its owner shard (the frontier exchange).
// A blocked owner's frontier nodes are skipped; the answer keeps its
// status but carries the blocked bits and the partial flag.
template <typename Rows>
void shortest_path(Rows& rows, const EngineConfig& config,
                   const Request& request, Response& r,
                   RequestEngine::Meter& meter) {
  const graph::NodeId u = request.user;
  const graph::NodeId v = request.target;
  if (u == v) {
    meter.charge(1);
    put_u32(r.payload, 0);
    put_u64(r.payload, 1);
    return;
  }
  // Both sides' depths live in one per-thread table: a scanned neighbor
  // costs one probe, which also finds the other side's depth.
  PathScratch& scratch = path_scratch();
  NodeMap<PathScratch::Depths>& settled = scratch.settled;
  settled.reset();
  settled.try_emplace(u, {0, kPathUnreachable});
  settled.try_emplace(v, {kPathUnreachable, 0});
  std::vector<graph::NodeId>& fwd_frontier = scratch.fwd_frontier;
  std::vector<graph::NodeId>& bwd_frontier = scratch.bwd_frontier;
  std::vector<graph::NodeId>& next = scratch.next;
  fwd_frontier.assign(1, u);
  bwd_frontier.assign(1, v);
  std::uint32_t fwd_depth = 0;
  std::uint32_t bwd_depth = 0;
  std::uint64_t expanded = 2;
  std::uint32_t best = kPathUnreachable;
  std::uint32_t level = 0;
  std::uint8_t degrade = 0;  // blocked-shard flag bits encountered
  // 1 cost unit per node settled (the two roots, then each discovery).
  // Deadline exhaustion aborts the expansion exactly like the node budget,
  // reporting best-so-far distance — but flagged partial.
  bool deadline = !meter.charge(2);

  while (!deadline && !fwd_frontier.empty() && !bwd_frontier.empty() &&
         fwd_depth + bwd_depth < config.path_max_hops &&
         expanded < config.path_node_budget) {
    const bool forward = fwd_frontier.size() <= bwd_frontier.size();
    auto& frontier = forward ? fwd_frontier : bwd_frontier;
    const std::size_t mine = forward ? 0 : 1;
    const std::uint32_t depth = (forward ? fwd_depth : bwd_depth) + 1;
    rows.begin_level(++level);
    next.clear();
    for (const graph::NodeId x : frontier) {
      if (const std::uint8_t b = rows.blocked(x); b != 0) {
        degrade |= b;
        continue;
      }
      rows.touch(x);
      const SnapshotView& view = rows.at(x);
      NeighborScan neighbors = forward ? view.out_scan(x) : view.in_scan(x);
      graph::NodeId y = 0;
      while (neighbors.next(y)) {
        PathScratch::Depths& depths =
            *settled.try_emplace(y, PathScratch::kUnsettled).first;
        if (depths[mine] != kPathUnreachable) continue;
        depths[mine] = depth;
        ++expanded;
        if (!meter.charge(1)) deadline = true;
        if (const std::uint32_t theirs = depths[mine ^ 1];
            theirs != kPathUnreachable) {
          best = std::min(best, depth + theirs);
        }
        next.push_back(y);
        if (deadline || expanded >= config.path_node_budget) break;
      }
      if (deadline || expanded >= config.path_node_budget) break;
    }
    rows.end_phase();
    frontier.swap(next);
    (forward ? fwd_depth : bwd_depth) = depth;
    // A meeting at this level is optimal once both frontiers completed
    // the levels that could still shorten it.
    if (best != kPathUnreachable && best <= fwd_depth + bwd_depth) break;
  }
  if (deadline) {
    r.status = ServeStatus::kDeadlineExceeded;
    r.flags |= kResponsePartial;
  }
  if (degrade != 0) r.flags |= degrade | kResponsePartial;
  put_u32(r.payload, best);
  put_u64(r.payload, expanded);
}

// Payload: count u32, count × (node u32, in_degree u64).
//
// A K-way merge of the per-shard lists (one list on the engine): one
// message per reachable shard, then 1 cost unit per entry emitted. Blocked
// shards drop out of the merge — fewer candidates, flagged with their
// blocked bits and partial.
template <typename Rows>
void top_k(Rows& rows, const EngineConfig& config, const TopKTable& table,
           const Request& request, Response& r, RequestEngine::Meter& meter) {
  const std::uint32_t k = request.limit == 0 ? config.topk_cap : request.limit;
  if (k > config.topk_cap) {
    r.status = ServeStatus::kInvalidRequest;
    return;
  }
  std::uint8_t degrade = 0;
  std::uint64_t candidates = 0;
  std::vector<std::span<const RankedNode>> heads(table.lists.size());
  for (std::size_t s = 0; s < heads.size(); ++s) {
    if (const std::uint8_t b = rows.shard_blocked(s); b != 0) {
      degrade |= b;
      continue;
    }
    rows.touch_shard(s);
    heads[s] = table.lists[s];
    candidates += heads[s].size();
  }
  rows.end_phase();
  const auto count =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(k, candidates));
  put_u32(r.payload, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!meter.charge(1)) {
      r.status = ServeStatus::kDeadlineExceeded;
      r.flags |= kResponsePartial;
      patch_u32(r.payload, 0, i);
      break;
    }
    // The strongest head (degree desc, id asc) among the reachable shards.
    std::span<const RankedNode>* best = nullptr;
    for (auto& head : heads) {
      if (!head.empty() &&
          (best == nullptr || ranks_before(head.front(), best->front()))) {
        best = &head;
      }
    }
    put_u32(r.payload, best->front().first);
    put_u64(r.payload, best->front().second);
    *best = best->subspan(1);
  }
  if (degrade != 0) r.flags |= degrade | kResponsePartial;
}

/// Friend-of-friend suggestions (serve/suggest.h), instantiated in
/// suggest.cpp for both row sources.
template <typename Rows>
void suggest(Rows& rows, const EngineConfig& config,
             std::uint64_t max_in_degree, const Request& request,
             Response& response, RequestEngine::Meter& meter);

}  // namespace gplus::serve
