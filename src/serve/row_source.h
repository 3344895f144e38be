// Row sources: the one shape the multi-row request families read the
// graph through (DESIGN.md §13–14).
//
// ShortestPath, TopK and Suggest (serve/families.h) are each written
// once, templated over a row source. RequestEngine runs them over
// SingleSource — one view, always reachable, no accounting. ClusterServer
// runs them over ShardSource — every row read from its owner shard's
// view, owner shards that are dark or unreachable over the faulty
// transport degrading the answer, and one simulated inter-shard message
// per distinct owner shard per phase. Because the family code is shared,
// engine and cluster answers (status, flags, payload bytes and virtual
// cost) are identical by construction whenever every shard is reachable.
//
// A row source answers, per node or per shard:
//   blocked(u) / shard_blocked(s)  0 when readable, else the response-flag
//                                  bits its degradation surfaces
//   at(u)                          the view holding u's rows
//   touch(u) / touch_shard(s)      a read this phase (message accounting)
//   end_phase()                    closes a phase: one message per shard
//   begin_level(level)             a new BFS level: fresh transport probes
//   connect_all()                  eager probe of every shard, in order
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "serve/engine.h"
#include "serve/transport.h"

namespace gplus::serve {

/// The shard layout and per-drain shard state all three families read in
/// the cluster. A null `owner` means one shard owns every node (the
/// unsharded engine's top-k table).
struct ShardContext {
  const std::uint8_t* owner = nullptr;         // node id -> shard
  const SnapshotView* const* views = nullptr;  // one per shard
  std::size_t shard_count = 0;
  const std::uint8_t* dark = nullptr;          // per shard: no live replica
  const FaultyTransport* transport = nullptr;  // null = perfect network
};

/// Unsharded engine rows: one view, always reachable, nothing to account.
struct SingleSource {
  const SnapshotView* view;

  std::uint8_t blocked(graph::NodeId) const noexcept { return 0; }
  std::uint8_t shard_blocked(std::size_t) const noexcept { return 0; }
  const SnapshotView& at(graph::NodeId) const noexcept { return *view; }
  void touch(graph::NodeId) noexcept {}
  void touch_shard(std::size_t) noexcept {}
  void end_phase() noexcept {}
  void begin_level(std::uint32_t) noexcept {}
  void connect_all() noexcept {}
};

/// Cluster rows: each node's rows come from its owner shard. A dark shard
/// blocks with kResponseShardDark. Under the faulty transport the first
/// contact with a shard in each level rolls one RPC keyed on
/// (seq, level, shard) — so a retried exchange replays the same schedule
/// at any lane count — and an exhausted RPC blocks the shard for that
/// level with kResponseQuorumPartial. Rolled RPCs are appended to `rpcs`
/// in contact order for the coordinator to commit.
class ShardSource {
 public:
  ShardSource(const ShardContext& context, std::uint64_t seq,
              std::uint64_t& messages, std::vector<ShardRpc>& rpcs) noexcept
      : ctx_(&context), seq_(seq), messages_(&messages), rpcs_(&rpcs) {
    begin_level(0);
  }

  std::uint8_t shard_blocked(std::size_t shard) {
    std::uint8_t& state = state_[shard];
    if (state == kUnprobed) {
      state = 0;
      if (ctx_->dark[shard] != 0) {
        state = kResponseShardDark;
      } else if (ctx_->transport != nullptr) {
        const RpcOutcome rpc = ctx_->transport->probe_shard(
            FaultyTransport::rpc_key(seq_, level_, shard), shard);
        rpcs_->push_back({static_cast<std::uint16_t>(shard), rpc});
        if (!rpc.ok) state = kResponseQuorumPartial;
      }
    }
    return state;
  }
  std::uint8_t blocked(graph::NodeId u) {
    return shard_blocked(ctx_->owner[u]);
  }
  const SnapshotView& at(graph::NodeId u) const noexcept {
    return *ctx_->views[ctx_->owner[u]];
  }
  void touch(graph::NodeId u) noexcept { touch_shard(ctx_->owner[u]); }
  void touch_shard(std::size_t shard) noexcept {
    mask_[shard >> 6] |= std::uint64_t{1} << (shard & 63);
  }
  void end_phase() noexcept {
    for (std::uint64_t& word : mask_) {
      *messages_ += static_cast<std::uint64_t>(__builtin_popcountll(word));
      word = 0;
    }
  }
  void begin_level(std::uint32_t level) noexcept {
    level_ = level;
    std::fill_n(state_.begin(), ctx_->shard_count, kUnprobed);
  }
  void connect_all() {
    for (std::size_t s = 0; s < ctx_->shard_count; ++s) shard_blocked(s);
  }

 private:
  static constexpr std::uint8_t kUnprobed = 0xFF;

  const ShardContext* ctx_;
  std::uint64_t seq_;
  std::uint64_t* messages_;
  std::vector<ShardRpc>* rpcs_;
  std::uint32_t level_ = 0;
  std::array<std::uint64_t, 4> mask_{};    // 256 shards max
  std::array<std::uint8_t, 256> state_{};  // kUnprobed or blocked bits
};

/// One walk over every node, in the first view's degree-rank order
/// (sequential row access on compressed snapshots): each shard's
/// top-`cap` owned nodes by (in-degree desc, id asc) plus the global
/// maximum in-degree. The order is total, so the lists do not depend on
/// the visit order, and every node of the global top-`cap` is in its
/// owner's list — merging the lists recovers the unsharded ranking.
TopKTable select_top_k(const ShardContext& context, std::uint32_t cap);

}  // namespace gplus::serve
