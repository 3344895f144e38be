// NodeMap: the bounded per-thread scratch table behind the multi-row
// request families (DESIGN.md §13–14).
//
// ShortestPath's visited sets and Suggest's candidate accumulator each
// need a `NodeId -> value` map that lives for one request. A fresh
// `std::unordered_map` per request costs a heap node per insert (libstdc++
// allocates before it detects a duplicate) and a full teardown after.
// NodeMap is an open-addressing table with linear probing over a
// power-of-two array of slots. It never shrinks: capacity grows to the
// high-water mark of the requests one thread has run, and `reset()` clears
// only the slots the last request used (it keeps their indices), so a
// small request after a large one costs nothing extra to clear. The
// families keep one table per thread (`thread_local`); its footprint is
// bounded by the engine caps that bound the entries of one request
// (`path_node_budget`, `suggest_expand_budget`), never by the graph size.
//
// Lookups depend only on the keys present, never on capacity or on the
// probe sequence, so answers are identical whatever an earlier request
// left behind.
//
// The empty-slot sentinel is the largest NodeId. No key equals it: every
// key comes from a request's `user`/`target` (checked `< n` on entry) or
// from a NeighborScan, whose ids are `< n` as well — both snapshot
// builders reject an edge endpoint `>= n` ("edge endpoint out of range"
// in OutOfCoreSnapshotBuilder::add_edge; the in-memory build reads a
// DiGraph), and `SnapshotView::verify_sections()` fails closed on any
// changed adjacency byte before a server installs a snapshot. The
// families index per-node arrays with the same ids, so an id `>= n` would
// already be out of bounds there.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace gplus::serve {

template <typename V>
class NodeMap {
 public:
  /// Marks an empty slot; never a valid key (see the header note).
  static constexpr graph::NodeId kEmpty =
      std::numeric_limits<graph::NodeId>::max();

  NodeMap() { rehash(kMinCapacity); }

  /// Inserts (key, value) unless `key` is present. Returns the stored
  /// value (the old one when present) and whether it was inserted. The
  /// pointer stays valid until the next insert or reset.
  std::pair<V*, bool> try_emplace(graph::NodeId key, const V& value = V{}) {
    assert(key != kEmpty);
    std::size_t i = home(key);
    for (; slots_[i].key != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    // Load factor stays at or below 1/2, where linear probing stays short.
    if ((used_.size() + 1) * 2 > slots_.size()) {
      rehash(slots_.size() * 2);
      i = free_slot(key);
    }
    slots_[i] = Slot{key, value};
    used_.push_back(static_cast<std::uint32_t>(i));
    return {&slots_[i].value, true};
  }

  /// The value stored for `key`, or null.
  V* find(graph::NodeId key) noexcept {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }

  /// Empties the table in O(size()), keeping its capacity.
  void reset() noexcept {
    for (const std::uint32_t i : used_) slots_[i].key = kEmpty;
    used_.clear();
  }

  std::size_t size() const noexcept { return used_.size(); }
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  static constexpr std::size_t kMinCapacity = 64;

  struct Slot {
    graph::NodeId key = kEmpty;
    V value{};
  };

  std::size_t home(graph::NodeId key) const noexcept {
    // Fibonacci hashing: the top bits of key * 2^64/phi.
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  // The first empty slot on `key`'s probe path.
  std::size_t free_slot(graph::NodeId key) const noexcept {
    std::size_t i = home(key);
    while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
    return i;
  }

  void rehash(std::size_t capacity) {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(capacity));
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (std::uint32_t& at : used_) {
      const std::size_t i = free_slot(old[at].key);
      slots_[i] = old[at];
      at = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> used_;  // occupied slot indices
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace gplus::serve
