// NodeMap (serve/node_map.h) against std::unordered_map: randomized
// interleavings of insert, find and reset across several growths, the
// extreme keys, and reuse after reset at the table's high-water capacity.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "serve/node_map.h"
#include "stats/rng.h"

namespace gplus::serve {
namespace {

constexpr graph::NodeId kMaxKey = NodeMap<std::uint32_t>::kEmpty - 1;

// Every key the reference holds maps to the same value in the table, and
// the sizes agree (so the table holds nothing the reference does not).
void expect_same(NodeMap<std::uint64_t>& table,
                 const std::unordered_map<graph::NodeId, std::uint64_t>& want) {
  ASSERT_EQ(table.size(), want.size());
  for (const auto& [key, value] : want) {
    const std::uint64_t* got = table.find(key);
    ASSERT_NE(got, nullptr) << key;
    EXPECT_EQ(*got, value) << key;
  }
}

TEST(NodeMap, MatchesUnorderedMapUnderRandomInterleavings) {
  stats::Rng rng(2024);
  NodeMap<std::uint64_t> table;
  std::unordered_map<graph::NodeId, std::uint64_t> want;
  std::size_t growths = 0;
  std::size_t resets = 0;
  for (int step = 0; step < 400'000; ++step) {
    const std::uint64_t roll = rng.next_below(1000);
    // Keys from a small range (many repeats), a wide range, and the two
    // extremes.
    const graph::NodeId choices[] = {
        static_cast<graph::NodeId>(rng.next_below(5'000)),
        static_cast<graph::NodeId>(rng.next_below(kMaxKey)), 0, kMaxKey};
    const graph::NodeId key = choices[rng.next_below(4)];
    if (roll < 600) {
      const std::size_t capacity = table.capacity();
      const auto [value, inserted] = table.try_emplace(key, step);
      const auto [it, want_inserted] = want.try_emplace(key, step);
      ASSERT_EQ(inserted, want_inserted) << "step " << step;
      EXPECT_EQ(*value, it->second) << "step " << step;
      if (inserted && (step % 3) == 0) {
        *value += 7;  // the returned pointer writes through
        it->second += 7;
      }
      if (table.capacity() != capacity) ++growths;
    } else if (roll < 999) {
      const std::uint64_t* got = table.find(key);
      const auto it = want.find(key);
      ASSERT_EQ(got != nullptr, it != want.end()) << "step " << step;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second) << "step " << step;
      }
    } else {
      expect_same(table, want);
      const std::size_t capacity = table.capacity();
      table.reset();
      want.clear();
      ++resets;
      EXPECT_EQ(table.size(), 0u);
      EXPECT_EQ(table.capacity(), capacity) << "reset must keep capacity";
    }
  }
  expect_same(table, want);
  EXPECT_GE(growths, 5u);
  EXPECT_GE(resets, 100u);
}

TEST(NodeMap, ExtremeKeysAreOrdinaryKeys) {
  NodeMap<std::uint64_t> table;
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(kMaxKey), nullptr);
  EXPECT_TRUE(table.try_emplace(0, 11).second);
  EXPECT_TRUE(table.try_emplace(kMaxKey, 22).second);
  EXPECT_FALSE(table.try_emplace(0, 99).second);
  EXPECT_FALSE(table.try_emplace(kMaxKey, 99).second);
  ASSERT_NE(table.find(0), nullptr);
  ASSERT_NE(table.find(kMaxKey), nullptr);
  EXPECT_EQ(*table.find(0), 11u);
  EXPECT_EQ(*table.find(kMaxKey), 22u);
  EXPECT_EQ(table.size(), 2u);
  table.reset();
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(kMaxKey), nullptr);
}

TEST(NodeMap, ReuseAfterResetAtHighWaterCapacity) {
  NodeMap<std::uint64_t> table;
  std::unordered_map<graph::NodeId, std::uint64_t> want;
  stats::Rng rng(9);
  // Fill to exactly the load limit of some capacity, so the next request
  // runs in a table that is as large as it will get.
  for (graph::NodeId i = 0; i < 20'000; ++i) {
    const auto key = static_cast<graph::NodeId>(rng.next_below(kMaxKey));
    table.try_emplace(key, key);
    want.try_emplace(key, key);
  }
  while (table.size() * 2 < table.capacity()) {
    const auto key = static_cast<graph::NodeId>(rng.next_below(kMaxKey));
    table.try_emplace(key, key);
    want.try_emplace(key, key);
  }
  expect_same(table, want);
  const std::size_t high_water = table.capacity();
  for (int round = 0; round < 3; ++round) {
    std::vector<graph::NodeId> before;
    for (const auto& entry : want) before.push_back(entry.first);
    table.reset();
    want.clear();
    EXPECT_EQ(table.capacity(), high_water);
    // Nothing from before the reset is still found.
    for (const graph::NodeId key : before) {
      EXPECT_EQ(table.find(key), nullptr) << key;
    }
    // Refill to the same load limit: no growth, same answers.
    while (table.size() * 2 < high_water) {
      const auto key = static_cast<graph::NodeId>(rng.next_below(kMaxKey));
      const auto [value, inserted] = table.try_emplace(key, round);
      const auto [it, want_inserted] = want.try_emplace(key, round);
      ASSERT_EQ(inserted, want_inserted);
      EXPECT_EQ(*value, it->second);
    }
    expect_same(table, want);
    EXPECT_EQ(table.capacity(), high_water);
  }
  // One more key passes the load limit and doubles the table.
  graph::NodeId key = 0;
  while (table.find(key) != nullptr) ++key;
  table.try_emplace(key, 1);
  EXPECT_EQ(table.capacity(), 2 * high_water);
  want.try_emplace(key, 1);
  expect_same(table, want);
}

}  // namespace
}  // namespace gplus::serve
