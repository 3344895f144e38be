// Tests of the benchmark's own reference code and checks: the references
// on graphs small enough to work out by hand, and the serving checks
// catching corrupted answers, so a passing benchmark run cannot be vacuous.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "checks.h"
#include "core/dataset.h"
#include "measure.h"
#include "reference.h"
#include "serve/engine.h"
#include "serve/snapshot.h"

namespace perfbench {
namespace {

using gplus::graph::Edge;
namespace serve = gplus::serve;

ref::DiGraph graph_of(ref::NodeId n, std::vector<Edge> edges) {
  return ref::DiGraph::from_edges(n, edges);
}

std::uint64_t pack(ref::NodeId a, ref::NodeId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

TEST(Reference, BfsDistancesOnAPath) {
  // 0 -> 1 -> 2 -> 3 plus the shortcut 0 -> 2; 4 is unreachable.
  const auto g = graph_of(5, {{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  const std::vector<ref::NodeId> targets{0, 1, 2, 3, 4};
  EXPECT_EQ(ref::bfs_distances(g, 0, targets, 10),
            (std::vector<std::uint32_t>{0, 1, 1, 2, ref::kUnreachable}));
  // A depth cap of 1 hides node 3 (two hops away).
  EXPECT_EQ(ref::bfs_distances(g, 0, targets, 1)[3], ref::kUnreachable);
  // Edges are directed: nothing leads back to 0.
  EXPECT_EQ(ref::bfs_distances(g, 3, targets, 10)[0], ref::kUnreachable);
}

TEST(Reference, SuggestByHand) {
  // u = 0 follows 1 and 2; 1 -> {3, 4}, 2 -> {0, 3}.
  const auto g = graph_of(5, {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 0}, {2, 3}});
  const auto answer = ref::suggest(g, 0, 10, {}, ref::max_in_degree(g));
  // Every 2-hop edge is scanned, 0 itself included; 3 is reached twice.
  EXPECT_EQ(answer.scanned, 4U);
  EXPECT_EQ(answer.candidates, 2U);
  ASSERT_EQ(answer.entries.size(), 2U);
  // deg(1) = deg(2) = 3 (out 2 + in 1), so each shared friend adds 1/ln 3.
  const auto aa = [](double terms) {
    return static_cast<std::uint64_t>(std::llround(terms / std::log(3.0) * 1e6));
  };
  EXPECT_EQ(answer.entries[0].node, 3U);
  EXPECT_EQ(answer.entries[0].common, 2U);
  EXPECT_EQ(answer.entries[0].aa_micro, aa(2.0));
  EXPECT_EQ(answer.entries[1].node, 4U);
  EXPECT_EQ(answer.entries[1].common, 1U);
  EXPECT_EQ(answer.entries[1].aa_micro, aa(1.0));
  // Neither candidate follows anyone 0 follows.
  EXPECT_EQ(answer.entries[0].mutual, 0U);

  // An expand budget of one edge stops after 1 -> 3.
  ref::SuggestCaps tight;
  tight.expand_budget = 1;
  const auto capped = ref::suggest(g, 0, 10, tight, ref::max_in_degree(g));
  EXPECT_EQ(capped.scanned, 1U);
  ASSERT_EQ(capped.entries.size(), 1U);
  EXPECT_EQ(capped.entries[0].node, 3U);
}

TEST(Reference, ReciprocationScoreBounds) {
  // No mutual friends, balanced degrees, no hub: 0.30 + 0.15.
  EXPECT_EQ(ref::reciprocation_milli(0, 0, 0, 10), 450U);
  // Saturated mutual evidence of a hub at the maximum in-degree.
  EXPECT_EQ(ref::reciprocation_milli(4, 10, 10, 10), 575U);
}

TEST(Reference, EdgeListsDegreesAndScc) {
  // Cycle 0 -> 1 -> 2 -> 0, then 2 -> 3, 3 <-> 4; 5 is isolated. A
  // duplicate edge and a self-loop must both disappear.
  std::vector<std::uint64_t> edges{pack(0, 1), pack(1, 2), pack(2, 0), pack(2, 3),
                                   pack(3, 4), pack(4, 3), pack(0, 1), pack(5, 5)};
  ref::sort_unique_edges(edges);
  EXPECT_EQ(edges.size(), 6U);
  EXPECT_EQ(ref::scc_sizes(6, edges), (std::vector<std::uint64_t>{3, 2, 1}));
  // Out-degrees 1,1,2,1,1,0 -> {0:1, 1:4, 2:1}.
  EXPECT_EQ(ref::out_degree_hist(6, edges),
            (ref::DegreeHist{{0, 1}, {1, 4}, {2, 1}}));
  // In-degrees 1,1,1,2,1,0.
  EXPECT_EQ(ref::in_degree_hist(6, edges),
            (ref::DegreeHist{{0, 1}, {1, 4}, {2, 1}}));
}

TEST(Reference, ClosureAndMeanDistance) {
  // Triangle 0-1-2 (one arc each way counts once) plus the pendant 2-3.
  const std::vector<std::uint64_t> edges{pack(0, 1), pack(1, 0), pack(1, 2),
                                         pack(2, 0), pack(2, 3)};
  const auto adj = ref::union_adjacency(4, edges);
  const auto closure = ref::exact_closure(adj);
  // Degrees 2, 2, 3, 1: wedges 1 + 1 + 3 + 0.
  EXPECT_EQ(closure.wedges, 5U);
  EXPECT_EQ(closure.triangles, 1U);
  EXPECT_DOUBLE_EQ(closure.closure(), 0.6);
  // From 3: 2 at one hop, 0 and 1 at two hops.
  const std::vector<ref::NodeId> sources{3};
  EXPECT_DOUBLE_EQ(ref::sampled_mean_distance(adj, sources), 5.0 / 3.0);
}

TEST(ResultLine, AnyFailedOperationMakesTheRunIncorrect) {
  RunResult r;
  r.attempted = 10;
  r.add("setup_s", 1.5, "s");
  EXPECT_NE(result_json(r).find("\"correct\": true"), std::string::npos);
  r.failed = 1;
  EXPECT_NE(result_json(r).find("\"correct\": false"), std::string::npos);
  // A run that attempted nothing checked nothing.
  r.failed = 0;
  r.attempted = 0;
  EXPECT_NE(result_json(r).find("\"correct\": false"), std::string::npos);
}

// A small real dataset served by the engine: the checks must pass every
// honest answer and fail every corrupted one.
class ServingChecks : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<gplus::core::Dataset>(
        gplus::core::make_standard_dataset(2000, 7));
    serve::SnapshotOptions options;
    options.version = serve::kSnapshotVersion3;
    buffer_ = serve::build_snapshot(*dataset_, options);
    view_ = std::make_unique<serve::SnapshotView>(buffer_.bytes());
    engine_ = std::make_unique<serve::RequestEngine>(view_.get());
    const auto& g = dataset_->graph();
    // The most-followed user and a few others, every family.
    ref::NodeId hub = 0;
    for (ref::NodeId u = 0; u < g.node_count(); ++u) {
      if (g.in_degree(u) > g.in_degree(hub)) hub = u;
    }
    for (const ref::NodeId u : {hub, ref::NodeId{1}, ref::NodeId{17}}) {
      for (std::size_t t = 0; t < serve::kRequestTypeCount; ++t) {
        Request q;
        q.type = static_cast<serve::RequestType>(t);
        q.user = u;
        q.target = hub == u ? 5 : hub;
        q.limit = t == static_cast<std::size_t>(serve::RequestType::kSuggest) ? 10 : 20;
        requests_.push_back(q);
      }
    }
    for (const Request& q : requests_) {
      Response r;
      engine_->execute(q, r);
      responses_.push_back(r);
    }
    oracle_ = std::make_unique<ServeOracle>(g, dataset_->profiles, engine_->config());
  }

  std::uint64_t failed(const std::vector<Response>& responses) const {
    return oracle_->verify(requests_, responses, nullptr);
  }

  std::unique_ptr<gplus::core::Dataset> dataset_;
  serve::SnapshotBuffer buffer_;
  std::unique_ptr<serve::SnapshotView> view_;
  std::unique_ptr<serve::RequestEngine> engine_;
  std::unique_ptr<ServeOracle> oracle_;
  std::vector<Request> requests_;
  std::vector<Response> responses_;
};

TEST_F(ServingChecks, HonestAnswersPass) {
  std::string why;
  EXPECT_EQ(oracle_->verify(requests_, responses_, &why), 0U) << why;
}

TEST_F(ServingChecks, EveryCorruptedPayloadByteFails) {
  std::size_t flips = 0;
  for (std::size_t i = 0; i < responses_.size(); ++i) {
    for (std::size_t b = 0; b < responses_[i].payload.size(); ++b) {
      auto corrupted = responses_;
      corrupted[i].payload[b] ^= 0x01;
      EXPECT_EQ(failed(corrupted), 1U) << "request " << i << " byte " << b;
      ++flips;
    }
  }
  EXPECT_GT(flips, 500U);
}

TEST_F(ServingChecks, TruncatedOrExtendedPayloadFails) {
  for (std::size_t i = 0; i < responses_.size(); ++i) {
    auto longer = responses_;
    longer[i].payload.push_back(0);
    EXPECT_EQ(failed(longer), 1U) << "request " << i;
    if (responses_[i].payload.empty()) continue;
    auto shorter = responses_;
    shorter[i].payload.pop_back();
    EXPECT_EQ(failed(shorter), 1U) << "request " << i;
  }
}

TEST_F(ServingChecks, OffByOnePathDistanceFails) {
  std::size_t paths = 0;
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    if (requests_[i].type != serve::RequestType::kShortestPath) continue;
    for (const int delta : {-1, +1}) {
      auto wrong = responses_;
      auto& p = wrong[i].payload;
      std::uint32_t d = p[0] | (p[1] << 8) | (p[2] << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
      d += static_cast<std::uint32_t>(delta);
      for (int k = 0; k < 4; ++k) p[k] = static_cast<std::uint8_t>(d >> (8 * k));
      EXPECT_EQ(failed(wrong), 1U) << "request " << i << " delta " << delta;
    }
    ++paths;
  }
  EXPECT_EQ(paths, 3U);
}

TEST_F(ServingChecks, NonOkOrFlaggedAnswersFail) {
  auto status = responses_;
  status[0].status = serve::ServeStatus::kDeadlineExceeded;
  EXPECT_EQ(failed(status), 1U);
  auto flagged = responses_;
  flagged[1].flags = serve::kResponseQuorumPartial;
  EXPECT_EQ(failed(flagged), 1U);
}

TEST_F(ServingChecks, VerifyMarksEachFailedAnswer) {
  auto corrupted = responses_;
  corrupted[2].payload.back() ^= 0x01;
  corrupted[5].status = serve::ServeStatus::kDeadlineExceeded;
  std::vector<std::uint8_t> bad;
  EXPECT_EQ(oracle_->verify(requests_, corrupted, nullptr, &bad), 2U);
  ASSERT_EQ(bad.size(), requests_.size());
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(bad[i], i == 2 || i == 5 ? 1 : 0) << "request " << i;
  }
}

// A drain's answers are compared with a replay's through one fold of
// their digests: a changed byte or a changed order must change it.
TEST_F(ServingChecks, DrainDigestCatchesCorruptionAndReordering) {
  const auto fold = [](const std::vector<Response>& answers) {
    std::uint64_t h = kFoldSeed;
    for (const Response& r : answers) h = fold_digest(h, answer_digest(r));
    return h;
  };
  const std::uint64_t honest = fold(responses_);
  for (std::size_t i = 0; i < responses_.size(); ++i) {
    if (responses_[i].payload.empty()) continue;
    auto corrupted = responses_;
    corrupted[i].payload.front() ^= 0x01;
    EXPECT_NE(fold(corrupted), honest) << "request " << i;
  }
  auto swapped = responses_;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(fold(swapped), honest);
}

TEST_F(ServingChecks, RepeatedRequestMustRepeatItsAnswer) {
  // The second copy of a request is checked by equality with the first.
  requests_.push_back(requests_[0]);
  auto responses = responses_;
  responses.push_back(responses_[0]);
  EXPECT_EQ(failed(responses), 0U);
  responses.back().payload.back() ^= 0x80;
  EXPECT_EQ(failed(responses), 1U);
}

}  // namespace
}  // namespace perfbench
