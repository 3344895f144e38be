#include "checks.h"

#include <algorithm>
#include <map>
#include <tuple>

namespace perfbench {

namespace {

using gplus::serve::RequestType;
using gplus::serve::ServeStatus;

// Little-endian field reader over a payload; any read past the end marks
// the reader bad, so a truncated payload can never pass.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}
  std::uint64_t get(std::size_t width) {
    if (pos_ + width > bytes_.size()) {
      bad_ = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return v;
  }
  bool done() const noexcept { return !bad_ && pos_ == bytes_.size(); }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
  bool bad_ = false;
};

bool fail(std::string* why, const std::string& text) {
  if (why != nullptr) *why = text;
  return false;
}

}  // namespace

std::uint64_t answer_digest(const Response& response) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint8_t>(response.status));
  mix(response.flags);
  for (const std::uint8_t b : response.payload) mix(b);
  return h;
}

ServeOracle::ServeOracle(const ref::DiGraph& graph,
                         const std::vector<gplus::synth::Profile>& profiles,
                         const EngineConfig& caps)
    : graph_(graph),
      profiles_(profiles),
      caps_(caps),
      max_in_degree_(ref::max_in_degree(graph)) {}

bool ServeOracle::check(const Request& q, const Response& r,
                        std::uint32_t path_distance, std::string* why) const {
  if (r.status != ServeStatus::kOk) return fail(why, "status not ok");
  if (r.flags != 0) return fail(why, "flagged answer");
  const auto& g = graph_;
  Reader in(r.payload);
  switch (q.type) {
    case RequestType::kGetProfile: {
      const auto& p = profiles_.at(q.user);
      const std::uint64_t flags = (p.celebrity ? 1U : 0U) |
                                  (p.is_located() ? 2U : 0U) |
                                  (p.is_tel_user() ? 4U : 0U);
      const bool ok = in.get(4) == q.user && in.get(4) == p.shared.bits() &&
                      in.get(1) == static_cast<std::uint64_t>(p.gender) &&
                      in.get(1) == static_cast<std::uint64_t>(p.relationship) &&
                      in.get(1) == static_cast<std::uint64_t>(p.occupation) &&
                      in.get(1) == flags && in.get(2) == p.country &&
                      in.get(2) == 0 && in.get(8) == g.in_degree(q.user) &&
                      in.get(8) == g.out_degree(q.user) && in.done();
      return ok || fail(why, "profile differs");
    }
    case RequestType::kGetOutCircle:
    case RequestType::kGetInCircle: {
      const auto list = q.type == RequestType::kGetOutCircle
                            ? g.out_neighbors(q.user)
                            : g.in_neighbors(q.user);
      const std::uint64_t visible =
          std::min<std::uint64_t>(list.size(), caps_.circle_cap);
      const std::uint64_t limit = q.limit == 0 ? caps_.max_page : q.limit;
      const std::uint64_t begin = std::min<std::uint64_t>(q.offset, visible);
      const std::uint64_t end = std::min<std::uint64_t>(begin + limit, visible);
      bool ok = in.get(8) == list.size() && in.get(4) == end - begin &&
                in.get(1) == (end < visible ? 1U : 0U) &&
                in.get(1) == (list.size() > visible ? 1U : 0U) && in.get(2) == 0;
      for (std::uint64_t i = begin; ok && i < end; ++i) ok = in.get(4) == list[i];
      return (ok && in.done()) || fail(why, "circle page differs");
    }
    case RequestType::kReciprocity: {
      const bool ok = in.get(8) == g.out_degree(q.user) &&
                      in.get(8) == ref::reciprocal_out_degree(g, q.user) &&
                      in.done();
      return ok || fail(why, "reciprocity differs");
    }
    case RequestType::kDegree: {
      const bool ok = in.get(8) == g.in_degree(q.user) &&
                      in.get(8) == g.out_degree(q.user) && in.done();
      return ok || fail(why, "degree differs");
    }
    case RequestType::kShortestPath: {
      const auto distance = static_cast<std::uint32_t>(in.get(4));
      const std::uint64_t expanded = in.get(8);
      if (!in.done()) return fail(why, "path payload malformed");
      // Settled nodes are the path's whole cost: one more unit dispatches.
      if (r.cost != expanded + 1) return fail(why, "path cost != settled + 1");
      // Past the node budget the engine gives up: it may report no path,
      // or a meeting it could not prove shortest.
      if (expanded >= caps_.path_node_budget) {
        const bool ok = distance == ref::kUnreachable ||
                        (path_distance != ref::kUnreachable &&
                         distance >= path_distance);
        return ok || fail(why, "path shorter than BFS after budget");
      }
      const std::uint32_t expect = path_distance <= caps_.path_max_hops
                                       ? path_distance
                                       : ref::kUnreachable;
      return distance == expect ||
             fail(why, "path distance " + std::to_string(distance) +
                           " != BFS " + std::to_string(expect));
    }
    case RequestType::kTopK: {
      std::vector<ref::NodeId> nodes(g.node_count());
      for (ref::NodeId u = 0; u < nodes.size(); ++u) nodes[u] = u;
      std::sort(nodes.begin(), nodes.end(), [&](ref::NodeId a, ref::NodeId b) {
        if (g.in_degree(a) != g.in_degree(b)) return g.in_degree(a) > g.in_degree(b);
        return a < b;
      });
      const std::uint32_t k = q.limit == 0 ? caps_.topk_cap : q.limit;
      const auto count = std::min<std::size_t>(k, nodes.size());
      bool ok = in.get(4) == count;
      for (std::size_t i = 0; ok && i < count; ++i) {
        ok = in.get(4) == nodes[i] && in.get(8) == g.in_degree(nodes[i]);
      }
      return (ok && in.done()) || fail(why, "top-k differs");
    }
    case RequestType::kSuggest: {
      const ref::SuggestCaps caps{caps_.suggest_cap, caps_.suggest_frontier_cap,
                                  caps_.suggest_expand_budget};
      const auto expect = ref::suggest(g, q.user, q.limit, caps, max_in_degree_);
      bool ok = in.get(4) == expect.candidates &&
                in.get(4) == expect.entries.size() &&
                in.get(8) == expect.scanned;
      for (std::size_t i = 0; ok && i < expect.entries.size(); ++i) {
        const auto& e = expect.entries[i];
        ok = in.get(4) == e.node && in.get(4) == e.common &&
             in.get(4) == e.mutual && in.get(4) == e.recip_milli &&
             in.get(8) == e.aa_micro;
      }
      return (ok && in.done()) || fail(why, "suggestions differ");
    }
  }
  return fail(why, "unknown request type");
}

std::uint64_t ServeOracle::verify(const std::vector<Request>& requests,
                                  const std::vector<Response>& responses,
                                  std::string* first_error,
                                  std::vector<std::uint8_t>* bad) const {
  if (bad != nullptr) bad->assign(requests.size(), 0);
  if (requests.size() != responses.size()) {
    if (bad != nullptr) bad->assign(requests.size(), 1);
    if (first_error != nullptr) *first_error = "response count != request count";
    return requests.size();
  }
  using Key = std::tuple<int, ref::NodeId, ref::NodeId, std::uint32_t, std::uint32_t>;
  auto key_of = [](const Request& q) {
    return Key{static_cast<int>(q.type), q.user, q.target, q.offset, q.limit};
  };
  // First occurrence of each distinct request, and its path targets
  // grouped by source so one BFS answers every probe from that source.
  std::map<Key, std::size_t> first;
  std::map<ref::NodeId, std::vector<ref::NodeId>> path_targets;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (first.emplace(key_of(requests[i]), i).second &&
        requests[i].type == RequestType::kShortestPath) {
      path_targets[requests[i].user].push_back(requests[i].target);
    }
  }
  std::map<std::pair<ref::NodeId, ref::NodeId>, std::uint32_t> distance;
  for (const auto& [source, targets] : path_targets) {
    const auto d = ref::bfs_distances(graph_, source, targets, caps_.path_max_hops + 1);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      distance[{source, targets[t]}] = d[t];
    }
  }

  std::map<std::size_t, bool> verdict;  // first-occurrence index -> passed
  std::uint64_t failed = 0;
  std::string why;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& q = requests[i];
    const std::size_t f = first.at(key_of(q));
    bool ok;
    if (f == i) {
      const std::uint32_t d = q.type == RequestType::kShortestPath
                                  ? distance.at({q.user, q.target})
                                  : 0;
      ok = check(q, responses[i], d, &why);
      verdict[i] = ok;
    } else {
      ok = verdict.at(f) && answer_digest(responses[i]) == answer_digest(responses[f]);
      if (!ok) why = "repeat answer differs";
    }
    if (!ok) {
      if (failed == 0 && first_error != nullptr) {
        *first_error = "request " + std::to_string(i) + " (" +
                       std::string(gplus::serve::request_type_name(q.type)) +
                       "): " + why;
      }
      ++failed;
      if (bad != nullptr) (*bad)[i] = 1;
    }
  }
  return failed;
}

}  // namespace perfbench
