// Correctness checks of served answers against the references.
//
// Every response must be kOk, carry no flag, and decode to exactly what
// the reference computes over the generator's DiGraph. A request that
// repeats an earlier one (same type, user, target, offset and limit) is
// checked by byte equality with the earlier answer, which was itself
// checked against the reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reference.h"
#include "serve/engine.h"
#include "synth/profile.h"

namespace perfbench {

using gplus::serve::EngineConfig;
using gplus::serve::Request;
using gplus::serve::Response;

class ServeOracle {
 public:
  /// `graph` and `profiles` must outlive the oracle.
  ServeOracle(const ref::DiGraph& graph,
              const std::vector<gplus::synth::Profile>& profiles,
              const EngineConfig& caps);

  /// Checks one answer. `path_distance` is the reference BFS distance for
  /// shortest-path requests (ignored otherwise). On failure `why` says what
  /// differed.
  bool check(const Request& request, const Response& response,
             std::uint32_t path_distance, std::string* why) const;

  /// Checks every response (responses[i] answers requests[i]); returns the
  /// number that failed and keeps the first reason in `first_error`. When
  /// `bad` is given, (*bad)[i] is set to 1 for every failed answer.
  std::uint64_t verify(const std::vector<Request>& requests,
                       const std::vector<Response>& responses,
                       std::string* first_error,
                       std::vector<std::uint8_t>* bad = nullptr) const;

  const ref::DiGraph& graph() const noexcept { return graph_; }

 private:
  const ref::DiGraph& graph_;
  const std::vector<gplus::synth::Profile>& profiles_;
  EngineConfig caps_;
  std::uint64_t max_in_degree_ = 0;
};

/// FNV-1a over status, flags and payload: the identity of one answer.
std::uint64_t answer_digest(const Response& response);

/// Order-sensitive fold of answer digests: the identity of one drain's
/// answers. Start from kFoldSeed.
inline constexpr std::uint64_t kFoldSeed = 0x84222325CBF29CE4ULL;
inline std::uint64_t fold_digest(std::uint64_t folded, std::uint64_t digest) {
  return (folded ^ digest) * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL;
}

}  // namespace perfbench
