// cold-serve and hot-cluster: closed-loop clients driving QueryServer /
// ClusterServer submit() and drain() over the standard 100k-node dataset.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>

#include "algo/intersect.h"
#include "checks.h"
#include "core/dataset.h"
#include "core/parallel.h"
#include "serve/cache.h"
#include "serve/cluster.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "serve/snapshot_file.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = gplus::serve;
using gplus::graph::NodeId;
using serve::RequestType;

constexpr std::size_t kNodes = 100'000;
constexpr std::uint64_t kDatasetSeed = 42;
constexpr double kZipfExponent = 1.3;
constexpr int kSetupReps = 3;
constexpr std::size_t kRateSlices = 20;
// Latency percentiles are taken per slice too, with slices long enough
// that each holds well over ten samples beyond its p99.
constexpr std::size_t kLatencySlices = 10;
// Traced runs alternate untraced and traced slices, this many pairs.
constexpr int kOverheadPairs = 8;
// Sub-microsecond calls are timed in batches of this many, one span each,
// so the clock reads of a span stay a small part of what it times.
constexpr std::size_t kLookupBatch = 64;

// cold-serve: few clients, so a run holds thousands of drains; 1 lane.
constexpr std::size_t kColdClients = 8;
constexpr std::size_t kColdWarmBatches = 100;
// hot-cluster: K=4 shards x 2 replicas, cache on, 1 lane. At 2 lanes its
// p99 moved with every stall of the second lane on a shared 4-vCPU host
// (5.1 to 9.0 ms over five seeds) while 1 lane kept it within 2%. 256
// clients, the closed-loop default of `serve::WorkloadConfig` that
// `serve_load --shards` drives the cluster with.
constexpr std::size_t kHotClients = 256;
constexpr std::size_t kHotWarmBatches = 100;
constexpr std::size_t kShards = 4;
constexpr std::size_t kReplicas = 2;
// Warm-up streams draw from a seed of their own.
constexpr std::uint64_t kWarmSalt = 0x5741524DULL;

constexpr std::size_t type_index(RequestType t) { return static_cast<std::size_t>(t); }

// ---------------------------------------------------------------------------
// Request streams: the benchmark's own generator (splitmix64 per client,
// inverse-CDF Zipf over the in-degree ranking).

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double unit_draw(std::uint64_t& state) {
  return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
}

using Mix = std::array<double, serve::kRequestTypeCount>;

// ~5% suggest, 45% path, 50% single-row lookups.
Mix cold_mix() {
  Mix m{};
  m[type_index(RequestType::kSuggest)] = 0.05;
  m[type_index(RequestType::kShortestPath)] = 0.45;
  m[type_index(RequestType::kGetProfile)] = 0.20;
  m[type_index(RequestType::kGetOutCircle)] = 0.075;
  m[type_index(RequestType::kGetInCircle)] = 0.075;
  m[type_index(RequestType::kDegree)] = 0.075;
  m[type_index(RequestType::kReciprocity)] = 0.075;
  return m;
}

// The `mixed` preset's weights (serve/workload.cpp), copied so the
// workload cannot change under the benchmark.
Mix mixed_mix() {
  Mix m{};
  m[type_index(RequestType::kGetProfile)] = 0.35;
  m[type_index(RequestType::kGetOutCircle)] = 0.12;
  m[type_index(RequestType::kGetInCircle)] = 0.12;
  m[type_index(RequestType::kReciprocity)] = 0.12;
  m[type_index(RequestType::kDegree)] = 0.20;
  m[type_index(RequestType::kShortestPath)] = 0.04;
  m[type_index(RequestType::kTopK)] = 0.05;
  return m;
}

class RequestStream {
 public:
  RequestStream(std::uint64_t seed, const std::vector<NodeId>& ranked,
                const Mix& mix, std::size_t clients)
      : ranked_(ranked) {
    double rank_mass = 0.0;
    cdf_.reserve(ranked.size());
    for (std::size_t r = 1; r <= ranked.size(); ++r) {
      rank_mass += std::pow(static_cast<double>(r), -kZipfExponent);
      cdf_.push_back(rank_mass);
    }
    for (double& c : cdf_) c /= rank_mass;
    double type_mass = 0.0;
    for (std::size_t t = 0; t < mix.size(); ++t) {
      type_mass += mix[t];
      type_cdf_[t] = type_mass;
    }
    for (double& c : type_cdf_) c /= type_mass;
    for (std::size_t c = 0; c < clients; ++c) {
      std::uint64_t s = seed ^ (0xD1B54A32D192ED03ULL * (c + 1));
      state_.push_back(splitmix(s));
    }
  }

  Request next(std::size_t client) {
    std::uint64_t& s = state_[client];
    Request q;
    const double t = unit_draw(s);
    std::size_t type = 0;
    while (type + 1 < type_cdf_.size() && t >= type_cdf_[type]) ++type;
    q.type = static_cast<RequestType>(type);
    q.user = user(s);
    switch (q.type) {
      case RequestType::kShortestPath: q.target = user(s); break;
      case RequestType::kGetOutCircle:
      case RequestType::kGetInCircle: q.limit = 100; break;
      case RequestType::kTopK: q.limit = 20; break;
      case RequestType::kSuggest: q.limit = 10; break;
      default: break;
    }
    return q;
  }

 private:
  NodeId user(std::uint64_t& s) {
    const double u = unit_draw(s);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto r = std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
    return ranked_[r];
  }

  const std::vector<NodeId>& ranked_;
  std::vector<double> cdf_;
  std::array<double, serve::kRequestTypeCount> type_cdf_{};
  std::vector<std::uint64_t> state_;
};

// Users by in-degree descending, ties by ascending id: Zipf rank r is the
// r-th most-followed user.
std::vector<NodeId> rank_by_in_degree(const ref::DiGraph& g) {
  std::vector<NodeId> ranked(g.node_count());
  std::iota(ranked.begin(), ranked.end(), NodeId{0});
  std::sort(ranked.begin(), ranked.end(), [&](NodeId a, NodeId b) {
    if (g.in_degree(a) != g.in_degree(b)) return g.in_degree(a) > g.in_degree(b);
    return a < b;
  });
  return ranked;
}

// ---------------------------------------------------------------------------
// Closed loop: every client keeps one request in flight; a round submits
// each client's next request, then one drain answers them all.

// What a phase keeps: per drain, its completion time, answer count, a fold
// of its answers' digests and how many were non-ok or flagged; per latency
// slice, its p50 and p99. Nothing grows per request, so the benchmark's own
// memory hardly moves with throughput and the peak RSS read after a timed
// phase is the program's. Requests and responses are kept only where a
// traced run or a check reads them.
struct Phase {
  std::vector<std::uint64_t> batch_done_ns;
  std::vector<std::uint32_t> batch_sizes;
  std::vector<std::uint64_t> batch_digests;
  std::vector<std::uint32_t> batch_flagged;
  std::vector<std::uint8_t> batch_traced;
  std::vector<double> slice_p50_ms;
  std::vector<double> slice_p99_ms;
  std::vector<Request> requests;    // accepted, in admission order
  std::vector<Response> responses;
  std::uint64_t start_ns = 0;  // measured window [start_ns, stop_ns)
  std::uint64_t stop_ns = 0;
  std::uint64_t answered = 0;
  std::uint64_t rejected = 0;
};

struct SpanNames {
  const char* submit = nullptr;
  const char* drain = nullptr;
};

constexpr std::size_t kUnbounded = ~std::size_t{0};

struct Loop {
  std::size_t clients = 0;
  double seconds = 0.0;  // 0: run max_batches drains
  std::size_t max_batches = kUnbounded;
  bool latency = false;  // stamp submits; keep per-slice percentiles
  bool keep = false;     // keep requests and responses
  SpanNames spans;       // one span per round of submits, one per drain
};

// Runs rounds until `loop.seconds` elapsed (or max_batches), appending to
// `p`. Latency slices split [start, start + seconds) into kLatencySlices;
// the round that ends after it counts as answered but not as a sample.
template <class Server>
void closed_loop(Server& server, RequestStream& stream, const Loop& loop,
                 Tracer& tracer, Phase& p) {
  std::vector<Request> round(loop.clients);
  std::vector<std::uint8_t> admitted(loop.clients);
  std::vector<std::uint64_t> submitted_ns(loop.clients);
  std::vector<Response> out;
  std::vector<float> slice_ms;  // latencies of the current latency slice
  std::uint64_t slice = 0;
  const std::uint64_t start = now_ns();
  const auto window = static_cast<std::uint64_t>(loop.seconds * 1e9);
  const std::uint64_t stop = start + window;
  if (loop.latency) {
    p.start_ns = start;
    p.stop_ns = stop;
  }
  auto close_slice = [&] {
    if (slice_ms.empty()) return;
    p.slice_p50_ms.push_back(percentile_in_place(slice_ms, 0.50));
    p.slice_p99_ms.push_back(percentile_in_place(slice_ms, 0.99));
    slice_ms.clear();
  };
  for (std::size_t b = 0; b < loop.max_batches; ++b) {
    if (window > 0 && now_ns() >= stop) break;
    for (std::size_t c = 0; c < loop.clients; ++c) round[c] = stream.next(c);
    std::size_t accepted = 0;
    {
      Span s(tracer, loop.spans.submit, p.answered);
      for (std::size_t c = 0; c < loop.clients; ++c) {
        if (loop.latency) submitted_ns[accepted] = now_ns();
        admitted[c] = server.submit(round[c]) != serve::ServeStatus::kRejected;
        accepted += admitted[c];
      }
    }
    p.rejected += loop.clients - accepted;
    {
      Span s(tracer, loop.spans.drain, p.answered);
      server.drain(out);
    }
    const std::uint64_t done = now_ns();
    std::uint64_t digest = kFoldSeed;
    std::uint32_t flagged = 0;
    for (const Response& r : out) {
      digest = fold_digest(digest, answer_digest(r));
      flagged += r.status != serve::ServeStatus::kOk || r.flags != 0;
    }
    if (loop.keep) {
      for (std::size_t c = 0; c < loop.clients; ++c) {
        if (admitted[c]) p.requests.push_back(round[c]);
      }
      p.responses.insert(p.responses.end(), out.begin(), out.end());
    }
    if (loop.latency && done < stop) {
      const std::uint64_t at = (done - start) * kLatencySlices / window;
      if (at != slice) close_slice();
      slice = at;
      for (std::size_t i = 0; i < out.size(); ++i) {
        slice_ms.push_back(static_cast<float>(static_cast<double>(done - submitted_ns[i]) * 1e-6));
      }
    }
    p.batch_done_ns.push_back(done);
    p.batch_sizes.push_back(static_cast<std::uint32_t>(out.size()));
    p.batch_digests.push_back(digest);
    p.batch_flagged.push_back(flagged);
    p.batch_traced.push_back(tracer.enabled());
    p.answered += out.size();
  }
  close_slice();
}

// Serves a phase's requests again, regenerated from `replay` (the stream
// as it stood when the phase began), through `server` in the same
// batches. Returns, per batch, whether the answers fold to the phase's
// digest; appends the requests and answers when asked. Drains of batches
// the phase traced get a span in `tracer`.
template <class Server>
std::vector<std::uint8_t> replay_batches(Server& server, RequestStream replay,
                                         const Phase& p, std::size_t clients,
                                         Tracer& tracer, std::vector<Request>* requests,
                                         std::vector<Response>* responses) {
  Tracer off(false);
  std::vector<std::uint8_t> same(p.batch_sizes.size(), 0);
  std::vector<Response> out;
  std::uint64_t at = 0;
  for (std::size_t b = 0; b < p.batch_sizes.size(); ++b) {
    for (std::size_t c = 0; c < clients; ++c) {
      const Request q = replay.next(c);
      server.submit(q);
      if (requests != nullptr) requests->push_back(q);
    }
    {
      Span s(p.batch_traced[b] ? tracer : off, "server.drain", at);
      server.drain(out);
    }
    std::uint64_t digest = kFoldSeed;
    for (const Response& r : out) digest = fold_digest(digest, answer_digest(r));
    same[b] = out.size() == p.batch_sizes[b] && digest == p.batch_digests[b];
    if (responses != nullptr) responses->insert(responses->end(), out.begin(), out.end());
    at += p.batch_sizes[b];
  }
  return same;
}

// Failed answers of a phase: every one when a submit was rejected (the
// regenerated stream no longer lines up with the answers), else every
// answer of a batch whose replay differs, plus the answers `bad` marks
// (per answer; the phase's non-ok or flagged counts when absent).
std::uint64_t count_failed(const Phase& p, const std::vector<std::uint8_t>& same,
                           const std::vector<std::uint8_t>* bad) {
  if (p.rejected != 0) return p.answered + p.rejected;
  std::uint64_t failed = 0;
  std::size_t at = 0;
  for (std::size_t b = 0; b < p.batch_sizes.size(); ++b) {
    const std::size_t size = p.batch_sizes[b];
    if (!same[b]) {
      failed += size;
    } else if (bad == nullptr) {
      failed += p.batch_flagged[b];
    } else {
      failed += static_cast<std::uint64_t>(
          std::count(bad->begin() + at, bad->begin() + at + size, 1));
    }
    at += size;
  }
  return failed;
}

void add_serving_metrics(RunResult& r, double setup_s, const Phase& p,
                         double bytes_per_edge, double rss_mib) {
  r.add("setup_s", setup_s, "s");
  r.add("ops_per_s",
        slice_median_rate(p.batch_done_ns, p.batch_sizes, p.start_ns, p.stop_ns, kRateSlices),
        "1/s");
  r.add("latency_p50_ms", median(p.slice_p50_ms), "ms");
  r.add("latency_p99_ms", median(p.slice_p99_ms), "ms");
  r.add("peak_rss_mib", rss_mib, "MiB");
  r.add("snapshot_bytes_per_edge", bytes_per_edge, "B/edge");
  std::printf("timed phase: %llu requests, %zu drains, %zu latency slices, %.2f s\n",
              static_cast<unsigned long long>(p.answered), p.batch_sizes.size(),
              p.slice_p50_ms.size(), seconds_between(p.start_ns, p.stop_ns));
}

// ---------------------------------------------------------------------------
// Set-up. Everything the timed phase needs, built from scratch: dataset,
// v3 snapshot file, mmap open (and, for the cluster, the K-shard split).

struct ServingBase {
  std::unique_ptr<gplus::core::Dataset> dataset;
  std::optional<serve::MappedSnapshot> mapped;
  std::vector<NodeId> ranked;
  std::uint64_t file_bytes = 0;
};

void build_base(ServingBase& base, const std::filesystem::path& snap_path,
                Tracer& tracer) {
  {
    Span s(tracer, "synth.dataset", 0);
    base.dataset = std::make_unique<gplus::core::Dataset>(
        gplus::core::make_standard_dataset(kNodes, kDatasetSeed));
  }
  {
    Span s(tracer, "snapshot.build", 0);
    serve::SnapshotOptions options;
    options.version = serve::kSnapshotVersion3;
    const auto buffer = serve::build_snapshot(*base.dataset, options);
    std::filesystem::create_directories(snap_path.parent_path());
    serve::save_snapshot(buffer, snap_path);
    base.file_bytes = buffer.size();
  }
  {
    Span s(tracer, "snapshot.open", 0);
    base.mapped.emplace(snap_path);
  }
  base.ranked = rank_by_in_degree(base.dataset->graph());
}

// Warm-up: `batches` rounds of a stream drawn from a seed of its own.
template <class Server>
void warm_up(Server& server, std::uint64_t seed, const std::vector<NodeId>& ranked,
             const Mix& mix, std::size_t clients, std::size_t batches) {
  RequestStream warm(seed ^ kWarmSalt, ranked, mix, clients);
  Loop loop;
  loop.clients = clients;
  loop.max_batches = batches;
  Tracer off(false);
  Phase p;
  closed_loop(server, warm, loop, off, p);
}

struct ColdState {
  ServingBase base;
  std::optional<serve::QueryServer> server;
};

serve::ServerConfig cold_config() {
  serve::ServerConfig config;
  config.cache_capacity = 0;
  return config;
}

std::unique_ptr<ColdState> cold_setup(const Options& options, Tracer& tracer) {
  auto st = std::make_unique<ColdState>();
  build_base(st->base, options.work_dir / "cold.snap", tracer);
  st->server.emplace(&st->base.mapped->view(), cold_config());
  warm_up(*st->server, options.seed, st->base.ranked, cold_mix(), kColdClients,
          kColdWarmBatches);
  return st;
}

struct HotState {
  ServingBase base;
  serve::ShardedSnapshot sharded;
  std::vector<serve::SnapshotView> shard_views;
  std::uint64_t shard_bytes = 0;
  std::optional<serve::ClusterServer> cluster;
};

serve::ClusterConfig hot_config(std::uint64_t seed) {
  serve::ClusterConfig config;
  config.replicas = kReplicas;
  config.transport.enabled = true;
  config.transport.seed = seed;
  // Loss-free: every delay (1 base tick + at most 16) lands inside the
  // 24-tick timeout, so nothing times out or drops; delays past the
  // 8-tick hedge point race a hedge, and duplicates and reorders occur.
  config.transport.profile.drop_rate = 0.0;
  config.transport.profile.delay_rate = 0.2;
  config.transport.profile.delay_min = 2;
  config.transport.profile.delay_max = 16;
  config.transport.profile.duplicate_rate = 0.05;
  config.transport.profile.reorder_rate = 0.1;
  return config;
}

std::unique_ptr<HotState> hot_setup(const Options& options, Tracer& tracer) {
  auto st = std::make_unique<HotState>();
  build_base(st->base, options.work_dir / "hot.snap", tracer);
  {
    Span s(tracer, "snapshot.split", 0);
    serve::ShardingOptions sharding;
    sharding.shard_count = kShards;
    st->sharded = serve::split_snapshot(st->base.mapped->view(), sharding);
  }
  std::vector<const serve::SnapshotView*> views;
  st->shard_views.reserve(kShards);
  for (const auto& shard : st->sharded.shards) {
    st->shard_views.emplace_back(shard.bytes());
    st->shard_bytes += shard.size();
  }
  for (const auto& v : st->shard_views) views.push_back(&v);
  st->cluster.emplace(&st->sharded.routing, views, hot_config(options.seed));
  warm_up(*st->cluster, options.seed, st->base.ranked, mixed_mix(), kHotClients,
          kHotWarmBatches);
  return st;
}

// Runs `setup` kSetupReps times (each from scratch) and keeps the last
// state; the median rep is the reported set-up time.
template <class Setup>
auto timed_setups(Setup setup, double& setup_s) {
  std::vector<double> reps;
  decltype(setup()) state;
  for (int i = 0; i < kSetupReps; ++i) {
    state.reset();
    const std::uint64_t t0 = now_ns();
    state = setup();
    reps.push_back(seconds_between(t0, now_ns()));
  }
  setup_s = median(reps);
  std::printf("set-up reps:");
  for (const double s : reps) std::printf(" %.3f s", s);
  std::printf("\n");
  return state;
}

void report_check(const char* what, std::uint64_t failed, const std::string& why) {
  std::printf("check %s: %llu failed%s%s\n", what,
              static_cast<unsigned long long>(failed), failed ? " — " : "",
              failed ? why.c_str() : "");
}

Loop timed_loop(std::size_t clients, double seconds) {
  Loop loop;
  loop.clients = clients;
  loop.seconds = seconds;
  loop.latency = true;
  return loop;
}

}  // namespace

RunResult run_cold_serve(const Options& options) {
  gplus::core::set_thread_count(1);
  Tracer off(false);
  double setup_s = 0.0;
  auto st = timed_setups([&] { return cold_setup(options, off); }, setup_s);
  RequestStream stream(options.seed, st->base.ranked, cold_mix(), kColdClients);
  const RequestStream replay = stream;
  Phase p;
  closed_loop(*st->server, stream, timed_loop(kColdClients, options.seconds), off, p);
  const double rss = peak_rss_mib();

  // The cache is off, so serving the same batches again must give the
  // same answers; those are checked against the references.
  std::vector<Request> requests;
  std::vector<Response> responses;
  const auto same = replay_batches(*st->server, replay, p, kColdClients, off,
                                   &requests, &responses);
  const ServeOracle oracle(st->base.dataset->graph(), st->base.dataset->profiles,
                           st->server->config().engine);
  std::string why;
  std::vector<std::uint8_t> bad;
  oracle.verify(requests, responses, &why, &bad);
  const std::uint64_t failed = count_failed(p, same, &bad);
  report_check("cold-serve answers vs references", failed,
               why.empty() ? "timed answers differ from the replay" : why);

  RunResult r;
  r.attempted = p.answered + p.rejected;
  r.failed = failed;
  const double edges = static_cast<double>(st->base.dataset->graph().edge_count());
  add_serving_metrics(r, setup_s, p, static_cast<double>(st->base.file_bytes) / edges, rss);
  return r;
}

RunResult run_hot_cluster(const Options& options) {
  gplus::core::set_thread_count(1);
  Tracer off(false);
  double setup_s = 0.0;
  auto st = timed_setups([&] { return hot_setup(options, off); }, setup_s);
  RequestStream stream(options.seed, st->base.ranked, mixed_mix(), kHotClients);
  const RequestStream replay = stream;
  Phase p;
  closed_loop(*st->cluster, stream, timed_loop(kHotClients, options.seconds), off, p);
  const double rss = peak_rss_mib();
  const auto cache = st->cluster->aggregate_server_stats().cache;
  std::printf("cache hit ratio %.4f\n", cache.hit_rate());

  // Failures: rejected submits, non-ok or flagged answers, and batches
  // whose answers differ from an unsharded server's.
  serve::QueryServer unsharded(&st->base.mapped->view());
  const auto same = replay_batches(unsharded, replay, p, kHotClients, off, nullptr, nullptr);
  const std::uint64_t failed = count_failed(p, same, nullptr);
  report_check("hot-cluster answers vs unsharded server", failed,
               std::to_string(std::count(same.begin(), same.end(), 0)) +
                   " batches differ from the unsharded server");

  RunResult r;
  r.attempted = p.answered + p.rejected;
  r.failed = failed;
  const double edges = static_cast<double>(st->base.dataset->graph().edge_count());
  add_serving_metrics(r, setup_s, p, static_cast<double>(st->shard_bytes) / edges, rss);
  return r;
}

// ---------------------------------------------------------------------------
// Traced serving: one set-up each, a phase of alternating untraced and
// traced slices, then replays that split the traced slices by layer.

namespace {

double mean_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// kOverheadPairs pairs of equal slices, untraced and traced in ABBA order
// so the host's drift reaches both alike. Returns the tracing overhead:
// the median over pairs of the share of throughput the traced slice lost.
template <class Server>
double alternating_phase(Server& server, RequestStream& stream, Loop loop,
                         double seconds, SpanNames names, Tracer& tracer, Phase& p) {
  Tracer off(false);
  loop.seconds = seconds / (2 * kOverheadPairs);
  std::vector<double> lost;
  for (int k = 0; k < kOverheadPairs; ++k) {
    std::array<double, 2> rate{};  // untraced, traced
    for (int j = 0; j < 2; ++j) {
      const bool traced = (j == 1) == (k % 2 == 0);
      loop.spans = traced ? names : SpanNames{};
      const std::uint64_t before = p.answered;
      const std::uint64_t t0 = now_ns();
      closed_loop(server, stream, loop, traced ? tracer : off, p);
      rate[traced] = static_cast<double>(p.answered - before) / seconds_between(t0, now_ns());
    }
    lost.push_back(rate[0] > 0 ? 100.0 * (rate[0] - rate[1]) / rate[0] : 0.0);
  }
  return median(lost);
}

// Indices of the requests answered in the phase's traced batches.
std::vector<std::size_t> traced_requests(const Phase& p) {
  std::vector<std::size_t> out;
  std::size_t at = 0;
  for (std::size_t b = 0; b < p.batch_sizes.size(); ++b) {
    for (std::size_t i = 0; i < p.batch_sizes[b] && p.batch_traced[b]; ++i) out.push_back(at + i);
    at += p.batch_sizes[b];
  }
  return out;
}

std::uint64_t read_u(const std::vector<std::uint8_t>& p, std::size_t at, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width && at + i < p.size(); ++i) {
    v |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
  }
  return v;
}

bool single_row_lookup(RequestType t) {
  return t != RequestType::kSuggest && t != RequestType::kShortestPath &&
         t != RequestType::kTopK;
}

// Replays the single-row lookups among `requests[indices]`, kLookupBatch
// calls to one span named `span`. Returns the lookups' summed cost and
// appends each batch's mean time per call, microseconds.
template <class EngineOf>
double replay_lookups(const std::vector<Request>& requests,
                      const std::vector<std::size_t>& indices, EngineOf engine_of,
                      const char* span, Tracer& tracer, std::vector<double>& batch_us) {
  Response resp;
  double cost = 0.0;
  std::vector<std::size_t> batch;
  auto run = [&] {
    const std::uint64_t t0 = now_ns();
    {
      Span s(tracer, span, batch.front());
      for (const std::size_t i : batch) {
        engine_of(requests[i]).execute(requests[i], resp);
        cost += static_cast<double>(resp.cost);
      }
    }
    batch_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                       static_cast<double>(batch.size()));
    batch.clear();
  };
  for (const std::size_t i : indices) {
    if (!single_row_lookup(requests[i].type)) continue;
    batch.push_back(i);
    if (batch.size() == kLookupBatch) run();
  }
  if (!batch.empty()) run();
  return cost;
}

void trace_cold(const Options& options, Tracer& tracer, RunResult& r) {
  gplus::core::set_thread_count(1);
  auto st = cold_setup(options, tracer);
  const auto& view = st->base.mapped->view();
  RequestStream stream(options.seed, st->base.ranked, cold_mix(), kColdClients);
  Loop loop;
  loop.clients = kColdClients;
  loop.keep = true;
  Phase p;
  const double overhead = alternating_phase(*st->server, stream, loop, options.seconds / 2,
                                            {"server.submit", "server.drain"}, tracer, p);
  const auto traced = traced_requests(p);

  // Engine replay: each traced request once more, alone; suggests and
  // paths timed per call, lookups in batches.
  const serve::RequestEngine engine(&view, st->server->config().engine);
  Response resp;
  std::array<double, 2> cost_sum{};  // suggest, path
  std::uint64_t settled = 0;
  std::uint64_t paths = 0;
  for (const std::size_t i : traced) {
    const Request& q = p.requests[i];
    if (q.type == RequestType::kSuggest) {
      {
        Span s(tracer, "engine.suggest", i);
        engine.execute(q, resp);
      }
      cost_sum[0] += static_cast<double>(resp.cost);
    } else if (q.type == RequestType::kShortestPath) {
      {
        Span s(tracer, "engine.path", i);
        engine.execute(q, resp);
      }
      cost_sum[1] += static_cast<double>(resp.cost);
      settled += resp.cost - 1;
      ++paths;
    }
  }
  std::vector<double> lookup_batch_us;
  replay_lookups(p.requests, traced, [&](const Request&) -> const serve::RequestEngine& { return engine; },
                 "engine.lookup_v3", tracer, lookup_batch_us);

  // Suggest re-enactment: decode the rows each suggest read (its own row,
  // the expanded friends' rows up to `scanned` entries, the emitted
  // candidates' rows), then the mutual-count intersections.
  std::vector<double> scanned;
  std::vector<double> candidates;
  std::uint64_t degree_sum = 0;  // printed, so the reads stay live
  std::uint64_t mutual_sum = 0;
  for (const std::size_t i : traced) {
    const Request& q = p.requests[i];
    if (q.type != RequestType::kSuggest) continue;
    const auto& payload = p.responses[i].payload;
    candidates.push_back(static_cast<double>(read_u(payload, 0, 4)));
    const std::uint64_t count = read_u(payload, 4, 4);
    const std::uint64_t scan_total = read_u(payload, 8, 8);
    scanned.push_back(static_cast<double>(scan_total));
    std::vector<NodeId> friends;
    std::vector<std::vector<NodeId>> rows(count);
    {
      Span s(tracer, "suggest.decode", i);
      auto scan = view.out_scan(q.user);
      NodeId v = 0;
      while (scan.next(v)) friends.push_back(v);
      std::uint64_t left = scan_total;
      const std::size_t frontier = std::min<std::size_t>(
          friends.size(), engine.config().suggest_frontier_cap);
      for (std::size_t f = 0; f < frontier && left > 0; ++f) {
        degree_sum += view.out_degree(friends[f]) + view.in_degree(friends[f]);
        auto row = view.out_scan(friends[f]);
        NodeId w = 0;
        while (left > 0 && row.next(w)) --left;
      }
      for (std::uint64_t c = 0; c < count; ++c) {
        const auto node = static_cast<NodeId>(read_u(payload, 16 + 24 * c, 4));
        auto row = view.out_scan(node);
        NodeId x = 0;
        while (row.next(x)) rows[c].push_back(x);
      }
    }
    {
      Span s(tracer, "intersect.count", i);
      for (const auto& row : rows) mutual_sum += gplus::algo::intersect_count(friends, row);
    }
  }

  std::printf("suggest re-enactment: %zu suggests, degree sum %llu, mutual sum %llu\n",
              scanned.size(), static_cast<unsigned long long>(degree_sum),
              static_cast<unsigned long long>(mutual_sum));
  const double n = std::max(1.0, static_cast<double>(traced.size()));
  const auto suggest_us = tracer.durations_us("engine.suggest");
  const auto path_us = tracer.durations_us("engine.path");
  const auto suggests = static_cast<double>(std::max<std::size_t>(1, suggest_us.size()));
  const double engine_total_s = tracer.total_s("engine.suggest") +
                                tracer.total_s("engine.path") +
                                tracer.total_s("engine.lookup_v3");
  r.add("engine.suggest_p50_us", percentile(suggest_us, 0.50), "us");
  r.add("engine.suggest_p99_us", percentile(suggest_us, 0.99), "us");
  r.add("engine.path_p50_us", percentile(path_us, 0.50), "us");
  r.add("engine.path_p99_us", percentile(path_us, 0.99), "us");
  r.add("path.settled_per_req", paths ? static_cast<double>(settled) / static_cast<double>(paths) : 0.0, "count");
  r.add("engine.suggest_ns_per_cost", tracer.total_s("engine.suggest") * 1e9 / std::max(1.0, cost_sum[0]), "ns");
  r.add("engine.path_ns_per_cost", tracer.total_s("engine.path") * 1e9 / std::max(1.0, cost_sum[1]), "ns");
  const double decode_us = tracer.total_s("suggest.decode") * 1e6 / suggests;
  const double intersect_us = tracer.total_s("intersect.count") * 1e6 / suggests;
  r.add("suggest.scanned_per_req", mean_of(scanned), "count");
  r.add("suggest.candidates_per_req", mean_of(candidates), "count");
  r.add("suggest.decode_us", decode_us, "us");
  r.add("suggest.accumulate_rank_us", mean_of(suggest_us) - decode_us - intersect_us, "us");
  r.add("intersect.us_per_suggest", intersect_us, "us");
  const double drain_us = tracer.total_s("server.drain") * 1e6 / n;
  r.add("server.drain_us_per_req", drain_us, "us");
  r.add("server.overhead_us_per_req", drain_us - engine_total_s * 1e6 / n, "us");
  r.add("server.submit_ns", tracer.total_s("server.submit") * 1e9 / n, "ns");
  r.add("trace.overhead_cold_serve_pct", overhead, "%");

  const ServeOracle oracle(st->base.dataset->graph(), st->base.dataset->profiles,
                           st->server->config().engine);
  std::string why;
  const std::uint64_t failed = p.rejected != 0 ? p.answered + p.rejected
                                               : oracle.verify(p.requests, p.responses, &why);
  r.attempted += p.answered + p.rejected;
  r.failed += failed;
  report_check("cold-serve (traced run)", failed, why);
}

void trace_hot(const Options& options, Tracer& tracer, RunResult& r) {
  gplus::core::set_thread_count(1);
  auto st = hot_setup(options, tracer);
  RequestStream stream(options.seed, st->base.ranked, mixed_mix(), kHotClients);
  const RequestStream replay_stream = stream;
  const auto stats0 = st->cluster->stats_snapshot();
  const auto transport0 = st->cluster->transport_stats();
  const auto cache0 = st->cluster->aggregate_server_stats().cache;
  Loop loop;
  loop.clients = kHotClients;
  Phase p;
  const double overhead = alternating_phase(*st->cluster, stream, loop, options.seconds / 2,
                                            {"cluster.submit", "cluster.drain"}, tracer, p);
  const auto stats1 = st->cluster->stats_snapshot();
  const auto transport1 = st->cluster->transport_stats();
  const auto cache1 = st->cluster->aggregate_server_stats().cache;

  // Unsharded replay of the whole history (so its cache has seen what the
  // cluster's has): the correctness check, and its drains of the traced
  // batches are the baseline of the cluster's overhead.
  serve::QueryServer unsharded(&st->base.mapped->view());
  warm_up(unsharded, options.seed, st->base.ranked, mixed_mix(), kHotClients, kHotWarmBatches);
  std::vector<Request> requests;
  std::vector<Response> answers;
  Tracer replay(true);
  const auto same = replay_batches(unsharded, replay_stream, p, kHotClients, replay,
                                   &requests, &answers);
  const auto traced = traced_requests(p);

  // Standalone cache fed the traced batches' cacheable keys and payloads,
  // probing a batch before inserting its misses, as a drain does.
  serve::ShardedLruCache cache(serve::ServerConfig{}.cache_capacity,
                               serve::ServerConfig{}.cache_shards);
  std::vector<std::uint8_t> scratch;
  std::uint64_t probe_ns = 0, insert_ns = 0, probes = 0, inserts = 0;
  std::size_t at = 0;
  std::vector<std::size_t> misses;
  for (std::size_t b = 0; b < p.batch_sizes.size(); ++b) {
    const std::size_t size = p.batch_sizes[b];
    if (p.batch_traced[b]) {
      misses.clear();
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = at; i < at + size; ++i) {
        const auto t = requests[i].type;
        if (t != RequestType::kGetProfile && t != RequestType::kShortestPath &&
            t != RequestType::kSuggest) continue;
        ++probes;
        if (!cache.lookup(serve::request_key(requests[i]), scratch)) misses.push_back(i);
      }
      const std::uint64_t t1 = now_ns();
      for (const std::size_t i : misses) {
        cache.insert(serve::request_key(requests[i]), answers[i].payload);
      }
      inserts += misses.size();
      probe_ns += t1 - t0;
      insert_ns += now_ns() - t1;
    }
    at += size;
  }

  // Single-shard lookups replayed on engines over the owner shards' views.
  std::vector<serve::RequestEngine> engines;
  for (const auto& v : st->shard_views) engines.emplace_back(&v);
  std::vector<double> lookup_batch_us;
  const double lookup_cost = replay_lookups(
      requests, traced,
      [&](const Request& q) -> const serve::RequestEngine& {
        return engines[st->sharded.routing.owner_shard(q.user)];
      },
      "engine.lookup", tracer, lookup_batch_us);

  const double n = std::max<double>(1.0, static_cast<double>(traced.size()));
  const double cluster_drain_us = tracer.total_s("cluster.drain") * 1e6 / n;
  const double unsharded_drain_us = replay.total_s("server.drain") * 1e6 / n;
  r.add("engine.lookup_p50_us", median(lookup_batch_us), "us");
  r.add("engine.lookup_ns_per_cost", tracer.total_s("engine.lookup") * 1e9 / std::max(1.0, lookup_cost), "ns");
  const double probes_hit = static_cast<double>((cache1.hits - cache0.hits));
  const double probes_all = probes_hit + static_cast<double>(cache1.misses - cache0.misses);
  r.add("cache.hit_ratio", probes_all > 0 ? probes_hit / probes_all : 0.0, "ratio");
  r.add("cache.probe_ns", probes ? static_cast<double>(probe_ns) / static_cast<double>(probes) : 0.0, "ns");
  r.add("cache.insert_ns", inserts ? static_cast<double>(insert_ns) / static_cast<double>(inserts) : 0.0, "ns");
  r.add("cluster.drain_us_per_req", cluster_drain_us, "us");
  r.add("cluster.overhead_us_per_req", cluster_drain_us - unsharded_drain_us, "us");
  const double all = std::max<double>(1.0, static_cast<double>(p.answered));
  r.add("cluster.messages_per_req", static_cast<double>(stats1.messages - stats0.messages) / all, "count");
  r.add("cluster.scatter_per_req", static_cast<double>(stats1.scatter - stats0.scatter) / all, "count");
  const double rpcs = std::max<double>(1.0, static_cast<double>(transport1.rpcs - transport0.rpcs));
  r.add("transport.attempts_per_rpc", static_cast<double>(transport1.attempts - transport0.attempts) / rpcs, "count");
  r.add("transport.hedges_per_krpc", 1000.0 * static_cast<double>(transport1.hedges - transport0.hedges) / rpcs, "count");
  r.add("trace.overhead_hot_cluster_pct", overhead, "%");

  const std::uint64_t failed = count_failed(p, same, nullptr);
  r.attempted += p.answered + p.rejected;
  r.failed += failed;
  report_check("hot-cluster (traced run)", failed,
               std::to_string(std::count(same.begin(), same.end(), 0)) + " batches differ");
}

}  // namespace

void trace_serving(const Options& options, Tracer& tracer, RunResult& result) {
  trace_cold(options, tracer, result);
  trace_hot(options, tracer, result);
  result.add("synth.dataset_s", tracer.total_s("synth.dataset") /
                                    std::max<double>(1.0, static_cast<double>(tracer.count("synth.dataset"))),
             "s");
  result.add("snapshot.build_s", tracer.total_s("snapshot.build") /
                                     std::max<double>(1.0, static_cast<double>(tracer.count("snapshot.build"))),
             "s");
  result.add("snapshot.split_s", tracer.total_s("snapshot.split"), "s");
}

}  // namespace perfbench
