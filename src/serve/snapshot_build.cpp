#include "serve/snapshot_build.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/parallel.h"
#include "serve/snapshot_format.h"
#include "serve/snapshot_writer.h"

namespace gplus::serve {

namespace {

using detail::ByteWriter;
using detail::fnv1a64;
using detail::load_u32;
using detail::load_u64;
using detail::pad8;
using detail::store_u32;
using detail::store_u64;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("snapshot build: " + what);
}

/// Buffered sequential u64 reader over one scratch file.
class U64Reader {
 public:
  explicit U64Reader(const std::filesystem::path& path)
      : chunk_(1 << 16) {
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) fail("cannot open for reading: " + path.string());
  }
  ~U64Reader() {
    if (file_ != nullptr) std::fclose(file_);
  }
  U64Reader(const U64Reader&) = delete;
  U64Reader& operator=(const U64Reader&) = delete;

  bool next(std::uint64_t& v) {
    if (at_ == filled_) {
      filled_ = std::fread(chunk_.data(), 8, chunk_.size(), file_);
      at_ = 0;
      if (filled_ == 0) return false;
    }
    v = chunk_[at_++];
    return true;
  }

 private:
  std::FILE* file_ = nullptr;
  std::vector<std::uint64_t> chunk_;
  std::size_t at_ = 0;
  std::size_t filled_ = 0;
};

std::filesystem::path run_path(const std::filesystem::path& dir,
                               std::uint64_t i) {
  return dir / ("run_" + std::to_string(i) + ".u64");
}

/// K-way ascending merge of sorted u64 run files into `out`, applying
/// `keep` to each distinct value (return false to drop it). Duplicates —
/// within or across runs — collapse to one. Returns the kept count.
template <typename Keep>
std::uint64_t merge_sorted_runs(const std::filesystem::path& dir,
                                std::uint64_t run_count,
                                const std::filesystem::path& out_path,
                                Keep&& keep) {
  std::vector<std::unique_ptr<U64Reader>> readers;
  readers.reserve(run_count);
  using Head = std::pair<std::uint64_t, std::size_t>;  // value, run index
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heap;
  for (std::uint64_t i = 0; i < run_count; ++i) {
    readers.push_back(std::make_unique<U64Reader>(run_path(dir, i)));
    std::uint64_t v = 0;
    if (readers.back()->next(v)) heap.emplace(v, i);
  }
  ByteWriter out(out_path);
  std::uint64_t kept = 0;
  bool have_last = false;
  std::uint64_t last = 0;
  std::vector<std::uint64_t> pending;
  pending.reserve(1 << 16);
  auto flush_pending = [&] {
    out.write(pending.data(), pending.size() * 8);
    pending.clear();
  };
  while (!heap.empty()) {
    const auto [value, idx] = heap.top();
    heap.pop();
    std::uint64_t next = 0;
    if (readers[idx]->next(next)) heap.emplace(next, idx);
    if (have_last && value == last) continue;  // global dedup
    have_last = true;
    last = value;
    if (!keep(value)) continue;
    pending.push_back(value);
    if (pending.size() == pending.capacity()) flush_pending();
    ++kept;
  }
  flush_pending();
  out.close();
  return kept;
}

/// Sorts `chunk` and appends it as run `run_count` (which is incremented).
void write_run(const std::filesystem::path& dir, std::uint64_t& run_count,
               std::vector<std::uint64_t>& chunk) {
  std::sort(chunk.begin(), chunk.end());
  ByteWriter out(run_path(dir, run_count));
  out.write(chunk.data(), chunk.size() * 8);
  out.close();
  ++run_count;
  chunk.clear();
}

/// Reads rows of a merged edge file: node u's tuples sit at
/// [prefix[u], prefix[u+1]) and its neighbor ids are their low 32 bits.
/// Rows are fetched with pread as the rank order hops between them; the
/// sequential file stays page-cached and is never loaded whole.
class RowReader {
 public:
  RowReader(const std::filesystem::path& path,
            std::span<const std::uint32_t> degree)
      : path_(path), prefix_(degree.size() + 1, 0) {
    for (std::size_t u = 0; u < degree.size(); ++u) {
      prefix_[u + 1] = prefix_[u] + degree[u];
    }
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) fail("cannot open merged edges: " + path.string());
  }
  ~RowReader() { ::close(fd_); }
  RowReader(const RowReader&) = delete;
  RowReader& operator=(const RowReader&) = delete;

  std::span<const graph::NodeId> row(graph::NodeId u) {
    const std::uint64_t degree = prefix_[u + 1] - prefix_[u];
    tuples_.resize(degree);
    std::size_t got = 0;
    while (got < degree * 8) {
      const ssize_t k =
          ::pread(fd_, reinterpret_cast<char*>(tuples_.data()) + got,
                  degree * 8 - got, static_cast<off_t>(prefix_[u] * 8 + got));
      if (k <= 0) fail("short read from merged edges: " + path_.string());
      got += static_cast<std::size_t>(k);
    }
    row_.resize(degree);
    for (std::uint64_t i = 0; i < degree; ++i) {
      row_[i] = static_cast<graph::NodeId>(tuples_[i] & 0xFFFFFFFFULL);
    }
    return row_;
  }

 private:
  std::filesystem::path path_;
  std::vector<std::uint64_t> prefix_;
  int fd_ = -1;
  std::vector<std::uint64_t> tuples_;
  std::vector<graph::NodeId> row_;
};

}  // namespace

OutOfCoreSnapshotBuilder::OutOfCoreSnapshotBuilder(std::size_t node_count,
                                                   OutOfCoreOptions options)
    : nodes_(node_count), options_(std::move(options)) {
  if (options_.work_dir.empty()) fail("work_dir is required");
  if (options_.sort_buffer_edges == 0) fail("sort_buffer_edges must be > 0");
  std::filesystem::create_directories(options_.work_dir);
  buffer_.reserve(options_.sort_buffer_edges);
  profiles_.resize(nodes_);
  load_or_init_manifest();
}

OutOfCoreSnapshotBuilder::~OutOfCoreSnapshotBuilder() = default;

void OutOfCoreSnapshotBuilder::load_or_init_manifest() {
  const auto manifest = options_.work_dir / "MANIFEST";
  std::ifstream in(manifest);
  std::string tag;
  std::uint32_t version = 0;
  std::uint64_t nodes = 0;
  std::uint64_t durable = 0;
  std::uint64_t runs = 0;
  if (in && (in >> tag >> version >> nodes >> durable >> runs) &&
      tag == "gplus-oocbuild" && version == 1 && nodes == nodes_) {
    // Resume: the runs listed are durable; everything after them must be
    // re-streamed by the caller and will be fast-forwarded.
    resumed_edges_ = durable;
    ingested_ = 0;
    run_count_ = runs;
    return;
  }
  // Fresh build (or a stale/incompatible manifest): clear leftovers so an
  // old run can never leak into this build's merge.
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.work_dir, ec)) {
    std::filesystem::remove(entry.path(), ec);
  }
  resumed_edges_ = 0;
  run_count_ = 0;
}

void OutOfCoreSnapshotBuilder::write_manifest() const {
  const auto manifest = options_.work_dir / "MANIFEST";
  const auto tmp = options_.work_dir / "MANIFEST.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << "gplus-oocbuild 1\n"
        << nodes_ << '\n'
        << (resumed_edges_ + ingested_) << '\n'
        << run_count_ << '\n';
    if (!out) fail("cannot write manifest");
  }
  std::filesystem::rename(tmp, manifest);
}

void OutOfCoreSnapshotBuilder::stage(std::string_view name) {
  if (options_.checkpoint && !options_.checkpoint(name)) {
    fail("aborted at stage " + std::string(name));
  }
}

void OutOfCoreSnapshotBuilder::flush_run() {
  if (buffer_.empty()) return;
  write_run(options_.work_dir, run_count_, buffer_);
  // Every add_edge seen so far is now durable; record it before telling
  // the checkpoint hook (a simulated crash right after the flush must
  // still find the manifest current).
  write_manifest();
  stage("run_flush");
}

void OutOfCoreSnapshotBuilder::add_edge(graph::NodeId src, graph::NodeId dst) {
  if (finished_) fail("add_edge after finish");
  if (src >= nodes_ || dst >= nodes_) fail("edge endpoint out of range");
  // Fast-forward through edges a previous interrupted build already made
  // durable — the caller replays its stream from the top.
  if (skipped_ < resumed_edges_) {
    ++skipped_;
    return;
  }
  buffer_.push_back((static_cast<std::uint64_t>(src) << 32) | dst);
  ++ingested_;
  if (buffer_.size() >= options_.sort_buffer_edges) flush_run();
}

void OutOfCoreSnapshotBuilder::set_profile(graph::NodeId u,
                                           const synth::Profile& profile) {
  if (u >= nodes_) fail("profile node out of range");
  profiles_[u] = pack_profile(profile);
}

OutOfCoreStats OutOfCoreSnapshotBuilder::finish(
    const std::filesystem::path& path) {
  if (finished_) fail("finish called twice");
  const auto& dir = options_.work_dir;
  flush_run();

  // Merge the runs into the forward edge file, counting degrees.
  std::vector<std::uint32_t> out_deg(nodes_, 0);
  std::vector<std::uint32_t> in_deg(nodes_, 0);
  const auto edges_src = dir / "edges_src.u64";
  const std::uint64_t m =
      merge_sorted_runs(dir, run_count_, edges_src, [&](std::uint64_t v) {
        const auto src = static_cast<std::uint32_t>(v >> 32);
        const auto dst = static_cast<std::uint32_t>(v & 0xFFFFFFFFULL);
        if (src == dst) return false;  // GraphBuilder drops self-loops
        ++out_deg[src];
        ++in_deg[dst];
        return true;
      });
  stage("merged_forward");

  // Reverse edge file: rotate each tuple to (dst<<32)|src, external-sort.
  const auto edges_dst = dir / "edges_dst.u64";
  {
    std::uint64_t rev_runs = 0;
    const auto rev_dir = dir / "rev";
    std::filesystem::create_directories(rev_dir);
    std::vector<std::uint64_t> chunk;
    chunk.reserve(options_.sort_buffer_edges);
    U64Reader forward(edges_src);
    std::uint64_t v = 0;
    while (forward.next(v)) {
      chunk.push_back((v << 32) | (v >> 32));
      if (chunk.size() >= options_.sort_buffer_edges) {
        write_run(rev_dir, rev_runs, chunk);
      }
    }
    if (!chunk.empty()) write_run(rev_dir, rev_runs, chunk);
    merge_sorted_runs(rev_dir, rev_runs, edges_dst,
                      [](std::uint64_t) { return true; });
    std::filesystem::remove_all(rev_dir);
  }
  stage("merged_reverse");

  // Encode: one rank-order loop hands the writer both sides of each row,
  // read back from the two merged files; the writer derives reciprocity
  // from the pair. Its varint streams spill to scratch files in work_dir.
  const auto tmp_path = path.string() + ".tmp";
  std::uint64_t total = 0;
  {
    detail::CompressedWriter writer(detail::degree_rank_order(out_deg, in_deg),
                                    profiles_, options_.country_index, dir);
    RowReader out_rows(edges_src, out_deg);
    RowReader in_rows(edges_dst, in_deg);
    out_deg = {};
    in_deg = {};
    for (const graph::NodeId u : writer.rank_order()) {
      writer.put_row(u, out_rows.row(u), in_rows.row(u));
    }
    stage("encoded");
    total = writer.finish(tmp_path);
  }
  stage("assemble");
  std::filesystem::rename(tmp_path, path);

  // Scratch is no longer needed; a future build in this work_dir starts
  // fresh rather than resuming into a completed snapshot.
  std::error_code ec;
  std::filesystem::remove(dir / "MANIFEST", ec);
  for (std::uint64_t i = 0; i < run_count_; ++i) {
    std::filesystem::remove(run_path(dir, i), ec);
  }
  std::filesystem::remove(edges_src, ec);
  std::filesystem::remove(edges_dst, ec);
  finished_ = true;

  OutOfCoreStats stats;
  stats.edge_count = m;
  stats.total_bytes = total;
  stats.run_count = run_count_;
  stats.resumed_edges = resumed_edges_;
  return stats;
}

// ---------------------------------------------------------------------------
// Shard splitter (see snapshot_build.h for the E_s contract).
// ---------------------------------------------------------------------------

std::string_view sharding_policy_name(ShardingPolicy policy) noexcept {
  switch (policy) {
    case ShardingPolicy::kRankStripe: return "rank-stripe";
    case ShardingPolicy::kRankRange: return "rank-range";
  }
  return "?";
}

namespace {

constexpr char kRoutingMagic[8] = {'G', 'P', 'R', 'O', 'U', 'T', 'E', '1'};

/// Ownership over the degree rank order (detail::degree_rank_order, the
/// order v3 relabels by), recomputed from the view's degrees so sharding
/// is format-version independent.
std::vector<std::uint8_t> assign_owners(std::span<const std::uint32_t> out_deg,
                                        std::span<const std::uint32_t> in_deg,
                                        const ShardingOptions& options) {
  const std::size_t n = out_deg.size();
  const std::size_t k = options.shard_count;
  const std::vector<std::uint32_t> order =
      detail::degree_rank_order(out_deg, in_deg);
  std::vector<std::uint8_t> owner(n, 0);
  if (options.policy == ShardingPolicy::kRankStripe) {
    for (std::size_t r = 0; r < n; ++r) {
      owner[order[r]] = static_cast<std::uint8_t>(r % k);
    }
    return owner;
  }
  // kRankRange: contiguous rank ranges cut so each carries ~1/K of the
  // total degree mass (+1 per node keeps zero-degree tails spreading).
  auto mass = [&](std::size_t u) {
    return std::uint64_t{out_deg[u]} + in_deg[u] + 1;
  };
  std::uint64_t total_mass = 0;
  for (std::size_t u = 0; u < n; ++u) total_mass += mass(u);
  std::uint64_t seen = 0;
  std::size_t s = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const graph::NodeId u = order[r];
    seen += mass(u);
    owner[u] = static_cast<std::uint8_t>(s);
    while (s + 1 < k && seen * k >= total_mass * (s + 1)) ++s;
  }
  return owner;
}

/// One row decoded from the source view, plus a copy grouped by the owner
/// of each neighbor. The grouping is a stable counting sort, so each
/// group stays ascending.
struct OwnerGroups {
  std::vector<graph::NodeId> row, by;
  std::vector<std::uint32_t> start, cursor;  // k + 1 bounds, k cursors

  void load(NeighborScan scan, const std::vector<std::uint8_t>& owner,
            std::size_t k) {
    row.resize(scan.size());
    for (graph::NodeId& v : row) scan.next(v);
    start.assign(k + 1, 0);
    for (const graph::NodeId v : row) ++start[owner[v] + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    cursor.assign(start.begin(), start.end() - 1);
    by.resize(row.size());
    for (const graph::NodeId v : row) by[cursor[owner[v]]++] = v;
  }
  std::span<const graph::NodeId> group(std::size_t s) const {
    return std::span(by).subspan(start[s], start[s + 1] - start[s]);
  }
};

/// Calls emit(s, u, out, in) with node u's rows in shard s, for every node
/// and shard: complete in the owner's shard, filtered to shard s's
/// neighbors elsewhere — E_s keeps exactly the arcs with an endpoint owned
/// by s. One decode of each source row; parallel over nodes, so `emit`
/// may only write state disjoint per node.
template <typename Emit>
void for_each_shard_row(const SnapshotView& full,
                        const std::vector<std::uint8_t>& owner, std::size_t k,
                        Emit&& emit) {
  core::parallel_for(owner.size(), 1024, [&](std::size_t begin,
                                             std::size_t end) {
    OwnerGroups out;
    OwnerGroups in;
    for (std::size_t u = begin; u < end; ++u) {
      const auto id = static_cast<graph::NodeId>(u);
      out.load(full.out_scan(id), owner, k);
      in.load(full.in_scan(id), owner, k);
      for (std::size_t s = 0; s < k; ++s) {
        if (owner[u] == s) {
          emit(s, id, std::span<const graph::NodeId>(out.row),
               std::span<const graph::NodeId>(in.row));
        } else {
          emit(s, id, out.group(s), in.group(s));
        }
      }
    }
  });
}

}  // namespace

ShardedSnapshot split_snapshot(const SnapshotView& full,
                               const ShardingOptions& options) {
  const std::size_t n = full.node_count();
  const std::size_t k = options.shard_count;
  if (k == 0) fail("shard split: shard_count 0");
  if (k > 256) fail("shard split: more than 256 shards");
  if (k > n) fail("shard split: more shards than nodes");

  std::vector<std::uint32_t> out_deg(n);
  std::vector<std::uint32_t> in_deg(n);
  core::parallel_for(n, 4096, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const auto id = static_cast<graph::NodeId>(u);
      out_deg[u] = static_cast<std::uint32_t>(full.out_degree(id));
      in_deg[u] = static_cast<std::uint32_t>(full.in_degree(id));
    }
  });
  ShardedSnapshot result;
  result.routing.shard_count = static_cast<std::uint32_t>(k);
  result.routing.policy = options.policy;
  result.routing.owner = assign_owners(out_deg, in_deg, options);
  const std::vector<std::uint8_t>& owner = result.routing.owner;

  // Two passes over the source: one counts every shard's degrees, one
  // fills every shard.
  std::vector<std::vector<std::uint32_t>> shard_out(
      k, std::vector<std::uint32_t>(n, 0));
  std::vector<std::vector<std::uint32_t>> shard_in(
      k, std::vector<std::uint32_t>(n, 0));
  for_each_shard_row(full, owner, k,
                     [&](std::size_t s, graph::NodeId u,
                         std::span<const graph::NodeId> out,
                         std::span<const graph::NodeId> in) {
                       shard_out[s][u] = static_cast<std::uint32_t>(out.size());
                       shard_in[s][u] = static_cast<std::uint32_t>(in.size());
                     });

  // Shards are v2 without a country index. Only owned profiles are kept;
  // the other records stay zero, since they are never served. A shard's
  // degree arrays go as soon as its writer has laid out its offsets.
  std::vector<detail::FlatWriter> writers;
  writers.reserve(k);
  std::vector<PackedProfile> profiles(n);
  for (std::size_t s = 0; s < k; ++s) {
    for (graph::NodeId u = 0; u < n; ++u) {
      profiles[u] =
          owner[u] == s ? full.profile(u) : PackedProfile{.country = 0};
    }
    writers.emplace_back(shard_out[s], shard_in[s], profiles, false);
    shard_out[s] = {};
    shard_in[s] = {};
  }
  for_each_shard_row(full, owner, k,
                     [&](std::size_t s, graph::NodeId u,
                         std::span<const graph::NodeId> out,
                         std::span<const graph::NodeId> in) {
                       writers[s].put_row(u, out, in);
                     });
  result.shards.reserve(k);
  for (detail::FlatWriter& writer : writers) {
    result.shards.push_back(writer.finish());
  }
  return result;
}

void save_routing_table(const RoutingTable& table,
                        const std::filesystem::path& path) {
  if (table.shard_count == 0 || table.shard_count > 256) {
    fail("routing table: bad shard_count");
  }
  const std::size_t n = table.owner.size();
  // Magic 8B | shard_count u32 | policy u8 | pad 3B | node_count u64 |
  // owner bytes padded to 8 | FNV-1a u64 over everything preceding.
  const std::size_t body = 8 + 4 + 4 + 8 + pad8(n);
  std::vector<std::byte> bytes(body + 8, std::byte{0});
  std::memcpy(bytes.data(), kRoutingMagic, 8);
  store_u32(bytes.data() + 8, table.shard_count);
  bytes[12] = static_cast<std::byte>(table.policy);
  store_u64(bytes.data() + 16, n);
  for (std::size_t u = 0; u < n; ++u) {
    bytes[24 + u] = static_cast<std::byte>(table.owner[u]);
  }
  store_u64(bytes.data() + body, fnv1a64(bytes.data(), body));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail("routing table: cannot open " + path.string());
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) fail("routing table: short write to " + path.string());
}

RoutingTable load_routing_table(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("routing table: cannot open " + path.string());
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto* bytes = reinterpret_cast<const std::byte*>(raw.data());
  if (raw.size() < 32) fail("routing table: truncated");
  if (std::memcmp(raw.data(), kRoutingMagic, 8) != 0) {
    fail("routing table: bad magic");
  }
  RoutingTable table;
  table.shard_count = load_u32(bytes + 8);
  const auto policy = static_cast<std::uint8_t>(bytes[12]);
  const std::uint64_t n = load_u64(bytes + 16);
  const std::size_t body = 8 + 4 + 4 + 8 + pad8(n);
  if (raw.size() != body + 8) fail("routing table: size mismatch");
  if (load_u64(bytes + body) != fnv1a64(bytes, body)) {
    fail("routing table: checksum mismatch");
  }
  if (table.shard_count == 0 || table.shard_count > 256) {
    fail("routing table: bad shard_count");
  }
  if (policy > static_cast<std::uint8_t>(ShardingPolicy::kRankRange)) {
    fail("routing table: unknown policy");
  }
  table.policy = static_cast<ShardingPolicy>(policy);
  table.owner.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    const auto o = static_cast<std::uint8_t>(bytes[24 + u]);
    if (o >= table.shard_count) fail("routing table: owner out of range");
    table.owner[u] = o;
  }
  return table;
}

}  // namespace gplus::serve
