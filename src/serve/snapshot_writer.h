// The one writer of the snapshot file format (layout: snapshot.h).
//
// Every snapshot file is written here — the in-memory build
// (`build_snapshot`), the out-of-core build (`OutOfCoreSnapshotBuilder`)
// and each shard of a split (`split_snapshot`). This unit alone places
// the header fields, section offsets and padding, and seals the header
// checksum and the trailing digest table, so the three callers agree on
// the bytes by construction. Two row encoders feed it:
//
//   FlatWriter        v2 flat CSR. Sections are laid out up front from
//                     per-node degrees; rows are then written in place,
//                     in any order, concurrently for distinct nodes. The
//                     result is an in-memory buffer.
//   CompressedWriter  v3 compressed adjacency. Rows arrive in degree-rank
//                     order and are varint-encoded into a vector or, given
//                     a spill directory, a scratch file; the file is then
//                     assembled into a memory buffer or streamed to disk.
//
// Both take ascending rows (u, out(u), in(u)) and derive reciprocity in
// one place, by merging out(u) with in(u): u -> v has its reverse edge
// exactly when v is in in(u). That holds for a shard's filtered rows as
// well, because a shard keeps an arc whenever it keeps its reverse.
//
// Internal to the serve library. The reader (SnapshotView) keeps its own
// validation: its input is untrusted, the writer's is not.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "graph/types.h"
#include "serve/snapshot.h"

namespace gplus::serve::detail {

/// Buffered file writer; throws std::runtime_error on any short write.
class ByteWriter {
 public:
  explicit ByteWriter(const std::filesystem::path& path);
  ~ByteWriter();
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void write(const void* data, std::size_t n);
  std::uint64_t written() const noexcept { return written_; }
  void close();

 private:
  std::filesystem::path path_;
  std::FILE* file_ = nullptr;
  std::uint64_t written_ = 0;
};

/// Degree-rank order (rank -> node id): total degree descending, ties by
/// ascending id. v3 stores rows in this order, and the shard split assigns
/// ownership over it.
std::vector<std::uint32_t> degree_rank_order(
    std::span<const std::uint32_t> out_degree,
    std::span<const std::uint32_t> in_degree);

/// Located users grouped by country, ascending id within each country.
struct CountryIndex {
  std::vector<std::uint64_t> offsets;  // country_count + 1 entries
  std::vector<graph::NodeId> nodes;
};

/// Where one file's sections sit: the header fields every writer emits.
/// Sections are numbered in header order (offset slots 32..88).
struct Layout {
  std::uint32_t version = 0;
  bool country_index = false;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t offset[kSnapshotSectionCount] = {};  // 0 = absent section
  std::uint64_t length[kSnapshotSectionCount] = {};  // padded bytes
  std::uint64_t total = 0;
};

/// v2 writer. `profiles` (one per node) is copied at construction; the
/// country index, when asked for, is derived from it.
class FlatWriter {
 public:
  FlatWriter(std::span<const std::uint32_t> out_degree,
             std::span<const std::uint32_t> in_degree,
             std::span<const PackedProfile> profiles, bool country_index);

  /// Writes node u's ascending rows and their reciprocity bits. The row
  /// lengths must equal the degrees given at construction. Safe to call
  /// concurrently for distinct nodes; each node at most once.
  void put_row(graph::NodeId u, std::span<const graph::NodeId> out,
               std::span<const graph::NodeId> in);

  /// Seals the digest table and hands over the finished file.
  SnapshotBuffer finish();

 private:
  Layout layout_;
  SnapshotBuffer buffer_;
  std::uint64_t* out_offsets_ = nullptr;
  std::uint64_t* in_offsets_ = nullptr;
  graph::NodeId* out_targets_ = nullptr;
  graph::NodeId* in_targets_ = nullptr;
  std::uint64_t* recip_ = nullptr;
};

/// v3 writer. Rows must be fed in `rank_order`, one per node. `profiles`
/// is read again at finish and must outlive the writer. With a non-empty
/// `spill_dir` the two varint streams go to scratch files there (removed
/// when the writer is destroyed), keeping RAM at O(n).
class CompressedWriter {
 public:
  CompressedWriter(std::vector<std::uint32_t> rank_order,
                   std::span<const PackedProfile> profiles, bool country_index,
                   const std::filesystem::path& spill_dir = {});
  ~CompressedWriter();

  /// The node ids in the order `put_row` expects them.
  std::span<const std::uint32_t> rank_order() const noexcept { return inv_; }

  void put_row(graph::NodeId u, std::span<const graph::NodeId> out,
               std::span<const graph::NodeId> in);

  /// Assembles the file in memory.
  SnapshotBuffer finish();
  /// Streams the file to `path`; returns its size in bytes.
  std::uint64_t finish(const std::filesystem::path& path);

 private:
  class Stream;
  class Sink;
  /// Closes the row streams and places every section.
  Layout lay_out();
  void assemble(Sink& out, const Layout& layout);

  std::vector<std::uint32_t> inv_;
  std::span<const PackedProfile> profiles_;
  bool country_index_ = false;
  CountryIndex countries_;
  std::unique_ptr<Stream> out_;
  std::unique_ptr<Stream> in_;
  std::vector<std::uint32_t> recip_;
  std::uint64_t out_edges_ = 0;
  std::uint64_t in_edges_ = 0;
  std::size_t next_rank_ = 0;
};

}  // namespace gplus::serve::detail
