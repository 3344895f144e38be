#include "serve/snapshot_writer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

#include "geo/countries.h"
#include "serve/snapshot_format.h"
#include "serve/varint.h"

namespace gplus::serve::detail {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("snapshot build: " + what);
}

CountryIndex index_countries(std::span<const PackedProfile> profiles) {
  const std::size_t countries = geo::country_count();
  CountryIndex index;
  index.offsets.assign(countries + 1, 0);
  for (const PackedProfile& p : profiles) {
    if (p.located() && p.country < countries) ++index.offsets[p.country + 1];
  }
  std::partial_sum(index.offsets.begin(), index.offsets.end(),
                   index.offsets.begin());
  index.nodes.resize(index.offsets[countries]);
  std::vector<std::uint64_t> cursor(index.offsets.begin(),
                                    index.offsets.end() - 1);
  for (graph::NodeId u = 0; u < profiles.size(); ++u) {
    const PackedProfile& p = profiles[u];
    if (p.located() && p.country < countries) {
      index.nodes[cursor[p.country]++] = u;
    }
  }
  return index;
}

/// Places the five format-specific sections A..E, then the shared
/// profile and country sections, then the digest table.
Layout lay_out_sections(std::uint32_t version, std::uint64_t n,
                        std::uint64_t m,
                        const std::array<std::uint64_t, 5>& adjacency,
                        const CountryIndex* countries) {
  Layout layout;
  layout.version = version;
  layout.country_index = countries != nullptr;
  layout.nodes = n;
  layout.edges = m;
  std::copy(adjacency.begin(), adjacency.end(), layout.length);
  layout.length[5] = pad8(n * sizeof(PackedProfile));
  if (countries != nullptr) {
    layout.length[6] = countries->offsets.size() * 8;
    layout.length[7] = pad8(countries->nodes.size() * 4);
  }
  std::uint64_t at = kHeaderBytes;
  for (std::size_t s = 0; s < kSnapshotSectionCount; ++s) {
    if (s >= 6 && countries == nullptr) continue;
    layout.offset[s] = at;
    at += layout.length[s];
  }
  layout.total = at + kSnapshotDigestBytes;
  return layout;
}

void write_header(std::byte* h, const Layout& layout) {
  std::memcpy(h, layout.version == kSnapshotVersion3 ? kMagicV3 : kMagicV2, 8);
  store_u32(h + 8, layout.version);
  store_u32(h + 12, layout.country_index ? kSnapshotFlagCountryIndex : 0);
  store_u64(h + 16, layout.nodes);
  store_u64(h + 24, layout.edges);
  for (std::size_t s = 0; s < kSnapshotSectionCount; ++s) {
    store_u64(h + 32 + s * 8, layout.offset[s]);
  }
  store_u64(h + 96, layout.total);
  store_u64(h + kChecksumOffset, fnv1a64(h, kChecksumOffset));
}

/// Eight section digests in header order (0 for an absent section), then
/// a checksum sealing the eight digests themselves.
std::array<std::byte, kSnapshotDigestBytes> digest_table(
    const std::uint64_t (&digests)[kSnapshotSectionCount]) {
  std::array<std::byte, kSnapshotDigestBytes> table{};
  for (std::size_t s = 0; s < kSnapshotSectionCount; ++s) {
    store_u64(table.data() + s * 8, digests[s]);
  }
  store_u64(table.data() + kSnapshotSectionCount * 8,
            fnv1a64(table.data(), kSnapshotSectionCount * 8));
  return table;
}

/// Calls mark(i) for every index i of `out` whose target is also in `in`
/// (both ascending): out[i] -> u is then an arc, so u -> out[i] is
/// reciprocal. The one reciprocity rule of both encoders.
template <typename Mark>
void for_each_reciprocal(std::span<const graph::NodeId> out,
                         std::span<const graph::NodeId> in, Mark&& mark) {
  std::size_t j = 0;
  for (std::size_t i = 0; i < out.size() && j < in.size(); ++i) {
    while (j < in.size() && in[j] < out[i]) ++j;
    if (j < in.size() && in[j] == out[i]) mark(i);
  }
}

}  // namespace

ByteWriter::ByteWriter(const std::filesystem::path& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) fail("cannot open for writing: " + path.string());
}

ByteWriter::~ByteWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void ByteWriter::write(const void* data, std::size_t n) {
  if (n != 0 && std::fwrite(data, 1, n, file_) != n) {
    fail("write failed: " + path_.string());
  }
  written_ += n;
}

void ByteWriter::close() {
  if (file_ != nullptr && std::fclose(file_) != 0) {
    file_ = nullptr;
    fail("close failed: " + path_.string());
  }
  file_ = nullptr;
}

std::vector<std::uint32_t> degree_rank_order(
    std::span<const std::uint32_t> out_degree,
    std::span<const std::uint32_t> in_degree) {
  std::vector<std::uint32_t> inv(out_degree.size());
  std::iota(inv.begin(), inv.end(), std::uint32_t{0});
  std::sort(inv.begin(), inv.end(), [&](std::uint32_t a, std::uint32_t b) {
    const std::uint64_t da = std::uint64_t{out_degree[a]} + in_degree[a];
    const std::uint64_t db = std::uint64_t{out_degree[b]} + in_degree[b];
    if (da != db) return da > db;
    return a < b;
  });
  return inv;
}

// ---------------------------------------------------------------------------
// FlatWriter (v2)
// ---------------------------------------------------------------------------

FlatWriter::FlatWriter(std::span<const std::uint32_t> out_degree,
                       std::span<const std::uint32_t> in_degree,
                       std::span<const PackedProfile> profiles,
                       bool country_index) {
  const std::size_t n = out_degree.size();
  if (in_degree.size() != n || profiles.size() != n) {
    fail("degree/profile counts disagree");
  }
  const std::uint64_t m =
      std::accumulate(out_degree.begin(), out_degree.end(), std::uint64_t{0});
  if (std::accumulate(in_degree.begin(), in_degree.end(), std::uint64_t{0}) !=
      m) {
    fail("out/in arc counts diverged");
  }
  CountryIndex countries;
  if (country_index) countries = index_countries(profiles);
  layout_ = lay_out_sections(
      kSnapshotVersion2, n, m,
      {(n + 1) * 8, pad8(m * 4), (n + 1) * 8, pad8(m * 4), (m + 63) / 64 * 8},
      country_index ? &countries : nullptr);

  buffer_ = SnapshotBuffer(
      std::vector<std::uint64_t>((layout_.total + 7) / 8, 0), layout_.total);
  std::byte* base = buffer_.data();
  write_header(base, layout_);
  out_offsets_ = reinterpret_cast<std::uint64_t*>(base + layout_.offset[0]);
  out_targets_ = reinterpret_cast<graph::NodeId*>(base + layout_.offset[1]);
  in_offsets_ = reinterpret_cast<std::uint64_t*>(base + layout_.offset[2]);
  in_targets_ = reinterpret_cast<graph::NodeId*>(base + layout_.offset[3]);
  recip_ = reinterpret_cast<std::uint64_t*>(base + layout_.offset[4]);
  for (std::size_t u = 0; u < n; ++u) {
    out_offsets_[u + 1] = out_offsets_[u] + out_degree[u];
    in_offsets_[u + 1] = in_offsets_[u] + in_degree[u];
  }
  std::copy(profiles.begin(), profiles.end(),
            reinterpret_cast<PackedProfile*>(base + layout_.offset[5]));
  if (country_index) {
    std::copy(countries.offsets.begin(), countries.offsets.end(),
              reinterpret_cast<std::uint64_t*>(base + layout_.offset[6]));
    std::copy(countries.nodes.begin(), countries.nodes.end(),
              reinterpret_cast<graph::NodeId*>(base + layout_.offset[7]));
  }
}

void FlatWriter::put_row(graph::NodeId u, std::span<const graph::NodeId> out,
                         std::span<const graph::NodeId> in) {
  const std::uint64_t out_at = out_offsets_[u];
  if (out.size() != out_offsets_[u + 1] - out_at ||
      in.size() != in_offsets_[u + 1] - in_offsets_[u]) {
    fail("row length differs from its laid-out degree");
  }
  std::copy(out.begin(), out.end(), out_targets_ + out_at);
  std::copy(in.begin(), in.end(), in_targets_ + in_offsets_[u]);
  // Bit e of the bitmap marks out-edge e (global CSR index). A row's first
  // and last words may be shared with neighbouring rows written on other
  // threads, so every word is merged in with an atomic OR: commutative,
  // hence deterministic.
  std::uint64_t word_at = 0;
  std::uint64_t word = 0;
  auto flush = [&] {
    if (word != 0) {
      std::atomic_ref<std::uint64_t>(recip_[word_at])
          .fetch_or(word, std::memory_order_relaxed);
    }
    word = 0;
  };
  for_each_reciprocal(out, in, [&](std::size_t i) {
    const std::uint64_t e = out_at + i;
    if (e >> 6 != word_at) {
      flush();
      word_at = e >> 6;
    }
    word |= std::uint64_t{1} << (e & 63);
  });
  flush();
}

SnapshotBuffer FlatWriter::finish() {
  const std::byte* base = buffer_.data();
  std::uint64_t digests[kSnapshotSectionCount] = {};
  for (std::size_t s = 0; s < kSnapshotSectionCount; ++s) {
    if (layout_.offset[s] != 0) {
      digests[s] = fnv1a64(base + layout_.offset[s], layout_.length[s]);
    }
  }
  const auto table = digest_table(digests);
  std::memcpy(buffer_.data() + layout_.total - kSnapshotDigestBytes,
              table.data(), kSnapshotDigestBytes);
  return std::move(buffer_);
}

// ---------------------------------------------------------------------------
// CompressedWriter (v3)
// ---------------------------------------------------------------------------

/// Sequential output into a memory buffer or a file. Hashes bytes as they
/// pass, so even a multi-gigabyte section streamed to disk is digested
/// without a second pass.
class CompressedWriter::Sink {
 public:
  Sink(std::byte* memory, std::uint64_t capacity)
      : memory_(memory), capacity_(capacity) {}
  explicit Sink(const std::filesystem::path& path)
      : file_(std::make_unique<ByteWriter>(path)) {}

  void write(const void* data, std::size_t n) {
    if (n == 0) return;
    hasher_.update(data, n);
    if (file_ != nullptr) {
      file_->write(data, n);
    } else {
      if (n > capacity_ - written_) fail("assembly overran its layout");
      std::memcpy(memory_ + written_, data, n);
    }
    written_ += n;
  }
  void begin_section() { hasher_ = Fnv1aHasher(); }
  std::uint64_t end_section() {
    pad_to8();
    return hasher_.digest();
  }
  /// One whole section from a contiguous array.
  std::uint64_t section(const void* data, std::size_t n) {
    begin_section();
    write(data, n);
    return end_section();
  }
  void pad_to8() {
    static constexpr std::array<std::uint8_t, 8> zeros{};
    if (written_ % 8 != 0) write(zeros.data(), 8 - written_ % 8);
  }
  std::uint64_t written() const noexcept { return written_; }
  void close() {
    if (file_ != nullptr) file_->close();
  }

 private:
  std::byte* memory_ = nullptr;
  std::uint64_t capacity_ = 0;
  std::unique_ptr<ByteWriter> file_;
  std::uint64_t written_ = 0;
  Fnv1aHasher hasher_;  // over everything since begin_section
};

/// One direction's varint stream plus its two-level row index. The stream
/// stays in memory, or goes row by row to a (buffered) scratch file.
class CompressedWriter::Stream {
 public:
  Stream(std::size_t n, const std::filesystem::path& spill) : spill_path_(spill) {
    base_.reserve(adjacency_group_count(n));
    rel_.reserve(n + 1);
    if (!spill.empty()) spill_ = std::make_unique<ByteWriter>(spill);
  }
  ~Stream() {
    if (spill_ != nullptr) {
      spill_.reset();
      std::error_code ec;
      std::filesystem::remove(spill_path_, ec);
    }
  }

  std::uint64_t size() const noexcept {
    return (spill_ != nullptr ? spill_->written() : 0) + tail_.size();
  }

  void put(std::size_t rank, std::span<const graph::NodeId> row) {
    if (rank % kSnapshotRowGroup == 0) base_.push_back(size());
    push_rel(size() - base_.back());
    encode_adjacency_list(row, tail_);
    if (spill_ != nullptr) {
      spill_->write(tail_.data(), tail_.size());
      tail_.clear();
    }
  }

  /// Closes the row index with the end sentinel (row n).
  void close(std::size_t n) {
    while (base_.size() < adjacency_group_count(n)) base_.push_back(size());
    push_rel(size() - base_[n / kSnapshotRowGroup]);
  }

  /// Writes the whole section: sub-header, group bases, padded row
  /// offsets, padded stream. Returns its digest.
  std::uint64_t write_section(Sink& out) {
    out.begin_section();
    std::array<std::byte, 16> sub{};
    store_u64(sub.data(), size());
    out.write(sub.data(), sub.size());
    out.write(base_.data(), base_.size() * 8);
    out.write(rel_.data(), rel_.size() * 4);
    out.pad_to8();
    if (spill_ != nullptr) {
      spill_->close();
      std::FILE* f = std::fopen(spill_path_.c_str(), "rb");
      if (f == nullptr) fail("cannot reopen stream: " + spill_path_.string());
      std::vector<std::uint8_t> chunk(std::size_t{1} << 20);
      std::size_t got = 0;
      while ((got = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
        out.write(chunk.data(), got);
      }
      std::fclose(f);
    }
    out.write(tail_.data(), tail_.size());
    return out.end_section();
  }

 private:
  /// A row's start, relative to its 64-row group's u64 base.
  void push_rel(std::uint64_t rel) {
    if (rel > 0xFFFFFFFFULL) fail("compressed row group exceeds 4 GiB");
    rel_.push_back(static_cast<std::uint32_t>(rel));
  }

  std::vector<std::uint64_t> base_;
  std::vector<std::uint32_t> rel_;
  std::vector<std::uint8_t> tail_;  // the stream, or the row being spilled
  std::filesystem::path spill_path_;
  std::unique_ptr<ByteWriter> spill_;
};

CompressedWriter::CompressedWriter(std::vector<std::uint32_t> rank_order,
                                   std::span<const PackedProfile> profiles,
                                   bool country_index,
                                   const std::filesystem::path& spill_dir)
    : inv_(std::move(rank_order)),
      profiles_(profiles),
      country_index_(country_index),
      recip_(inv_.size(), 0) {
  const std::size_t n = inv_.size();
  if (profiles.size() != n) fail("profile count != node count");
  const bool spill = !spill_dir.empty();
  out_ = std::make_unique<Stream>(n, spill ? spill_dir / "out_stream"
                                           : std::filesystem::path());
  in_ = std::make_unique<Stream>(n, spill ? spill_dir / "in_stream"
                                          : std::filesystem::path());
}

CompressedWriter::~CompressedWriter() = default;

void CompressedWriter::put_row(graph::NodeId u,
                               std::span<const graph::NodeId> out,
                               std::span<const graph::NodeId> in) {
  if (next_rank_ >= inv_.size() || inv_[next_rank_] != u) {
    fail("row fed out of rank order");
  }
  out_->put(next_rank_, out);
  in_->put(next_rank_, in);
  std::uint32_t reciprocal = 0;
  for_each_reciprocal(out, in, [&](std::size_t) { ++reciprocal; });
  recip_[u] = reciprocal;
  out_edges_ += out.size();
  in_edges_ += in.size();
  ++next_rank_;
}

Layout CompressedWriter::lay_out() {
  const std::size_t n = inv_.size();
  if (next_rank_ != n) fail("finish before every row was fed");
  if (out_edges_ != in_edges_) fail("out/in arc counts diverged");
  out_->close(n);
  in_->close(n);
  if (country_index_) countries_ = index_countries(profiles_);
  return lay_out_sections(kSnapshotVersion3, n, out_edges_,
                          {adjacency_section_bytes(n, out_->size()),
                           adjacency_section_bytes(n, in_->size()),
                           pad8(n * 4), pad8(n * 4), pad8(n * 4)},
                          country_index_ ? &countries_ : nullptr);
}

void CompressedWriter::assemble(Sink& out, const Layout& layout) {
  std::array<std::byte, kHeaderBytes> header{};
  write_header(header.data(), layout);
  out.write(header.data(), header.size());

  const std::size_t n = inv_.size();
  std::vector<std::uint32_t> perm(n);
  for (std::uint32_t r = 0; r < n; ++r) perm[inv_[r]] = r;
  std::uint64_t digests[kSnapshotSectionCount] = {};
  digests[0] = out_->write_section(out);
  digests[1] = in_->write_section(out);
  digests[2] = out.section(perm.data(), n * 4);
  digests[3] = out.section(inv_.data(), n * 4);
  digests[4] = out.section(recip_.data(), n * 4);
  digests[5] = out.section(profiles_.data(), n * sizeof(PackedProfile));
  if (country_index_) {
    digests[6] = out.section(countries_.offsets.data(),
                             countries_.offsets.size() * 8);
    digests[7] = out.section(countries_.nodes.data(),
                             countries_.nodes.size() * 4);
  }
  const auto table = digest_table(digests);
  out.write(table.data(), table.size());
  if (out.written() != layout.total) {
    fail("assembled size mismatch (wrote " + std::to_string(out.written()) +
         ", laid out " + std::to_string(layout.total) + ")");
  }
}

SnapshotBuffer CompressedWriter::finish() {
  const Layout layout = lay_out();
  SnapshotBuffer buffer(std::vector<std::uint64_t>((layout.total + 7) / 8, 0),
                        layout.total);
  Sink sink(buffer.data(), layout.total);
  assemble(sink, layout);
  return buffer;
}

std::uint64_t CompressedWriter::finish(const std::filesystem::path& path) {
  const Layout layout = lay_out();
  Sink sink(path);
  assemble(sink, layout);
  sink.close();
  return layout.total;
}

}  // namespace gplus::serve::detail
