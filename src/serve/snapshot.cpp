#include "serve/snapshot.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/parallel.h"
#include "geo/countries.h"
#include "serve/snapshot_format.h"
#include "serve/snapshot_writer.h"

namespace gplus::serve {

namespace {

using detail::adjacency_group_count;
using detail::adjacency_section_bytes;
using detail::fnv1a64;
using detail::kChecksumOffset;
using detail::kHeaderBytes;
using detail::load_u32;
using detail::load_u64;
using detail::pad8;
using detail::version_from_magic;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("snapshot: " + what);
}

/// Validates magic, version and header checksum — everything a reader
/// may trust before it sizes anything from the header. Returns the
/// version.
std::uint32_t check_header(const std::byte* header) {
  const std::uint32_t magic_version = version_from_magic(header);
  if (magic_version == 0) fail("bad magic (not a gplus snapshot)");
  const std::uint32_t version = load_u32(header + 8);
  if (version != kSnapshotVersion2 && version != kSnapshotVersion3) {
    fail("unsupported version " + std::to_string(version) +
         " (reader knows 2 and 3)");
  }
  if (version != magic_version) {
    fail("magic/version mismatch (magic says " +
         std::to_string(magic_version) + ", header says " +
         std::to_string(version) + ")");
  }
  if (load_u64(header + kChecksumOffset) != fnv1a64(header, kChecksumOffset)) {
    fail("corrupt header (checksum mismatch)");
  }
  return version;
}

/// Resolves one section from its header slot: 8-byte aligned, past the
/// header, and wholly below `body_end` (the digest table). Overflow-safe
/// for any stored offset.
const std::byte* section_at(const std::byte* base, std::size_t header_at,
                            std::uint64_t length, std::uint64_t body_end,
                            const char* name) {
  const std::uint64_t off = load_u64(base + header_at);
  if (off % 8 != 0) fail(std::string(name) + " section misaligned");
  if (off < kHeaderBytes || off > body_end || length > body_end - off) {
    fail(std::string(name) + " section out of bounds");
  }
  return base + off;
}

}  // namespace

PackedProfile pack_profile(const synth::Profile& p) {
  PackedProfile out;
  out.gender = static_cast<std::uint8_t>(p.gender);
  out.relationship = static_cast<std::uint8_t>(p.relationship);
  out.occupation = static_cast<std::uint8_t>(p.occupation);
  out.flags = static_cast<std::uint8_t>((p.celebrity ? 1U : 0U) |
                                        (p.is_located() ? 2U : 0U) |
                                        (p.is_tel_user() ? 4U : 0U));
  out.country = p.country;
  out.shared_bits = p.shared.bits();
  return out;
}

SnapshotBuffer build_snapshot(const core::Dataset& dataset,
                              const SnapshotOptions& options) {
  const graph::DiGraph& g = dataset.graph();
  const std::size_t n = g.node_count();
  if (dataset.profiles.size() != n) fail("profile count != node count");
  if (options.version != kSnapshotVersion2 &&
      options.version != kSnapshotVersion3) {
    fail("unknown build version " + std::to_string(options.version));
  }
  std::vector<PackedProfile> profiles(n);
  std::vector<std::uint32_t> out_degree(n);
  std::vector<std::uint32_t> in_degree(n);
  core::parallel_for(n, 4096, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const auto id = static_cast<graph::NodeId>(u);
      profiles[u] = pack_profile(dataset.profiles[u]);
      out_degree[u] = static_cast<std::uint32_t>(g.out_degree(id));
      in_degree[u] = static_cast<std::uint32_t>(g.in_degree(id));
    }
  });

  // The DiGraph's spans are already ascending: they feed the writer as
  // rows directly, in parallel for v2 and in rank order for v3.
  if (options.version == kSnapshotVersion2) {
    detail::FlatWriter writer(out_degree, in_degree, profiles,
                              options.country_index);
    core::parallel_for(n, 1024, [&](std::size_t begin, std::size_t end) {
      for (std::size_t u = begin; u < end; ++u) {
        const auto id = static_cast<graph::NodeId>(u);
        writer.put_row(id, g.out_neighbors(id), g.in_neighbors(id));
      }
    });
    return writer.finish();
  }
  detail::CompressedWriter writer(
      detail::degree_rank_order(out_degree, in_degree), profiles,
      options.country_index);
  for (const graph::NodeId u : writer.rank_order()) {
    writer.put_row(u, g.out_neighbors(u), g.in_neighbors(u));
  }
  return writer.finish();
}

SnapshotView::SnapshotView(std::span<const std::byte> bytes) : bytes_(bytes) {
  if (bytes.size() < kHeaderBytes) fail("truncated header");
  const std::byte* base = bytes.data();
  version_ = check_header(base);
  const std::uint32_t flags = load_u32(base + 12);
  nodes_ = load_u64(base + 16);
  edges_ = load_u64(base + 24);
  const std::uint64_t total = load_u64(base + 96);
  if (total != bytes.size()) {
    fail("size mismatch: header says " + std::to_string(total) + " bytes, got " +
         std::to_string(bytes.size()));
  }
  if (reinterpret_cast<std::uintptr_t>(base) % 8 != 0) {
    fail("buffer not 8-byte aligned");
  }
  // The digest table occupies the final 72 bytes; data sections must stay
  // below it. Its self-checksum is verified here (72 bytes, still O(1));
  // the per-section digests are verified by verify_sections().
  if (total < kHeaderBytes + kSnapshotDigestBytes) {
    fail("truncated digest table");
  }
  const std::uint64_t body_end = total - kSnapshotDigestBytes;
  digests_ = reinterpret_cast<const std::uint64_t*>(base + body_end);
  if (digests_[kSnapshotSectionCount] !=
      fnv1a64(base + body_end, kSnapshotSectionCount * 8)) {
    fail("corrupt digest table (self-checksum mismatch)");
  }
  // Guard the layout arithmetic before using nodes_ in any length
  // computation: every format stores at least 4 bytes per node, so a
  // node count the buffer cannot possibly hold is rejected up front (this
  // also keeps every u64 length expression below from overflowing).
  if (nodes_ >= body_end / 4) fail("node count impossible for buffer size");

  if (version_ == kSnapshotVersion3) {
    open_compressed_sections(base, flags, body_end);
  } else {
    open_flat_sections(base, flags, body_end);
  }
}

void SnapshotView::open_flat_sections(const std::byte* base,
                                      std::uint32_t flags,
                                      std::uint64_t body_end) {
  if (edges_ > body_end / 4) fail("edge count impossible for buffer size");
  out_offsets_ = reinterpret_cast<const std::uint64_t*>(section_at(
      base, 32, (nodes_ + 1) * 8, body_end, "out_offsets"));
  out_targets_ = reinterpret_cast<const graph::NodeId*>(
      section_at(base, 40, pad8(edges_ * 4), body_end, "out_targets"));
  in_offsets_ = reinterpret_cast<const std::uint64_t*>(
      section_at(base, 48, (nodes_ + 1) * 8, body_end, "in_offsets"));
  in_targets_ = reinterpret_cast<const graph::NodeId*>(
      section_at(base, 56, pad8(edges_ * 4), body_end, "in_targets"));
  recip_ = reinterpret_cast<const std::uint64_t*>(
      section_at(base, 64, (edges_ + 63) / 64 * 8, body_end, "recip"));
  if (out_offsets_[0] != 0 || out_offsets_[nodes_] != edges_) {
    fail("out_offsets inconsistent with edge count");
  }
  if (in_offsets_[0] != 0 || in_offsets_[nodes_] != edges_) {
    fail("in_offsets inconsistent with edge count");
  }
  open_node_sections(base, flags, body_end);
}

void SnapshotView::open_compressed_sections(const std::byte* base,
                                            std::uint32_t flags,
                                            std::uint64_t body_end) {
  // Compressed adjacency sections: bounds-check the 16-byte sub-header
  // first, read the stream length, then bounds-check the full extent.
  auto adjacency = [&](std::size_t header_at,
                       const char* name) -> CompressedAdjacency {
    const std::byte* at = section_at(base, header_at, 16, body_end, name);
    const std::uint64_t data_bytes = load_u64(at);
    if (data_bytes > body_end) {
      fail(std::string(name) + " stream length impossible");
    }
    section_at(base, header_at, adjacency_section_bytes(nodes_, data_bytes),
               body_end, name);
    CompressedAdjacency adj;
    adj.data_bytes = data_bytes;
    adj.base = reinterpret_cast<const std::uint64_t*>(at + 16);
    const std::byte* rel_at = at + 16 + adjacency_group_count(nodes_) * 8;
    adj.rel = reinterpret_cast<const std::uint32_t*>(rel_at);
    adj.data = reinterpret_cast<const std::uint8_t*>(
        rel_at + pad8((nodes_ + 1) * 4));
    // O(1) consistency: row 0 starts at stream byte 0 and the sentinel
    // lands exactly on the stream end.
    if (adj.base[0] != 0 || adj.rel[0] != 0) {
      fail(std::string(name) + " row index corrupt (first row not at 0)");
    }
    if (adj.base[nodes_ / kSnapshotRowGroup] + adj.rel[nodes_] != data_bytes) {
      fail(std::string(name) + " row index corrupt (sentinel != stream end)");
    }
    return adj;
  };

  out_adj_ = adjacency(32, "out_adj");
  in_adj_ = adjacency(40, "in_adj");
  perm_ = reinterpret_cast<const std::uint32_t*>(
      section_at(base, 48, pad8(nodes_ * 4), body_end, "perm"));
  inv_ = reinterpret_cast<const std::uint32_t*>(
      section_at(base, 56, pad8(nodes_ * 4), body_end, "inv"));
  recip_counts_ = reinterpret_cast<const std::uint32_t*>(
      section_at(base, 64, pad8(nodes_ * 4), body_end, "recip_counts"));
  // O(1) permutation sanity (full validation is the digest table's job).
  if (nodes_ > 0 && (perm_[0] >= nodes_ || inv_[perm_[0]] != 0)) {
    fail("perm/inv permutation corrupt");
  }
  open_node_sections(base, flags, body_end);
}

void SnapshotView::open_node_sections(const std::byte* base,
                                      std::uint32_t flags,
                                      std::uint64_t body_end) {
  profiles_ = reinterpret_cast<const PackedProfile*>(section_at(
      base, 72, pad8(nodes_ * sizeof(PackedProfile)), body_end, "profiles"));
  if (flags & kSnapshotFlagCountryIndex) {
    country_count_ = geo::country_count();
    country_offsets_ = reinterpret_cast<const std::uint64_t*>(
        section_at(base, 80, (country_count_ + 1) * 8, body_end,
                   "country_offsets"));
    const std::uint64_t located = country_offsets_[country_count_];
    if (located > body_end / 4) fail("country index impossible for buffer");
    country_nodes_ = reinterpret_cast<const graph::NodeId*>(section_at(
        base, 88, pad8(located * 4), body_end, "country_nodes"));
  }
}

void SnapshotView::verify_sections() const {
  struct SectionRef {
    const char* name;
    const std::byte* at;  // nullptr when the section is absent
    std::size_t length;
  };
  const std::byte* base = bytes_.data();
  auto at_header_offset = [&](std::size_t header_at) -> const std::byte* {
    return base + load_u64(base + header_at);
  };
  SectionRef sections[kSnapshotSectionCount];
  if (version_ >= kSnapshotVersion3) {
    sections[0] = {"out_adj", at_header_offset(32),
                   adjacency_section_bytes(nodes_, out_adj_.data_bytes)};
    sections[1] = {"in_adj", at_header_offset(40),
                   adjacency_section_bytes(nodes_, in_adj_.data_bytes)};
    sections[2] = {"perm", reinterpret_cast<const std::byte*>(perm_),
                   pad8(nodes_ * 4)};
    sections[3] = {"inv", reinterpret_cast<const std::byte*>(inv_),
                   pad8(nodes_ * 4)};
    sections[4] = {"recip_counts",
                   reinterpret_cast<const std::byte*>(recip_counts_),
                   pad8(nodes_ * 4)};
  } else {
    sections[0] = {"out_offsets",
                   reinterpret_cast<const std::byte*>(out_offsets_),
                   (nodes_ + 1) * 8};
    sections[1] = {"out_targets",
                   reinterpret_cast<const std::byte*>(out_targets_),
                   pad8(edges_ * 4)};
    sections[2] = {"in_offsets",
                   reinterpret_cast<const std::byte*>(in_offsets_),
                   (nodes_ + 1) * 8};
    sections[3] = {"in_targets",
                   reinterpret_cast<const std::byte*>(in_targets_),
                   pad8(edges_ * 4)};
    sections[4] = {"recip", reinterpret_cast<const std::byte*>(recip_),
                   (edges_ + 63) / 64 * 8};
  }
  sections[5] = {"profiles", reinterpret_cast<const std::byte*>(profiles_),
                 pad8(nodes_ * sizeof(PackedProfile))};
  sections[6] = {"country_offsets",
                 reinterpret_cast<const std::byte*>(country_offsets_),
                 (country_count_ + 1) * 8};
  sections[7] = {"country_nodes",
                 reinterpret_cast<const std::byte*>(country_nodes_),
                 country_offsets_ == nullptr
                     ? 0
                     : pad8(country_offsets_[country_count_] * 4)};
  for (std::size_t s = 0; s < kSnapshotSectionCount; ++s) {
    const SectionRef& ref = sections[s];
    const std::uint64_t want = digests_[s];
    if (ref.at == nullptr || ref.at == base) {
      if (want != 0) fail(std::string(ref.name) + " digest for absent section");
      continue;
    }
    if (fnv1a64(ref.at, ref.length) != want) {
      fail(std::string(ref.name) + " section corrupt (digest mismatch)");
    }
  }
}

bool SnapshotView::has_out_edge(graph::NodeId u, graph::NodeId v) const noexcept {
  if (out_offsets_ != nullptr) {
    const auto out = out_neighbors(u);
    return std::binary_search(out.begin(), out.end(), v);
  }
  AdjacencyListDecoder dec(out_adj_.row(perm_[u]), out_adj_.end());
  return dec.contains(v);
}

std::uint64_t SnapshotView::reciprocal_out_degree(graph::NodeId u) const noexcept {
  if (recip_counts_ != nullptr) return recip_counts_[u];
  const std::uint64_t begin = out_offsets_[u];
  const std::uint64_t end = out_offsets_[u + 1];
  if (begin == end) return 0;
  std::uint64_t count = 0;
  std::uint64_t w = begin >> 6;
  const std::uint64_t last = (end - 1) >> 6;
  for (; w <= last; ++w) {
    std::uint64_t word = recip_[w];
    if (w == begin >> 6) word &= ~std::uint64_t{0} << (begin & 63);
    if (w == last && (end & 63) != 0) {
      word &= (std::uint64_t{1} << (end & 63)) - 1;
    }
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return count;
}

std::span<const graph::NodeId> SnapshotView::country_users(
    std::uint16_t country) const noexcept {
  if (country_offsets_ == nullptr || country >= country_count_) return {};
  return {country_nodes_ + country_offsets_[country],
          static_cast<std::size_t>(country_offsets_[country + 1] -
                                   country_offsets_[country])};
}

void write_snapshot(const SnapshotBuffer& snapshot, std::ostream& out) {
  const auto bytes = snapshot.bytes();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) fail("write failed");
}

bool sniff_snapshot_magic(std::istream& in) {
  char magic[8] = {};
  in.read(magic, sizeof magic);
  return in.gcount() == sizeof magic && version_from_magic(magic) != 0;
}

SnapshotBuffer read_snapshot(std::istream& in) {
  // Value-initialized so a short read can never leave uninitialized bytes
  // behind; the stream state is checked before the header is trusted.
  std::vector<std::uint64_t> words(kHeaderBytes / 8, 0);
  auto* bytes = reinterpret_cast<char*>(words.data());
  in.read(bytes, kHeaderBytes);
  if (!in) {
    fail("truncated header (shorter than the " +
         std::to_string(kHeaderBytes) + "-byte snapshot header)");
  }
  check_header(reinterpret_cast<const std::byte*>(bytes));
  const std::uint64_t total =
      load_u64(reinterpret_cast<const std::byte*>(bytes) + 96);
  if (total < kHeaderBytes + kSnapshotDigestBytes) {
    fail("corrupt header (impossible size)");
  }
  // The body arrives in pieces that grow with what was actually read, so
  // a stream shorter than its header claims fails as truncated without
  // ever allocating the claimed size.
  std::uint64_t have = kHeaderBytes;
  while (have < total) {
    const std::uint64_t next =
        std::min(total, std::max<std::uint64_t>(2 * have, 1 << 20));
    words.reserve((next + 7) / 8);
    words.resize((next + 7) / 8, 0);
    bytes = reinterpret_cast<char*>(words.data());
    in.read(bytes + have, static_cast<std::streamsize>(next - have));
    if (!in) fail("truncated stream");
    have = next;
  }
  SnapshotBuffer buffer(std::move(words), total);
  SnapshotView view(buffer.bytes());  // full header/section validation
  (void)view;
  return buffer;
}

void save_snapshot(const SnapshotBuffer& snapshot,
                   const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open for writing: " + path.string());
  write_snapshot(snapshot, out);
}

SnapshotBuffer load_snapshot(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open for reading: " + path.string());
  return read_snapshot(in);
}

}  // namespace gplus::serve
