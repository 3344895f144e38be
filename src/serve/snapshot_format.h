// Internal byte-level helpers shared by the snapshot writer
// (snapshot_writer.cpp), the reader (snapshot.cpp) and the routing-table
// file: magic strings, FNV-1a, padding, little-endian loads and stores,
// and the compressed-section size arithmetic. The writer alone decides
// where sections go; the reader re-derives the same sizes from here to
// validate untrusted files. Not part of the public snapshot API.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gplus::serve::detail {

inline constexpr char kMagicV1[8] = {'G', 'P', 'S', 'N', 'A', 'P', '0', '1'};
inline constexpr char kMagicV2[8] = {'G', 'P', 'S', 'N', 'A', 'P', '0', '2'};
inline constexpr char kMagicV3[8] = {'G', 'P', 'S', 'N', 'A', 'P', '0', '3'};
inline constexpr std::size_t kHeaderBytes = 112;
inline constexpr std::size_t kChecksumOffset = 104;

/// Parses the 8-byte magic into a version, or 0 when it is not ours. The
/// retired v1 magic still parses, so a v1 file is refused by version
/// ("unsupported version 1") rather than mistaken for foreign bytes.
inline std::uint32_t version_from_magic(const void* magic) {
  if (std::memcmp(magic, kMagicV1, sizeof kMagicV1) == 0) return 1;
  if (std::memcmp(magic, kMagicV2, sizeof kMagicV2) == 0) return 2;
  if (std::memcmp(magic, kMagicV3, sizeof kMagicV3) == 0) return 3;
  return 0;
}

inline std::uint64_t fnv1a64(const std::byte* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t pad8(std::uint64_t bytes) {
  return (bytes + 7) & ~std::uint64_t{7};
}

inline void store_u32(std::byte* at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    at[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

inline void store_u64(std::byte* at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    at[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

inline std::uint32_t load_u32(const std::byte* at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(at[i]) << (8 * i);
  }
  return v;
}

inline std::uint64_t load_u64(const std::byte* at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(at[i]) << (8 * i);
  }
  return v;
}

// The view reinterprets sections in place, which is only correct on a
// little-endian host; big-endian would need a byte-swapping copy at open.
static_assert(std::endian::native == std::endian::little,
              "snapshot in-place views require a little-endian host");

/// u64 base entries in a compressed adjacency row index for n rows.
inline std::uint64_t adjacency_group_count(std::uint64_t n) {
  return n / 64 + 1;
}

/// Total bytes of one compressed adjacency section: 16-byte subheader,
/// group base array, padded per-row rel array, padded varint stream.
inline std::uint64_t adjacency_section_bytes(std::uint64_t n,
                                             std::uint64_t data_bytes) {
  return 16 + adjacency_group_count(n) * 8 + pad8((n + 1) * 4) +
         pad8(data_bytes);
}

}  // namespace gplus::serve::detail
