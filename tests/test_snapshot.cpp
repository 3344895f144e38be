// Serving-snapshot format tests: round-trip fidelity against the source
// Dataset/DiGraph, plus the dataset_io-style hardening gauntlet (bad
// magic, truncation, corrupt header, unknown version, rogue sections).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/dataset.h"
#include "core/parallel.h"
#include "geo/countries.h"
#include "serve/snapshot.h"
#include "serve/snapshot_file.h"

namespace gplus::serve {
namespace {

// Local FNV-1a mirror of the header checksum, so tests can re-seal a
// deliberately patched header (changing anything else must still fail).
std::uint64_t fnv1a64(const std::byte* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Copies snapshot bytes into a mutable, 8-byte-aligned vector.
std::vector<std::uint64_t> mutable_copy(const SnapshotBuffer& snapshot) {
  std::vector<std::uint64_t> words((snapshot.size() + 7) / 8, 0);
  std::memcpy(words.data(), snapshot.bytes().data(), snapshot.size());
  return words;
}

std::span<const std::byte> as_bytes(const std::vector<std::uint64_t>& words,
                                    std::size_t size) {
  return {reinterpret_cast<const std::byte*>(words.data()), size};
}

void reseal_header(std::vector<std::uint64_t>& words) {
  auto* bytes = reinterpret_cast<std::byte*>(words.data());
  const std::uint64_t checksum = fnv1a64(bytes, 104);
  std::memcpy(bytes + 104, &checksum, 8);
}

class SnapshotRoundTrip : public ::testing::Test {
 protected:
  static const core::Dataset& dataset() {
    static const core::Dataset instance = core::make_standard_dataset(3000, 11);
    return instance;
  }
  static const SnapshotBuffer& snapshot() {
    static const SnapshotBuffer instance = build_snapshot(dataset());
    return instance;
  }
};

TEST_F(SnapshotRoundTrip, AdjacencyMatchesGraph) {
  const SnapshotView view(snapshot().bytes());
  const auto& g = dataset().graph();
  ASSERT_EQ(view.node_count(), g.node_count());
  ASSERT_EQ(view.edge_count(), g.edge_count());
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    const auto out = g.out_neighbors(u);
    const auto got_out = view.out_neighbors(u);
    ASSERT_EQ(got_out.size(), out.size()) << u;
    EXPECT_TRUE(std::equal(out.begin(), out.end(), got_out.begin())) << u;
    const auto in = g.in_neighbors(u);
    const auto got_in = view.in_neighbors(u);
    ASSERT_EQ(got_in.size(), in.size()) << u;
    EXPECT_TRUE(std::equal(in.begin(), in.end(), got_in.begin())) << u;
    EXPECT_EQ(view.out_degree(u), g.out_degree(u));
    EXPECT_EQ(view.in_degree(u), g.in_degree(u));
  }
}

TEST_F(SnapshotRoundTrip, ReciprocalBitmapMatchesGraph) {
  const SnapshotView view(snapshot().bytes());
  const auto& g = dataset().graph();
  std::uint64_t e = 0;
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    std::uint64_t reciprocal = 0;
    for (const graph::NodeId v : g.out_neighbors(u)) {
      const bool expect = g.has_edge(v, u);
      EXPECT_EQ(view.edge_reciprocal(e), expect) << u << "->" << v;
      reciprocal += expect ? 1 : 0;
      ++e;
    }
    EXPECT_EQ(view.reciprocal_out_degree(u), reciprocal) << u;
  }
}

TEST_F(SnapshotRoundTrip, ProfilesAndCountryIndexMatchDataset) {
  const SnapshotView view(snapshot().bytes());
  ASSERT_TRUE(view.has_country_index());
  std::size_t located = 0;
  for (graph::NodeId u = 0; u < view.node_count(); ++u) {
    const auto& want = dataset().profiles[u];
    const PackedProfile& got = view.profile(u);
    EXPECT_EQ(got.gender, static_cast<std::uint8_t>(want.gender));
    EXPECT_EQ(got.relationship, static_cast<std::uint8_t>(want.relationship));
    EXPECT_EQ(got.occupation, static_cast<std::uint8_t>(want.occupation));
    EXPECT_EQ(got.country, want.country);
    EXPECT_EQ(got.shared_bits, want.shared.bits());
    EXPECT_EQ(got.celebrity(), want.celebrity);
    EXPECT_EQ(got.located(), want.is_located());
    EXPECT_EQ(got.tel_user(), want.is_tel_user());
    if (want.is_located()) ++located;
  }
  std::size_t indexed = 0;
  for (std::uint16_t c = 0; c < geo::country_count(); ++c) {
    const auto users = view.country_users(c);
    indexed += users.size();
    for (std::size_t i = 0; i < users.size(); ++i) {
      EXPECT_EQ(dataset().profiles[users[i]].country, c);
      EXPECT_TRUE(dataset().profiles[users[i]].is_located());
      if (i > 0) EXPECT_LT(users[i - 1], users[i]);
    }
  }
  EXPECT_EQ(indexed, located);
}

TEST_F(SnapshotRoundTrip, StreamAndFileRoundTripBitIdentical) {
  std::ostringstream out;
  write_snapshot(snapshot(), out);
  std::istringstream in(out.str());
  const SnapshotBuffer loaded = read_snapshot(in);
  ASSERT_EQ(loaded.size(), snapshot().size());
  EXPECT_EQ(std::memcmp(loaded.bytes().data(), snapshot().bytes().data(),
                        snapshot().size()),
            0);

  const auto path =
      std::filesystem::temp_directory_path() / "gplus_snapshot_test.snap";
  save_snapshot(snapshot(), path);
  const SnapshotBuffer from_file = load_snapshot(path);
  EXPECT_EQ(from_file.size(), snapshot().size());
  EXPECT_EQ(std::memcmp(from_file.bytes().data(), snapshot().bytes().data(),
                        snapshot().size()),
            0);
  std::filesystem::remove(path);
}

TEST_F(SnapshotRoundTrip, OmittingCountryIndexShrinksAndStillValidates) {
  SnapshotOptions options;
  options.country_index = false;
  const SnapshotBuffer lean = build_snapshot(dataset(), options);
  EXPECT_LT(lean.size(), snapshot().size());
  const SnapshotView view(lean.bytes());
  EXPECT_FALSE(view.has_country_index());
  EXPECT_TRUE(view.country_users(0).empty());
  EXPECT_EQ(view.node_count(), dataset().graph().node_count());
}

TEST_F(SnapshotRoundTrip, RejectsBadMagic) {
  auto words = mutable_copy(snapshot());
  reinterpret_cast<char*>(words.data())[0] = 'X';
  EXPECT_THROW(
      { SnapshotView view(as_bytes(words, snapshot().size())); },
      std::runtime_error);
}

TEST_F(SnapshotRoundTrip, RejectsCorruptHeader) {
  auto words = mutable_copy(snapshot());
  // Flip one node-count byte without resealing: checksum must catch it.
  reinterpret_cast<std::uint8_t*>(words.data())[16] ^= 0xFF;
  try {
    SnapshotView view(as_bytes(words, snapshot().size()));
    FAIL() << "corrupt header accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos);
  }
}

TEST_F(SnapshotRoundTrip, RejectsUnknownVersion) {
  // 99 is from the future; 1 is the retired GPSNAP01, whose magic is
  // still recognised so it is refused by version, not as foreign bytes.
  for (const std::uint8_t version : {std::uint8_t{99}, std::uint8_t{1}}) {
    auto words = mutable_copy(snapshot());
    auto* bytes = reinterpret_cast<std::uint8_t*>(words.data());
    bytes[8] = version;  // version field
    if (version == 1) std::memcpy(bytes, "GPSNAP01", 8);
    reseal_header(words);
    const std::string want = "unsupported version " +
                             std::to_string(version) +
                             " (reader knows 2 and 3)";
    try {
      SnapshotView view(as_bytes(words, snapshot().size()));
      FAIL() << "version " << int{version} << " accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(want), std::string::npos)
          << error.what();
    }
    std::istringstream stream(std::string(
        reinterpret_cast<const char*>(bytes), snapshot().size()));
    try {
      read_snapshot(stream);
      FAIL() << "version " << int{version} << " read";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(want), std::string::npos)
          << error.what();
    }
  }
}

TEST_F(SnapshotRoundTrip, RejectsRogueSectionOffset) {
  auto words = mutable_copy(snapshot());
  auto* bytes = reinterpret_cast<std::byte*>(words.data());
  const std::uint64_t huge = snapshot().size() + 1024;
  std::memcpy(bytes + 32, &huge, 8);  // out_offsets section offset
  reseal_header(words);
  try {
    SnapshotView view(as_bytes(words, snapshot().size()));
    FAIL() << "rogue section accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("out of bounds"), std::string::npos);
  }
}

TEST_F(SnapshotRoundTrip, RejectsTruncation) {
  // View over a truncated span: size mismatch.
  EXPECT_THROW(
      { SnapshotView view(snapshot().bytes().subspan(0, snapshot().size() - 8)); },
      std::runtime_error);
  // Stream cut mid-body: truncated stream.
  std::ostringstream out;
  write_snapshot(snapshot(), out);
  const std::string full = out.str();
  std::istringstream cut_body(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_snapshot(cut_body), std::runtime_error);
  // Stream cut mid-header.
  std::istringstream cut_header(full.substr(0, 40));
  EXPECT_THROW(read_snapshot(cut_header), std::runtime_error);
  // Not a snapshot at all.
  std::istringstream garbage("definitely not a snapshot file .......");
  EXPECT_THROW(read_snapshot(garbage), std::runtime_error);
  // A lone header claiming 2^62 bytes: with a valid checksum the body
  // read fails as truncated, with a corrupt one the checksum does. Neither
  // may size an allocation from the claim (std::bad_alloc is not a
  // std::runtime_error).
  for (const bool reseal : {true, false}) {
    auto words = mutable_copy(snapshot());
    const std::uint64_t huge = std::uint64_t{1} << 62;
    std::memcpy(reinterpret_cast<std::byte*>(words.data()) + 96, &huge, 8);
    if (reseal) reseal_header(words);
    std::istringstream claim(
        std::string(reinterpret_cast<const char*>(words.data()), 112));
    try {
      read_snapshot(claim);
      FAIL() << "2^62-byte claim accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what())
                    .find(reseal ? "truncated stream" : "checksum"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST_F(SnapshotRoundTrip, V2DigestTableVerifies) {
  const SnapshotView view(snapshot().bytes());
  EXPECT_EQ(view.version(), kSnapshotVersion2);
  EXPECT_NO_THROW(view.verify_sections());
}

TEST_F(SnapshotRoundTrip, BitFlipSweepRejectsEveryCorruption) {
  // Flip one byte inside every data section of a valid v2 snapshot: the
  // header stays sound (so the O(1) open succeeds), but deep validation
  // must name the corruption — for each section, with no crash.
  const auto* base = reinterpret_cast<const std::uint8_t*>(snapshot().bytes().data());
  for (std::size_t section = 0; section < kSnapshotSectionCount; ++section) {
    std::uint64_t offset = 0;
    std::memcpy(&offset, base + 32 + section * 8, 8);
    ASSERT_NE(offset, 0u) << "section " << section << " absent";
    auto words = mutable_copy(snapshot());
    reinterpret_cast<std::uint8_t*>(words.data())[offset + 9] ^= 0x40;
    // The open-time structural checks may already catch the flip (offset
    // arrays carry invariants); the digest sweep must catch everything
    // that slips past them. Either way: rejected, never served.
    try {
      const SnapshotView view(as_bytes(words, snapshot().size()));
      view.verify_sections();
      FAIL() << "corruption in section " << section << " accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_FALSE(std::string(error.what()).empty()) << section;
    }
  }
  // A flipped digest-table byte is caught at open by the table's own
  // checksum — a corrupt validator never reports "all sections fine".
  auto words = mutable_copy(snapshot());
  reinterpret_cast<std::uint8_t*>(words.data())[snapshot().size() -
                                                kSnapshotDigestBytes + 3] ^= 1;
  try {
    SnapshotView view(as_bytes(words, snapshot().size()));
    FAIL() << "corrupt digest table accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("digest"), std::string::npos);
  }
}

TEST_F(SnapshotRoundTrip, RejectsTruncatedDigestTable) {
  // A v2 header whose total leaves no room for the trailing table.
  std::vector<std::uint64_t> words(14, 0);
  auto* bytes = reinterpret_cast<std::byte*>(words.data());
  std::memcpy(bytes, "GPSNAP02", 8);
  const std::uint32_t version = 2;
  std::memcpy(bytes + 8, &version, 4);
  const std::uint64_t total = 112;
  std::memcpy(bytes + 96, &total, 8);
  reseal_header(words);
  try {
    SnapshotView view(as_bytes(words, 112));
    FAIL() << "truncated digest table accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("digest"), std::string::npos);
  }
}

TEST_F(SnapshotRoundTrip, SniffMagicIsShortReadSafe) {
  std::istringstream v2("GPSNAP02 plus trailing bytes");
  EXPECT_TRUE(sniff_snapshot_magic(v2));
  std::istringstream v1("GPSNAP01");
  EXPECT_TRUE(sniff_snapshot_magic(v1));
  std::istringstream future("GPSNAP99");  // unknown version digits
  EXPECT_FALSE(sniff_snapshot_magic(future));
  std::istringstream shorter("GPS");  // shorter than the magic itself
  EXPECT_FALSE(sniff_snapshot_magic(shorter));
  std::istringstream empty("");
  EXPECT_FALSE(sniff_snapshot_magic(empty));
  std::istringstream foreign("GPLUSDS1 dataset, not a snapshot");
  EXPECT_FALSE(sniff_snapshot_magic(foreign));
}

class SnapshotV3 : public SnapshotRoundTrip {
 protected:
  static const SnapshotBuffer& v3() {
    static const SnapshotBuffer instance = [] {
      SnapshotOptions options;
      options.version = kSnapshotVersion3;
      return build_snapshot(dataset(), options);
    }();
    return instance;
  }
};

TEST_F(SnapshotV3, RejectsImpossibleCountryIndex) {
  // country_offsets[last] is the located-user count the country_nodes
  // section is sized from. 2^62+1 wraps the 4-byte-per-entry length to a
  // tiny one, which must not let either format open over a 4.6e18-entry
  // span.
  for (const SnapshotBuffer* built : {&snapshot(), &v3()}) {
    auto words = mutable_copy(*built);
    auto* bytes = reinterpret_cast<std::byte*>(words.data());
    std::uint64_t offsets_at = 0;
    std::memcpy(&offsets_at, bytes + 80, 8);
    ASSERT_NE(offsets_at, 0u);
    const std::uint64_t located = (std::uint64_t{1} << 62) + 1;
    std::memcpy(bytes + offsets_at + geo::country_count() * 8, &located, 8);
    try {
      SnapshotView view(as_bytes(words, built->size()));
      FAIL() << "impossible country index accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("country index impossible"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST_F(SnapshotV3, CompressedAdjacencyMatchesGraph) {
  const SnapshotView view(v3().bytes());
  EXPECT_EQ(view.version(), kSnapshotVersion3);
  EXPECT_TRUE(view.adjacency_compressed());
  EXPECT_NO_THROW(view.verify_sections());
  const auto& g = dataset().graph();
  ASSERT_EQ(view.node_count(), g.node_count());
  ASSERT_EQ(view.edge_count(), g.edge_count());
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(view.out_degree(u), g.out_degree(u)) << u;
    EXPECT_EQ(view.in_degree(u), g.in_degree(u)) << u;
    NeighborScan scan = view.out_scan(u);
    ASSERT_EQ(scan.size(), g.out_degree(u)) << u;
    graph::NodeId got = 0;
    for (const graph::NodeId want : g.out_neighbors(u)) {
      ASSERT_TRUE(scan.next(got)) << u;
      EXPECT_EQ(got, want) << u;
    }
    EXPECT_FALSE(scan.next(got)) << u;
    NeighborScan in = view.in_scan(u);
    ASSERT_EQ(in.size(), g.in_degree(u)) << u;
    for (const graph::NodeId want : g.in_neighbors(u)) {
      ASSERT_TRUE(in.next(got)) << u;
      EXPECT_EQ(got, want) << u;
    }
  }
}

TEST_F(SnapshotV3, PermutationIsDegreeOrderAndInverse) {
  const SnapshotView view(v3().bytes());
  const auto& g = dataset().graph();
  std::uint64_t previous = ~std::uint64_t{0};
  for (std::uint32_t r = 0; r < view.node_count(); ++r) {
    const graph::NodeId u = view.rank_to_node(r);
    EXPECT_EQ(view.node_to_rank(u), r) << r;
    const std::uint64_t degree = g.out_degree(u) + g.in_degree(u);
    EXPECT_LE(degree, previous) << r;  // hubs first
    previous = degree;
  }
}

TEST_F(SnapshotV3, MembershipAndReciprocityMatchGraph) {
  const SnapshotView view(v3().bytes());
  const auto& g = dataset().graph();
  EXPECT_FALSE(view.edge_reciprocal(0));  // per-edge bitmap is v1/v2-only
  for (graph::NodeId u = 0; u < g.node_count(); u += 7) {
    std::uint64_t reciprocal = 0;
    for (const graph::NodeId v : g.out_neighbors(u)) {
      EXPECT_TRUE(view.has_out_edge(u, v)) << u << "->" << v;
      reciprocal += g.has_edge(v, u) ? 1 : 0;
    }
    EXPECT_EQ(view.reciprocal_out_degree(u), reciprocal) << u;
    // Probes that must miss: just-past neighbors and a far id.
    EXPECT_FALSE(view.has_out_edge(u, static_cast<graph::NodeId>(
                                          g.node_count() + 5)));
  }
}

TEST_F(SnapshotV3, ProfilesAndCountryIndexSurvive) {
  const SnapshotView view(v3().bytes());
  ASSERT_TRUE(view.has_country_index());
  const SnapshotView flat(snapshot().bytes());
  for (graph::NodeId u = 0; u < view.node_count(); u += 13) {
    EXPECT_EQ(view.profile(u), flat.profile(u)) << u;
  }
  for (std::uint16_t c = 0; c < geo::country_count(); ++c) {
    const auto a = view.country_users(c);
    const auto b = flat.country_users(c);
    ASSERT_EQ(a.size(), b.size()) << c;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << c;
  }
}

TEST_F(SnapshotV3, BitFlipSweepRejectsEveryCorruption) {
  // One flipped byte in every v3 section — including both compressed
  // adjacency streams and the permutation arrays — must be rejected by
  // open-time structural checks or the digest sweep, and never crash
  // (the decoder fails closed under ASan/UBSan).
  const auto* base = reinterpret_cast<const std::uint8_t*>(v3().bytes().data());
  for (std::size_t section = 0; section < kSnapshotSectionCount; ++section) {
    std::uint64_t offset = 0;
    std::memcpy(&offset, base + 32 + section * 8, 8);
    ASSERT_NE(offset, 0u) << "section " << section << " absent";
    for (const std::size_t delta : {std::size_t{0}, std::size_t{17}}) {
      auto words = mutable_copy(v3());
      reinterpret_cast<std::uint8_t*>(words.data())[offset + delta] ^= 0x20;
      try {
        const SnapshotView view(as_bytes(words, v3().size()));
        view.verify_sections();
        FAIL() << "corruption in section " << section << " at +" << delta
               << " accepted";
      } catch (const std::runtime_error& error) {
        EXPECT_FALSE(std::string(error.what()).empty()) << section;
      }
    }
  }
}

TEST_F(SnapshotV3, CorruptAdjacencyBytesNeverCrashTheDecoder) {
  // Deep-flip inside the varint stream of the out-adjacency section (past
  // the base/rel arrays), then *serve* from the corrupt view without
  // verifying first: decoders must fail closed — wrong answers are
  // acceptable here, out-of-bounds reads are not (ASan enforces).
  const auto* base = reinterpret_cast<const std::uint8_t*>(v3().bytes().data());
  std::uint64_t out_adj = 0;
  std::uint64_t in_adj = 0;
  std::memcpy(&out_adj, base + 32, 8);
  std::memcpy(&in_adj, base + 40, 8);
  const std::uint64_t stream_middle = out_adj + (in_adj - out_adj) / 2;
  for (std::size_t i = 0; i < 64; ++i) {
    auto words = mutable_copy(v3());
    reinterpret_cast<std::uint8_t*>(words.data())[stream_middle + i] ^= 0xFF;
    try {
      const SnapshotView view(as_bytes(words, v3().size()));
      for (graph::NodeId u = 0; u < view.node_count(); u += 11) {
        NeighborScan scan = view.out_scan(u);
        graph::NodeId v = 0;
        std::size_t decoded = 0;
        while (decoded <= view.node_count() && scan.next(v)) ++decoded;
        view.has_out_edge(u, u + 1);
      }
    } catch (const std::runtime_error&) {
      // Structural check caught it at open: equally fine.
    }
  }
}

TEST_F(SnapshotV3, OpensOffMmapAndServesIdentically) {
  const auto path =
      std::filesystem::temp_directory_path() / "gplus_snapshot_v3_mmap.snap";
  save_snapshot(v3(), path);
  {
    MappedSnapshot mapped(path);
    EXPECT_EQ(mapped.size_bytes(), v3().size());
    const SnapshotView& view = mapped.view();
    EXPECT_TRUE(view.adjacency_compressed());
    EXPECT_NO_THROW(view.verify_sections());
    const SnapshotView heap(v3().bytes());
    for (graph::NodeId u = 0; u < view.node_count(); u += 37) {
      NeighborScan a = view.out_scan(u);
      NeighborScan b = heap.out_scan(u);
      ASSERT_EQ(a.size(), b.size()) << u;
      graph::NodeId x = 0;
      graph::NodeId y = 0;
      while (b.next(y)) {
        ASSERT_TRUE(a.next(x)) << u;
        EXPECT_EQ(x, y) << u;
      }
    }
  }
  std::filesystem::remove(path);
}

TEST_F(SnapshotV3, MmapRejectsMissingAndCorruptFiles) {
  EXPECT_THROW(MappedSnapshot mapped("/nonexistent/gplus.snap"),
               std::runtime_error);
  const auto path =
      std::filesystem::temp_directory_path() / "gplus_snapshot_corrupt.snap";
  // Corrupt header byte: the mmap open itself must throw (and unmap).
  auto words = mutable_copy(v3());
  reinterpret_cast<std::uint8_t*>(words.data())[16] ^= 0xFF;
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(words.data()),
              static_cast<std::streamsize>(v3().size()));
  }
  EXPECT_THROW(MappedSnapshot mapped(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(SnapshotBuild, DeterministicAcrossThreadCounts) {
  const core::Dataset dataset = core::make_standard_dataset(1500, 3);
  core::set_thread_count(1);
  const SnapshotBuffer serial = build_snapshot(dataset);
  core::set_thread_count(4);
  const SnapshotBuffer parallel = build_snapshot(dataset);
  core::set_thread_count(0);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(std::memcmp(serial.bytes().data(), parallel.bytes().data(),
                        serial.size()),
            0);
}

}  // namespace
}  // namespace gplus::serve
