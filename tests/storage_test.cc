// The save/open contract of storage/database_io.h, from both sides:
//
//   - round-trip equality: a saved-then-reopened database (both the
//     resident mmap open and the paged buffer-pool open) answers a
//     randomized sweep identically to the freshly built database AND to
//     the whole-graph Dijkstra oracle, across fragmenters, engines, and
//     page sizes; maintained databases resume updates at the stored
//     epoch + 1.
//   - hostility: truncation at every page boundary, single-bit flips
//     across the whole file, magic/version/page-size mismatches, lying
//     superblock fields and lying witness routes behind resealed pages are
//     all rejected with a descriptive Status — never a crash (this suite
//     runs in the ASan/UBSan legs).
#include "storage/database_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dsa_sweep.h"
#include "graph/algorithms.h"
#include "storage/crc32c.h"
#include "storage/page.h"

namespace tcf {
namespace {

using dsa_sweep::Fragmenter;
using dsa_sweep::MakeFragmentation;
using dsa_sweep::MakeTransport;

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "storage_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".tcfdb";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<uint8_t> ReadFileBytes() const {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    if (!bytes.empty()) {
      EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    std::fclose(f);
    return bytes;
  }

  void WriteFileBytes(const std::vector<uint8_t>& bytes) const {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!bytes.empty()) {
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    std::fclose(f);
  }

  /// Restamp a page's checksum after tampering with its contents, so the
  /// tampered field — not the checksum sweep — is what the open rejects.
  static void ResealPage(std::vector<uint8_t>* file, size_t page_size,
                         size_t page_index) {
    uint8_t* page = file->data() + page_index * page_size;
    StoreU32(page, Crc32c(page + 4, page_size - 4));
  }

  /// Expect both open modes to reject the current file, without crashing.
  void ExpectOpenFails(StatusCode expected_code = StatusCode::kOk) const {
    for (const OpenMode mode : {OpenMode::kResident, OpenMode::kPaged}) {
      OpenOptions options;
      options.mode = mode;
      const Result<StoredDatabase> opened = OpenDatabase(path_, options);
      ASSERT_FALSE(opened.ok()) << ModeName(mode);
      EXPECT_FALSE(opened.status().message().empty());
      if (expected_code != StatusCode::kOk) {
        EXPECT_EQ(opened.status().code(), expected_code)
            << ModeName(mode) << ": " << opened.status().ToString();
      }
    }
  }

  static const char* ModeName(OpenMode mode) {
    return mode == OpenMode::kResident ? "resident" : "paged";
  }

  std::string path_;
};

/// Compare `db` against a fresh database and the Dijkstra oracle over a
/// deterministic random sweep (cost, route cost, and reachability).
void ExpectAnswersMatch(const Graph& g, const DsaDatabase& fresh,
                        const DsaDatabase& reopened, uint64_t seed,
                        int pairs = 24) {
  Rng rng(seed);
  std::unordered_map<NodeId, ShortestPaths> oracle;
  for (int i = 0; i < pairs; ++i) {
    const auto s = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    const auto u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    if (s != u && !oracle.count(s)) oracle.emplace(s, Dijkstra(g, s));
    const Weight expected = s == u ? 0.0 : oracle.at(s).distance[u];
    const auto fresh_answer = fresh.ShortestPath(s, u);
    const auto reopened_answer = reopened.ShortestPath(s, u);
    EXPECT_EQ(fresh_answer.connected, reopened_answer.connected)
        << s << "->" << u;
    EXPECT_EQ(reopened.IsConnected(s, u), expected != kInfinity)
        << s << "->" << u;
    if (expected == kInfinity) {
      EXPECT_FALSE(reopened_answer.connected) << s << "->" << u;
    } else {
      ASSERT_TRUE(reopened_answer.connected) << s << "->" << u;
      EXPECT_NEAR(reopened_answer.cost, expected, 1e-9) << s << "->" << u;
      // Identical inputs — the reopened database must agree with the
      // fresh one bit for bit, not just within tolerance.
      EXPECT_EQ(reopened_answer.cost, fresh_answer.cost) << s << "->" << u;
    }
  }
}

TEST_F(StorageTest, RoundTripSweepAcrossFragmentersAndEngines) {
  const auto t = MakeTransport(11, 4, 12);
  for (const Fragmenter fragmenter :
       {Fragmenter::kLinear, Fragmenter::kCenter, Fragmenter::kBondEnergy}) {
    const Fragmentation frag = MakeFragmentation(t.graph, fragmenter, 5);
    for (const LocalEngine engine :
         {LocalEngine::kDijkstra, LocalEngine::kSemiNaive}) {
      DsaOptions dsa;
      dsa.engine = engine;
      const DsaDatabase fresh(&frag, dsa);
      ASSERT_TRUE(SaveDatabase(fresh, path_).ok());
      for (const OpenMode mode : {OpenMode::kResident, OpenMode::kPaged}) {
        OpenOptions options;
        options.dsa = dsa;
        options.mode = mode;
        Result<StoredDatabase> opened = OpenDatabase(path_, options);
        ASSERT_TRUE(opened.ok()) << ModeName(mode) << ": "
                                 << opened.status().ToString();
        const StoredDatabase& stored = opened.value();
        EXPECT_EQ(stored.epoch, 0u);
        EXPECT_EQ(stored.graph->NumNodes(), t.graph.NumNodes());
        EXPECT_EQ(stored.graph->NumEdges(), t.graph.NumEdges());
        EXPECT_EQ(stored.frag->NumFragments(), frag.NumFragments());
        // The complementary info was adopted, not recomputed: the stored
        // searches meter carries the original precompute's count.
        EXPECT_EQ(stored.db->complementary().total_tuples,
                  fresh.complementary().total_tuples);
        ExpectAnswersMatch(t.graph, fresh, *stored.db, 31);
      }
    }
  }
}

TEST_F(StorageTest, RoutesSurviveReopen) {
  const auto t = MakeTransport(19, 4, 12);
  const Fragmentation frag =
      MakeFragmentation(t.graph, Fragmenter::kLinear, 3);
  const DsaDatabase fresh(&frag);
  ASSERT_TRUE(SaveDatabase(fresh, path_).ok());
  Result<StoredDatabase> opened = OpenDatabase(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  Rng rng(5);
  for (int i = 0; i < 16; ++i) {
    const auto s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const auto u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const auto fresh_route = fresh.ShortestRoute(s, u);
    const auto reopened_route = opened.value().db->ShortestRoute(s, u);
    ASSERT_EQ(fresh_route.answer.connected, reopened_route.answer.connected)
        << s << "->" << u;
    if (!fresh_route.answer.connected) continue;
    EXPECT_EQ(fresh_route.answer.cost, reopened_route.answer.cost)
        << s << "->" << u;
    // Routes rebuilt from stored witnesses must still be real walks with
    // the right endpoints.
    ASSERT_FALSE(reopened_route.route.empty());
    EXPECT_EQ(reopened_route.route.front(), s);
    EXPECT_EQ(reopened_route.route.back(), u);
  }
}

TEST_F(StorageTest, PageSizeVariants) {
  const auto t = MakeTransport(23, 3, 10);
  const Fragmentation frag =
      MakeFragmentation(t.graph, Fragmenter::kLinear, 7);
  const DsaDatabase fresh(&frag);
  for (const size_t page_size : {size_t{512}, size_t{65536}}) {
    SaveOptions save;
    save.page_size = page_size;
    ASSERT_TRUE(SaveDatabase(fresh, path_, save).ok()) << page_size;
    Result<StoredDatabase> opened = OpenDatabase(path_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ExpectAnswersMatch(t.graph, fresh, *opened.value().db, 41, 12);
  }
  SaveOptions bad;
  bad.page_size = 1000;  // not a power of two
  EXPECT_EQ(SaveDatabase(fresh, path_, bad).code(),
            StatusCode::kInvalidArgument);
}

/// Routes for sampled pairs of `mdb`'s current epoch must be walks of its
/// graph with the Dijkstra oracle's cost.
void ExpectRoutesMatchOracle(const MaintainedDatabase& mdb, uint64_t seed) {
  const Graph& g = mdb.graph();
  Rng rng(seed);
  for (int i = 0; i < 12; ++i) {
    const auto s = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    const auto u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    const Weight expected = s == u ? 0.0 : Dijkstra(g, s).distance[u];
    const RouteAnswer got = mdb.db().ShortestRoute(s, u);
    ASSERT_TRUE(got.answer.status.ok()) << got.answer.status.ToString();
    if (expected == kInfinity) {
      EXPECT_FALSE(got.answer.connected) << s << "->" << u;
      continue;
    }
    ASSERT_TRUE(got.answer.connected) << s << "->" << u;
    ASSERT_FALSE(got.route.empty()) << s << "->" << u;
    EXPECT_EQ(got.route.front(), s);
    EXPECT_EQ(got.route.back(), u);
    EXPECT_NEAR(dsa_sweep::RouteCost(g, got.route), expected, 1e-9)
        << s << "->" << u;
  }
}

TEST_F(StorageTest, MaintainedDatabaseResumesEpochs) {
  const auto t = MakeTransport(29, 4, 12);
  const Fragmentation frag =
      MakeFragmentation(t.graph, Fragmenter::kLinear, 9);
  MaintainedDatabase original = MaintainedDatabase::FromFragmentation(frag);
  // Publish a couple of epochs before saving.
  const Edge e0 = t.graph.edges()[0];
  original.ReweightEdge(e0.src, e0.dst, e0.weight * 2.0);
  original.InsertEdge(0, static_cast<NodeId>(t.graph.NumNodes() - 1), 0.25);
  const uint64_t saved_epoch = original.epoch();
  ASSERT_GT(saved_epoch, 0u);
  ASSERT_TRUE(SaveDatabase(original, path_).ok());

  Result<std::unique_ptr<MaintainedDatabase>> reopened =
      OpenMaintainedDatabase(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  MaintainedDatabase& mdb = *reopened.value();
  EXPECT_EQ(mdb.epoch(), saved_epoch);
  EXPECT_EQ(mdb.graph().NumEdges(), original.graph().NumEdges());
  ExpectRoutesMatchOracle(mdb, 11);

  // Updates continue from the stored epoch, not from zero.
  const Edge e1 = mdb.graph().edges()[1];
  mdb.ReweightEdge(e1.src, e1.dst, e1.weight + 1.0);
  EXPECT_EQ(mdb.epoch(), saved_epoch + 1);

  // Post-update answers still match a Dijkstra oracle on the live graph.
  const Graph& g = mdb.graph();
  Rng rng(3);
  for (int i = 0; i < 12; ++i) {
    const auto s = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    const auto u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    const ShortestPaths oracle = Dijkstra(g, s);
    const auto answer = mdb.db().ShortestPath(s, u);
    if (oracle.distance[u] == kInfinity) {
      EXPECT_FALSE(answer.connected) << s << "->" << u;
    } else {
      ASSERT_TRUE(answer.connected) << s << "->" << u;
      EXPECT_NEAR(answer.cost, oracle.distance[u], 1e-9) << s << "->" << u;
    }
  }
  // Routes, expanded through witnesses carried over from the file, must
  // still be walks of the live graph with the oracle's cost.
  ExpectRoutesMatchOracle(mdb, 13);
}

TEST_F(StorageTest, ComplementaryAblationGatesReopen) {
  const auto t = MakeTransport(37, 3, 10);
  const Fragmentation frag =
      MakeFragmentation(t.graph, Fragmenter::kLinear, 1);
  DsaOptions no_comp;
  no_comp.use_complementary = false;
  const DsaDatabase fresh(&frag, no_comp);
  ASSERT_TRUE(SaveDatabase(fresh, path_).ok());

  // Default open wants complementary info the file does not have.
  const Result<StoredDatabase> rejected = OpenDatabase(path_);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);

  OpenOptions ablated;
  ablated.dsa.use_complementary = false;
  const Result<StoredDatabase> opened = OpenDatabase(path_, ablated);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
}

// ---------------------------------------------------------------------------
// Hostile files

class HostileStorageTest : public StorageTest {
 protected:
  static constexpr size_t kPageSize = 512;

  /// A small saved database with several pages to corrupt.
  void SaveSmallDb() {
    const auto t = MakeTransport(43, 3, 10);
    frag_.emplace(MakeFragmentation(t.graph, Fragmenter::kLinear, 2));
    db_.emplace(&frag_.value());
    SaveOptions save;
    save.page_size = kPageSize;
    ASSERT_TRUE(SaveDatabase(db_.value(), path_, save).ok());
  }

  std::optional<Fragmentation> frag_;
  std::optional<DsaDatabase> db_;
};

TEST_F(HostileStorageTest, TruncationAtEveryPageBoundary) {
  SaveSmallDb();
  const std::vector<uint8_t> original = ReadFileBytes();
  const size_t page_count = original.size() / kPageSize;
  ASSERT_GE(page_count, 4u);
  for (size_t pages = 0; pages < page_count; ++pages) {
    WriteFileBytes({original.begin(),
                    original.begin() +
                        static_cast<ptrdiff_t>(pages * kPageSize)});
    ExpectOpenFails();
  }
  // Mid-page truncations too (not a page multiple).
  for (const size_t bytes : {size_t{1}, kPageSize + 7, original.size() - 1}) {
    WriteFileBytes(
        {original.begin(), original.begin() + static_cast<ptrdiff_t>(bytes)});
    ExpectOpenFails();
  }
  // The pristine bytes still open: the harness corrupts, not the format.
  WriteFileBytes(original);
  EXPECT_TRUE(OpenDatabase(path_).ok());
}

TEST_F(HostileStorageTest, SingleBitFlipsAnywhereAreDetected) {
  SaveSmallDb();
  const std::vector<uint8_t> original = ReadFileBytes();
  // Stride through the whole file; every flipped bit must be caught by the
  // checksum sweep (or a failed probe for the superblock's fixed fields).
  for (size_t offset = 0; offset < original.size(); offset += 97) {
    std::vector<uint8_t> tampered = original;
    tampered[offset] ^= static_cast<uint8_t>(1u << (offset % 8));
    WriteFileBytes(tampered);
    ExpectOpenFails();
  }
  WriteFileBytes(original);
  EXPECT_TRUE(OpenDatabase(path_).ok());
}

TEST_F(HostileStorageTest, BadMagicVersionAndPageSize) {
  SaveSmallDb();
  const std::vector<uint8_t> original = ReadFileBytes();

  // Magic (payload offset 0 = file offset 24).
  std::vector<uint8_t> tampered = original;
  tampered[24] ^= 0xff;
  WriteFileBytes(tampered);
  ExpectOpenFails(StatusCode::kInvalidArgument);

  // Version (file offset 32): a future version must be refused, not
  // misread.
  tampered = original;
  StoreU32(tampered.data() + 32, 99);
  WriteFileBytes(tampered);
  ExpectOpenFails(StatusCode::kFailedPrecondition);

  // Page size (file offset 36): not a power of two.
  tampered = original;
  StoreU32(tampered.data() + 36, 777);
  WriteFileBytes(tampered);
  ExpectOpenFails(StatusCode::kInvalidArgument);
}

TEST_F(HostileStorageTest, ResealedLiesAreStillRejected) {
  SaveSmallDb();
  const std::vector<uint8_t> original = ReadFileBytes();

  // A liar who recomputes the page-0 checksum after tampering gets past
  // the sweep; the semantic cross-checks must still catch the lie.
  // Superblock page_count (file offset 40): claim one page fewer.
  std::vector<uint8_t> tampered = original;
  StoreU64(tampered.data() + 40, original.size() / kPageSize - 1);
  ResealPage(&tampered, kPageSize, 0);
  WriteFileBytes(tampered);
  ExpectOpenFails(StatusCode::kInvalidArgument);

  // Graph extent byte_len (file offset 24 + 80 + 8): absurdly large.
  tampered = original;
  StoreU64(tampered.data() + 24 + 80 + 8, uint64_t{1} << 60);
  ResealPage(&tampered, kPageSize, 0);
  WriteFileBytes(tampered);
  ExpectOpenFails(StatusCode::kInvalidArgument);

  // Epoch field is not semantically checkable, but flag bytes are.
  tampered = original;
  tampered[24 + 56] = 7;  // has_coords must be 0 or 1
  ResealPage(&tampered, kPageSize, 0);
  WriteFileBytes(tampered);
  ExpectOpenFails(StatusCode::kInvalidArgument);
}

// The witness blob passes checksums once its pages are resealed, so only
// the decoder's own rules stand between a lying blob and the routes.
TEST_F(HostileStorageTest, ResealedWitnessLiesAreRejected) {
  SaveSmallDb();
  const std::vector<uint8_t> original = ReadFileBytes();
  const uint64_t num_nodes = LoadU64(original.data() + 24 + 24);
  // The superblock's witness extent (payload offset 128).
  const uint64_t first_page = LoadU64(original.data() + 24 + 128);
  const uint64_t byte_len = LoadU64(original.data() + 24 + 136);
  constexpr size_t kPayload = kPageSize - kPageHeaderSize;
  auto file_offset = [&](size_t blob_offset) {
    return (first_page + blob_offset / kPayload) * kPageSize +
           kPageHeaderSize + blob_offset % kPayload;
  };
  std::vector<uint8_t> blob(byte_len);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = original[file_offset(i)];

  // Entry offsets: u64 count, then { u64 key, u32 len, len x u32 node }.
  const uint64_t count = LoadU64(blob.data());
  std::vector<size_t> entry = {8};
  for (uint64_t i = 0; i < count; ++i) {
    entry.push_back(entry.back() + 12 + 4 * LoadU32(blob.data() +
                                                     entry.back() + 8));
  }
  ASSERT_EQ(entry.back(), blob.size());
  // Two adjacent entries with routes of the same length can be swapped or
  // duplicated without breaking anything but the key order.
  size_t pair = count;
  for (size_t i = 0; i + 1 < count; ++i) {
    if (entry[i + 1] - entry[i] == entry[i + 2] - entry[i + 1]) {
      pair = i;
      break;
    }
  }
  ASSERT_LT(pair, count) << "no two adjacent routes of one length";

  auto expect_rejected = [&](const std::vector<uint8_t>& tampered_blob,
                             StatusCode code, const char* what) {
    SCOPED_TRACE(what);
    std::vector<uint8_t> tampered = original;
    for (size_t i = 0; i < tampered_blob.size(); ++i) {
      tampered[file_offset(i)] = tampered_blob[i];
    }
    const size_t pages = (tampered_blob.size() + kPayload - 1) / kPayload;
    for (size_t p = 0; p < pages; ++p) {
      ResealPage(&tampered, kPageSize, first_page + p);
    }
    WriteFileBytes(tampered);
    ExpectOpenFails(code);
  };
  const size_t a = entry[pair];
  const size_t b = entry[pair + 1];
  const size_t len = b - a;
  const uint32_t first_len = LoadU32(blob.data() + 8 + 8);
  const size_t first_last_node = 8 + 12 + 4 * (first_len - 1);

  std::vector<uint8_t> t = blob;
  std::copy_n(blob.begin() + a, len, t.begin() + b);
  expect_rejected(t, StatusCode::kInvalidArgument, "duplicate key");

  t = blob;
  std::copy_n(blob.begin() + b, len, t.begin() + a);
  std::copy_n(blob.begin() + a, len, t.begin() + b);
  expect_rejected(t, StatusCode::kInvalidArgument, "decreasing key");

  t = blob;
  StoreU32(t.data() + first_last_node,
           static_cast<uint32_t>((LoadU32(blob.data() + first_last_node) +
                                  1) % num_nodes));
  expect_rejected(t, StatusCode::kInvalidArgument, "route ends off its key");

  t = blob;
  StoreU32(t.data() + first_last_node, static_cast<uint32_t>(num_nodes));
  expect_rejected(t, StatusCode::kOutOfRange, "node out of range");

  t = blob;
  StoreU32(t.data() + 8 + 8, 1);
  expect_rejected(t, StatusCode::kInvalidArgument, "route length below 2");

  WriteFileBytes(original);
  EXPECT_TRUE(OpenDatabase(path_).ok());
}

// A fragment's shortcut blob passes checksums once its pages are
// resealed, so the decoder's order rule is what stands between an
// out-of-order blob and the overlay search's binary searches by src.
TEST_F(HostileStorageTest, ResealedShortcutOrderLiesAreRejected) {
  SaveSmallDb();
  const std::vector<uint8_t> original = ReadFileBytes();
  constexpr size_t kPayload = kPageSize - kPageHeaderSize;
  auto file_offset = [&](uint64_t first_page, size_t blob_offset) {
    return (first_page + blob_offset / kPayload) * kPageSize +
           kPageHeaderSize + blob_offset % kPayload;
  };
  auto read_blob = [&](uint64_t first_page, uint64_t byte_len) {
    std::vector<uint8_t> blob(byte_len);
    for (size_t i = 0; i < blob.size(); ++i) {
      blob[i] = original[file_offset(first_page, i)];
    }
    return blob;
  };
  // The directory (superblock payload offset 112): u64 count, then one
  // { u64 first_page, u64 byte_len, u64 tuple_count } per fragment.
  const std::vector<uint8_t> directory =
      read_blob(LoadU64(original.data() + 24 + 112),
                LoadU64(original.data() + 24 + 120));
  const uint64_t num_fragments = LoadU64(directory.data());
  FragmentId f = 0;
  while (f < num_fragments &&
         LoadU64(directory.data() + 8 + 24 * f + 16) < 2) {
    ++f;
  }
  ASSERT_LT(f, num_fragments) << "no fragment with two shortcut tuples";
  const uint64_t first_page = LoadU64(directory.data() + 8 + 24 * f);
  const std::vector<uint8_t> blob =
      read_blob(first_page, LoadU64(directory.data() + 8 + 24 * f + 8));

  // Tuples follow the u64 count, 16 bytes each: { u32 src, u32 dst,
  // f64 cost }.
  auto expect_rejected = [&](const std::vector<uint8_t>& tampered_blob,
                             const char* what) {
    SCOPED_TRACE(what);
    std::vector<uint8_t> tampered = original;
    for (size_t i = 0; i < tampered_blob.size(); ++i) {
      tampered[file_offset(first_page, i)] = tampered_blob[i];
    }
    const size_t pages = (tampered_blob.size() + kPayload - 1) / kPayload;
    for (size_t p = 0; p < pages; ++p) {
      ResealPage(&tampered, kPageSize, first_page + p);
    }
    WriteFileBytes(tampered);
    for (const OpenMode mode : {OpenMode::kResident, OpenMode::kPaged}) {
      OpenOptions options;
      options.mode = mode;
      const Result<StoredDatabase> opened = OpenDatabase(path_, options);
      ASSERT_FALSE(opened.ok()) << ModeName(mode);
      EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
          << ModeName(mode);
      EXPECT_NE(opened.status().message().find("fragment " +
                                               std::to_string(f)),
                std::string::npos)
          << ModeName(mode) << ": " << opened.status().ToString();
    }
  };
  std::vector<uint8_t> t = blob;
  std::copy_n(blob.begin() + 8, 16, t.begin() + 24);
  std::copy_n(blob.begin() + 24, 16, t.begin() + 8);
  expect_rejected(t, "swapped pair");

  t = blob;
  std::copy_n(blob.begin() + 8, 16, t.begin() + 24);
  expect_rejected(t, "repeated pair");

  WriteFileBytes(original);
  EXPECT_TRUE(OpenDatabase(path_).ok());
}

TEST_F(HostileStorageTest, MissingEmptyAndGarbageFiles) {
  EXPECT_EQ(OpenDatabase(path_ + ".does-not-exist").status().code(),
            StatusCode::kNotFound);

  WriteFileBytes({});
  ExpectOpenFails(StatusCode::kInvalidArgument);

  WriteFileBytes({'h', 'e', 'l', 'l', 'o'});
  ExpectOpenFails(StatusCode::kInvalidArgument);

  // A page-sized file of noise: right shape, wrong everything.
  std::vector<uint8_t> noise(kPageSize);
  for (size_t i = 0; i < noise.size(); ++i) {
    noise[i] = static_cast<uint8_t>(i * 193 + 7);
  }
  WriteFileBytes(noise);
  ExpectOpenFails(StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tcf
