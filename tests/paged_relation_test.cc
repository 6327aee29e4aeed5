// Spill-aware relations, from both ends of the seam:
//
//   - TupleStore/cursor unit behavior (blocks cover every tuple exactly
//     once; copies of a paged Relation share the immutable store and
//     mutation is copy-on-write).
//   - The headline invariant: a database opened with OpenMode::kPaged and
//     a buffer pool capped BELOW HALF of its total relation bytes answers
//     a randomized sweep identically to the freshly built database and the
//     whole-graph Dijkstra oracle, across fragmenters and engines.
//   - Epoch copy-on-write: an update rebuilds dirty fragments into
//     resident memory while clean fragments keep reading their immutable
//     paged extents; an epoch whose old pages cannot be read recomputes
//     every shortcut relation and records why.
//   - Concurrency: many threads scanning through a two-frame pool (the
//     pin-exhaustion bypass path) and concurrent BestCost/MaxCost lookups
//     on one relation. This suite runs in the TSan leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dsa_sweep.h"
#include "dsa/maintenance.h"
#include "graph/algorithms.h"
#include "relational/relation.h"
#include "relational/tuple_store.h"
#include "shortcut_extents.h"
#include "storage/database_io.h"

namespace tcf {
namespace {

using dsa_sweep::Fragmenter;
using dsa_sweep::MakeFragmentation;
using dsa_sweep::MakeTransport;

class PagedRelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "paged_relation_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".tcfdb";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

std::vector<PathTuple> Collect(const Relation& rel) {
  std::vector<PathTuple> out;
  out.reserve(rel.size());
  rel.ForEach([&](const PathTuple& t) { out.push_back(t); });
  return out;
}

void ExpectSameTuples(const Relation& a, const Relation& b) {
  std::vector<PathTuple> ta = Collect(a);
  std::vector<PathTuple> tb = Collect(b);
  ASSERT_EQ(ta.size(), tb.size());
  auto canon = [](const PathTuple& x, const PathTuple& y) {
    if (x.src != y.src) return x.src < y.src;
    if (x.dst != y.dst) return x.dst < y.dst;
    return x.cost < y.cost;
  };
  std::sort(ta.begin(), ta.end(), canon);
  std::sort(tb.begin(), tb.end(), canon);
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].src, tb[i].src) << i;
    EXPECT_EQ(ta[i].dst, tb[i].dst) << i;
    EXPECT_EQ(ta[i].cost, tb[i].cost) << i;
  }
}

/// Total serialized bytes of every shortcut relation (the quantity the
/// capped pool must stay below half of).
uint64_t TotalRelationBytes(const ComplementaryInfo& comp) {
  uint64_t bytes = 0;
  for (const Relation& rel : comp.shortcuts) {
    bytes += 8 + 16 * static_cast<uint64_t>(rel.size());
  }
  return bytes;
}

/// Deterministic randomized sweep: `fresh` and `reopened` must agree with
/// each other bit for bit and with the whole-graph Dijkstra oracle.
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
    const auto paged_answer = reopened.ShortestPath(s, u);
    EXPECT_EQ(fresh_answer.connected, paged_answer.connected)
        << s << "->" << u;
    if (expected == kInfinity) {
      EXPECT_FALSE(paged_answer.connected) << s << "->" << u;
    } else {
      ASSERT_TRUE(paged_answer.connected) << s << "->" << u;
      EXPECT_NEAR(paged_answer.cost, expected, 1e-9) << s << "->" << u;
      EXPECT_EQ(paged_answer.cost, fresh_answer.cost) << s << "->" << u;
    }
  }
}

/// Deterministic randomized sweep: `snap` must answer as the whole-graph
/// Dijkstra oracle on its own graph.
void ExpectSnapshotMatchesOracle(const DsaSnapshot& snap, uint64_t seed) {
  Rng rng(seed);
  std::unordered_map<NodeId, ShortestPaths> oracle;
  for (int i = 0; i < 24; ++i) {
    const auto s =
        static_cast<NodeId>(rng.NextBounded(snap.graph->NumNodes()));
    const auto u =
        static_cast<NodeId>(rng.NextBounded(snap.graph->NumNodes()));
    if (s != u && !oracle.count(s)) {
      oracle.emplace(s, Dijkstra(*snap.graph, s));
    }
    const Weight expected = s == u ? 0.0 : oracle.at(s).distance[u];
    const auto answer = snap.db->ShortestPath(s, u);
    if (expected == kInfinity) {
      EXPECT_FALSE(answer.connected) << s << "->" << u;
    } else {
      ASSERT_TRUE(answer.connected) << s << "->" << u;
      EXPECT_NEAR(answer.cost, expected, 1e-9) << s << "->" << u;
    }
  }
}

TEST(TupleStoreTest, VectorCursorYieldsAllTuplesOnce) {
  std::vector<PathTuple> tuples;
  for (uint32_t i = 0; i < 100; ++i) {
    tuples.push_back(PathTuple{i, i + 1, static_cast<Weight>(i) * 0.5});
  }
  VectorTupleStore store(tuples);
  EXPECT_EQ(store.size(), 100u);

  auto cursor = store.NewCursor();
  size_t seen = 0;
  for (std::span<const PathTuple> block = cursor->NextBlock();
       !block.empty(); block = cursor->NextBlock()) {
    for (const PathTuple& t : block) {
      EXPECT_EQ(t.src, seen);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 100u);
  // Exhausted cursors stay exhausted.
  EXPECT_TRUE(cursor->NextBlock().empty());
}

TEST(TupleStoreTest, RelationOverStoreIsPagedUntilMutation) {
  auto store = std::make_shared<VectorTupleStore>(std::vector<PathTuple>{
      {0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 7.0}});
  Relation rel((std::shared_ptr<const TupleStore>(store)));
  EXPECT_TRUE(rel.is_paged());
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.BestCost(0, 1), 2.0);
  EXPECT_EQ(rel.BestCost(2, 0), kInfinity);

  // Copies share the immutable store...
  Relation copy = rel;
  EXPECT_TRUE(copy.is_paged());
  // ...until mutated: the copy materializes, the original is untouched.
  copy.Add(5, 6, 1.0);
  EXPECT_FALSE(copy.is_paged());
  EXPECT_EQ(copy.size(), 4u);
  EXPECT_TRUE(rel.is_paged());
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_EQ(copy.BestCost(5, 6), 1.0);
  EXPECT_EQ(rel.BestCost(5, 6), kInfinity);

  // Explicit materialization exposes the resident vector.
  rel.Materialize();
  EXPECT_FALSE(rel.is_paged());
  EXPECT_EQ(rel.tuples().size(), 3u);
}

TEST_F(PagedRelationTest, PagedScanMatchesResidentAcrossPageSizes) {
  const auto t = MakeTransport(3, 4, 14);
  const Fragmentation frag = MakeFragmentation(t.graph, Fragmenter::kCenter,
                                               3);
  const DsaDatabase fresh(&frag);

  // Small pages force shortcut blobs to span several pages, so tuples
  // straddle page boundaries and the cursor's carry buffer is exercised.
  for (const size_t page_size : {kMinPageSize, size_t{2048}}) {
    SaveOptions save;
    save.page_size = page_size;
    ASSERT_TRUE(SaveDatabase(fresh, path_, save).ok());

    OpenOptions paged;
    paged.mode = OpenMode::kPaged;
    paged.memory_budget_bytes = 4 * page_size;
    Result<StoredDatabase> opened = OpenDatabase(path_, paged);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ASSERT_NE(opened.value().paged_file, nullptr);

    const ComplementaryInfo& paged_comp = opened.value().db->complementary();
    const ComplementaryInfo& fresh_comp = fresh.complementary();
    ASSERT_EQ(paged_comp.shortcuts.size(), fresh_comp.shortcuts.size());
    for (size_t f = 0; f < paged_comp.shortcuts.size(); ++f) {
      EXPECT_TRUE(paged_comp.shortcuts[f].is_paged());
      ExpectSameTuples(paged_comp.shortcuts[f], fresh_comp.shortcuts[f]);
      // A second scan of the same relation sees the same tuples (cursors
      // are independent).
      ExpectSameTuples(paged_comp.shortcuts[f], paged_comp.shortcuts[f]);
    }
  }
}

TEST_F(PagedRelationTest, CappedPoolSweepMatchesFreshAndOracle) {
  // Large enough that every fragmenter's relations dwarf the pool floor
  // (two 512-byte frames), so the <50% cap below is always meaningful.
  const auto t = MakeTransport(17, 4, 25);
  for (const Fragmenter fragmenter :
       {Fragmenter::kLinear, Fragmenter::kCenter, Fragmenter::kBondEnergy,
        Fragmenter::kRandom}) {
    const Fragmentation frag = MakeFragmentation(t.graph, fragmenter, 9);
    for (const LocalEngine engine :
         {LocalEngine::kDijkstra, LocalEngine::kSemiNaive}) {
      DsaOptions dsa;
      dsa.engine = engine;
      const DsaDatabase fresh(&frag, dsa);
      SaveOptions save;
      save.page_size = kMinPageSize;
      ASSERT_TRUE(SaveDatabase(fresh, path_, save).ok());

      // Cap the pool below HALF of the total relation bytes: the paged
      // database cannot possibly hold its relations resident, so correct
      // answers prove queries genuinely stream through pinned pages.
      const uint64_t relation_bytes =
          TotalRelationBytes(fresh.complementary());
      OpenOptions paged;
      paged.dsa = dsa;
      paged.mode = OpenMode::kPaged;
      paged.memory_budget_bytes =
          static_cast<size_t>(relation_bytes / 2);
      Result<StoredDatabase> opened = OpenDatabase(path_, paged);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      const auto& pool = opened.value().paged_file->pool();
      ASSERT_LT(pool.num_frames() * kMinPageSize, relation_bytes / 2 + 1)
          << "pool must stay under half the relation bytes";

      ExpectAnswersMatch(t.graph, fresh, *opened.value().db,
                         /*seed=*/1000 + static_cast<uint64_t>(fragmenter));
      EXPECT_GT(opened.value().paged_file->stats().hits, 0u);
    }
  }
}

TEST_F(PagedRelationTest, EpochCopyOnWriteRebuildsDirtyFragmentsResident) {
  const auto t = MakeTransport(29, 4, 12);
  const Fragmentation frag = MakeFragmentation(t.graph, Fragmenter::kLinear,
                                               1);
  {
    const DsaDatabase fresh(&frag);
    SaveOptions save;
    save.page_size = kMinPageSize;
    ASSERT_TRUE(SaveDatabase(fresh, path_, save).ok());
  }

  OpenOptions paged;
  paged.mode = OpenMode::kPaged;
  paged.memory_budget_bytes = 8 * kMinPageSize;
  std::shared_ptr<PagedFile> paged_file;
  Result<std::unique_ptr<MaintainedDatabase>> opened =
      OpenMaintainedDatabase(path_, paged, &paged_file);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_NE(paged_file, nullptr);
  MaintainedDatabase& mdb = *opened.value();

  const size_t num_frags = mdb.fragmentation().NumFragments();
  auto count_paged = [&mdb] {
    size_t paged_count = 0;
    const DsaSnapshot snap = mdb.Snapshot();
    for (const Relation& rel : snap.db->complementary().shortcuts) {
      if (rel.is_paged()) ++paged_count;
    }
    return paged_count;
  };
  ASSERT_EQ(count_paged(), num_frags) << "all fragments start paged";

  // Pick an edge lying on a stored witness route: raising its weight is a
  // tightening that provably dirties that route's source border node, so
  // its fragment MUST be rebuilt (resident) while untouched fragments
  // carry their paged extents over.
  NodeId wu = kInvalidNode, wv = kInvalidNode;
  Weight wweight = 0;
  {
    const DsaSnapshot snap = mdb.Snapshot();
    const auto& witness = snap.db->complementary().witness;
    ASSERT_FALSE(witness.empty());
    const std::span<const NodeId> route = witness.begin()->second->Route(0);
    ASSERT_GE(route.size(), 2u);
    for (const Edge& e : snap.graph->edges()) {
      if (e.src == route[0] && e.dst == route[1]) {
        wu = e.src;
        wv = e.dst;
        wweight = e.weight;
        break;
      }
    }
  }
  ASSERT_NE(wu, kInvalidNode) << "witness route must start with an edge";

  const EpochStats stats =
      mdb.ApplyEpoch({EdgeUpdate::Reweight(wu, wv, wweight * 4.0)});
  EXPECT_TRUE(stats.published);
  const size_t paged_after = count_paged();
  EXPECT_LT(paged_after, num_frags)
      << "the dirtied fragment must be rebuilt resident";

  // The updated database still answers oracle-exactly (oracle recomputed
  // on the post-update graph).
  ASSERT_NO_FATAL_FAILURE(ExpectSnapshotMatchesOracle(mdb.Snapshot(), 77));

  // A no-op epoch (reweight to the current weight) publishes nothing and
  // materializes nothing: the carry-over is reference-sharing, not decode.
  const EpochStats noop =
      mdb.ApplyEpoch({EdgeUpdate::Reweight(wu, wv, wweight * 4.0)});
  EXPECT_FALSE(noop.published);
  EXPECT_EQ(count_paged(), paged_after);
}

TEST_F(PagedRelationTest, UnreadableOldEpochFallsBackToFullRecompute) {
  const auto t = MakeTransport(29, 4, 12);
  const Fragmentation frag = MakeFragmentation(t.graph, Fragmenter::kLinear,
                                               1);
  {
    const DsaDatabase fresh(&frag);
    SaveOptions save;
    save.page_size = kMinPageSize;
    ASSERT_TRUE(SaveDatabase(fresh, path_, save).ok());
  }

  OpenOptions paged;
  paged.mode = OpenMode::kPaged;
  paged.memory_budget_bytes = 4 * kMinPageSize;
  Result<std::unique_ptr<MaintainedDatabase>> opened =
      OpenMaintainedDatabase(path_, paged);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  MaintainedDatabase& mdb = *opened.value();

  // After the clean open, flip one payload byte in every page of a
  // fragment that spans more pages than the pool has frames: a stream of
  // it cannot be served from frames filled before the damage.
  const std::vector<char> file = shortcut_extents::ReadFileBytes(path_);
  const std::vector<shortcut_extents::Extent> extents =
      shortcut_extents::ReadExtents(file);
  ASSERT_EQ(extents.size(), mdb.fragmentation().NumFragments());
  const shortcut_extents::Extent largest = shortcut_extents::Largest(extents);
  ASSERT_GT(largest.num_pages, 4u);
  ASSERT_TRUE(shortcut_extents::CorruptExtent(path_, file, largest));

  // Halving an edge's weight relaxes it, so the refresh probes the old
  // relation of every fragment (none changes its border set) and meets
  // the damaged pages.
  const Edge e = mdb.graph().edges().front();
  const EpochStats stats =
      mdb.ApplyEpoch({EdgeUpdate::Reweight(e.src, e.dst, e.weight / 2)});
  ASSERT_TRUE(stats.published);
  EXPECT_EQ(stats.complementary_fallback.code(), StatusCode::kIOError)
      << stats.complementary_fallback.ToString();

  // The recompute is exact: every shortcut relation equals a fresh
  // precompute on the new fragmentation, and answers match the oracle.
  const DsaSnapshot snap = mdb.Snapshot();
  const ComplementaryInfo expected = PrecomputeComplementary(*snap.frag);
  const ComplementaryInfo& refreshed = snap.db->complementary();
  ASSERT_EQ(refreshed.shortcuts.size(), expected.shortcuts.size());
  for (size_t f = 0; f < expected.shortcuts.size(); ++f) {
    EXPECT_FALSE(refreshed.shortcuts[f].is_paged()) << f;
    ExpectSameTuples(refreshed.shortcuts[f], expected.shortcuts[f]);
  }
  ExpectSnapshotMatchesOracle(snap, 91);
}

TEST_F(PagedRelationTest, ConcurrentScansThroughTinyPool) {
  const auto t = MakeTransport(41, 4, 12);
  const Fragmentation frag = MakeFragmentation(t.graph, Fragmenter::kCenter,
                                               7);
  const DsaDatabase fresh(&frag);
  SaveOptions save;
  save.page_size = kMinPageSize;
  ASSERT_TRUE(SaveDatabase(fresh, path_, save).ok());

  // Two frames (the floor) against eight scanning threads: pins collide
  // constantly, so scans routinely fall back to checksum-verified bypass
  // reads. Every thread must still see every tuple of every fragment.
  OpenOptions paged;
  paged.mode = OpenMode::kPaged;
  paged.memory_budget_bytes = 2 * kMinPageSize;  // exactly the 2-frame floor
  Result<StoredDatabase> opened = OpenDatabase(path_, paged);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(opened.value().paged_file->pool().num_frames(), 2u);
  const ComplementaryInfo& comp = opened.value().db->complementary();

  std::vector<size_t> expected_counts;
  std::vector<double> expected_sums;
  for (const Relation& rel : fresh.complementary().shortcuts) {
    double sum = 0;
    rel.ForEach([&](const PathTuple& tuple) { sum += tuple.cost; });
    expected_counts.push_back(rel.size());
    expected_sums.push_back(sum);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t f = 0; f < comp.shortcuts.size(); ++f) {
          size_t count = 0;
          double sum = 0;
          comp.shortcuts[f].ForEach([&](const PathTuple& tuple) {
            ++count;
            sum += tuple.cost;
          });
          if (count != expected_counts[f] || sum != expected_sums[f]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(PagedRelationTest, BelowFloorMemoryBudgetIsRejected) {
  const auto t = MakeTransport(5, 3, 6);
  const Fragmentation frag = MakeFragmentation(t.graph, Fragmenter::kLinear,
                                               2);
  const DsaDatabase fresh(&frag);
  SaveOptions save;
  save.page_size = kMinPageSize;
  ASSERT_TRUE(SaveDatabase(fresh, path_, save).ok());

  // A nonzero budget below the two-frame progress floor is a contradiction
  // the caller must resolve, not a value to silently round up.
  OpenOptions paged;
  paged.mode = OpenMode::kPaged;
  paged.memory_budget_bytes = 2 * kMinPageSize - 1;
  Result<StoredDatabase> opened = OpenDatabase(path_, paged);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().ToString().find("memory_budget_bytes"),
            std::string::npos)
      << opened.status().ToString();

  // Zero budget means "unset": the open succeeds with the default pool.
  paged.memory_budget_bytes = 0;
  opened = OpenDatabase(path_, paged);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().paged_file->pool().num_frames(),
            kDefaultPoolFrames);
}

TEST_F(PagedRelationTest, CorruptPageFailsQueryNotProcess) {
  const auto t = MakeTransport(23, 4, 12);
  const Fragmentation frag = MakeFragmentation(t.graph, Fragmenter::kCenter,
                                               5);
  const DsaDatabase fresh(&frag);
  SaveOptions save;
  save.page_size = kMinPageSize;
  ASSERT_TRUE(SaveDatabase(fresh, path_, save).ok());

  OpenOptions paged;
  paged.mode = OpenMode::kPaged;
  paged.memory_budget_bytes = 2 * kMinPageSize;
  Result<StoredDatabase> opened = OpenDatabase(path_, paged);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ComplementaryInfo& comp = opened.value().db->complementary();

  // Corrupt the first byte (header magic) of every page but the header
  // page AFTER a clean open: the graph and fragmentation decoded at open
  // stay valid, but any page a paged relation now faults back in fails
  // verification.
  {
    std::fstream file(path_,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const auto file_size = static_cast<uint64_t>(file.tellg());
    for (uint64_t off = kMinPageSize; off + kMinPageSize <= file_size;
         off += kMinPageSize) {
      file.seekg(static_cast<std::streamoff>(off));
      char byte = 0;
      file.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0xFF);
      file.seekp(static_cast<std::streamoff>(off));
      file.write(&byte, 1);
    }
    file.flush();
    ASSERT_TRUE(file.good());
  }

  // A relation spanning more pages than the two-frame pool cannot be
  // served from residual frames, so its scan MUST surface the corruption
  // through the cursor's Status channel — not a crash.
  size_t big = comp.shortcuts.size();
  for (size_t f = 0; f < comp.shortcuts.size(); ++f) {
    if (comp.shortcuts[f].is_paged() &&
        8 + 16 * comp.shortcuts[f].size() > 2 * kMinPageSize) {
      big = f;
      break;
    }
  }
  ASSERT_LT(big, comp.shortcuts.size())
      << "transport too small: no shortcut relation spans >2 pages";
  const Status scan = comp.shortcuts[big].ForEach([](const PathTuple&) {});
  EXPECT_FALSE(scan.ok());
  EXPECT_NE(scan.ToString().find("page"), std::string::npos)
      << scan.ToString();

  // Queries against corrupt storage fail with a Status on the answer.
  // They never crash the process and never report a made-up cost.
  int failed = 0;
  Rng rng(9);
  for (int i = 0; i < 24; ++i) {
    const auto s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const auto u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const auto answer = opened.value().db->ShortestPath(s, u);
    if (!answer.status.ok()) {
      ++failed;
      EXPECT_FALSE(answer.connected) << s << "->" << u;
    }
  }
  EXPECT_GT(failed, 0) << "no query surfaced the corrupted storage";
}

TEST_F(PagedRelationTest, ConcurrentLookupsAgree) {
  // Resident relation: concurrent BestCost/MaxCost from many threads must
  // be race-free and agree.
  Relation rel;
  for (uint32_t i = 0; i < 64; ++i) {
    rel.Add(i % 8, (i + 1) % 8, 1.0 + static_cast<Weight>(i));
    rel.Add(i % 8, (i + 1) % 8, 2.0 + static_cast<Weight>(i));
  }

  auto hammer = [](const Relation& r) {
    constexpr int kThreads = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&r, &failures] {
        for (uint32_t i = 0; i < 64; ++i) {
          const NodeId s = i % 8;
          const NodeId d = (i + 1) % 8;
          if (r.BestCost(s, d) == kInfinity) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          if (r.MaxCost(s, d) <= 0.0) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
  };
  hammer(rel);

  // After a mutation the next (single-threaded) lookup sees the new
  // tuple, then the concurrent hammer still agrees.
  rel.Add(7, 0, 0.25);
  EXPECT_EQ(rel.BestCost(7, 0), 0.25);
  hammer(rel);

  // Paged relation: every thread's lookup streams tuples through the pool
  // at once.
  const auto t = MakeTransport(53, 4, 10);
  const Fragmentation frag = MakeFragmentation(t.graph, Fragmenter::kLinear,
                                               2);
  const DsaDatabase fresh(&frag);
  const std::string path =
      ::testing::TempDir() + "paged_concurrent_lookups.tcfdb";
  SaveOptions save;
  save.page_size = kMinPageSize;
  ASSERT_TRUE(SaveDatabase(fresh, path, save).ok());
  OpenOptions paged;
  paged.mode = OpenMode::kPaged;
  paged.memory_budget_bytes = 2 * kMinPageSize;
  Result<StoredDatabase> opened = OpenDatabase(path, paged);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (size_t f = 0; f < fresh.complementary().shortcuts.size(); ++f) {
    const Relation& paged_rel =
        opened.value().db->complementary().shortcuts[f];
    const Relation& fresh_rel = fresh.complementary().shortcuts[f];
    if (fresh_rel.empty()) continue;
    const PathTuple probe = fresh_rel.tuples().front();
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&] {
        if (paged_rel.BestCost(probe.src, probe.dst) == kInfinity) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(paged_rel.BestCost(probe.src, probe.dst),
              fresh_rel.BestCost(probe.src, probe.dst));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tcf
