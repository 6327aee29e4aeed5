// Fast tests for the disconnection set approach substrate: complementary
// information, chain finding, the overlay plan, local queries (all engines),
// the executor, and a small sweep of the central invariant — DsaDatabase
// answers equal the whole-graph Dijkstra oracle. The full fragmenter ×
// engine sweep on larger graphs lives in dsa_heavy_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "dsa/chains.h"
#include "dsa/batch.h"
#include "dsa/complementary.h"
#include "dsa/local_query.h"
#include "dsa/query_api.h"
#include "dsa_sweep.h"
#include "graph/builder.h"

namespace tcf {
namespace {

using dsa_sweep::ExpectMatchesOracle;
using dsa_sweep::Fragmenter;
using dsa_sweep::MakeFragmentation;
using dsa_sweep::MakeTransport;

/// A hand-built 3-fragment chain: clusters {0,1,2}, {2,3,4}, {4,5,6} with
/// border nodes 2 and 4 and distinct weights so shortest paths are unique.
struct ChainFixture {
  ChainFixture() {
    GraphBuilder b(7);
    b.AddSymmetricEdge(0, 1, 1.0);
    b.AddSymmetricEdge(1, 2, 2.0);
    b.AddSymmetricEdge(0, 2, 4.0);
    b.AddSymmetricEdge(2, 3, 1.0);
    b.AddSymmetricEdge(3, 4, 1.0);
    b.AddSymmetricEdge(2, 4, 3.0);
    b.AddSymmetricEdge(4, 5, 2.0);
    b.AddSymmetricEdge(5, 6, 1.0);
    b.AddSymmetricEdge(4, 6, 5.0);
    graph = b.Build();
    std::vector<FragmentId> owner(18);
    for (EdgeId e = 0; e < 18; ++e) owner[e] = e / 6;
    frag = std::make_unique<Fragmentation>(&graph, owner, 3);
  }
  Graph graph;
  std::unique_ptr<Fragmentation> frag;
};

// ----------------------------------------------------------- Complementary

TEST(Complementary, ShortcutsAreGlobalShortestPaths) {
  ChainFixture fx;
  ComplementaryInfo info = PrecomputeComplementary(*fx.frag);
  ASSERT_EQ(info.shortcuts.size(), 3u);
  // Fragment 1's border nodes are {2, 4}; its shortcut (2,4) must equal the
  // *global* shortest distance 2 (2-3-4), not the direct 3.0 edge.
  const Relation& mid = info.ForFragment(1);
  EXPECT_DOUBLE_EQ(mid.BestCost(2, 4), 2.0);
  EXPECT_DOUBLE_EQ(mid.BestCost(4, 2), 2.0);
}

TEST(Complementary, StoredAtBothAdjacentSites) {
  ChainFixture fx;
  ComplementaryInfo info = PrecomputeComplementary(*fx.frag);
  // DS(0,1) = {2}: a singleton border produces no pair at fragment 0, but
  // fragment 1 (borders {2,4}) and its neighbor fragment 2 (borders {4})
  // see their shared node's info. Check the symmetric pair storage:
  // border pair (2,4) belongs to fragment 1 only; fragments 0 and 2 have
  // single-node borders and hence empty shortcut relations.
  EXPECT_TRUE(info.ForFragment(0).empty());
  EXPECT_FALSE(info.ForFragment(1).empty());
  EXPECT_TRUE(info.ForFragment(2).empty());
  EXPECT_EQ(info.searches, 2u);  // border nodes 2 and 4
}

TEST(Complementary, CountsTuples) {
  ChainFixture fx;
  ComplementaryInfo info = PrecomputeComplementary(*fx.frag);
  EXPECT_EQ(info.total_tuples, 2u);  // (2,4) and (4,2) at fragment 1
}

TEST(Complementary, TransportationGraphBordersOnly) {
  auto t = MakeTransport(1);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  auto lin = LinearFragmentation(t.graph, lopts);
  ComplementaryInfo info = PrecomputeComplementary(lin.fragmentation);
  for (FragmentId f = 0; f < lin.fragmentation.NumFragments(); ++f) {
    std::set<NodeId> border(lin.fragmentation.BorderNodes(f).begin(),
                            lin.fragmentation.BorderNodes(f).end());
    for (const PathTuple& tup : info.ForFragment(f).tuples()) {
      EXPECT_TRUE(border.count(tup.src));
      EXPECT_TRUE(border.count(tup.dst));
    }
  }
}

// ------------------------------------------------------------------ Chains

TEST(Chains, TrivialSameFragment) {
  ChainFixture fx;
  auto chains = FindChains(*fx.frag, 1, 1);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0], (FragmentChain{1}));
}

TEST(Chains, UniqueChainOnPath) {
  ChainFixture fx;
  auto chains = FindChains(*fx.frag, 0, 2);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0], (FragmentChain{0, 1, 2}));
}

TEST(Chains, MultipleChainsOnCycle) {
  // Triangle of fragments: two chains between any two of them.
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph g = b.Build();
  Fragmentation f(&g, {0, 1, 2}, 3);
  auto chains = FindChains(f, 0, 1);
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_EQ(chains[0].size(), 2u);  // direct, shortest first
  EXPECT_EQ(chains[1].size(), 3u);  // around
}

TEST(Chains, MaxChainsCap) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph g = b.Build();
  Fragmentation f(&g, {0, 1, 2}, 3);
  auto chains = FindChains(f, 0, 1, /*max_chains=*/1);
  EXPECT_EQ(chains.size(), 1u);
}

TEST(Chains, NoChainAcrossDisconnectedFragments) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  Fragmentation f(&g, {0, 1}, 2);
  EXPECT_TRUE(FindChains(f, 0, 1).empty());
}

// ------------------------------------------------------------- LocalQuery

TEST(LocalQuery, EnginesAgree) {
  ChainFixture fx;
  ComplementaryInfo info = PrecomputeComplementary(*fx.frag);
  LocalQuerySpec spec;
  spec.fragment = 1;
  spec.sources = {2};
  spec.targets = {4};
  auto dij = RunLocalQuery(*fx.frag, &info, spec, LocalEngine::kDijkstra);
  auto semi = RunLocalQuery(*fx.frag, &info, spec, LocalEngine::kSemiNaive);
  auto smart = RunLocalQuery(*fx.frag, &info, spec, LocalEngine::kSmart);
  EXPECT_DOUBLE_EQ(dij.paths.BestCost(2, 4), 2.0);
  EXPECT_DOUBLE_EQ(semi.paths.BestCost(2, 4), 2.0);
  EXPECT_DOUBLE_EQ(smart.paths.BestCost(2, 4), 2.0);
}

TEST(LocalQuery, WithoutComplementaryUsesOnlyFragmentEdges) {
  ChainFixture fx;
  LocalQuerySpec spec;
  spec.fragment = 1;
  spec.sources = {2};
  spec.targets = {4};
  auto result = RunLocalQuery(*fx.frag, nullptr, spec);
  EXPECT_DOUBLE_EQ(result.paths.BestCost(2, 4), 2.0);  // 2-3-4 inside frag
}

TEST(LocalQuery, PassThroughTupleForSharedSourceTarget) {
  ChainFixture fx;
  LocalQuerySpec spec;
  spec.fragment = 1;
  spec.sources = {2, 4};
  spec.targets = {4};
  auto result = RunLocalQuery(*fx.frag, nullptr, spec);
  EXPECT_DOUBLE_EQ(result.paths.BestCost(4, 4), 0.0);
}

TEST(LocalQuery, KeyholeSelectivityReducesWork) {
  // Sec. 2.2: the disconnection sets act as a keyhole; restricting sources
  // must shrink the semi-naive workload versus the unrestricted closure.
  auto t = MakeTransport(2);
  CenterBasedOptions copts;
  copts.num_fragments = 4;
  copts.distributed_centers = true;
  Fragmentation frag = CenterBasedFragmentation(t.graph, copts);

  Relation base = Relation::FromGraph(frag.FragmentSubgraph(0));
  TcStats full_stats;
  TransitiveClosure(base, {}, &full_stats);

  const auto& borders = frag.BorderNodes(0);
  if (borders.empty()) GTEST_SKIP() << "fragment 0 has no border";
  TcOptions restricted;
  restricted.sources = NodeSet(borders.begin(), borders.end());
  TcStats keyhole_stats;
  TransitiveClosure(base, restricted, &keyhole_stats);

  EXPECT_LT(keyhole_stats.join_tuples, full_stats.join_tuples);
}

// ----------------------------------------------------------- DsaDatabase

TEST(DsaDatabase, ChainFixtureEndToEnd) {
  ChainFixture fx;
  DsaDatabase db(fx.frag.get());
  auto oracle = Dijkstra(fx.graph, 0);
  for (NodeId t = 0; t < 7; ++t) {
    auto answer = db.ShortestPath(0, t);
    EXPECT_DOUBLE_EQ(answer.cost, t == 0 ? 0.0 : oracle.distance[t])
        << "0 -> " << t;
  }
}

TEST(DsaDatabase, SameFragmentQueryInvolvesOneSite) {
  ChainFixture fx;
  DsaDatabase db(fx.frag.get());
  ExecutionReport report;
  auto answer = db.ShortestPath(0, 1, &report);
  EXPECT_DOUBLE_EQ(answer.cost, 1.0);
  EXPECT_EQ(answer.fragments_involved, (std::vector<FragmentId>{0}));
}

TEST(DsaDatabase, CrossChainQueryInvolvesChainSites) {
  ChainFixture fx;
  DsaDatabase db(fx.frag.get());
  ExecutionReport report;
  auto answer = db.ShortestPath(0, 6, &report);
  EXPECT_TRUE(answer.connected);
  EXPECT_EQ(answer.fragments_involved, (std::vector<FragmentId>{0, 1, 2}));
  EXPECT_EQ(report.sites.size(), 3u);
  // 0-1(1) 1-2(2) 2-3(1) 3-4(1) 4-5(2) 5-6(1) = 8.
  EXPECT_DOUBLE_EQ(answer.cost, 8.0);
}

TEST(DsaDatabase, DisconnectedReturnsUnconnected) {
  GraphBuilder b(4);
  b.AddSymmetricEdge(0, 1);
  b.AddSymmetricEdge(2, 3);
  Graph g = b.Build();
  Fragmentation f(&g, {0, 0, 1, 1}, 2);
  DsaDatabase db(&f);
  auto answer = db.ShortestPath(0, 3);
  EXPECT_FALSE(answer.connected);
  EXPECT_EQ(answer.cost, kInfinity);
  EXPECT_FALSE(db.IsConnected(0, 3));
  EXPECT_TRUE(db.IsConnected(0, 1));
}

TEST(DsaDatabase, SelfQueryIsZero) {
  ChainFixture fx;
  DsaDatabase db(fx.frag.get());
  auto answer = db.ShortestPath(3, 3);
  EXPECT_TRUE(answer.connected);
  EXPECT_DOUBLE_EQ(answer.cost, 0.0);
}

TEST(DsaDatabase, BorderNodeEndpoints) {
  ChainFixture fx;
  DsaDatabase db(fx.frag.get());
  auto oracle = Dijkstra(fx.graph, 2);
  for (NodeId t = 0; t < 7; ++t) {
    if (t == 2) continue;
    EXPECT_DOUBLE_EQ(db.ShortestPath(2, t).cost, oracle.distance[t]);
  }
}

TEST(DsaDatabase, ReportAccountsPhases) {
  ChainFixture fx;
  DsaDatabase db(fx.frag.get());
  ExecutionReport report;
  db.ShortestPath(0, 6, &report);
  EXPECT_GT(report.communication_tuples, 0u);
  EXPECT_GE(report.phase1_cpu_seconds, report.SlowestSiteSeconds());
  EXPECT_GE(report.SlowestSiteSeconds(), 0.0);
  EXPECT_EQ(report.sites.size(), 3u);

  // A second query adds to the same report instead of replacing it.
  const size_t first_tuples = report.communication_tuples;
  ExecutionReport second;
  db.ShortestPath(1, 5, &second);
  ASSERT_FALSE(second.sites.empty());
  db.ShortestPath(1, 5, &report);
  EXPECT_EQ(report.sites.size(), 3u + second.sites.size());
  EXPECT_EQ(report.communication_tuples,
            first_tuples + second.communication_tuples);
}

TEST(DsaDatabase, WithoutComplementaryOverestimatesSideBranchDetours) {
  // Footnote 3's reason to precompute *global* border-to-border paths:
  // the optimal route between two fragment-0 nodes detours through a
  // side-branch fragment that no chain from source to target visits.
  //
  //   fragment 0: 0 -1-> 1 -10-> 2 -1-> 3
  //   fragment 1: 1 -1-> 4 -1-> 2      (shortcut between borders 1 and 2)
  GraphBuilder b(5);
  b.AddSymmetricEdge(0, 1, 1.0);   // fragment 0
  b.AddSymmetricEdge(1, 2, 10.0);  // fragment 0
  b.AddSymmetricEdge(2, 3, 1.0);   // fragment 0
  b.AddSymmetricEdge(1, 4, 1.0);   // fragment 1
  b.AddSymmetricEdge(4, 2, 1.0);   // fragment 1
  Graph g = b.Build();
  Fragmentation f(&g, {0, 0, 0, 0, 0, 0, 1, 1, 1, 1}, 2);
  ASSERT_FALSE(f.IsBorderNode(0));
  ASSERT_FALSE(f.IsBorderNode(3));

  DsaOptions with, without;
  without.use_complementary = false;
  DsaDatabase db_with(&f, with);
  DsaDatabase db_without(&f, without);

  // Oracle: 0-1 (1) + 1-4-2 (2) + 2-3 (1) = 4.
  EXPECT_DOUBLE_EQ(Dijkstra(g, 0).distance[3], 4.0);
  EXPECT_DOUBLE_EQ(db_with.ShortestPath(0, 3).cost, 4.0);
  // Both endpoints live only in fragment 0, so the only chain is {0} and
  // without the shortcut relation the detour is invisible.
  EXPECT_DOUBLE_EQ(db_without.ShortestPath(0, 3).cost, 12.0);
}


// ------------------------------------------------------------ Overlay

TEST(OverlayPlan, BorderEndpointSearchesFromItself) {
  // A ring of four fragments: F0={0,1,2} F1={2,3,4} F2={4,5,6}
  // F3={6,7,0}. Node 2 is a border node of F0 and F1, so a query from it
  // runs no `from` hop: the overlay search starts at node 2 and goes both
  // ways round the ring.
  GraphBuilder b(8);
  for (NodeId v = 0; v < 8; ++v) b.AddSymmetricEdge(v, (v + 1) % 8, 1.0);
  Graph g = b.Build();
  std::vector<FragmentId> owner(16);
  for (EdgeId e = 0; e < 16; ++e) owner[e] = e / 4;
  Fragmentation frag(&g, owner, 4);
  ASSERT_EQ(frag.FragmentsOfNode(2).size(), 2u);

  DsaDatabase db(&frag);
  // 5 lives in F2 alone: one `to` hop in F2 and the rows of the other
  // three fragments. 6 is a border node of F2 and F3: no hop at all, and
  // every fragment's rows.
  for (const auto& [to, want_specs, want_cost] :
       {std::tuple<NodeId, size_t, Weight>{5, 4, 3.0},
        std::tuple<NodeId, size_t, Weight>{6, 4, 4.0}}) {
    const BatchResult result =
        BatchExecutor(&db).Execute({Query{2, to, QueryKind::kCost}});
    EXPECT_EQ(result.stats.subqueries_executed, want_specs) << "2->" << to;
    const QueryAnswer& answer = result.answers.front().answer;
    EXPECT_EQ(answer.fragments_involved,
              (std::vector<FragmentId>{0, 1, 2, 3}))
        << "2->" << to;
    EXPECT_DOUBLE_EQ(answer.cost, want_cost) << "2->" << to;
  }
}

// ---- Central property: DSA == oracle. Small fast sweep here; the full
// ---- fragmenter x engine grid on larger graphs is dsa_heavy_test.cc.

struct LiteParam {
  uint64_t seed;
  Fragmenter fragmenter;
  LocalEngine engine;
};

class DsaOracleSweepLite : public ::testing::TestWithParam<LiteParam> {};

TEST_P(DsaOracleSweepLite, MatchesDijkstraOracle) {
  const LiteParam p = GetParam();
  auto t = MakeTransport(p.seed, /*clusters=*/3, /*nodes=*/8);
  Fragmentation frag = MakeFragmentation(t.graph, p.fragmenter, p.seed);
  ExpectMatchesOracle(t.graph, frag, p.engine, p.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DsaOracleSweepLite,
    ::testing::Values(
        LiteParam{1, Fragmenter::kCenter, LocalEngine::kDijkstra},
        LiteParam{2, Fragmenter::kCenterDistributed, LocalEngine::kSmart},
        LiteParam{3, Fragmenter::kBondEnergy, LocalEngine::kSemiNaive},
        LiteParam{4, Fragmenter::kLinear, LocalEngine::kDijkstra},
        LiteParam{5, Fragmenter::kRandom, LocalEngine::kSemiNaive},
        LiteParam{6, Fragmenter::kRandom, LocalEngine::kDijkstra}));

}  // namespace
}  // namespace tcf
