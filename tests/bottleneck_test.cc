// Tests for the bottleneck (widest-path) semiring: the relational engine's
// kBottleneck mode against the max-min Dijkstra oracle, and the
// BottleneckDsa against a whole-graph oracle across fragmenters and seeds
// — the "complementary information is different for each type of path
// problem" dimension of the paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "dsa/bottleneck.h"
#include "fragment/bond_energy.h"
#include "fragment/center_based.h"
#include "fragment/linear.h"
#include "fragment/random_partition.h"
#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/generator.h"
#include "relational/transitive_closure.h"

namespace tcf {
namespace {

// -------------------------------------------------------------- oracle

TEST(WidestPathsFrom, PicksTheFatterRoute) {
  // 0 -> 3 directly with capacity 2, or via 1-2 with min capacity 5.
  GraphBuilder b(4);
  b.AddEdge(0, 3, 2.0);
  b.AddEdge(0, 1, 9.0);
  b.AddEdge(1, 2, 5.0);
  b.AddEdge(2, 3, 7.0);
  WidestPaths wp = WidestPathsFrom(b.Build(), 0);
  EXPECT_DOUBLE_EQ(wp.capacity[3], 5.0);
  EXPECT_EQ(wp.parent[3], 2u);
  EXPECT_DOUBLE_EQ(wp.capacity[0], kInfinity);
}

TEST(WidestPathsFrom, UnreachableIsZero) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 4.0);
  WidestPaths wp = WidestPathsFrom(b.Build(), 0);
  EXPECT_DOUBLE_EQ(wp.capacity[2], 0.0);
}

TEST(WidestPathsFrom, DirectionMatters) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 3.0);
  WidestPaths wp = WidestPathsFrom(b.Build(), 1);
  EXPECT_DOUBLE_EQ(wp.capacity[0], 0.0);
}

// ----------------------------------------------------- relational engine

TEST(BottleneckClosure, TinyExample) {
  Relation base;
  base.Add(0, 1, 4.0);
  base.Add(1, 2, 6.0);
  base.Add(0, 2, 3.0);
  TcOptions opts;
  opts.semiring = TcSemiring::kBottleneck;
  Relation tc = TransitiveClosure(base, opts);
  EXPECT_DOUBLE_EQ(tc.MaxCost(0, 2), 4.0);  // via 1 beats the direct 3
  EXPECT_DOUBLE_EQ(tc.MaxCost(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(tc.MaxCost(1, 2), 6.0);
}

TEST(BottleneckClosure, CycleConverges) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 2.0);
  b.AddEdge(1, 2, 3.0);
  b.AddEdge(2, 0, 4.0);
  TcOptions opts;
  opts.semiring = TcSemiring::kBottleneck;
  TcStats stats;
  Relation tc = TransitiveClosure(Relation::FromGraph(b.Build()), opts,
                                  &stats);
  EXPECT_DOUBLE_EQ(tc.MaxCost(0, 0), 2.0);  // around the cycle
  EXPECT_DOUBLE_EQ(tc.MaxCost(2, 1), 2.0);
  EXPECT_LT(stats.iterations, 10u);
}

TEST(BottleneckClosure, JoinMaxMinBasics) {
  Relation ab, bc;
  ab.Add(0, 1, 5.0);
  ab.Add(0, 2, 8.0);
  bc.Add(1, 3, 7.0);
  bc.Add(2, 3, 2.0);
  Relation ac = JoinMaxMin(ab, bc);
  // via 1: min(5,7) = 5; via 2: min(8,2) = 2 -> keep 5.
  EXPECT_DOUBLE_EQ(ac.MaxCost(0, 3), 5.0);
  EXPECT_EQ(ac.size(), 1u);
}

TEST(BottleneckClosure, ImprovingTuplesMaxKeepsOnlyBetter) {
  Relation cand, best;
  cand.Add(0, 1, 5.0);
  cand.Add(0, 2, 1.0);
  cand.Add(1, 2, 6.0);  // between 4 and 8: narrower than best's 8
  cand.Add(1, 3, 6.0);  // likewise
  best.Add(0, 1, 6.0);
  // Pairs held twice: the better capacity first, then last.
  best.Add(1, 2, 8.0);
  best.Add(1, 2, 4.0);
  best.Add(1, 3, 4.0);
  best.Add(1, 3, 8.0);
  Relation imp = ImprovingTuplesMax(cand, best);
  EXPECT_EQ(imp.size(), 1u);
  EXPECT_DOUBLE_EQ(imp.MaxCost(0, 2), 1.0);
  EXPECT_EQ(imp.MaxCost(1, 2), 0.0);
  EXPECT_EQ(imp.MaxCost(1, 3), 0.0);
}

class BottleneckEngineSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BottleneckEngineSweep, AllAlgorithmsMatchWidestOracle) {
  GeneralGraphOptions opts;
  opts.num_nodes = 18;
  opts.target_edges = 55;
  opts.symmetric = false;
  Rng rng(GetParam());
  Graph g = GenerateGeneralGraph(opts, &rng);
  Relation base = Relation::FromGraph(g);

  for (TcAlgorithm algo : {TcAlgorithm::kSemiNaive, TcAlgorithm::kNaive,
                           TcAlgorithm::kSmart}) {
    TcOptions tc_opts;
    tc_opts.semiring = TcSemiring::kBottleneck;
    tc_opts.algorithm = algo;
    Relation tc = TransitiveClosure(base, tc_opts);
    for (NodeId s = 0; s < g.NumNodes(); ++s) {
      WidestPaths wp = WidestPathsFrom(g, s);
      for (NodeId t = 0; t < g.NumNodes(); ++t) {
        if (s == t) continue;
        EXPECT_DOUBLE_EQ(tc.MaxCost(s, t), wp.capacity[t])
            << s << "->" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BottleneckEngineSweep,
                         ::testing::Range<uint64_t>(1, 7));

// ------------------------------------------------------------------ DSA

TransportationGraph MakeTransport(uint64_t seed) {
  TransportationGraphOptions opts;
  opts.num_clusters = 4;
  opts.nodes_per_cluster = 12;
  opts.target_edges_per_cluster = 48;
  Rng rng(seed);
  return GenerateTransportationGraph(opts, &rng);
}

TEST(BottleneckDsa, CapacityComplementaryIsGlobal) {
  // Chain of two fragments; the widest border-to-border route uses the
  // other fragment.
  GraphBuilder b(4);
  b.AddSymmetricEdge(0, 1, 10.0);  // fragment 0
  b.AddSymmetricEdge(1, 2, 1.0);   // fragment 0 (narrow internal link)
  b.AddSymmetricEdge(1, 3, 8.0);   // fragment 1
  b.AddSymmetricEdge(3, 2, 8.0);   // fragment 1
  Graph g = b.Build();
  Fragmentation f(&g, {0, 0, 0, 0, 1, 1, 1, 1}, 2);
  ComplementaryInfo info = PrecomputeCapacityComplementary(f);
  // Border nodes of fragment 0 are {1, 2}; globally widest 1->2 is via 3.
  EXPECT_DOUBLE_EQ(info.ForFragment(0).MaxCost(1, 2), 8.0);
}

TEST(BottleneckDsa, SelfAndDisconnected) {
  GraphBuilder b(4);
  b.AddSymmetricEdge(0, 1, 2.0);
  b.AddSymmetricEdge(2, 3, 2.0);
  Graph g = b.Build();
  Fragmentation f(&g, {0, 0, 1, 1}, 2);
  BottleneckDsa db(&f);
  EXPECT_EQ(db.WidestPath(1, 1).capacity, kInfinity);
  EXPECT_FALSE(db.WidestPath(0, 3).connected);
  EXPECT_DOUBLE_EQ(db.WidestPath(0, 3).capacity, 0.0);
}

TEST(BottleneckDsa, RingOfFragmentsSearchesTheOverlay) {
  // Four fragments in a ring A-B-C-D-A. Node 2 is the A/B border and node
  // 5 is interior to C, so a query from 2 runs no `from` hop, one `to` hop
  // in C, and reads the capacity rows of A, B and D: the search starts at
  // 2 and covers both ways round the ring.
  GraphBuilder b(8);
  b.AddSymmetricEdge(0, 1, 3.0);  // A
  b.AddSymmetricEdge(1, 2, 5.0);  // A
  b.AddSymmetricEdge(2, 3, 4.0);  // B
  b.AddSymmetricEdge(3, 4, 2.0);  // B (narrow: the short way loses)
  b.AddSymmetricEdge(4, 5, 6.0);  // C
  b.AddSymmetricEdge(5, 6, 7.0);  // C
  b.AddSymmetricEdge(6, 7, 8.0);  // D
  b.AddSymmetricEdge(7, 0, 9.0);  // D
  Graph g = b.Build();
  Fragmentation f(&g, {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}, 4);

  BottleneckDsa db(&f);
  ExecutionReport report;
  const BottleneckAnswer answer = db.WidestPath(2, 5, &report);
  std::vector<FragmentId> sites;
  for (const SiteReport& site : report.sites) sites.push_back(site.fragment);
  std::sort(sites.begin(), sites.end());
  EXPECT_EQ(sites, (std::vector<FragmentId>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(answer.capacity, 3.0);  // 2-1-0-7-6-5, round via D

  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    const WidestPaths oracle = WidestPathsFrom(g, s);
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      if (s == u) continue;
      EXPECT_DOUBLE_EQ(db.WidestPath(s, u).capacity, oracle.capacity[u])
          << s << "->" << u;
    }
  }
}

struct BnParam {
  uint64_t seed;
  int fragmenter;  // 0 center, 1 bea, 2 linear, 3 random
};

class BottleneckDsaSweep : public ::testing::TestWithParam<BnParam> {};

TEST_P(BottleneckDsaSweep, MatchesWholeGraphWidestOracle) {
  const BnParam p = GetParam();
  auto t = MakeTransport(p.seed);
  std::unique_ptr<Fragmentation> frag;
  switch (p.fragmenter) {
    case 0: {
      CenterBasedOptions opts;
      opts.num_fragments = 4;
      opts.distributed_centers = true;
      frag = std::make_unique<Fragmentation>(
          CenterBasedFragmentation(t.graph, opts));
      break;
    }
    case 1: {
      BondEnergyOptions opts;
      opts.num_fragments = 4;
      frag = std::make_unique<Fragmentation>(
          BondEnergyFragmentation(t.graph, opts));
      break;
    }
    case 2: {
      LinearOptions opts;
      opts.num_fragments = 4;
      frag = std::make_unique<Fragmentation>(
          LinearFragmentation(t.graph, opts).fragmentation);
      break;
    }
    default: {
      Rng rng(p.seed * 17 + 3);
      frag = std::make_unique<Fragmentation>(
          RandomFragmentation(t.graph, 4, &rng));
      break;
    }
  }
  BottleneckDsa db(frag.get());
  Rng rng(p.seed);
  for (int i = 0; i < 10; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    if (s == u) continue;
    const Weight oracle = WidestPathsFrom(t.graph, s).capacity[u];
    const BottleneckAnswer answer = db.WidestPath(s, u);
    if (oracle <= 0.0) {
      EXPECT_FALSE(answer.connected);
    } else {
      ASSERT_TRUE(answer.connected) << s << "->" << u;
      EXPECT_NEAR(answer.capacity, oracle, 1e-9) << s << "->" << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BottleneckDsaSweep,
    ::testing::Values(BnParam{1, 0}, BnParam{2, 1}, BnParam{3, 2},
                      BnParam{4, 3}, BnParam{5, 0}, BnParam{6, 1},
                      BnParam{7, 2}, BnParam{8, 3}));

}  // namespace
}  // namespace tcf
