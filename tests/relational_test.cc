// Tests for the relational engine: relations, operators, and the three
// transitive closure strategies, checked against graph-search oracles and
// against each other (property-style, parameterized over random graphs).
#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/generator.h"
#include "relational/operators.h"
#include "relational/relation.h"
#include "relational/transitive_closure.h"
#include "util/rng.h"

namespace tcf {
namespace {

Graph Cycle(size_t n, Weight w = 1.0) {
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) b.AddEdge(v, (v + 1) % n, w);
  return b.Build();
}

Graph Chain(size_t n, Weight w = 1.0) {
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1, w);
  return b.Build();
}

// ---------------------------------------------------------------- Relation

TEST(Relation, FromGraphKeepsAllTuples) {
  Graph g = Chain(4);
  Relation r = Relation::FromGraph(g);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.Contains(0, 1));
  EXPECT_FALSE(r.Contains(0, 2));
}

TEST(Relation, FromEdgeSubset) {
  Graph g = Chain(5);
  Relation r = Relation::FromEdgeSubset(g, {0, 2});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(0, 1));
  EXPECT_TRUE(r.Contains(2, 3));
  EXPECT_FALSE(r.Contains(1, 2));
}

TEST(Relation, AggregateMinKeepsCheapest) {
  Relation r;
  r.Add(1, 2, 5.0);
  r.Add(1, 2, 3.0);
  r.Add(1, 2, 9.0);
  r.Add(2, 3, 1.0);
  r.AggregateMin();
  EXPECT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r.BestCost(1, 2), 3.0);
}

TEST(Relation, BestCostOfAbsentPairIsInfinity) {
  Relation r;
  r.Add(0, 1, 1.0);
  EXPECT_EQ(r.BestCost(5, 6), kInfinity);
}

TEST(Relation, LookupSeesMutation) {
  Relation r;
  r.Add(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(r.BestCost(0, 1), 2.0);
  r.Add(0, 2, 4.0);
  r.AggregateMin();  // the next lookup reads the mutated tuples
  EXPECT_DOUBLE_EQ(r.BestCost(0, 2), 4.0);
}

TEST(Relation, SortCanonicalOrdersTuples) {
  Relation r;
  r.Add(2, 0, 1.0);
  r.Add(0, 5, 1.0);
  r.Add(0, 2, 1.0);
  r.SortCanonical();
  EXPECT_EQ(r.tuples()[0].src, 0u);
  EXPECT_EQ(r.tuples()[0].dst, 2u);
  EXPECT_EQ(r.tuples()[2].src, 2u);
}

// ---------------------------------------------------------------- Operators

TEST(Operators, SelectBySrcAndDst) {
  Relation r;
  r.Add(0, 1, 1.0);
  r.Add(1, 2, 1.0);
  r.Add(2, 0, 1.0);
  EXPECT_EQ(SelectBySrc(r, {0, 2}).size(), 2u);
  EXPECT_EQ(SelectByDst(r, {2}).size(), 1u);
  EXPECT_EQ(Select(r, [](const PathTuple& t) { return t.src == t.dst; }).size(),
            0u);
}

TEST(Operators, JoinMinPlusComposesPaths) {
  Relation ab, bc;
  ab.Add(0, 1, 2.0);
  ab.Add(0, 2, 10.0);
  bc.Add(1, 3, 4.0);
  bc.Add(2, 3, 1.0);
  size_t join_tuples = 0;
  Relation ac = JoinMinPlus(ab, bc, &join_tuples);
  EXPECT_EQ(join_tuples, 2u);
  EXPECT_EQ(ac.size(), 1u);  // both routes end at (0,3); min kept
  EXPECT_DOUBLE_EQ(ac.BestCost(0, 3), 6.0);
}

TEST(Operators, JoinMinPlusEmptyOperand) {
  Relation ab, empty;
  ab.Add(0, 1, 1.0);
  EXPECT_TRUE(JoinMinPlus(ab, empty).empty());
  EXPECT_TRUE(JoinMinPlus(empty, ab).empty());
}

TEST(Operators, UnionMinMerges) {
  Relation a, b;
  a.Add(0, 1, 5.0);
  b.Add(0, 1, 3.0);
  b.Add(1, 2, 1.0);
  Relation u = UnionMin(a, b);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u.BestCost(0, 1), 3.0);
}

TEST(Operators, ImprovingTuplesReachability) {
  Relation cand, best;
  cand.Add(0, 1, 9.0);  // pair already known: not an improvement
  cand.Add(0, 2, 1.0);  // new pair
  best.Add(0, 1, 10.0);
  Relation imp = ImprovingTuples(cand, best, /*min_plus=*/false);
  EXPECT_EQ(imp.size(), 1u);
  EXPECT_TRUE(imp.Contains(0, 2));
}

TEST(Operators, ImprovingTuplesMinPlus) {
  Relation cand, best;
  cand.Add(0, 1, 9.0);   // improves 10
  cand.Add(0, 2, 5.0);   // new
  cand.Add(0, 3, 7.0);   // worse than 6
  cand.Add(1, 2, 6.0);   // between 4 and 8: worse than best's 4
  cand.Add(1, 3, 6.0);   // likewise
  best.Add(0, 1, 10.0);
  best.Add(0, 3, 6.0);
  // Pairs held twice: the better cost first, then last.
  best.Add(1, 2, 4.0);
  best.Add(1, 2, 8.0);
  best.Add(1, 3, 8.0);
  best.Add(1, 3, 4.0);
  Relation imp = ImprovingTuples(cand, best, /*min_plus=*/true);
  EXPECT_EQ(imp.size(), 2u);
  EXPECT_DOUBLE_EQ(imp.BestCost(0, 1), 9.0);
  EXPECT_TRUE(imp.Contains(0, 2));
  EXPECT_FALSE(imp.Contains(1, 2));
  EXPECT_FALSE(imp.Contains(1, 3));
}

// ------------------------------------------------------------- TC basics

TEST(TransitiveClosure, ChainReachability) {
  Relation base = Relation::FromGraph(Chain(5));
  TcOptions opts;
  opts.semiring = TcSemiring::kReachability;
  Relation tc = TransitiveClosure(base, opts);
  // All ordered pairs i < j: 10 tuples.
  EXPECT_EQ(tc.size(), 10u);
  EXPECT_TRUE(tc.Contains(0, 4));
  EXPECT_FALSE(tc.Contains(4, 0));
}

TEST(TransitiveClosure, CycleClosesCompletely) {
  Relation base = Relation::FromGraph(Cycle(4));
  Relation tc = TransitiveClosure(base);
  EXPECT_EQ(tc.size(), 16u);  // every pair incl. self via the cycle
  EXPECT_DOUBLE_EQ(tc.BestCost(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(tc.BestCost(0, 3), 3.0);
}

TEST(TransitiveClosure, MinPlusShortestCosts) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 3, 1.0);
  b.AddEdge(0, 3, 5.0);
  b.AddEdge(0, 2, 2.0);
  b.AddEdge(2, 3, 0.5);
  Relation base = Relation::FromGraph(b.Build());
  Relation tc = TransitiveClosure(base);
  EXPECT_DOUBLE_EQ(tc.BestCost(0, 3), 2.0);  // via 1
}

TEST(TransitiveClosure, EmptyBase) {
  Relation base;
  TcStats stats;
  Relation tc = TransitiveClosure(base, {}, &stats);
  EXPECT_TRUE(tc.empty());
  EXPECT_EQ(stats.result_size, 0u);
}

TEST(TransitiveClosure, SourceSelectionRestrictsRows) {
  Relation base = Relation::FromGraph(Chain(6));
  TcOptions opts;
  opts.sources = NodeSet{0};
  Relation tc = TransitiveClosure(base, opts);
  for (const PathTuple& t : tc.tuples()) EXPECT_EQ(t.src, 0u);
  EXPECT_EQ(tc.size(), 5u);
}

TEST(TransitiveClosure, TargetSelectionFiltersResult) {
  Relation base = Relation::FromGraph(Chain(6));
  TcOptions opts;
  opts.sources = NodeSet{0};
  opts.targets = NodeSet{5};
  Relation tc = TransitiveClosure(base, opts);
  EXPECT_EQ(tc.size(), 1u);
  EXPECT_DOUBLE_EQ(tc.BestCost(0, 5), 5.0);
}

TEST(TransitiveClosure, SmartUsesLogarithmicIterations) {
  Relation base = Relation::FromGraph(Chain(64));
  TcOptions semi, smart;
  semi.algorithm = TcAlgorithm::kSemiNaive;
  smart.algorithm = TcAlgorithm::kSmart;
  TcStats semi_stats, smart_stats;
  TransitiveClosure(base, semi, &semi_stats);
  TransitiveClosure(base, smart, &smart_stats);
  EXPECT_GE(semi_stats.iterations, 62u);
  EXPECT_LE(smart_stats.iterations, 8u);  // ~log2(63) + 1
}

TEST(TransitiveClosure, IterationsTrackDiameter) {
  // Sec. 2.1: "The number of iterations required before reaching a
  // fixpoint is given by the maximum diameter of the graph."
  for (size_t n : {4, 8, 16, 32}) {
    Relation base = Relation::FromGraph(Chain(n));
    TcStats stats;
    TransitiveClosure(base, {}, &stats);
    // Semi-naive needs diameter-ish rounds (n-1 edges -> n-1 rounds).
    EXPECT_NEAR(static_cast<double>(stats.iterations),
                static_cast<double>(n - 1), 1.0);
  }
}

TEST(TransitiveClosure, NaiveProducesMoreJoinTuplesThanSemiNaive) {
  Relation base = Relation::FromGraph(Chain(24));
  TcOptions naive, semi;
  naive.algorithm = TcAlgorithm::kNaive;
  semi.algorithm = TcAlgorithm::kSemiNaive;
  TcStats sn, ss;
  Relation a = TransitiveClosure(base, naive, &sn);
  Relation b = TransitiveClosure(base, semi, &ss);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_GT(sn.join_tuples, ss.join_tuples);
}

TEST(TransitiveClosure, StatsPopulated) {
  Relation base = Relation::FromGraph(Cycle(6));
  TcStats stats;
  TransitiveClosure(base, {}, &stats);
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.join_tuples, 0u);
  EXPECT_GT(stats.result_size, 0u);
  EXPECT_GT(stats.max_delta_size, 0u);
}

// --------------------------------------------- property: engines agree

struct TcParam {
  uint64_t seed;
  size_t nodes;
  double edges;
};

class TcEquivalence : public ::testing::TestWithParam<TcParam> {
 protected:
  Graph MakeGraph() const {
    GeneralGraphOptions opts;
    opts.num_nodes = GetParam().nodes;
    opts.target_edges = GetParam().edges;
    opts.symmetric = false;  // general digraph stresses directionality
    Rng rng(GetParam().seed);
    return GenerateGeneralGraph(opts, &rng);
  }
};

TEST_P(TcEquivalence, AllAlgorithmsAgreeWithDijkstraOracle) {
  Graph g = MakeGraph();
  Relation base = Relation::FromGraph(g);

  TcOptions semi, naive, smart;
  semi.algorithm = TcAlgorithm::kSemiNaive;
  naive.algorithm = TcAlgorithm::kNaive;
  smart.algorithm = TcAlgorithm::kSmart;
  Relation r_semi = TransitiveClosure(base, semi);
  Relation r_naive = TransitiveClosure(base, naive);
  Relation r_smart = TransitiveClosure(base, smart);

  ASSERT_EQ(r_semi.size(), r_naive.size());
  ASSERT_EQ(r_semi.size(), r_smart.size());

  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    ShortestPaths sp = Dijkstra(g, s);
    for (NodeId t = 0; t < g.NumNodes(); ++t) {
      // Oracle: paths of length >= 1. Dijkstra gives d(s,s) = 0; the
      // closure contains (s,s) only when s lies on a cycle, so skip the
      // diagonal here and check it separately below.
      if (s == t) continue;
      EXPECT_DOUBLE_EQ(r_semi.BestCost(s, t), sp.distance[t]) << s << "->" << t;
      EXPECT_DOUBLE_EQ(r_naive.BestCost(s, t), sp.distance[t]);
      EXPECT_DOUBLE_EQ(r_smart.BestCost(s, t), sp.distance[t]);
    }
  }
}

TEST_P(TcEquivalence, ReachabilitySemiringMatchesBfs) {
  Graph g = MakeGraph();
  Relation base = Relation::FromGraph(g);
  TcOptions opts;
  opts.semiring = TcSemiring::kReachability;
  Relation tc = TransitiveClosure(base, opts);
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    auto hops = BfsHops(g, s);
    for (NodeId t = 0; t < g.NumNodes(); ++t) {
      if (s == t) continue;
      EXPECT_EQ(tc.Contains(s, t), hops[t] >= 0) << s << "->" << t;
    }
  }
}

TEST_P(TcEquivalence, SourceRestrictedRunMatchesFullRun) {
  Graph g = MakeGraph();
  Relation base = Relation::FromGraph(g);
  Relation full = TransitiveClosure(base);
  const NodeId probe = static_cast<NodeId>(GetParam().seed % g.NumNodes());
  TcOptions opts;
  opts.sources = NodeSet{probe};
  Relation restricted = TransitiveClosure(base, opts);
  for (NodeId t = 0; t < g.NumNodes(); ++t) {
    EXPECT_DOUBLE_EQ(restricted.BestCost(probe, t), full.BestCost(probe, t));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, TcEquivalence,
    ::testing::Values(TcParam{1, 12, 30}, TcParam{2, 12, 30},
                      TcParam{3, 16, 50}, TcParam{4, 16, 20},
                      TcParam{5, 20, 70}, TcParam{6, 20, 40},
                      TcParam{7, 24, 60}, TcParam{8, 10, 45},
                      TcParam{9, 14, 14}, TcParam{10, 18, 90}));

}  // namespace
}  // namespace tcf
