// Exactness of the border-overlay search on every fragmentation graph.
// Random node-partition fragmentations of a dense general graph have far
// more chains of fragments between a fragment pair than any enumeration
// cap, so a capped chain enumeration answers some pairs wrong while the
// overlay search covers every chain at once. Each answer path — single
// shortest paths, routes, batches, the message-passing SiteNetwork and
// the widest-path BottleneckDsa — is held to a whole-graph oracle. Also:
// the degenerate cases (a node without edges, a fragment without border
// nodes), and on an acyclic fragmentation graph the overlay reads no more
// than the one chain a query has.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "dsa/batch.h"
#include "dsa/bottleneck.h"
#include "dsa/sites.h"
#include "dsa_sweep.h"
#include "fragment/linear.h"
#include "fragment/random_partition.h"
#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/generator.h"

namespace tcf {
namespace {

using dsa_sweep::RouteCost;

/// Holds every answer path for `pairs` to the whole-graph oracles.
void ExpectExactOnPairs(const Graph& g, const Fragmentation& frag,
                        const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::vector<ShortestPaths> shortest(g.NumNodes());
  std::vector<WidestPaths> widest(g.NumNodes());
  std::vector<char> searched(g.NumNodes(), 0);
  for (const auto& [from, to] : pairs) {
    if (searched[from]) continue;
    searched[from] = 1;
    shortest[from] = Dijkstra(g, from);
    widest[from] = WidestPathsFrom(g, from);
  }

  DsaDatabase db(&frag);
  std::vector<Query> batch;
  std::vector<Weight> singles;
  for (const auto& [from, to] : pairs) {
    const Weight want = from == to ? 0.0 : shortest[from].distance[to];
    const QueryAnswer got = db.ShortestPath(from, to);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.connected, want != kInfinity) << from << "->" << to;
    if (want != kInfinity) {
      EXPECT_NEAR(got.cost, want, 1e-9) << from << "->" << to;
    }
    singles.push_back(got.cost);
    batch.push_back(Query{from, to, QueryKind::kCost});

    const RouteAnswer route = db.ShortestRoute(from, to);
    ASSERT_TRUE(route.answer.status.ok()) << route.answer.status.ToString();
    EXPECT_EQ(route.answer.cost, got.cost) << from << "->" << to;
    if (want == kInfinity) {
      EXPECT_TRUE(route.route.empty()) << from << "->" << to;
    } else {
      ASSERT_FALSE(route.route.empty()) << from << "->" << to;
      EXPECT_EQ(route.route.front(), from);
      EXPECT_EQ(route.route.back(), to);
      EXPECT_NEAR(RouteCost(g, route.route), want, 1e-9)
          << from << "->" << to;
    }
  }

  const BatchResult batched = BatchExecutor(&db).Execute(batch);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(batched.answers[i].answer.cost, singles[i])
        << pairs[i].first << "->" << pairs[i].second;
  }

  SiteNetwork net(&frag);
  const std::vector<Weight> sited = net.BatchShortestPathCosts(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(sited[i], singles[i])
        << pairs[i].first << "->" << pairs[i].second;
  }

  BottleneckDsa bottleneck(&frag);
  for (const auto& [from, to] : pairs) {
    const Weight want = from == to ? kInfinity : widest[from].capacity[to];
    EXPECT_DOUBLE_EQ(bottleneck.WidestPath(from, to).capacity, want)
        << from << "->" << to;
  }
}

/// The sampled pairs: uniform pairs, pairs inside one fragment, border
/// endpoints, and every interior node against a random node.
std::vector<std::pair<NodeId, NodeId>> SamplePairs(const Graph& g,
                                                   const Fragmentation& frag,
                                                   Rng* rng) {
  const size_t n = g.NumNodes();
  auto any = [&] { return static_cast<NodeId>(rng->NextBounded(n)); };
  std::vector<NodeId> border;
  std::vector<NodeId> interior;
  for (NodeId v = 0; v < n; ++v) {
    (frag.IsBorderNode(v) ? border : interior).push_back(v);
  }
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 120; ++i) pairs.emplace_back(any(), any());
  for (int i = 0; i < 120; ++i) {
    const FragmentId f =
        static_cast<FragmentId>(rng->NextBounded(frag.NumFragments()));
    const std::vector<NodeId>& nodes = frag.FragmentNodes(f);
    pairs.emplace_back(nodes[rng->NextBounded(nodes.size())],
                       nodes[rng->NextBounded(nodes.size())]);
  }
  for (int i = 0; i < 60 && !border.empty(); ++i) {
    const NodeId b = border[rng->NextBounded(border.size())];
    pairs.push_back(i % 2 == 0 ? std::pair(b, any()) : std::pair(any(), b));
  }
  for (NodeId v : interior) pairs.emplace_back(v, any());
  return pairs;
}

class OverlayExactness : public ::testing::TestWithParam<size_t> {};

TEST_P(OverlayExactness, EveryAnswerPathMatchesTheOracle) {
  GeneralGraphOptions opts;
  opts.num_nodes = 200;
  opts.target_edges = 600;
  opts.ensure_connected = true;
  Rng graph_rng(7);
  const Graph g = GenerateGeneralGraph(opts, &graph_rng);
  Rng frag_rng(7);
  const Fragmentation frag = RandomFragmentation(g, GetParam(), &frag_rng);
  ASSERT_EQ(frag.NumFragments(), GetParam());
  // Far more chains between fragment pairs than a cap of 64 keeps.
  ASSERT_GT(frag.FragmentationGraphCycles(), 6u);

  Rng pair_rng(99);
  const std::vector<std::pair<NodeId, NodeId>> pairs =
      SamplePairs(g, frag, &pair_rng);
  ASSERT_GE(pairs.size(), 300u);
  ExpectExactOnPairs(g, frag, pairs);
}

INSTANTIATE_TEST_SUITE_P(Fragments, OverlayExactness,
                         ::testing::Values(size_t{8}, size_t{10}));

TEST(OverlayExactness, NodeWithoutEdgesAndFragmentWithoutBorder) {
  // F0 = 0-1-2 and F1 = 2-3-4 share node 2; F2 = 5-6 shares nothing; node 7
  // has no edge.
  GraphBuilder b(8);
  b.AddSymmetricEdge(0, 1, 1.0);  // F0
  b.AddSymmetricEdge(1, 2, 2.0);  // F0
  b.AddSymmetricEdge(2, 3, 3.0);  // F1
  b.AddSymmetricEdge(3, 4, 1.0);  // F1
  b.AddSymmetricEdge(5, 6, 4.0);  // F2
  const Graph g = b.Build();
  const Fragmentation frag(&g, {0, 0, 0, 0, 1, 1, 1, 1, 2, 2}, 3);
  ASSERT_TRUE(frag.BorderNodes(2).empty());
  ASSERT_TRUE(frag.FragmentsOfNode(7).empty());

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId from = 0; from < g.NumNodes(); ++from) {
    for (NodeId to = 0; to < g.NumNodes(); ++to) pairs.emplace_back(from, to);
  }
  ExpectExactOnPairs(g, frag, pairs);

  // Pairs no fragment chain joins plan no subquery at all.
  DsaDatabase db(&frag);
  for (const auto& [from, to] : {std::pair<NodeId, NodeId>{0, 5},
                                 std::pair<NodeId, NodeId>{7, 3},
                                 std::pair<NodeId, NodeId>{6, 7}}) {
    const BatchResult result =
        BatchExecutor(&db).Execute({Query{from, to, QueryKind::kCost}});
    EXPECT_FALSE(result.answers.front().answer.connected);
    EXPECT_EQ(result.stats.subqueries_executed, 0u) << from << "->" << to;
  }
}

/// The first two nodes of fragment f that are not border nodes.
std::vector<NodeId> InteriorNodes(const Fragmentation& frag, FragmentId f) {
  std::vector<NodeId> out;
  for (NodeId v : frag.FragmentNodes(f)) {
    if (!frag.IsBorderNode(v) && out.size() < 2) out.push_back(v);
  }
  return out;
}

TEST(OverlayReads, AcyclicFragmentationReadsOnlyTheChain) {
  const TransportationGraph t = dsa_sweep::MakeTransport(12, 4, 15);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  const Fragmentation frag =
      LinearFragmentation(t.graph, lopts).fragmentation;
  // Every fragment of this chain has interior nodes to query between.
  ASSERT_TRUE(frag.IsLooselyConnected());
  DsaDatabase db(&frag);
  auto run = [&](NodeId from, NodeId to) {
    return BatchExecutor(&db).Execute({Query{from, to, QueryKind::kCost}});
  };

  // Two interior nodes of one fragment: one subquery, no rows.
  const std::vector<NodeId> inside = InteriorNodes(frag, 0);
  ASSERT_EQ(inside.size(), 2u);
  const BatchResult local = run(inside[0], inside[1]);
  EXPECT_EQ(local.stats.subqueries_executed, 1u);
  EXPECT_EQ(local.answers.front().answer.fragments_involved,
            (std::vector<FragmentId>{0}));

  // Every adjacent pair of fragments: a query between interior nodes of
  // the two reads those two fragments only, one subquery each, like the
  // chain of two hops it replaces. A query across the whole chain reads
  // every fragment of it once.
  size_t adjacent = 0;
  for (FragmentId fa = 0; fa < frag.NumFragments(); ++fa) {
    for (FragmentId fb : frag.FragmentNeighbors(fa)) {
      const std::vector<NodeId> a = InteriorNodes(frag, fa);
      const std::vector<NodeId> b = InteriorNodes(frag, fb);
      ASSERT_FALSE(a.empty());
      ASSERT_FALSE(b.empty());
      const BatchResult result = run(a.front(), b.front());
      EXPECT_EQ(result.stats.subqueries_executed, 2u) << fa << "->" << fb;
      EXPECT_EQ(result.answers.front().answer.fragments_involved,
                (std::vector<FragmentId>{std::min(fa, fb), std::max(fa, fb)}));
      EXPECT_NEAR(result.answers.front().answer.cost,
                  Dijkstra(t.graph, a.front()).distance[b.front()], 1e-9);
      ++adjacent;
    }
  }
  EXPECT_EQ(adjacent, 2 * (frag.NumFragments() - 1));

  for (FragmentId fa = 0; fa < frag.NumFragments(); ++fa) {
    if (frag.FragmentNeighbors(fa).size() != 1) continue;
    for (FragmentId fb = fa + 1; fb < frag.NumFragments(); ++fb) {
      if (frag.FragmentNeighbors(fb).size() != 1) continue;
      // fa and fb are the two ends of the chain.
      const BatchResult result =
          run(InteriorNodes(frag, fa).front(), InteriorNodes(frag, fb).front());
      EXPECT_EQ(result.stats.subqueries_executed, frag.NumFragments());
      EXPECT_EQ(result.answers.front().answer.fragments_involved.size(),
                frag.NumFragments());
    }
  }
}

}  // namespace
}  // namespace tcf
