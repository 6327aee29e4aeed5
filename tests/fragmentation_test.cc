// Tests for the fragmentation model (Sec. 2): disconnection sets,
// fragmentation graph, loose connectivity, metrics, node-partition
// conversion, and the random baseline.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "fragment/fragmentation.h"
#include "fragment/metrics.h"
#include "fragment/node_partition.h"
#include "fragment/random_partition.h"
#include "graph/builder.h"
#include "graph/generator.h"

namespace tcf {
namespace {

/// Two symmetric triangles sharing node 2:
/// fragment 0 = {0,1,2}, fragment 1 = {2,3,4}.
struct SharedNodeFixture {
  SharedNodeFixture() {
    GraphBuilder b(5);
    b.AddSymmetricEdge(0, 1);
    b.AddSymmetricEdge(1, 2);
    b.AddSymmetricEdge(0, 2);
    b.AddSymmetricEdge(2, 3);
    b.AddSymmetricEdge(3, 4);
    b.AddSymmetricEdge(2, 4);
    graph = b.Build();
    // Edges 0..5 (tuples 0..11): first 3 symmetric pairs -> frag 0,
    // last 3 -> frag 1.
    std::vector<FragmentId> owner(12);
    for (EdgeId e = 0; e < 12; ++e) owner[e] = e < 6 ? 0 : 1;
    frag = std::make_unique<Fragmentation>(&graph, owner, 2);
  }
  Graph graph;
  std::unique_ptr<Fragmentation> frag;
};

TEST(Fragmentation, FragmentNodeSets) {
  SharedNodeFixture fx;
  EXPECT_EQ(fx.frag->NumFragments(), 2u);
  EXPECT_EQ(fx.frag->FragmentNodes(0), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(fx.frag->FragmentNodes(1), (std::vector<NodeId>{2, 3, 4}));
}

TEST(Fragmentation, DisconnectionSetIsTheSharedNode) {
  SharedNodeFixture fx;
  ASSERT_EQ(fx.frag->disconnection_sets().size(), 1u);
  const DisconnectionSet& ds = fx.frag->disconnection_sets()[0];
  EXPECT_EQ(ds.frag_a, 0u);
  EXPECT_EQ(ds.frag_b, 1u);
  EXPECT_EQ(ds.nodes, (std::vector<NodeId>{2}));
  EXPECT_EQ(fx.frag->FindDisconnectionSet(1, 0), &ds);  // order-insensitive
  EXPECT_EQ(fx.frag->FindDisconnectionSet(0, 0), nullptr);
}

TEST(Fragmentation, BorderNodeQueries) {
  SharedNodeFixture fx;
  EXPECT_TRUE(fx.frag->IsBorderNode(2));
  EXPECT_FALSE(fx.frag->IsBorderNode(0));
  EXPECT_EQ(fx.frag->BorderNodes(0), (std::vector<NodeId>{2}));
  EXPECT_EQ(fx.frag->BorderNodes(1), (std::vector<NodeId>{2}));
  EXPECT_EQ(fx.frag->FragmentsOfNode(2), (std::vector<FragmentId>{0, 1}));
  EXPECT_EQ(fx.frag->HomeFragment(3), 1u);
}

TEST(Fragmentation, TwoFragmentsAreLooselyConnected) {
  SharedNodeFixture fx;
  EXPECT_TRUE(fx.frag->IsLooselyConnected());
  EXPECT_EQ(fx.frag->FragmentationGraphCycles(), 0u);
  EXPECT_EQ(fx.frag->FragmentNeighbors(0), (std::vector<FragmentId>{1}));
}

TEST(Fragmentation, EmptyFragmentsCompacted) {
  SharedNodeFixture fx;
  std::vector<FragmentId> owner(12);
  for (EdgeId e = 0; e < 12; ++e) owner[e] = e < 6 ? 0 : 7;  // ids 0 and 7
  Fragmentation f(&fx.graph, owner, 9);
  EXPECT_EQ(f.NumFragments(), 2u);
  EXPECT_EQ(f.fragment_of_edge()[11], 1u);
}

TEST(Fragmentation, TriangleOfFragmentsHasCycle) {
  // Three fragments pairwise sharing a node: star with 3 spokes where each
  // pair of spokes shares the hub? Build explicitly: nodes 0..2 triangle,
  // each edge its own fragment -> every pair shares a node.
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph g = b.Build();
  Fragmentation f(&g, {0, 1, 2}, 3);
  EXPECT_EQ(f.disconnection_sets().size(), 3u);
  EXPECT_FALSE(f.IsLooselyConnected());
  EXPECT_EQ(f.FragmentationGraphCycles(), 1u);
}

TEST(Fragmentation, SingleFragmentTrivia) {
  Graph g = [] {
    GraphBuilder b(3);
    b.AddEdge(0, 1);
    b.AddEdge(1, 2);
    return b.Build();
  }();
  Fragmentation f(&g, {0, 0}, 1);
  EXPECT_EQ(f.NumFragments(), 1u);
  EXPECT_TRUE(f.disconnection_sets().empty());
  EXPECT_TRUE(f.IsLooselyConnected());
  EXPECT_TRUE(f.BorderNodes(0).empty());
}

TEST(Fragmentation, FragmentSubgraphHasOnlyFragmentEdges) {
  SharedNodeFixture fx;
  Graph sub = fx.frag->FragmentSubgraph(0);
  EXPECT_EQ(sub.NumNodes(), fx.graph.NumNodes());  // global id space
  EXPECT_EQ(sub.NumEdges(), 6u);
  for (const Edge& e : sub.edges()) {
    EXPECT_LE(e.src, 2u);
    EXPECT_LE(e.dst, 2u);
  }
}

TEST(Fragmentation, LocalGraphHoldsTheFragmentEdgesInLocalIds) {
  SharedNodeFixture fx;
  const Fragmentation& frag = *fx.frag;
  EXPECT_EQ(frag.LocalGraphsBuilt(), 0u);  // built on first use only
  for (FragmentId f = 0; f < frag.NumFragments(); ++f) {
    const std::vector<NodeId>& nodes = frag.FragmentNodes(f);
    std::multiset<std::tuple<NodeId, NodeId, Weight>> want;
    for (EdgeId e : frag.FragmentEdges(f)) {
      const Edge& edge = fx.graph.edge(e);
      want.emplace(edge.src, edge.dst, edge.weight);
    }
    const LocalGraph& local = frag.LocalGraphOf(f);
    EXPECT_EQ(&local, &frag.LocalGraphOf(f));  // shared, not rebuilt
    std::multiset<std::tuple<NodeId, NodeId, Weight>> forward, reverse;
    for (uint32_t v = 0; v < nodes.size(); ++v) {
      for (uint32_t i = local.forward.offsets[v];
           i < local.forward.offsets[v + 1]; ++i) {
        forward.emplace(nodes[v], nodes[local.forward.heads[i]],
                        local.forward.weights[i]);
      }
      for (uint32_t i = local.reverse.offsets[v];
           i < local.reverse.offsets[v + 1]; ++i) {
        reverse.emplace(nodes[local.reverse.heads[i]], nodes[v],
                        local.reverse.weights[i]);
      }
    }
    EXPECT_EQ(forward, want);
    EXPECT_EQ(reverse, want);
  }
  EXPECT_EQ(frag.LocalGraphsBuilt(), frag.NumFragments());
  const Fragmentation copy(frag);
  EXPECT_EQ(copy.LocalGraphsBuilt(), 0u);  // copies start cold
}

TEST(Fragmentation, RebindToAReweightedGraphKeepsTheStructure) {
  SharedNodeFixture fx;
  fx.frag->LocalGraphOf(0);
  const Graph heavier = fx.graph.Reweighted(
      std::vector<std::pair<EdgeId, Weight>>{{0, 5.0}});
  const Fragmentation rebound(&heavier, *fx.frag);
  EXPECT_EQ(&rebound.graph(), &heavier);
  EXPECT_EQ(rebound.fragment_of_edge(), fx.frag->fragment_of_edge());
  EXPECT_EQ(rebound.BorderNodes(1), fx.frag->BorderNodes(1));
  ASSERT_EQ(rebound.disconnection_sets().size(), 1u);
  EXPECT_EQ(rebound.disconnection_sets()[0].nodes, (std::vector<NodeId>{2}));
  // Local graphs hold weights, so the copy builds its own from `heavier`.
  EXPECT_EQ(rebound.LocalGraphsBuilt(), 0u);
  const LocalGraph& local = rebound.LocalGraphOf(0);
  EXPECT_EQ(local.forward.weights[local.forward.offsets[0]], 5.0);  // 0->1
}

TEST(Fragmentation, NodeGroupsForVisualization) {
  SharedNodeFixture fx;
  auto groups = fx.frag->NodeGroups();
  EXPECT_EQ(groups[0], 0);
  EXPECT_EQ(groups[4], 1);
  EXPECT_EQ(groups[2], 0);  // border node reports first fragment
}

// ------------------------------------------------------------ NodePartition

TEST(NodePartition, IntraBlockEdgesStayHome) {
  GraphBuilder b(4);
  b.AddSymmetricEdge(0, 1);
  b.AddSymmetricEdge(2, 3);
  Graph g = b.Build();
  Fragmentation f = FragmentationFromNodePartition(g, {0, 0, 1, 1}, 2);
  EXPECT_EQ(f.NumFragments(), 2u);
  EXPECT_TRUE(f.disconnection_sets().empty());
}

TEST(NodePartition, CrossEdgeCreatesSingleBorderNode) {
  GraphBuilder b(4);
  b.AddSymmetricEdge(0, 1);
  b.AddSymmetricEdge(1, 2);  // cross: 1 in block 0, 2 in block 1
  b.AddSymmetricEdge(2, 3);
  Graph g = b.Build();
  Fragmentation f = FragmentationFromNodePartition(g, {0, 0, 1, 1}, 2);
  ASSERT_EQ(f.disconnection_sets().size(), 1u);
  // Cross pair assigned to min block (0), so node 2 is the shared one.
  EXPECT_EQ(f.disconnection_sets()[0].nodes, (std::vector<NodeId>{2}));
}

TEST(NodePartition, SymmetricTuplesLandTogether) {
  GraphBuilder b(2);
  b.AddSymmetricEdge(0, 1);
  Graph g = b.Build();
  Fragmentation f = FragmentationFromNodePartition(g, {0, 1}, 2);
  EXPECT_EQ(f.NumFragments(), 1u);  // both tuples in block 0; block 1 empty
}

// ------------------------------------------------------------------ Metrics

TEST(Metrics, PaperColumnsComputed) {
  SharedNodeFixture fx;
  auto c = ComputeCharacteristics(*fx.frag);
  EXPECT_EQ(c.num_fragments, 2u);
  EXPECT_DOUBLE_EQ(c.avg_fragment_edges, 6.0);
  EXPECT_DOUBLE_EQ(c.dev_fragment_edges, 0.0);
  EXPECT_DOUBLE_EQ(c.avg_ds_nodes, 1.0);
  EXPECT_DOUBLE_EQ(c.dev_ds_nodes, 0.0);
  EXPECT_TRUE(c.loosely_connected);
  EXPECT_EQ(c.total_border_nodes, 1u);
}

TEST(Metrics, DeviationReflectsImbalance) {
  GraphBuilder b(6);
  for (NodeId v = 0; v + 1 < 6; ++v) b.AddEdge(v, v + 1);
  Graph g = b.Build();
  // Fragment 0 gets 4 edges, fragment 1 gets 1.
  Fragmentation f(&g, {0, 0, 0, 0, 1}, 2);
  auto c = ComputeCharacteristics(f);
  EXPECT_DOUBLE_EQ(c.avg_fragment_edges, 2.5);
  EXPECT_DOUBLE_EQ(c.dev_fragment_edges, 1.5);
  EXPECT_DOUBLE_EQ(c.max_fragment_edges, 4.0);
  EXPECT_DOUBLE_EQ(c.min_fragment_edges, 1.0);
}

TEST(Metrics, DiametersWhenRequested) {
  SharedNodeFixture fx;
  auto c = ComputeCharacteristics(*fx.frag, /*with_diameters=*/true);
  EXPECT_DOUBLE_EQ(c.avg_fragment_diameter, 1.0);  // triangles
  auto c2 = ComputeCharacteristics(*fx.frag, /*with_diameters=*/false);
  EXPECT_DOUBLE_EQ(c2.avg_fragment_diameter, 0.0);
}

TEST(Metrics, CharacteristicsRowFormat) {
  SharedNodeFixture fx;
  auto c = ComputeCharacteristics(*fx.frag);
  std::string row = CharacteristicsRow("test", c);
  EXPECT_NE(row.find("F=6.0"), std::string::npos);
  EXPECT_NE(row.find("DS=1.0"), std::string::npos);
  EXPECT_NE(row.find("acyclic=yes"), std::string::npos);
}

// ------------------------------------------------------------------ Random

TEST(RandomFragmentation, PartitionsAllEdges) {
  GeneralGraphOptions opts;
  opts.num_nodes = 60;
  opts.target_edges = 200;
  Rng rng(21);
  Graph g = GenerateGeneralGraph(opts, &rng);
  Fragmentation f = RandomFragmentation(g, 4, &rng);
  EXPECT_LE(f.NumFragments(), 4u);
  size_t total = 0;
  for (FragmentId i = 0; i < f.NumFragments(); ++i) {
    total += f.FragmentEdges(i).size();
  }
  EXPECT_EQ(total, g.NumEdges());
}

TEST(RandomFragmentation, HasLargeDisconnectionSets) {
  // Sanity anchor for Tables 1-3: random node placement cuts many edges.
  GeneralGraphOptions opts;
  opts.num_nodes = 100;
  opts.target_edges = 280;
  Rng rng(22);
  Graph g = GenerateGeneralGraph(opts, &rng);
  Fragmentation f = RandomFragmentation(g, 4, &rng);
  auto c = ComputeCharacteristics(f);
  EXPECT_GT(c.avg_ds_nodes, 10.0);
  EXPECT_FALSE(f.IsLooselyConnected());
}

// Property sweep: every edge appears in exactly one fragment; every DS is
// exactly the pairwise node intersection.
class FragmentationInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FragmentationInvariants, EdgePartitionAndDsDefinition) {
  GeneralGraphOptions opts;
  opts.num_nodes = 50;
  opts.target_edges = 150;
  Rng rng(GetParam());
  Graph g = GenerateGeneralGraph(opts, &rng);
  Fragmentation f = RandomFragmentation(g, 5, &rng);

  // Partition property.
  std::vector<int> seen(g.NumEdges(), 0);
  for (FragmentId i = 0; i < f.NumFragments(); ++i) {
    for (EdgeId e : f.FragmentEdges(i)) {
      seen[e]++;
      EXPECT_EQ(f.fragment_of_edge()[e], i);
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);

  // DS definition: DS_ij == V_i ∩ V_j, and present iff nonempty.
  for (FragmentId i = 0; i < f.NumFragments(); ++i) {
    for (FragmentId j = i + 1; j < f.NumFragments(); ++j) {
      std::set<NodeId> vi(f.FragmentNodes(i).begin(),
                          f.FragmentNodes(i).end());
      std::vector<NodeId> inter;
      for (NodeId v : f.FragmentNodes(j)) {
        if (vi.count(v)) inter.push_back(v);
      }
      const DisconnectionSet* ds = f.FindDisconnectionSet(i, j);
      if (inter.empty()) {
        EXPECT_EQ(ds, nullptr);
      } else {
        ASSERT_NE(ds, nullptr);
        EXPECT_EQ(ds->nodes, inter);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentationInvariants,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace tcf
