// Unit tests for the graph substrate: builder/CSR, traversals, shortest
// paths, components, diameter, I/O, status score, vertex cuts.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/min_cut.h"
#include "graph/status_score.h"

namespace tcf {
namespace {

/// Path graph 0 - 1 - 2 - ... - (n-1), symmetric, unit weights.
Graph PathGraph(size_t n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.AddSymmetricEdge(v, v + 1);
  return b.Build();
}

/// Two triangles joined by a single bridge node 2=3 edge.
Graph BarbellGraph() {
  GraphBuilder b(6);
  b.AddSymmetricEdge(0, 1);
  b.AddSymmetricEdge(1, 2);
  b.AddSymmetricEdge(0, 2);
  b.AddSymmetricEdge(2, 3);  // bridge
  b.AddSymmetricEdge(3, 4);
  b.AddSymmetricEdge(4, 5);
  b.AddSymmetricEdge(3, 5);
  return b.Build();
}

// ---------------------------------------------------------------- Builder

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder b;
  Graph g = b.Build();
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphBuilder, ImplicitNodeCreation) {
  GraphBuilder b;
  b.AddEdge(2, 5);
  Graph g = b.Build();
  EXPECT_EQ(g.NumNodes(), 6u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_FALSE(g.has_coordinates());
}

TEST(GraphBuilder, CoordinatesKeptWhenComplete) {
  GraphBuilder b;
  NodeId a = b.AddNode({0.0, 0.0});
  NodeId c = b.AddNode({3.0, 4.0});
  b.AddEdge(a, c, 5.0);
  Graph g = b.Build();
  ASSERT_TRUE(g.has_coordinates());
  EXPECT_DOUBLE_EQ(g.coordinate(c).x, 3.0);
  EXPECT_DOUBLE_EQ(Distance(g.coordinate(a), g.coordinate(c)), 5.0);
}

TEST(GraphBuilder, CoordinatesDroppedWhenPartial) {
  GraphBuilder b;
  b.AddNode({0.0, 0.0});
  b.AddEdge(0, 3);  // creates coordinate-less nodes
  Graph g = b.Build();
  EXPECT_FALSE(g.has_coordinates());
}

TEST(GraphBuilder, DeduplicateKeepsSmallestWeight) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 5.0);
  b.AddEdge(0, 1, 2.0);
  b.AddEdge(1, 0, 7.0);
  b.DeduplicateEdges();
  Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_DOUBLE_EQ(g.OutEdges(0)[0].weight, 2.0);
}

TEST(Graph, CsrAdjacencyMatchesEdges) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(0, 2, 2.0);
  b.AddEdge(3, 0, 3.0);
  Graph g = b.Build();
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(0), 1u);
  EXPECT_EQ(g.Grade(0), 3u);
  EXPECT_EQ(g.OutDegree(3), 1u);
  EXPECT_EQ(g.InEdges(1)[0].src, 0u);
  // Edge ids in CSR refer back to the edge list.
  for (const OutEdge& oe : g.OutEdges(0)) {
    EXPECT_EQ(g.edge(oe.id).src, 0u);
    EXPECT_EQ(g.edge(oe.id).dst, oe.dst);
  }
}

TEST(Graph, UndirectedNeighborsDeduplicated) {
  GraphBuilder b(3);
  b.AddSymmetricEdge(0, 1);  // both directions -> one neighbor
  b.AddEdge(2, 0);
  Graph g = b.Build();
  auto n0 = g.UndirectedNeighbors(0);
  EXPECT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.UndirectedDegree(1), 1u);
}

TEST(Graph, IsSymmetricDetectsBothCases) {
  EXPECT_TRUE(PathGraph(4).IsSymmetric());
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  EXPECT_FALSE(b.Build().IsSymmetric());
}

TEST(Graph, ReweightedMatchesARebuild) {
  // Parallel edges 1->2 (ids 2 and 6) make the slot lookup by edge id
  // matter; id 0 is listed twice and the later weight wins.
  GraphBuilder b(4);
  b.AddSymmetricEdge(0, 1, 1.0);
  b.AddSymmetricEdge(1, 2, 2.0);
  b.AddSymmetricEdge(2, 3, 3.0);
  b.AddEdge(1, 2, 4.0);
  const Graph g = b.Build();
  const std::vector<std::pair<EdgeId, Weight>> changes = {
      {0, 9.0}, {6, 0.5}, {0, 7.0}, {5, 3.5}};
  const Graph patched = g.Reweighted(changes);

  std::vector<Edge> edges = g.edges();
  for (const auto& [id, weight] : changes) edges[id].weight = weight;
  GraphBuilder rb(4);
  for (const Edge& e : edges) rb.AddEdge(e.src, e.dst, e.weight);
  const Graph rebuilt = rb.Build();

  EXPECT_EQ(patched.edges(), rebuilt.edges());
  for (NodeId v = 0; v < 4; ++v) {
    const auto out = patched.OutEdges(v);
    const auto want_out = rebuilt.OutEdges(v);
    ASSERT_EQ(out.size(), want_out.size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].id, want_out[i].id);
      EXPECT_EQ(out[i].dst, want_out[i].dst);
      EXPECT_EQ(out[i].weight, want_out[i].weight);
    }
    const auto in = patched.InEdges(v);
    const auto want_in = rebuilt.InEdges(v);
    ASSERT_EQ(in.size(), want_in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(in[i].id, want_in[i].id);
      EXPECT_EQ(in[i].src, want_in[i].src);
      EXPECT_EQ(in[i].weight, want_in[i].weight);
    }
  }
  EXPECT_EQ(g.edge(0).weight, 1.0);  // the original is untouched
}

// ---------------------------------------------------------------- BFS

TEST(BfsHops, PathGraphDistances) {
  Graph g = PathGraph(5);
  auto dist = BfsHops(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dist[i], i);
}

TEST(BfsHops, RespectsDirection) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = b.Build();
  auto fwd = BfsHops(g, 0, Direction::kForward);
  EXPECT_EQ(fwd[2], 2);
  auto bwd = BfsHops(g, 0, Direction::kBackward);
  EXPECT_EQ(bwd[2], -1);
  auto und = BfsHops(g, 2, Direction::kUndirected);
  EXPECT_EQ(und[0], 2);
}

TEST(BfsHops, UnreachableIsMinusOne) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(BfsHops(g, 0)[2], -1);
}

// ---------------------------------------------------------------- Dijkstra

TEST(Dijkstra, PicksCheaperLongerRoute) {
  GraphBuilder b(4);
  b.AddEdge(0, 3, 10.0);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(2, 3, 1.0);
  Graph g = b.Build();
  auto sp = Dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.distance[3], 3.0);
  EXPECT_EQ(sp.PathTo(3), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Dijkstra, UnreachableIsInfinity) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  Graph g = b.Build();
  auto sp = Dijkstra(g, 0);
  EXPECT_EQ(sp.distance[2], kInfinity);
  EXPECT_TRUE(sp.PathTo(2).empty());
}

TEST(Dijkstra, AgreesWithFloydWarshall) {
  // Deterministic small weighted digraph.
  GraphBuilder b(7);
  const int edges[][3] = {{0, 1, 3}, {1, 2, 1}, {2, 0, 2}, {2, 3, 7},
                          {3, 4, 1}, {4, 5, 2}, {5, 3, 1}, {1, 4, 9},
                          {0, 6, 4}, {6, 5, 1}};
  for (auto& e : edges) {
    b.AddEdge(static_cast<NodeId>(e[0]), static_cast<NodeId>(e[1]),
              static_cast<Weight>(e[2]));
  }
  Graph g = b.Build();
  auto fw = FloydWarshall(g);
  for (NodeId s = 0; s < 7; ++s) {
    auto sp = Dijkstra(g, s);
    for (NodeId t = 0; t < 7; ++t) {
      EXPECT_DOUBLE_EQ(sp.distance[t], fw[s][t]) << s << "->" << t;
    }
  }
}

TEST(Dijkstra, BackwardEqualsForwardOnReversedGraph) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 2.0);
  b.AddEdge(1, 2, 3.0);
  b.AddEdge(2, 3, 4.0);
  Graph g = b.Build();
  auto bwd = Dijkstra(g, 3, Direction::kBackward);
  EXPECT_DOUBLE_EQ(bwd.distance[0], 9.0);
}

// ---------------------------------------------------------------- Components

TEST(Components, CountsIslands) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  auto c = WeaklyConnectedComponents(g);
  EXPECT_EQ(c.count, 4);  // {0,1} {2,3} {4} {5}
  EXPECT_EQ(c.component[0], c.component[1]);
  EXPECT_NE(c.component[1], c.component[2]);
}

TEST(Components, DirectionIgnored) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(2, 1);
  Graph g = b.Build();
  EXPECT_EQ(WeaklyConnectedComponents(g).count, 1);
}

// ---------------------------------------------------------------- Diameter

TEST(Diameter, PathGraph) {
  EXPECT_EQ(HopDiameter(PathGraph(6)), 5);
}

TEST(Diameter, IgnoresUnreachablePairs) {
  GraphBuilder b(5);
  b.AddSymmetricEdge(0, 1);
  b.AddSymmetricEdge(3, 4);
  Graph g = b.Build();
  EXPECT_EQ(HopDiameter(g), 1);
}

TEST(Eccentricity, CenterVsLeaf) {
  Graph g = PathGraph(5);
  EXPECT_EQ(Eccentricity(g, 2), 2);
  EXPECT_EQ(Eccentricity(g, 0), 4);
}

TEST(Reachable, DirectedReachability) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = b.Build();
  EXPECT_TRUE(Reachable(g, 0, 2));
  EXPECT_FALSE(Reachable(g, 2, 0));
  EXPECT_TRUE(Reachable(g, 1, 1));
}

// ---------------------------------------------------------------- IO

TEST(GraphIo, EdgeListRoundTripWithCoordinates) {
  GraphBuilder b;
  b.AddNode({0.25, 0.5});
  b.AddNode({1.5, 2.5});
  b.AddEdge(0, 1, 3.25);
  Graph g = b.Build();
  const std::string path =
      (std::filesystem::temp_directory_path() / "tcf_io_test.graph").string();
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  const Graph& g2 = loaded.value();
  EXPECT_EQ(g2.NumNodes(), 2u);
  EXPECT_EQ(g2.NumEdges(), 1u);
  ASSERT_TRUE(g2.has_coordinates());
  EXPECT_DOUBLE_EQ(g2.coordinate(0).x, 0.25);
  EXPECT_DOUBLE_EQ(g2.edge(0).weight, 3.25);
  std::remove(path.c_str());
}

TEST(GraphIo, ReadRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tcf_io_bad.graph").string();
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("not-a-graph 9\n", f);
  std::fclose(f);
  auto r = ReadEdgeList(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(GraphIo, ReadRejectsMissingFile) {
  auto r = ReadEdgeList("/nonexistent/definitely/not/here.graph");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(GraphIo, DotExportMentionsGroups) {
  Graph g = PathGraph(3);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tcf_io_test.dot").string();
  ASSERT_TRUE(WriteDot(g, path, {0, 0, 1}).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("digraph"), std::string::npos);
  EXPECT_NE(content.find("fillcolor"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- StatusScore

TEST(StatusScore, HubOutscoresLeaf) {
  // Star: center 0 connected to 1..5.
  GraphBuilder b(6);
  for (NodeId v = 1; v < 6; ++v) b.AddSymmetricEdge(0, v);
  Graph g = b.Build();
  auto scores = StatusScores(g);
  for (NodeId v = 1; v < 6; ++v) EXPECT_GT(scores[0], scores[v]);
  auto top = TopStatusNodes(g, 1);
  EXPECT_EQ(top[0], 0u);
}

TEST(StatusScore, AlphaZeroIsJustGrade) {
  Graph g = PathGraph(4);
  StatusScoreOptions opts;
  opts.alpha = 0.0;
  auto scores = StatusScores(g, opts);
  EXPECT_DOUBLE_EQ(scores[0], 2.0);  // one symmetric edge = grade 2
  EXPECT_DOUBLE_EQ(scores[1], 4.0);
}

TEST(StatusScore, DeeperHorizonSeesMore) {
  Graph g = PathGraph(8);
  StatusScoreOptions shallow{0.5, 1};
  StatusScoreOptions deep{0.5, 3};
  EXPECT_LT(StatusScores(g, shallow)[0], StatusScores(g, deep)[0]);
}

TEST(StatusScore, PaperFormulaOnStar) {
  // Star with center 0 and leaves 1..3 (symmetric): grade(0) = 6,
  // grade(leaf) = 2. score(0) = 6 + a * (2+2+2) = 6 + 3.
  GraphBuilder b(4);
  for (NodeId v = 1; v < 4; ++v) b.AddSymmetricEdge(0, v);
  Graph g = b.Build();
  StatusScoreOptions opts{0.5, 3};
  auto scores = StatusScores(g, opts);
  EXPECT_DOUBLE_EQ(scores[0], 6.0 + 0.5 * 6.0);
  // score(leaf) = 2 + a*6 + a^2*(2+2) = 2 + 3 + 1 = 6.
  EXPECT_DOUBLE_EQ(scores[1], 6.0);
}

TEST(TopStatusNodes, DeterministicTieBreak) {
  Graph g = PathGraph(4);  // nodes 1 and 2 symmetric
  auto top = TopStatusNodes(g, 2);
  EXPECT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);  // tie broken by id
  EXPECT_EQ(top[1], 2u);
}

// ---------------------------------------------------------------- MinCut

TEST(MinVertexCut, BridgeNodeIsTheCut) {
  // 0-1-2 path: removing 1 disconnects 0 from 2.
  Graph g = PathGraph(3);
  VertexCut cut = MinVertexCut(g, 0, 2);
  EXPECT_EQ(cut.size, 1);
  ASSERT_EQ(cut.nodes.size(), 1u);
  EXPECT_EQ(cut.nodes[0], 1u);
}

TEST(MinVertexCut, BarbellCutsAtJoint) {
  Graph g = BarbellGraph();
  VertexCut cut = MinVertexCut(g, 0, 5);
  EXPECT_EQ(cut.size, 1);
  ASSERT_EQ(cut.nodes.size(), 1u);
  // Node 2 or 3 (both are 1-cuts); the algorithm finds the s-side one.
  EXPECT_TRUE(cut.nodes[0] == 2u || cut.nodes[0] == 3u);
}

TEST(MinVertexCut, DisconnectedPairHasZeroCut) {
  GraphBuilder b(4);
  b.AddSymmetricEdge(0, 1);
  b.AddSymmetricEdge(2, 3);
  Graph g = b.Build();
  EXPECT_EQ(MinVertexCut(g, 0, 3).size, 0);
}

TEST(MinVertexCut, TwoDisjointPaths) {
  // 0 -> {1,2} -> 3: two node-disjoint routes.
  GraphBuilder b(4);
  b.AddSymmetricEdge(0, 1);
  b.AddSymmetricEdge(1, 3);
  b.AddSymmetricEdge(0, 2);
  b.AddSymmetricEdge(2, 3);
  Graph g = b.Build();
  VertexCut cut = MinVertexCut(g, 0, 3);
  EXPECT_EQ(cut.size, 2);
  EXPECT_EQ(cut.nodes.size(), 2u);
}

TEST(VertexConnectivity, PathIsOneConnected) {
  EXPECT_EQ(VertexConnectivity(PathGraph(5)), 1);
}

TEST(VertexConnectivity, CycleIsTwoConnected) {
  GraphBuilder b(5);
  for (NodeId v = 0; v < 5; ++v) b.AddSymmetricEdge(v, (v + 1) % 5);
  EXPECT_EQ(VertexConnectivity(b.Build()), 2);
}

TEST(VertexConnectivity, CompleteGraphConvention) {
  GraphBuilder b(4);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) b.AddSymmetricEdge(u, v);
  }
  EXPECT_EQ(VertexConnectivity(b.Build()), 3);
}

}  // namespace
}  // namespace tcf
