// Tests for DSA route reconstruction (DsaDatabase::ShortestRoute): the
// returned node sequence must be a real path in the base graph whose
// (per-hop cheapest) weights sum to exactly the reported cost — across
// fragmenters, engines, and seeds.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "dsa/batch.h"
#include "dsa/query_api.h"
#include "fragment/bond_energy.h"
#include "fragment/center_based.h"
#include "fragment/linear.h"
#include "fragment/random_partition.h"
#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/generator.h"
#include "storage/database_io.h"

namespace tcf {
namespace {

/// Cheapest direct-edge weight between two nodes; kInfinity if no edge.
Weight EdgeWeight(const Graph& g, NodeId u, NodeId v) {
  Weight best = kInfinity;
  for (const OutEdge& e : g.OutEdges(u)) {
    if (e.dst == v) best = std::min(best, e.weight);
  }
  return best;
}

/// Asserts that `route` is a real path from..to realizing `cost`.
void CheckRoute(const Graph& g, const std::vector<NodeId>& route, NodeId from,
                NodeId to, Weight cost) {
  ASSERT_FALSE(route.empty());
  EXPECT_EQ(route.front(), from);
  EXPECT_EQ(route.back(), to);
  Weight total = 0.0;
  for (size_t i = 0; i + 1 < route.size(); ++i) {
    const Weight w = EdgeWeight(g, route[i], route[i + 1]);
    ASSERT_NE(w, kInfinity) << "route hop " << route[i] << "->"
                            << route[i + 1] << " is not a graph edge";
    total += w;
  }
  EXPECT_NEAR(total, cost, 1e-9);
}

TransportationGraph MakeTransport(uint64_t seed) {
  TransportationGraphOptions opts;
  opts.num_clusters = 4;
  opts.nodes_per_cluster = 15;
  opts.target_edges_per_cluster = 60;
  Rng rng(seed);
  return GenerateTransportationGraph(opts, &rng);
}

TEST(ShortestRoute, SelfQuery) {
  auto t = MakeTransport(1);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  DsaDatabase db(&frag);
  RouteAnswer r = db.ShortestRoute(5, 5);
  EXPECT_TRUE(r.answer.connected);
  EXPECT_EQ(r.route, (std::vector<NodeId>{5}));
}

TEST(ShortestRoute, UnconnectedQuery) {
  GraphBuilder b(4);
  b.AddSymmetricEdge(0, 1);
  b.AddSymmetricEdge(2, 3);
  Graph g = b.Build();
  Fragmentation f(&g, {0, 0, 1, 1}, 2);
  DsaDatabase db(&f);
  RouteAnswer r = db.ShortestRoute(0, 3);
  EXPECT_FALSE(r.answer.connected);
  EXPECT_TRUE(r.route.empty());
}

TEST(ShortestRoute, SimpleChainFixture) {
  // Same fixture as dsa_test's ChainFixture: three triangles in a row.
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
  Graph g = b.Build();
  std::vector<FragmentId> owner(18);
  for (EdgeId e = 0; e < 18; ++e) owner[e] = e / 6;
  Fragmentation frag(&g, owner, 3);
  DsaDatabase db(&frag);
  RouteAnswer r = db.ShortestRoute(0, 6);
  ASSERT_TRUE(r.answer.connected);
  EXPECT_DOUBLE_EQ(r.answer.cost, 8.0);
  EXPECT_EQ(r.route, (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(ShortestRoute, ExpandsShortcutDetours) {
  // The side-branch fixture: optimal route detours through fragment 1,
  // which the chain {0} never visits — the route must still contain the
  // detour nodes, recovered from the shortcut witness.
  GraphBuilder b(5);
  b.AddSymmetricEdge(0, 1, 1.0);   // fragment 0
  b.AddSymmetricEdge(1, 2, 10.0);  // fragment 0
  b.AddSymmetricEdge(2, 3, 1.0);   // fragment 0
  b.AddSymmetricEdge(1, 4, 1.0);   // fragment 1
  b.AddSymmetricEdge(4, 2, 1.0);   // fragment 1
  Graph g = b.Build();
  Fragmentation f(&g, {0, 0, 0, 0, 0, 0, 1, 1, 1, 1}, 2);
  DsaDatabase db(&f);
  RouteAnswer r = db.ShortestRoute(0, 3);
  ASSERT_TRUE(r.answer.connected);
  EXPECT_DOUBLE_EQ(r.answer.cost, 4.0);
  EXPECT_EQ(r.route, (std::vector<NodeId>{0, 1, 4, 2, 3}));
  CheckRoute(g, r.route, 0, 3, r.answer.cost);
}

TEST(ShortestRoute, AgreesWithShortestPathCost) {
  auto t = MakeTransport(2);
  BondEnergyOptions bopts;
  bopts.num_fragments = 4;
  Fragmentation frag = BondEnergyFragmentation(t.graph, bopts);
  DsaDatabase db(&frag);
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const Weight cost = db.ShortestPath(s, u).cost;
    const RouteAnswer r = db.ShortestRoute(s, u);
    if (cost == kInfinity) {
      EXPECT_FALSE(r.answer.connected);
    } else {
      EXPECT_NEAR(r.answer.cost, cost, 1e-9);
    }
  }
}

TEST(ShortestRoute, MissingWitnessFailsTheQueryInsteadOfThrowing) {
  // A file saved without witness routes opens in both modes: the open
  // checks every route it reads, not that each shortcut has one. A route
  // through a shortcut then cannot be expanded; that query must fail with
  // kInvalidArgument, alone, and nothing may throw.
  auto t = MakeTransport(3);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  EpochCarryover carry;
  carry.complementary = PrecomputeComplementary(frag);
  carry.complementary.witness.clear();
  const DsaDatabase stripped(&frag, DsaOptions{}, std::move(carry));
  const std::string path = ::testing::TempDir() + "route_test_no_witness.tcfdb";
  ASSERT_TRUE(SaveDatabase(stripped, path).ok());

  std::vector<Query> batch;
  for (NodeId s = 0; s < t.graph.NumNodes(); s += 3) {
    for (NodeId u = 1; u < t.graph.NumNodes(); u += 4) {
      batch.push_back(Query{s, u, QueryKind::kRoute});
    }
  }
  for (OpenMode mode : {OpenMode::kResident, OpenMode::kPaged}) {
    SCOPED_TRACE(mode == OpenMode::kPaged ? "paged" : "resident");
    OpenOptions options;
    options.mode = mode;
    Result<StoredDatabase> opened = OpenDatabase(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const DsaDatabase& db = *opened.value().db;

    size_t routed = 0;
    size_t failed = 0;
    auto check = [&](const Query& q, const RouteAnswer& got) {
      if (!got.answer.status.ok()) {
        EXPECT_EQ(got.answer.status.code(), StatusCode::kInvalidArgument);
        EXPECT_TRUE(got.route.empty());
        ++failed;
      } else if (got.answer.connected) {
        if (q.from != q.to) {
          CheckRoute(t.graph, got.route, q.from, q.to, got.answer.cost);
        }
        ++routed;
      }
    };
    for (const Query& q : batch) {
      RouteAnswer got;
      EXPECT_NO_THROW(got = db.ShortestRoute(q.from, q.to));
      check(q, got);
    }
    BatchResult result;
    EXPECT_NO_THROW(result = BatchExecutor(&db).Execute(batch));
    ASSERT_EQ(result.answers.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) check(batch[i], result.answers[i]);
    EXPECT_GT(failed, 0u);
    EXPECT_GT(routed, 0u);
  }
  std::remove(path.c_str());
}

// --- property sweep: routes are real optimal paths under every fragmenter.

enum class Fragmenter { kCenter, kBondEnergy, kLinear, kRandom };

struct RouteParam {
  uint64_t seed;
  Fragmenter fragmenter;
  LocalEngine engine;
};

class RouteSweep : public ::testing::TestWithParam<RouteParam> {};

TEST_P(RouteSweep, RoutesAreRealOptimalPaths) {
  const RouteParam p = GetParam();
  auto t = MakeTransport(p.seed);
  std::unique_ptr<Fragmentation> frag;
  switch (p.fragmenter) {
    case Fragmenter::kCenter: {
      CenterBasedOptions opts;
      opts.num_fragments = 4;
      opts.distributed_centers = true;
      frag = std::make_unique<Fragmentation>(
          CenterBasedFragmentation(t.graph, opts));
      break;
    }
    case Fragmenter::kBondEnergy: {
      BondEnergyOptions opts;
      opts.num_fragments = 4;
      frag = std::make_unique<Fragmentation>(
          BondEnergyFragmentation(t.graph, opts));
      break;
    }
    case Fragmenter::kLinear: {
      LinearOptions opts;
      opts.num_fragments = 4;
      frag = std::make_unique<Fragmentation>(
          LinearFragmentation(t.graph, opts).fragmentation);
      break;
    }
    case Fragmenter::kRandom: {
      Rng rng(p.seed * 31 + 5);
      frag = std::make_unique<Fragmentation>(
          RandomFragmentation(t.graph, 4, &rng));
      break;
    }
  }
  DsaOptions dopts;
  dopts.engine = p.engine;
  DsaDatabase db(frag.get(), dopts);

  Rng rng(p.seed);
  for (int i = 0; i < 8; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const Weight oracle =
        s == u ? 0.0 : Dijkstra(t.graph, s).distance[u];
    const RouteAnswer r = db.ShortestRoute(s, u);
    if (oracle == kInfinity) {
      EXPECT_FALSE(r.answer.connected);
      continue;
    }
    ASSERT_TRUE(r.answer.connected) << s << "->" << u;
    EXPECT_NEAR(r.answer.cost, oracle, 1e-9);
    if (s != u) CheckRoute(t.graph, r.route, s, u, oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RouteSweep,
    ::testing::Values(
        RouteParam{1, Fragmenter::kCenter, LocalEngine::kDijkstra},
        RouteParam{2, Fragmenter::kCenter, LocalEngine::kSemiNaive},
        RouteParam{3, Fragmenter::kBondEnergy, LocalEngine::kDijkstra},
        RouteParam{4, Fragmenter::kBondEnergy, LocalEngine::kSmart},
        RouteParam{5, Fragmenter::kLinear, LocalEngine::kDijkstra},
        RouteParam{6, Fragmenter::kLinear, LocalEngine::kSemiNaive},
        RouteParam{7, Fragmenter::kRandom, LocalEngine::kDijkstra},
        RouteParam{8, Fragmenter::kRandom, LocalEngine::kSemiNaive},
        RouteParam{9, Fragmenter::kCenter, LocalEngine::kDijkstra},
        RouteParam{10, Fragmenter::kLinear, LocalEngine::kDijkstra}));

}  // namespace
}  // namespace tcf
