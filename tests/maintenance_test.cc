// Tests for update maintenance (Sec. 2.1's "careful treatment of
// updates"): after any sequence of inserts, deletes and re-weights the
// maintained database must answer exactly like a fresh whole-graph oracle,
// and the maintenance meters must distinguish structural rebuilds from
// complementary refreshes.
#include <gtest/gtest.h>

#include "dsa/batch.h"
#include "dsa/maintenance.h"
#include "fragment/center_based.h"
#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/generator.h"

namespace tcf {
namespace {

MaintainedDatabase MakeChainDb() {
  // 0-1-2 | 2-3-4 as two fragments sharing node 2.
  GraphBuilder b(5);
  b.AddSymmetricEdge(0, 1, 1.0);
  b.AddSymmetricEdge(1, 2, 1.0);
  b.AddSymmetricEdge(2, 3, 1.0);
  b.AddSymmetricEdge(3, 4, 1.0);
  Graph g = b.Build();
  return MaintainedDatabase(std::move(g), {0, 0, 0, 0, 1, 1, 1, 1}, 2);
}

void ExpectMatchesOracle(const MaintainedDatabase& mdb) {
  const Graph& g = mdb.graph();
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    ShortestPaths sp = Dijkstra(g, s);
    for (NodeId t = 0; t < g.NumNodes(); ++t) {
      const Weight expected = s == t ? 0.0 : sp.distance[t];
      const QueryAnswer answer = mdb.db().ShortestPath(s, t);
      if (expected == kInfinity) {
        EXPECT_FALSE(answer.connected) << s << "->" << t;
      } else {
        ASSERT_TRUE(answer.connected) << s << "->" << t;
        EXPECT_NEAR(answer.cost, expected, 1e-9) << s << "->" << t;
      }
    }
  }
}

TEST(Maintenance, FreshDatabaseAnswersCorrectly) {
  MaintainedDatabase mdb = MakeChainDb();
  EXPECT_EQ(mdb.structural_rebuilds(), 0u);
  EXPECT_EQ(mdb.complementary_refreshes(), 0u);
  ExpectMatchesOracle(mdb);
}

TEST(Maintenance, InsertIntraFragmentEdge) {
  MaintainedDatabase mdb = MakeChainDb();
  mdb.InsertEdge(0, 2, 0.5);  // both endpoints already in fragment 0
  mdb.InsertEdge(2, 0, 0.5);
  EXPECT_EQ(mdb.structural_rebuilds(), 0u);  // node sets unchanged
  EXPECT_EQ(mdb.complementary_refreshes(), 2u);
  EXPECT_EQ(mdb.graph().NumEdges(), 10u);
  ExpectMatchesOracle(mdb);
  EXPECT_NEAR(mdb.db().ShortestPath(0, 4).cost, 2.5, 1e-9);
}

TEST(Maintenance, InsertEdgeWithNewFragmentNode) {
  MaintainedDatabase mdb = MakeChainDb();
  // Node 4 was only in fragment 1; pulling it into fragment 0 changes the
  // disconnection sets (structural).
  mdb.InsertEdge(0, 4, 10.0, FragmentId{0});
  EXPECT_EQ(mdb.structural_rebuilds(), 1u);
  ExpectMatchesOracle(mdb);
}

TEST(Maintenance, DeleteEdgeDisconnects) {
  MaintainedDatabase mdb = MakeChainDb();
  EXPECT_EQ(mdb.DeleteEdge(2, 3), 1u);
  EXPECT_EQ(mdb.DeleteEdge(3, 2), 1u);
  EXPECT_EQ(mdb.structural_rebuilds(), 2u);
  EXPECT_FALSE(mdb.db().IsConnected(0, 4));
  EXPECT_TRUE(mdb.db().IsConnected(3, 4));
  ExpectMatchesOracle(mdb);
}

TEST(Maintenance, DeleteMissingEdgeIsFree) {
  MaintainedDatabase mdb = MakeChainDb();
  EXPECT_EQ(mdb.DeleteEdge(0, 4), 0u);
  EXPECT_EQ(mdb.structural_rebuilds(), 0u);
  EXPECT_EQ(mdb.complementary_refreshes(), 0u);
}

TEST(Maintenance, ReweightIsRefreshOnly) {
  MaintainedDatabase mdb = MakeChainDb();
  EXPECT_EQ(mdb.ReweightEdge(1, 2, 5.0), 1u);
  EXPECT_EQ(mdb.ReweightEdge(2, 1, 5.0), 1u);
  EXPECT_EQ(mdb.structural_rebuilds(), 0u);
  EXPECT_EQ(mdb.complementary_refreshes(), 2u);
  ExpectMatchesOracle(mdb);
  EXPECT_NEAR(mdb.db().ShortestPath(0, 2).cost, 6.0, 1e-9);
}

TEST(Maintenance, ReweightToSameValueIsFree) {
  MaintainedDatabase mdb = MakeChainDb();
  EXPECT_EQ(mdb.ReweightEdge(1, 2, 1.0), 0u);
  EXPECT_EQ(mdb.complementary_refreshes(), 0u);
}

TEST(Maintenance, ReweightChangesGlobalShortcuts) {
  // Sec. 2.1's update hazard in miniature: a weight change *inside* one
  // fragment silently invalidates another fragment's complementary
  // information. The refresh must propagate it.
  MaintainedDatabase mdb = MakeChainDb();
  // Add a parallel expensive route 1-2 via a new edge in fragment 0... use
  // reweight: make 1-2 cost 9, so queries within fragment 1 that relied on
  // nothing change, but 0->3 now prefers nothing else (sanity check both).
  mdb.ReweightEdge(1, 2, 9.0);
  mdb.ReweightEdge(2, 1, 9.0);
  ExpectMatchesOracle(mdb);
}

TEST(Maintenance, FromFragmentationRoundTrip) {
  TransportationGraphOptions gopts;
  gopts.num_clusters = 3;
  gopts.nodes_per_cluster = 12;
  gopts.target_edges_per_cluster = 48;
  Rng rng(5);
  auto tg = GenerateTransportationGraph(gopts, &rng);
  CenterBasedOptions copts;
  copts.num_fragments = 3;
  copts.distributed_centers = true;
  Fragmentation frag = CenterBasedFragmentation(tg.graph, copts);
  MaintainedDatabase mdb = MaintainedDatabase::FromFragmentation(frag);
  EXPECT_EQ(mdb.graph().NumEdges(), tg.graph.NumEdges());
  EXPECT_EQ(mdb.fragmentation().NumFragments(), frag.NumFragments());
  ExpectMatchesOracle(mdb);
}

// Epoch-granular behavior ---------------------------------------------

TEST(MaintenanceEpoch, EmptyEpochPublishesNothing) {
  MaintainedDatabase mdb = MakeChainDb();
  const uint64_t before = mdb.epoch();

  EpochStats stats = mdb.ApplyEpoch({});
  EXPECT_FALSE(stats.published);
  EXPECT_EQ(stats.ops_applied, 0u);
  EXPECT_EQ(mdb.epoch(), before);

  // An epoch of pure no-ops is the same as an empty one: nothing is
  // published and no meter moves.
  stats = mdb.ApplyEpoch({EdgeUpdate::Delete(0, 4),
                          EdgeUpdate::Reweight(1, 2, 1.0)});
  EXPECT_FALSE(stats.published);
  EXPECT_EQ(stats.ops_applied, 0u);
  EXPECT_EQ(mdb.epoch(), before);
  EXPECT_EQ(mdb.structural_rebuilds(), 0u);
  EXPECT_EQ(mdb.complementary_refreshes(), 0u);
}

TEST(MaintenanceEpoch, MultiOpEpochCountsOnce) {
  MaintainedDatabase mdb = MakeChainDb();
  const EpochStats stats = mdb.ApplyEpoch(
      {EdgeUpdate::Insert(0, 2, 0.5), EdgeUpdate::Insert(2, 0, 0.5),
       EdgeUpdate::Reweight(1, 2, 5.0)});
  EXPECT_TRUE(stats.published);
  EXPECT_EQ(stats.ops_applied, 3u);
  EXPECT_EQ(stats.edges_inserted, 2u);
  EXPECT_EQ(stats.edges_reweighted, 1u);
  EXPECT_EQ(mdb.epoch(), stats.epoch);
  // The legacy meters count per EPOCH, not per op.
  EXPECT_EQ(mdb.complementary_refreshes(), 1u);
  EXPECT_EQ(mdb.structural_rebuilds(), 0u);
  ExpectMatchesOracle(mdb);
}

TEST(MaintenanceEpoch, DeletingAFragmentsLastEdgesRenumbers) {
  MaintainedDatabase mdb = MakeChainDb();
  // One epoch removes every fragment-1 edge; compaction drops the empty
  // fragment, so ids renumber and every identity-keyed carry-over (plan
  // caches, incremental complementary) is off the table.
  const EpochStats stats = mdb.ApplyEpoch(
      {EdgeUpdate::Delete(2, 3), EdgeUpdate::Delete(3, 2),
       EdgeUpdate::Delete(3, 4), EdgeUpdate::Delete(4, 3)});
  EXPECT_TRUE(stats.published);
  EXPECT_TRUE(stats.structural);
  EXPECT_TRUE(stats.renumbered);
  EXPECT_TRUE(stats.caches_reset);
  EXPECT_EQ(stats.edges_removed, 4u);
  EXPECT_EQ(mdb.fragmentation().NumFragments(), 1u);
  // Nodes 3 and 4 lost every incident edge and with them all fragment
  // membership; queries against them come back unconnected, not invalid.
  EXPECT_FALSE(mdb.db().IsConnected(0, 4));
  EXPECT_FALSE(mdb.db().IsConnected(3, 4));
  ExpectMatchesOracle(mdb);
}

TEST(MaintenanceEpoch, ReweightOnlyEpochIsStructureFree) {
  MaintainedDatabase mdb = MakeChainDb();
  const EpochStats stats = mdb.ApplyEpoch(
      {EdgeUpdate::Reweight(1, 2, 5.0), EdgeUpdate::Reweight(2, 1, 5.0),
       EdgeUpdate::Reweight(0, 1, 2.0)});
  EXPECT_TRUE(stats.published);
  EXPECT_FALSE(stats.structural);
  EXPECT_FALSE(stats.renumbered);
  EXPECT_FALSE(stats.caches_reset);
  EXPECT_EQ(stats.edges_reweighted, 3u);
  // Fragment node sets did not move, so plan-cache succession drops
  // nothing and the structural meter stays put.
  EXPECT_EQ(stats.skeletons_dropped, 0u);
  EXPECT_EQ(stats.plans_dropped, 0u);
  EXPECT_EQ(mdb.structural_rebuilds(), 0u);
  EXPECT_EQ(mdb.complementary_refreshes(), 1u);
  ExpectMatchesOracle(mdb);
  EXPECT_NEAR(mdb.db().ShortestPath(0, 2).cost, 7.0, 1e-9);
}

// An epoch invalidates exactly the cached skeletons whose chains touch a
// dirty fragment; skeletons over untouched chains survive into the
// successor database and keep serving as skeleton-cache hits.
TEST(MaintenanceEpoch, CacheInvalidationIsChainPrecise) {
  // A 4-fragment path: F0={0,1} F1={1,2,3} F2={3,4,5} F3={5,6,7}.
  GraphBuilder b(8);
  b.AddSymmetricEdge(0, 1, 1.0);  // F0
  b.AddSymmetricEdge(1, 2, 1.0);  // F1
  b.AddSymmetricEdge(2, 3, 1.0);  // F1
  b.AddSymmetricEdge(3, 4, 1.0);  // F2
  b.AddSymmetricEdge(4, 5, 1.0);  // F2
  b.AddSymmetricEdge(5, 6, 1.0);  // F3
  b.AddSymmetricEdge(6, 7, 1.0);  // F3
  MaintainedDatabase mdb(b.Build(),
                         {0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}, 4);

  // Warm the skeleton cache with one pair per end of the path: 0->2
  // plans over the (F0, F1) skeleton, 4->7 over (F2, F3).
  const std::vector<Query> queries = {{0, 2, QueryKind::kCost},
                                      {4, 7, QueryKind::kCost}};
  {
    BatchExecutor executor(&mdb.db());
    const BatchResult cold = executor.Execute(queries);
    EXPECT_EQ(cold.stats.plan_cache_hits, 0u);
    EXPECT_EQ(cold.stats.plan_cache_misses, 2u);
    const BatchResult warm = executor.Execute(queries);
    EXPECT_EQ(warm.stats.plan_cache_hits, 2u);
    EXPECT_EQ(warm.stats.plan_cache_misses, 0u);
  }

  // Dirty ONLY F3: pull node 4 (previously F2-only) into F3 via an edge
  // targeted there. Fragment ids survive (no fragment emptied) and the
  // fragmentation-graph adjacency is unchanged (F2 and F3 were already
  // neighbors), so this is the precise-invalidation regime.
  const EpochStats stats = mdb.ApplyEpoch(
      {EdgeUpdate::Insert(4, 7, 10.0, FragmentId{3})});
  EXPECT_TRUE(stats.published);
  EXPECT_TRUE(stats.structural);
  EXPECT_FALSE(stats.renumbered);
  EXPECT_FALSE(stats.caches_reset);
  // (F0, F1) survives; (F2, F3) dies with F3.
  EXPECT_EQ(stats.skeletons_kept, 1u);
  EXPECT_EQ(stats.skeletons_dropped, 1u);
  EXPECT_EQ(stats.plans_kept, 0u);
  EXPECT_EQ(stats.plans_dropped, 0u);

  // Differential re-run on the successor: 0->2 hits the surviving
  // skeleton; node 4 now lives in F2 and F3, so 4->7 expands (F2, F3)
  // and (F3, F3) afresh — and both answers stay oracle-exact.
  BatchExecutor executor(&mdb.db());
  const BatchResult after = executor.Execute(queries);
  EXPECT_EQ(after.stats.plan_cache_hits, 1u);
  EXPECT_EQ(after.stats.plan_cache_misses, 2u);
  ExpectMatchesOracle(mdb);
}

// Epoch carry-over is bounded by fragment pairs, not by read traffic: a
// database that has answered every node pair hands its successor at most
// one skeleton per fragment pair, and no per-node-pair state at all.
TEST(MaintenanceEpoch, CarryOverIsBoundedByFragmentPairs) {
  TransportationGraphOptions gopts;
  gopts.num_clusters = 3;
  gopts.nodes_per_cluster = 8;
  gopts.target_edges_per_cluster = 28;
  Rng rng(5);
  auto tg = GenerateTransportationGraph(gopts, &rng);
  CenterBasedOptions copts;
  copts.num_fragments = 3;
  Fragmentation frag = CenterBasedFragmentation(tg.graph, copts);
  MaintainedDatabase mdb = MaintainedDatabase::FromFragmentation(frag);
  const Edge reweighted = tg.graph.edges().front();
  const size_t num_fragments = mdb.fragmentation().NumFragments();

  ExpectMatchesOracle(mdb);  // answers every node pair
  const EpochStats stats = mdb.ApplyEpoch({EdgeUpdate::Reweight(
      reweighted.src, reweighted.dst, reweighted.weight + 1.0)});
  ASSERT_TRUE(stats.published);
  EXPECT_FALSE(stats.caches_reset);
  EXPECT_EQ(stats.plans_kept, 0u);
  EXPECT_EQ(stats.plans_dropped, 0u);
  EXPECT_GT(stats.skeletons_kept, 0u);
  EXPECT_LE(stats.skeletons_kept + stats.skeletons_dropped,
            num_fragments * num_fragments);
  ExpectMatchesOracle(mdb);
}

// Property: a random update workload stays oracle-exact throughout.
class MaintenanceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaintenanceSweep, RandomWorkloadStaysExact) {
  TransportationGraphOptions gopts;
  gopts.num_clusters = 3;
  gopts.nodes_per_cluster = 10;
  gopts.target_edges_per_cluster = 40;
  Rng rng(GetParam());
  auto tg = GenerateTransportationGraph(gopts, &rng);
  CenterBasedOptions copts;
  copts.num_fragments = 3;
  copts.distributed_centers = true;
  Fragmentation frag = CenterBasedFragmentation(tg.graph, copts);
  MaintainedDatabase mdb = MaintainedDatabase::FromFragmentation(frag);

  Rng workload(GetParam() * 131 + 7);
  for (int step = 0; step < 6; ++step) {
    const NodeId a =
        static_cast<NodeId>(workload.NextBounded(mdb.graph().NumNodes()));
    const NodeId b =
        static_cast<NodeId>(workload.NextBounded(mdb.graph().NumNodes()));
    if (a == b) continue;
    switch (workload.NextBounded(3)) {
      case 0:
        mdb.InsertEdge(a, b, workload.NextDouble(0.1, 2.0));
        break;
      case 1:
        mdb.DeleteEdge(a, b);
        break;
      default:
        mdb.ReweightEdge(a, b, workload.NextDouble(0.1, 2.0));
        break;
    }
    // Spot-check a handful of pairs against the oracle after every step.
    for (int probe = 0; probe < 5; ++probe) {
      const NodeId s =
          static_cast<NodeId>(workload.NextBounded(mdb.graph().NumNodes()));
      const NodeId t =
          static_cast<NodeId>(workload.NextBounded(mdb.graph().NumNodes()));
      const Weight expected =
          s == t ? 0.0 : Dijkstra(mdb.graph(), s).distance[t];
      const QueryAnswer answer = mdb.db().ShortestPath(s, t);
      if (expected == kInfinity) {
        EXPECT_FALSE(answer.connected);
      } else {
        ASSERT_TRUE(answer.connected);
        EXPECT_NEAR(answer.cost, expected, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceSweep,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace tcf
