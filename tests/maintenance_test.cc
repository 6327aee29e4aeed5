// Tests for update maintenance (Sec. 2.1's "careful treatment of
// updates"): after any sequence of inserts, deletes and re-weights the
// maintained database must answer exactly like a fresh whole-graph oracle,
// and the maintenance meters must distinguish structural rebuilds from
// complementary refreshes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "dsa/batch.h"
#include "dsa/maintenance.h"
#include "dsa_sweep.h"
#include "fragment/center_based.h"
#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/generator.h"

namespace tcf {
namespace {

using dsa_sweep::RouteCost;

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

/// Holds a snapshot's refreshed complementary info to a full recompute on
/// its fragmentation: the same shortcut tuples, the same (source, target)
/// witness keys, and every stored route a walk of the current graph whose
/// cost is its shortcut's (routes may differ on ties).
void ExpectComplementaryMatchesRecompute(const DsaSnapshot& snap) {
  const ComplementaryInfo& got = snap.db->complementary();
  const ComplementaryInfo want = PrecomputeComplementary(*snap.frag);
  ASSERT_EQ(got.shortcuts.size(), want.shortcuts.size());
  auto sorted_tuples = [](const Relation& rel) {
    std::vector<PathTuple> tuples;
    EXPECT_TRUE(
        rel.ForEach([&](const PathTuple& t) { tuples.push_back(t); }).ok());
    std::sort(tuples.begin(), tuples.end(),
              [](const PathTuple& a, const PathTuple& b) {
                return PairKey(a.src, a.dst) < PairKey(b.src, b.dst);
              });
    return tuples;
  };
  std::map<std::pair<NodeId, NodeId>, Weight> shortcut_cost;
  for (size_t f = 0; f < want.shortcuts.size(); ++f) {
    const std::vector<PathTuple> a = sorted_tuples(got.shortcuts[f]);
    const std::vector<PathTuple> b = sorted_tuples(want.shortcuts[f]);
    ASSERT_EQ(a.size(), b.size()) << "fragment " << f;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].src, b[i].src) << "fragment " << f;
      EXPECT_EQ(a[i].dst, b[i].dst) << "fragment " << f;
      EXPECT_NEAR(a[i].cost, b[i].cost, 1e-9) << "fragment " << f;
    }
    for (const PathTuple& t : b) shortcut_cost[{t.src, t.dst}] = t.cost;
  }

  auto witness_keys = [](const ComplementaryInfo& info) {
    std::vector<std::pair<NodeId, NodeId>> keys;
    for (const auto& [x, row] : info.witness) {
      for (NodeId y : row->targets) keys.emplace_back(x, y);
    }
    return keys;
  };
  EXPECT_EQ(witness_keys(got), witness_keys(want));
  for (const auto& [x, row] : got.witness) {
    for (size_t i = 0; i < row->size(); ++i) {
      const NodeId y = row->targets[i];
      const std::span<const NodeId> route = row->Route(i);
      ASSERT_GE(route.size(), 2u);
      EXPECT_EQ(route.front(), x);
      EXPECT_EQ(route.back(), y);
      const auto it = shortcut_cost.find({x, y});
      ASSERT_NE(it, shortcut_cost.end()) << x << "->" << y;
      EXPECT_NEAR(RouteCost(*snap.graph, route), it->second, 1e-9)
          << x << "->" << y;
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

// F0={0,1} F1={0,2,3} F2={0,5 | 4,6} F3={3,4}, every edge both ways at
// weight 1. The border nodes are 0 (F0, F1, F2), 3 (F1, F3) and 4 (F2, F3).
// Node 0's co-borders are 3 (via F1) and 4 (via F2); its routes to both
// run 0-2-3(-4) and never use the 0-5 edges.
MaintainedDatabase MakeThreeFragmentBorderDb() {
  GraphBuilder b(7);
  b.AddSymmetricEdge(0, 1, 1.0);  // F0
  b.AddSymmetricEdge(0, 2, 1.0);  // F1
  b.AddSymmetricEdge(2, 3, 1.0);  // F1
  b.AddSymmetricEdge(0, 5, 1.0);  // F2
  b.AddSymmetricEdge(4, 6, 1.0);  // F2
  b.AddSymmetricEdge(3, 4, 1.0);  // F3
  return MaintainedDatabase(b.Build(), {0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3},
                            4);
}

// A clean border node that leaves one of its three fragments stays a
// border of the other two but loses the co-borders only the third gave
// it: the row it carries over must drop their routes.
TEST(MaintenanceEpoch, CleanSourceLeavingAFragmentDropsLostCoBorders) {
  MaintainedDatabase mdb = MakeThreeFragmentBorderDb();
  ASSERT_EQ(mdb.db().complementary().witness.at(0)->targets,
            (std::vector<NodeId>{3, 4}));

  // Deleting 0-5 takes node 0 out of F2 only. F2's border set changes, so
  // its one remaining border (4) is searched again; F0's and F1's border
  // sets hold, and no route from 0 or 3 used a deleted edge.
  const EpochStats stats =
      mdb.ApplyEpoch({EdgeUpdate::Delete(0, 5), EdgeUpdate::Delete(5, 0)});
  ASSERT_TRUE(stats.published);
  EXPECT_FALSE(stats.renumbered);
  EXPECT_EQ(stats.dirty_border_nodes, 1u);
  EXPECT_EQ(stats.reused_border_nodes, 2u);

  const DsaSnapshot snap = mdb.Snapshot();
  EXPECT_EQ(snap.frag->FragmentsOfNode(0), (std::vector<FragmentId>{0, 1}));
  EXPECT_EQ(snap.db->complementary().witness.at(0)->targets,
            (std::vector<NodeId>{3}));
  ASSERT_NO_FATAL_FAILURE(ExpectComplementaryMatchesRecompute(snap));
  ExpectMatchesOracle(mdb);
}

// A reweight epoch that dirties one source shares every clean source's
// witness row with the previous snapshot: the same object, not a copy.
TEST(MaintenanceEpoch, ReweightEpochSharesCleanSourcesRows) {
  MaintainedDatabase mdb = MakeThreeFragmentBorderDb();
  const DsaSnapshot before = mdb.Snapshot();

  // Only node 4's routes (4-3 and 4-3-2-0) use the edge 4->3.
  const EpochStats stats = mdb.ApplyEpoch({EdgeUpdate::Reweight(4, 3, 5.0)});
  ASSERT_TRUE(stats.published);
  EXPECT_EQ(stats.dirty_border_nodes, 1u);
  EXPECT_EQ(stats.reused_border_nodes, 2u);

  const DsaSnapshot after = mdb.Snapshot();
  const WitnessMap& old_rows = before.db->complementary().witness;
  const WitnessMap& new_rows = after.db->complementary().witness;
  ASSERT_EQ(new_rows.size(), 3u);
  EXPECT_EQ(new_rows.at(0), old_rows.at(0));
  EXPECT_EQ(new_rows.at(3), old_rows.at(3));
  EXPECT_NE(new_rows.at(4), old_rows.at(4));
  EXPECT_EQ(after.frag->fragment_of_edge(), before.frag->fragment_of_edge());
  EXPECT_EQ(&after.frag->graph(), after.graph.get());
  ASSERT_NO_FATAL_FAILURE(ExpectComplementaryMatchesRecompute(after));
  ExpectMatchesOracle(mdb);
  EXPECT_NEAR(mdb.db().ShortestPath(4, 0).cost, 7.0, 1e-9);
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
      default: {
        // An existing edge picked by (a, b), so the reweight publishes an
        // epoch (a random node pair rarely has an edge).
        const Edge e = mdb.graph().edge(static_cast<EdgeId>(
            (a * mdb.graph().NumNodes() + b) % mdb.graph().NumEdges()));
        mdb.ReweightEdge(e.src, e.dst, workload.NextDouble(0.1, 2.0));
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(
        ExpectComplementaryMatchesRecompute(mdb.Snapshot()));
    // Spot-check a handful of pairs against the oracle after every step,
    // costs and routes.
    for (int probe = 0; probe < 5; ++probe) {
      const NodeId s =
          static_cast<NodeId>(workload.NextBounded(mdb.graph().NumNodes()));
      const NodeId t =
          static_cast<NodeId>(workload.NextBounded(mdb.graph().NumNodes()));
      const Weight expected =
          s == t ? 0.0 : Dijkstra(mdb.graph(), s).distance[t];
      const QueryAnswer answer = mdb.db().ShortestPath(s, t);
      const RouteAnswer route = mdb.db().ShortestRoute(s, t);
      if (expected == kInfinity) {
        EXPECT_FALSE(answer.connected);
        EXPECT_FALSE(route.answer.connected);
      } else {
        ASSERT_TRUE(answer.connected);
        EXPECT_NEAR(answer.cost, expected, 1e-9);
        ASSERT_TRUE(route.answer.connected) << s << "->" << t;
        ASSERT_FALSE(route.route.empty());
        EXPECT_EQ(route.route.front(), s);
        EXPECT_EQ(route.route.back(), t);
        EXPECT_NEAR(RouteCost(mdb.graph(), route.route), expected, 1e-9)
            << s << "->" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceSweep,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace tcf
