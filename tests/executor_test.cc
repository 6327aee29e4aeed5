// Unit tests for the executor layer: RunSites (parallel and sequential),
// AssembleChain, the chain assemblers against AssembleChain's fold, and
// the ExecutionReport accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "dsa/executor.h"
#include "fragment/random_partition.h"
#include "graph/builder.h"
#include "graph/generator.h"

namespace tcf {
namespace {

/// Two-fragment chain 0-1-2 | 2-3-4 (unit weights).
struct Fixture {
  Fixture() {
    GraphBuilder b(5);
    b.AddSymmetricEdge(0, 1, 1.0);
    b.AddSymmetricEdge(1, 2, 1.0);
    b.AddSymmetricEdge(2, 3, 1.0);
    b.AddSymmetricEdge(3, 4, 1.0);
    graph = b.Build();
    frag = std::make_unique<Fragmentation>(
        &graph, std::vector<FragmentId>{0, 0, 0, 0, 1, 1, 1, 1}, 2);
    comp = PrecomputeComplementary(*frag);
  }
  Graph graph;
  std::unique_ptr<Fragmentation> frag;
  ComplementaryInfo comp;
};

std::vector<LocalQuerySpec> Specs() {
  return {LocalQuerySpec{0, {0}, {2}}, LocalQuerySpec{1, {2}, {4}}};
}

TEST(RunSites, SequentialWhenPoolIsNull) {
  Fixture fx;
  ExecutionReport report;
  auto results = RunSites(*fx.frag, &fx.comp, Specs(),
                          LocalEngine::kDijkstra, nullptr, &report);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0].paths.BestCost(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(results[1].paths.BestCost(2, 4), 2.0);
  EXPECT_EQ(report.sites.size(), 2u);
  EXPECT_EQ(report.communication_tuples, 2u);
}

TEST(RunSites, ParallelMatchesSequential) {
  Fixture fx;
  ThreadPool pool(2);
  ExecutionReport seq_report, par_report;
  auto seq = RunSites(*fx.frag, &fx.comp, Specs(), LocalEngine::kDijkstra,
                      nullptr, &seq_report);
  auto par = RunSites(*fx.frag, &fx.comp, Specs(), LocalEngine::kDijkstra,
                      &pool, &par_report);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_EQ(seq[i].paths.size(), par[i].paths.size());
    for (const PathTuple& t : seq[i].paths.tuples()) {
      EXPECT_DOUBLE_EQ(par[i].paths.BestCost(t.src, t.dst), t.cost);
    }
  }
  EXPECT_EQ(par_report.communication_tuples,
            seq_report.communication_tuples);
}

TEST(RunSites, ReportAggregatesSiteTimes) {
  Fixture fx;
  ExecutionReport report;
  RunSites(*fx.frag, &fx.comp, Specs(), LocalEngine::kSemiNaive, nullptr,
           &report);
  EXPECT_GE(report.phase1_cpu_seconds, report.SlowestSiteSeconds());
  EXPECT_DOUBLE_EQ(report.TotalSiteSeconds(), report.phase1_cpu_seconds);
  for (const SiteReport& s : report.sites) {
    EXPECT_GT(s.stats.iterations, 0u);
  }
}

TEST(AssembleChain, FoldsMinPlusJoins) {
  Relation r1, r2, r3;
  r1.Add(0, 2, 2.0);
  r2.Add(2, 4, 2.0);
  r2.Add(2, 5, 9.0);
  r3.Add(4, 6, 1.0);
  r3.Add(5, 6, 1.0);
  ExecutionReport report;
  Relation out = AssembleChain({&r1, &r2, &r3}, &report);
  EXPECT_DOUBLE_EQ(out.BestCost(0, 6), 5.0);
  EXPECT_GT(report.assembly_join_tuples, 0u);
  EXPECT_GE(report.assembly_seconds, 0.0);
}

TEST(AssembleChain, SingleHopIsIdentity) {
  Relation r;
  r.Add(1, 2, 3.0);
  Relation out = AssembleChain({&r}, nullptr);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out.BestCost(1, 2), 3.0);
}

TEST(AssembleChain, EmptyHopYieldsEmpty) {
  Relation r1, empty;
  r1.Add(0, 2, 2.0);
  Relation out = AssembleChain({&r1, &empty}, nullptr);
  EXPECT_TRUE(out.empty());
}

TEST(AssembleCostAnswer, SweepMatchesTheChainFoldBitForBit) {
  // Every ordered node pair of a cyclic fragmentation of a directed graph
  // (so some hops find nothing): the frontier sweep against the
  // AssembleChain fold of the same chains, bit for bit, with the same
  // join-tuple count; the route assembler shares the sweep.
  TransportationGraphOptions opts;
  opts.num_clusters = 4;
  opts.nodes_per_cluster = 12;
  opts.target_edges_per_cluster = 36.0;
  opts.symmetric = false;
  Rng rng(61);
  const Graph g = GenerateTransportationGraph(opts, &rng).graph;
  Rng partition_rng(5);
  const Fragmentation frag = RandomFragmentation(g, 4, &partition_rng);
  ASSERT_GT(frag.FragmentationGraphCycles(), 0u);
  const ComplementaryInfo comp = PrecomputeComplementary(frag);

  std::vector<std::pair<NodeId, NodeId>> endpoints;
  for (NodeId from = 0; from < g.NumNodes(); ++from) {
    for (NodeId to = 0; to < g.NumNodes(); ++to) {
      if (from != to) endpoints.emplace_back(from, to);
    }
  }
  ChainPlanCache cache;
  const ParallelPlanResult planned = PlanBatchInParallel(
      frag, endpoints, kDefaultMaxChains, &cache, nullptr);
  const std::vector<LocalQuerySpec>& specs = planned.flat.specs;
  const std::vector<LocalQueryResult> results = RunSites(
      frag, &comp, specs, LocalEngine::kDijkstra, nullptr, nullptr);

  size_t multi_chain_pairs = 0;
  size_t single_hop_chains = 0;
  size_t empty_hop_chains = 0;
  size_t connected = 0;
  for (size_t q = 0; q < endpoints.size(); ++q) {
    const auto [from, to] = endpoints[q];
    const QueryPlan& plan = *planned.plans[q];
    Weight fold_cost = kInfinity;
    ExecutionReport fold_report;
    for (const std::vector<size_t>& hops : plan.chain_specs) {
      std::vector<const Relation*> chain;
      for (size_t idx : hops) chain.push_back(&results[idx].paths);
      const Relation folded = AssembleChain(chain, &fold_report);
      fold_cost = std::min(fold_cost, folded.BestCost(from, to));
      single_hop_chains += hops.size() == 1;
      empty_hop_chains += std::any_of(
          chain.begin(), chain.end(),
          [](const Relation* r) { return r->empty(); });
    }
    multi_chain_pairs += plan.chains.size() > 1;

    ExecutionReport report;
    const QueryAnswer got =
        AssembleCostAnswer(frag, plan, specs, from, to, results, &report);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(got.cost),
              std::bit_cast<uint64_t>(fold_cost))
        << from << "->" << to << ": " << got.cost << " vs " << fold_cost;
    EXPECT_EQ(report.assembly_join_tuples, fold_report.assembly_join_tuples)
        << from << "->" << to;
    EXPECT_EQ(got.connected, fold_cost != kInfinity);
    connected += got.connected;

    const RouteAnswer route = AssembleRouteAnswer(frag, comp, plan, specs,
                                                  from, to, results, nullptr);
    ASSERT_TRUE(route.answer.status.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(route.answer.cost),
              std::bit_cast<uint64_t>(got.cost))
        << from << "->" << to;
    EXPECT_EQ(route.route.empty(), !got.connected);
  }
  // The sweep covered what it claims to.
  EXPECT_GT(multi_chain_pairs, endpoints.size() / 2);
  EXPECT_GT(single_hop_chains, 0u);
  EXPECT_GT(empty_hop_chains, 0u);
  EXPECT_GT(connected, 0u);
  EXPECT_LT(connected, endpoints.size());
}

}  // namespace
}  // namespace tcf
