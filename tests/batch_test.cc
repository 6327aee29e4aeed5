// Randomized cross-check of the batch executor: a 1000-query batch over
// generated transportation and general graphs must return *bit-identical*
// answers to a sequential ShortestPath / ShortestRoute / IsConnected loop
// (batching shares plans and subqueries but must not change a single
// result), and its connectivity verdicts must match the warshall.h dense
// oracle. Swept across all LocalEngines and both loosely connected
// (linear) and cyclic (random) fragmentations.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "dsa/batch.h"
#include "dsa/workload.h"
#include "fragment/linear.h"
#include "fragment/random_partition.h"
#include "graph/builder.h"
#include "graph/generator.h"
#include "relational/warshall.h"

namespace tcf {
namespace {

enum class Family { kTransportation, kGeneral };
enum class FragStyle { kLinear, kRandom };  // loosely connected vs cyclic

struct BatchParam {
  uint64_t seed;
  Family family;
  FragStyle style;
  LocalEngine engine;
  /// The sequential reference loop re-executes every subquery per query,
  /// so for the slow relational engines only every seq_stride-th query is
  /// cross-checked against it (the Warshall oracle still checks all 1000).
  size_t seq_stride = 1;
  /// Smaller graph for the pathological Smart-over-random-borders cell.
  bool small_graph = false;
};

Graph MakeGraph(const BatchParam& p) {
  Rng rng(p.seed);
  if (p.family == Family::kTransportation) {
    TransportationGraphOptions opts;
    opts.num_clusters = 3;
    opts.nodes_per_cluster = p.small_graph ? 8 : 10;
    opts.target_edges_per_cluster = p.small_graph ? 28 : 40;
    return GenerateTransportationGraph(opts, &rng).graph;
  }
  GeneralGraphOptions opts;
  opts.num_nodes = p.small_graph ? 26 : 36;
  opts.target_edges = p.small_graph ? 70 : 110;
  return GenerateGeneralGraph(opts, &rng);
}

Fragmentation MakeFrag(const Graph& g, const BatchParam& p) {
  if (p.style == FragStyle::kLinear) {
    LinearOptions opts;
    opts.num_fragments = 4;
    return LinearFragmentation(g, opts).fragmentation;
  }
  Rng rng(p.seed * 31 + 7);
  return RandomFragmentation(g, 4, &rng);
}

/// A 1000-query mixed workload: every WorkloadMix in equal parts, with the
/// three query kinds interleaved.
std::vector<Query> MakeWorkload(const Fragmentation& frag, uint64_t seed) {
  std::vector<Query> queries;
  Rng rng(seed * 131 + 3);
  for (WorkloadMix mix :
       {WorkloadMix::kUniform, WorkloadMix::kHotPair,
        WorkloadMix::kWithinFragment, WorkloadMix::kCrossChain}) {
    WorkloadSpec spec;
    spec.mix = mix;
    spec.num_queries = 250;
    std::vector<Query> part = GenerateWorkload(frag, spec, &rng);
    queries.insert(queries.end(), part.begin(), part.end());
  }
  constexpr QueryKind kKinds[] = {QueryKind::kCost, QueryKind::kRoute,
                                  QueryKind::kReachability};
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].kind = kKinds[i % 3];
  }
  return queries;
}

class BatchCrossCheck : public ::testing::TestWithParam<BatchParam> {};

TEST_P(BatchCrossCheck, BatchEqualsSequentialEqualsWarshall) {
  const BatchParam p = GetParam();
  const Graph g = MakeGraph(p);
  const Fragmentation frag = MakeFrag(g, p);
  if (p.style == FragStyle::kLinear) {
    ASSERT_TRUE(frag.IsLooselyConnected());
  }

  DsaOptions opts;
  opts.engine = p.engine;
  DsaDatabase db(&frag, opts);
  BatchExecutor executor(&db);
  const std::vector<Query> queries = MakeWorkload(frag, p.seed);
  ASSERT_EQ(queries.size(), 1000u);

  const BatchResult result = executor.Execute(queries);
  ASSERT_EQ(result.answers.size(), queries.size());

  const ReachabilityMatrix reach = WarshallClosure(g);
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const RouteAnswer& got = result.answers[i];

    // The dense oracle closes paths of length >= 1; from == to is
    // connected by the empty path in the query semantics.
    const bool oracle_connected = q.from == q.to || reach.Get(q.from, q.to);
    EXPECT_EQ(got.answer.connected, oracle_connected)
        << "query " << i << ": " << q.from << " -> " << q.to;

    if (i % p.seq_stride != 0) continue;
    switch (q.kind) {
      case QueryKind::kCost: {
        const QueryAnswer seq = db.ShortestPath(q.from, q.to);
        EXPECT_EQ(got.answer.cost, seq.cost) << "query " << i;
        EXPECT_EQ(got.answer.connected, seq.connected) << "query " << i;
        EXPECT_EQ(got.answer.fragments_involved, seq.fragments_involved)
            << "query " << i;
        break;
      }
      case QueryKind::kRoute: {
        const RouteAnswer seq = db.ShortestRoute(q.from, q.to);
        EXPECT_EQ(got.answer.cost, seq.answer.cost) << "query " << i;
        EXPECT_EQ(got.route, seq.route) << "query " << i;
        break;
      }
      case QueryKind::kReachability: {
        EXPECT_EQ(got.answer.connected, db.IsConnected(q.from, q.to))
            << "query " << i;
        break;
      }
    }
  }

  // The sharing accounting must be consistent, and 1000 queries over at
  // most 16 fragment pairs cannot help but share subqueries.
  const BatchStats& s = result.stats;
  EXPECT_EQ(s.num_queries, queries.size());
  EXPECT_LE(s.subqueries_executed, s.subqueries_requested);
  EXPECT_GT(s.DedupSavings(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchCrossCheck,
    ::testing::Values(
        BatchParam{21, Family::kTransportation, FragStyle::kLinear,
                   LocalEngine::kDijkstra},
        BatchParam{22, Family::kTransportation, FragStyle::kRandom,
                   LocalEngine::kSemiNaive, /*seq_stride=*/17},
        BatchParam{23, Family::kTransportation, FragStyle::kLinear,
                   LocalEngine::kSmart, /*seq_stride=*/17},
        BatchParam{24, Family::kGeneral, FragStyle::kRandom,
                   LocalEngine::kDijkstra, /*seq_stride=*/3},
        BatchParam{25, Family::kGeneral, FragStyle::kLinear,
                   LocalEngine::kSemiNaive, /*seq_stride=*/7},
        BatchParam{26, Family::kGeneral, FragStyle::kRandom,
                   LocalEngine::kSmart, /*seq_stride=*/9,
                   /*small_graph=*/true}));

// ------------------------------------------------------------- Edge cases

TEST(BatchExecutor, EmptyBatch) {
  Rng rng(5);
  TransportationGraphOptions gopts;
  gopts.num_clusters = 2;
  gopts.nodes_per_cluster = 6;
  auto t = GenerateTransportationGraph(gopts, &rng);
  LinearOptions lopts;
  lopts.num_fragments = 2;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  DsaDatabase db(&frag);
  BatchExecutor executor(&db);
  const BatchResult result = executor.Execute({});
  EXPECT_TRUE(result.answers.empty());
  EXPECT_EQ(result.stats.num_queries, 0u);
  EXPECT_EQ(result.stats.subqueries_executed, 0u);
}

TEST(BatchExecutor, SelfQueriesAreTrivial) {
  Rng rng(6);
  GeneralGraphOptions gopts;
  gopts.num_nodes = 12;
  gopts.target_edges = 30;
  Graph g = GenerateGeneralGraph(gopts, &rng);
  LinearOptions lopts;
  lopts.num_fragments = 2;
  Fragmentation frag = LinearFragmentation(g, lopts).fragmentation;
  DsaDatabase db(&frag);
  BatchExecutor executor(&db);

  const std::vector<Query> queries = {{3, 3, QueryKind::kCost},
                                      {5, 5, QueryKind::kRoute},
                                      {0, 0, QueryKind::kReachability}};
  const BatchResult result = executor.Execute(queries);
  for (const RouteAnswer& a : result.answers) {
    EXPECT_TRUE(a.answer.connected);
    EXPECT_DOUBLE_EQ(a.answer.cost, 0.0);
  }
  EXPECT_EQ(result.answers[1].route, (std::vector<NodeId>{5}));
  EXPECT_EQ(result.stats.subqueries_executed, 0u);  // nothing to run
}

// ------------------------------------------------- Plan-cache edge cases

/// A 3×10 transportation graph under a 4-fragment linear fragmentation
/// plus a uniform workload.
struct BatchFixture {
  BatchFixture() {
    Rng rng(77);
    TransportationGraphOptions gopts;
    gopts.num_clusters = 3;
    gopts.nodes_per_cluster = 10;
    gopts.target_edges_per_cluster = 40;
    graph = GenerateTransportationGraph(gopts, &rng).graph;
    LinearOptions lopts;
    lopts.num_fragments = 4;
    frag.emplace(LinearFragmentation(graph, lopts).fragmentation);
  }

  std::vector<Query> MakeQueries(size_t n) const {
    WorkloadSpec spec;
    spec.mix = WorkloadMix::kUniform;
    spec.num_queries = n;
    Rng rng(78);
    return GenerateWorkload(*frag, spec, &rng);
  }

  Graph graph;
  std::optional<Fragmentation> frag;
};

void ExpectSameAnswers(const BatchResult& got, const BatchResult& want) {
  ASSERT_EQ(got.answers.size(), want.answers.size());
  for (size_t i = 0; i < got.answers.size(); ++i) {
    EXPECT_EQ(got.answers[i].answer.connected, want.answers[i].answer.connected)
        << "query " << i;
    EXPECT_EQ(got.answers[i].answer.cost, want.answers[i].answer.cost)
        << "query " << i;
  }
}

TEST(BatchExecutor, ConcurrentBatchesAnswerAlike) {
  // Batches racing on one database and its pool answer and deduplicate
  // exactly like one batch run alone.
  BatchFixture fx;
  const std::vector<Query> queries = fx.MakeQueries(100);
  DsaDatabase db(&*fx.frag);
  BatchExecutor executor(&db);
  const BatchResult want = executor.Execute(queries);

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 6;
  std::vector<BatchStats> stats(kThreads * kRounds);
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t round = 0; round < kRounds; ++round) {
        const BatchResult got = executor.Execute(queries);
        stats[t * kRounds + round] = got.stats;
        for (size_t i = 0; i < queries.size(); ++i) {
          if (got.answers[i].answer.cost != want.answers[i].answer.cost) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  for (const BatchStats& s : stats) {
    EXPECT_EQ(s.subqueries_executed, want.stats.subqueries_executed);
    EXPECT_EQ(s.subqueries_requested, want.stats.subqueries_requested);
  }
}

TEST(BatchExecutor, RepeatedBatchPlansAlike) {
  // Plans live for one batch: a repeated batch plans every distinct pair
  // afresh (interned_plan_hits stays 0 for perfbench's hit rate) and
  // answers and deduplicates exactly like the first.
  BatchFixture fx;
  const std::vector<Query> queries = fx.MakeQueries(200);
  DsaDatabase db(&*fx.frag);
  BatchExecutor executor(&db);

  const BatchResult first = executor.Execute(queries);
  const BatchResult second = executor.Execute(queries);
  ExpectSameAnswers(second, first);
  EXPECT_EQ(second.stats.subqueries_requested,
            first.stats.subqueries_requested);
  EXPECT_EQ(second.stats.subqueries_executed,
            first.stats.subqueries_executed);
  EXPECT_EQ(second.stats.plan_memo_hits, first.stats.plan_memo_hits);
  EXPECT_EQ(second.stats.plan_memo_misses, first.stats.plan_memo_misses);
  EXPECT_EQ(second.stats.interned_plan_hits, 0u);
  EXPECT_EQ(second.stats.interned_plan_misses, second.stats.plan_memo_misses);
}

TEST(BatchExecutor, DisconnectedPairsStayUnconnected) {
  GraphBuilder b(4);
  b.AddSymmetricEdge(0, 1);
  b.AddSymmetricEdge(2, 3);
  Graph g = b.Build();
  Fragmentation frag(&g, {0, 0, 1, 1}, 2);
  DsaDatabase db(&frag);
  BatchExecutor executor(&db);
  const BatchResult result = executor.Execute(
      {{0, 3, QueryKind::kCost}, {0, 1, QueryKind::kCost},
       {2, 1, QueryKind::kRoute}});
  EXPECT_FALSE(result.answers[0].answer.connected);
  EXPECT_EQ(result.answers[0].answer.cost, kInfinity);
  EXPECT_TRUE(result.answers[1].answer.connected);
  EXPECT_FALSE(result.answers[2].answer.connected);
  EXPECT_TRUE(result.answers[2].route.empty());
}

}  // namespace
}  // namespace tcf
