// Randomized differential sweep for the parallel batch planner: over
// seeded random graphs × every fragmenter × every local engine × batch
// sizes {1, 7, 256} × coordinator thread counts {1, 2, 8}, the
// parallel-planned BatchExecutor must be element-wise identical to a
// sequential single-query loop, agree with the warshall.h dense oracle on
// connectivity, and report scheduling-independent dedup statistics (same
// counts at every thread count: planning does not depend on the thread
// count at all, and executor_test pins the spec numbering as well).
#include <gtest/gtest.h>

#include <optional>

#include "dsa/batch.h"
#include "relational/relation.h"
#include "dsa/workload.h"
#include "dsa_sweep.h"
#include "relational/warshall.h"

namespace tcf {
namespace {

using dsa_sweep::Fragmenter;

struct PropertyParam {
  uint64_t seed;
  Fragmenter fragmenter;
  LocalEngine engine;
  /// The sequential reference loop re-executes every subquery per query,
  /// so only every seq_stride-th query is cross-checked against it (the
  /// Warshall oracle and the thread-count reference still check all).
  size_t seq_stride;
};

constexpr size_t kBatchSizes[] = {1, 7, 256};
constexpr size_t kThreadCounts[] = {1, 2, 8};

/// A deterministic mixed workload: uniform + hot-pair endpoints, the three
/// query kinds interleaved, and (when it fits) one self query to exercise
/// the trivial path.
std::vector<Query> MakeWorkload(const Fragmentation& frag, size_t batch_size,
                                uint64_t seed) {
  std::vector<Query> queries;
  Rng rng(seed);
  WorkloadSpec uniform;
  uniform.mix = WorkloadMix::kUniform;
  uniform.num_queries = (batch_size + 1) / 2;
  queries = GenerateWorkload(frag, uniform, &rng);
  WorkloadSpec hot;
  hot.mix = WorkloadMix::kHotPair;
  hot.num_queries = batch_size - queries.size();
  std::vector<Query> part = GenerateWorkload(frag, hot, &rng);
  queries.insert(queries.end(), part.begin(), part.end());

  constexpr QueryKind kKinds[] = {QueryKind::kCost, QueryKind::kRoute,
                                  QueryKind::kReachability};
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].kind = kKinds[i % 3];
  }
  if (batch_size >= 7) {
    const NodeId node =
        static_cast<NodeId>(rng.NextBounded(frag.graph().NumNodes()));
    queries[3] = Query{node, node, QueryKind::kRoute};
  }
  return queries;
}

class BatchPropertySweep : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(BatchPropertySweep, ParallelBatchMatchesSequentialAndOracle) {
  const PropertyParam p = GetParam();
  auto t = dsa_sweep::MakeTransport(p.seed, /*clusters=*/3, /*nodes=*/8);
  const Graph& g = t.graph;
  Fragmentation frag =
      dsa_sweep::MakeFragmentation(g, p.fragmenter, p.seed);
  const ReachabilityMatrix reach = WarshallClosure(g);

  for (size_t batch_size : kBatchSizes) {
    const std::vector<Query> queries =
        MakeWorkload(frag, batch_size, p.seed * 1021 + batch_size);
    ASSERT_EQ(queries.size(), batch_size);

    // The same workload at every thread count; the first run is the
    // reference the others must match element-wise.
    std::optional<BatchResult> reference;
    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "batch_size=" << batch_size << " threads=" << threads);
      DsaOptions opts;
      opts.engine = p.engine;
      opts.num_threads = threads;
      DsaDatabase db(&frag, opts);
      BatchExecutor executor(&db);
      const BatchResult result = executor.Execute(queries);
      ASSERT_EQ(result.answers.size(), queries.size());

      for (size_t i = 0; i < queries.size(); ++i) {
        const Query& q = queries[i];
        const RouteAnswer& got = result.answers[i];

        // The dense oracle closes paths of length >= 1; from == to is
        // connected by the empty path in the query semantics.
        const bool oracle_connected =
            q.from == q.to || reach.Get(q.from, q.to);
        EXPECT_EQ(got.answer.connected, oracle_connected)
            << "query " << i << ": " << q.from << " -> " << q.to;

        if (i % p.seq_stride == 0) {
          switch (q.kind) {
            case QueryKind::kCost:
            case QueryKind::kReachability: {
              const QueryAnswer seq = db.ShortestPath(q.from, q.to);
              EXPECT_EQ(got.answer.cost, seq.cost) << "query " << i;
              EXPECT_EQ(got.answer.connected, seq.connected) << "query " << i;
              EXPECT_EQ(got.answer.fragments_involved,
                        seq.fragments_involved)
                  << "query " << i;
              break;
            }
            case QueryKind::kRoute: {
              const RouteAnswer seq = db.ShortestRoute(q.from, q.to);
              EXPECT_EQ(got.answer.cost, seq.answer.cost) << "query " << i;
              EXPECT_EQ(got.route, seq.route) << "query " << i;
              break;
            }
          }
        }
      }

      // Accounting consistency, independent of scheduling.
      const BatchStats& s = result.stats;
      EXPECT_EQ(s.num_queries, batch_size);
      EXPECT_LE(s.subqueries_executed, s.subqueries_requested);
      EXPECT_EQ(s.plan_memo_hits + s.plan_memo_misses,
                [&] {
                  size_t nontrivial = 0;
                  for (const Query& q : queries) {
                    nontrivial += q.from != q.to;
                  }
                  return nontrivial;
                }());
      // Plans live for one batch: every distinct pair is planned afresh.
      EXPECT_EQ(s.interned_plan_hits, 0u);
      EXPECT_EQ(s.interned_plan_misses, s.plan_memo_misses);

      if (!reference.has_value()) {
        reference = result;
        continue;
      }
      // Parallel planning must be answer- and stats-preserving: identical
      // answers and identical dedup counts at every thread count.
      for (size_t i = 0; i < queries.size(); ++i) {
        const RouteAnswer& got = result.answers[i];
        const RouteAnswer& ref = reference->answers[i];
        EXPECT_EQ(got.answer.connected, ref.answer.connected) << "query " << i;
        EXPECT_EQ(got.answer.cost, ref.answer.cost) << "query " << i;
        EXPECT_EQ(got.answer.fragments_involved,
                  ref.answer.fragments_involved)
            << "query " << i;
        EXPECT_EQ(got.route, ref.route) << "query " << i;
      }
      EXPECT_EQ(s.subqueries_requested, reference->stats.subqueries_requested);
      EXPECT_EQ(s.subqueries_executed, reference->stats.subqueries_executed);
      EXPECT_EQ(s.plan_memo_hits, reference->stats.plan_memo_hits);
      EXPECT_EQ(s.plan_memo_misses, reference->stats.plan_memo_misses);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchPropertySweep,
    ::testing::Values(
        PropertyParam{31, Fragmenter::kCenter, LocalEngine::kDijkstra, 3},
        PropertyParam{32, Fragmenter::kCenter, LocalEngine::kSemiNaive, 19},
        PropertyParam{33, Fragmenter::kCenter, LocalEngine::kSmart, 23},
        PropertyParam{34, Fragmenter::kCenterDistributed,
                      LocalEngine::kDijkstra, 3},
        PropertyParam{35, Fragmenter::kCenterDistributed,
                      LocalEngine::kSemiNaive, 19},
        PropertyParam{36, Fragmenter::kCenterDistributed, LocalEngine::kSmart,
                      23},
        PropertyParam{37, Fragmenter::kBondEnergy, LocalEngine::kDijkstra, 3},
        PropertyParam{38, Fragmenter::kBondEnergy, LocalEngine::kSemiNaive,
                      19},
        PropertyParam{39, Fragmenter::kBondEnergy, LocalEngine::kSmart, 23},
        PropertyParam{40, Fragmenter::kLinear, LocalEngine::kDijkstra, 3},
        PropertyParam{41, Fragmenter::kLinear, LocalEngine::kSemiNaive, 19},
        PropertyParam{42, Fragmenter::kLinear, LocalEngine::kSmart, 23},
        PropertyParam{43, Fragmenter::kRandom, LocalEngine::kDijkstra, 3},
        PropertyParam{44, Fragmenter::kRandom, LocalEngine::kSemiNaive, 19},
        PropertyParam{45, Fragmenter::kRandom, LocalEngine::kSmart, 23}));

}  // namespace
}  // namespace tcf
