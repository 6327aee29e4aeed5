// Batched query execution over a DsaDatabase. The paper's phase-1 property
// — per-fragment subqueries are fully independent — holds across *queries*
// as well as across chains, so a batch of queries is executed as one big
// fan-out:
//
//   1. plan every query *in parallel* on the database's shared ThreadPool:
//      each (from, to) pair is planned exactly once into a per-batch plan
//      memo (repeats — the whole point of hot-pair traffic — skip planning
//      outright) by stamping its endpoints into the cached chain skeletons
//      of its endpoint-fragment pairs (see dsa/chains.h),
//   2. intern all keyhole subqueries into one mutex-striped
//      SubqueryTable, so queries that hit the same (fragment,
//      source-DS, target-DS) triple share a single site computation — and
//      interning itself no longer serializes the coordinator,
//   3. seal the sharded table into one flat spec vector and run the
//      deduplicated subqueries on the same pool in a single ParallelFor
//      (no per-query pools, no per-query barriers),
//   4. assemble every query's answer in parallel on the same pool (pure
//      reads of the shared phase-1 results).
//
// Parallel planning is answer-preserving: plans, spec contents, dedup
// counts, and every per-query answer are identical to a sequential
// planning loop. Only the spec numbering depends on scheduling, which
// shows solely as the ordering of BatchResult::report.sites (a multiset
// that is itself scheduling-stable).
//
// BatchExecutor is stateless apart from the database reference: Execute()
// is const, re-entrant, and may run concurrently with other batches. It is
// also the single-query path: DsaDatabase::ShortestPath and ShortestRoute
// execute a batch of one.
#pragma once

#include <vector>

#include "dsa/query_api.h"

namespace tcf {

/// What a batched query should compute. kCost and kReachability fill
/// RouteAnswer::answer only; kRoute additionally fills the realizing route
/// (and requires the database to have complementary information).
enum class QueryKind { kCost, kRoute, kReachability };

/// One query of a batch.
struct Query {
  NodeId from = 0;
  NodeId to = 0;
  QueryKind kind = QueryKind::kCost;
};

/// Batch-level accounting: how much work sharing saved and how the plan
/// cache performed for this batch.
struct BatchStats {
  size_t num_queries = 0;
  /// Chain-hop subquery requests before cross-query deduplication (every
  /// hop of every chain of every query).
  size_t subqueries_requested = 0;
  /// Distinct subqueries actually executed (the sealed spec table's size).
  size_t subqueries_executed = 0;
  /// Skeleton-cache (ChainPlanCache) hits/misses for this batch's
  /// fragment-pair lookups. Each distinct (from, to) pair is planned once,
  /// so these count per *distinct* pair, not per query.
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  /// Plan-memo reuse inside this batch: a hit is a query whose
  /// (from, to) pair was already planned — it skipped chain lookup and
  /// subquery interning entirely. Misses count the distinct pairs planned.
  size_t plan_memo_hits = 0;
  size_t plan_memo_misses = 0;
  /// Kept only for perfbench: always 0.
  size_t interned_plan_hits = 0;
  /// Kept only for perfbench: the distinct pairs planned (plan_memo_misses).
  size_t interned_plan_misses = 0;

  double plan_seconds = 0.0;      // parallel planning + interning
  double phase1_seconds = 0.0;    // parallel subquery fan-out
  double assemble_seconds = 0.0;  // parallel per-query assembly
  double wall_seconds = 0.0;      // whole Execute() call

  /// Fraction of requested subqueries eliminated by sharing (0 = no
  /// sharing, 0.9 = ten requests per executed subquery on average).
  double DedupSavings() const {
    return subqueries_requested == 0
               ? 0.0
               : 1.0 - static_cast<double>(subqueries_executed) /
                           static_cast<double>(subqueries_requested);
  }
  double PlanCacheHitRate() const {
    const size_t lookups = plan_cache_hits + plan_cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(plan_cache_hits) / lookups;
  }
  /// Fraction of non-trivial queries that skipped planning entirely
  /// because their (from, to) pair was already interned (≈1 on hot-pair
  /// workloads).
  double PlanMemoHitRate() const {
    const size_t lookups = plan_memo_hits + plan_memo_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(plan_memo_hits) / lookups;
  }
  double QueriesPerSecond() const {
    return wall_seconds == 0.0 ? 0.0 : num_queries / wall_seconds;
  }
};

/// Answers in query order plus the batch accounting. `answers[i].route` is
/// filled only for kRoute queries.
struct BatchResult {
  std::vector<RouteAnswer> answers;
  BatchStats stats;
  /// Aggregated execution report over the whole batch (site records from
  /// the shared phase 1; assembly totals summed over queries).
  ExecutionReport report;
  /// Maintenance epoch of the database that answered the batch (0 when the
  /// database was built directly rather than through MaintainedDatabase).
  uint64_t epoch = 0;
};

/// Executes query batches against one DsaDatabase.
class BatchExecutor {
 public:
  /// `db` must outlive the executor. Subqueries run on db->pool().
  explicit BatchExecutor(const DsaDatabase* db);

  /// Runs the whole batch and returns answers in query order. Thread-safe;
  /// concurrent Execute() calls share the database's pool and plan cache.
  BatchResult Execute(const std::vector<Query>& queries) const;

  const DsaDatabase& database() const { return *db_; }

 private:
  const DsaDatabase* db_;
};

}  // namespace tcf
