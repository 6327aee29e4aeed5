// Batched query execution over a DsaDatabase. The paper's phase-1 property
// — per-fragment subqueries are fully independent — holds across
// *queries* too, so a batch of queries is executed as one big fan-out:
//
//   1. plan the batch (PlanBatchInParallel, dsa/executor.h): its (from, to)
//      pairs are sorted and deduplicated, so each distinct pair is planned
//      once — repeats, the whole point of hot-pair traffic, share its plan
//      — into at most two keyhole hops and the border rows its overlay
//      search may relax,
//   2. deduplicate the hops and rows fragment by fragment, as the paper's
//      sites would: queries that need the same (fragment, selection)
//      share a single site computation, every query crossing a fragment
//      shares its one rows subquery, and the flat spec vector comes out
//      grouped by fragment,
//   3. run the deduplicated subqueries on the database's pool in one
//      RunSites call, grouped by fragment so that a task streams its
//      fragment's shortcut relation once (no per-query pools, no per-query
//      barriers),
//   4. assemble every query's answer in parallel on the same pool (pure
//      reads of the shared phase-1 results).
//
// Planning is deterministic: the plans, the specs and their numbering, the
// dedup counts and every per-query answer depend only on the batch, never
// on the pool's thread count or on scheduling.
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

/// Batch-level accounting: how much work sharing saved.
struct BatchStats {
  size_t num_queries = 0;
  /// Subquery requests before cross-query deduplication: the specs (hops
  /// and rows) that each non-trivial query's plan reads.
  size_t subqueries_requested = 0;
  /// Distinct subqueries actually executed (the flat spec vector's size).
  size_t subqueries_executed = 0;
  /// Kept only for perfbench: always 0.
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  /// Pair reuse inside this batch: a hit is a non-trivial query whose
  /// (from, to) pair another query of the batch repeats, so the two share
  /// one plan; misses count the distinct pairs planned.
  size_t plan_memo_hits = 0;
  size_t plan_memo_misses = 0;
  /// Kept only for perfbench: always 0.
  size_t interned_plan_hits = 0;
  /// Kept only for perfbench: the distinct pairs planned (plan_memo_misses).
  size_t interned_plan_misses = 0;

  double plan_seconds = 0.0;      // planning + subquery dedup
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
  /// Fraction of non-trivial queries that skipped planning because their
  /// (from, to) pair repeats another query's (≈1 on hot-pair workloads).
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
  /// concurrent Execute() calls share the database's pool.
  BatchResult Execute(const std::vector<Query>& queries) const;

  const DsaDatabase& database() const { return *db_; }

 private:
  const DsaDatabase* db_;
};

}  // namespace tcf
