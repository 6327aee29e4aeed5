// Phase orchestration of the disconnection set approach: run the per-site
// subqueries in parallel ("neither communication nor synchronization is
// required during the first phase"), then assemble the answer from "a
// number of very small relations" (Sec. 2.1) — the paper's sequence of
// binary joins, computed as one min-plus sweep per chain — accounting for
// the communication the final phase causes.
//
// This header is the *re-entrant execution core* shared by the single-query
// API (dsa/query_api.h) and the batch executor (dsa/batch.h): planning
// (one planner, PlanBatchInParallel — a single query is a batch of one),
// phase-1 fan-out, and per-chain assembly are all free functions over
// immutable inputs, so any number of coordinator threads may run queries
// against the same fragmentation and complementary information
// concurrently.
#pragma once

#include <utility>
#include <vector>

#include "dsa/chains.h"
#include "dsa/complementary.h"
#include "dsa/local_query.h"
#include "util/thread_pool.h"

namespace tcf {

/// Per-site execution record.
struct SiteReport {
  FragmentId fragment = 0;
  TcStats stats;
  double seconds = 0.0;       // site compute time
  size_t result_tuples = 0;   // tuples shipped to the coordinator
};

/// Whole-query execution record — the quantities behind the paper's
/// performance claims (speed-up, workload balance, keyhole selectivity).
struct ExecutionReport {
  std::vector<SiteReport> sites;

  double phase1_wall_seconds = 0.0;  // parallel elapsed time
  double phase1_cpu_seconds = 0.0;   // sum of site seconds (1-processor cost)
  double assembly_seconds = 0.0;
  size_t assembly_join_tuples = 0;   // pre-aggregation join cardinality
  size_t communication_tuples = 0;   // phase-2 input tuples moved

  /// Max site seconds: the straggler that bounds the parallel finish time
  /// (Sec. 2.2's workload-balance issue).
  double SlowestSiteSeconds() const;
  double TotalSiteSeconds() const;

  /// Folds `other`'s counters and site records into this report.
  void Merge(const ExecutionReport& other);
};

/// Answer to one query. `status` is OK for every successful evaluation —
/// including a clean "not connected" — and non-OK when a phase-1 subquery
/// could not read its (paged) storage: then connected/cost are
/// meaningless and the caller must surface the error, not the answer.
struct QueryAnswer {
  bool connected = false;
  Weight cost = kInfinity;            // shortest-path cost (min-plus)
  size_t chains_considered = 0;
  std::vector<FragmentId> fragments_involved;  // distinct, phase-1 sites
  Status status = Status::OK();
};

/// Answer to a route query: the cost plus the realizing node sequence in
/// the base graph (shortcut hops expanded through the complementary
/// witnesses). `route` is empty when unconnected, {from} when from == to.
struct RouteAnswer {
  QueryAnswer answer;
  std::vector<NodeId> route;
};

/// The shared front half of every query: the chains connecting the two
/// endpoint fragments, with each hop resolved to one of the batch's
/// deduplicated subqueries.
struct QueryPlan {
  std::vector<FragmentChain> chains;
  /// chain_specs[c][i]: index into the batch's flat spec vector for hop i
  /// of chain c.
  std::vector<std::vector<size_t>> chain_specs;
};

/// A whole batch of endpoint pairs planned: one plan pointer per pair
/// (nullptr for trivial from == to pairs), the flat spec vector phase 1
/// consumes, and the sharing/cache accounting. A single query is a batch
/// of one. Move-only, because `plans` points into `distinct`.
struct ParallelPlanResult {
  ParallelPlanResult() = default;
  ParallelPlanResult(ParallelPlanResult&&) = default;
  ParallelPlanResult& operator=(ParallelPlanResult&&) = default;
  ParallelPlanResult(const ParallelPlanResult&) = delete;
  ParallelPlanResult& operator=(const ParallelPlanResult&) = delete;

  std::vector<const QueryPlan*> plans;
  /// The batch's distinct keyhole subqueries, fragment by fragment.
  struct Flat {
    std::vector<LocalQuerySpec> specs;
  } flat;
  /// One plan per distinct non-trivial (from, to) pair, in PairKey order.
  std::vector<QueryPlan> distinct;
  /// Non-trivial pairs that repeat another pair of the batch: they share
  /// its plan (non-trivial pairs minus distinct pairs).
  size_t memo_hits = 0;
  /// Skeleton-cache hits and misses of the distinct pairs' lookups.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
};

/// The one query planner, shared by DsaDatabase (single queries are
/// batches of one), BatchExecutor, SiteNetwork and BottleneckDsa. It sorts
/// and deduplicates the batch's non-trivial (from, to) pairs, plans each
/// distinct pair once from `chain_cache`'s skeletons of its
/// endpoint-fragment pairs (ranges of pairs in parallel on `pool`), then
/// deduplicates the planned hops by their selections in one bucket per
/// fragment (one pool task per fragment; the tasks write disjoint plan
/// slots) and emits the specs fragment by fragment, each fragment's in
/// selection order. The specs and every plan's indices depend only on
/// the pairs, never on the pool or its thread count. A batch of fewer than
/// 512 chains, or a null `pool`, is planned on the calling thread.
/// `chain_cache` must be non-null. Endpoints must be in range (callers
/// validate); from == to pairs yield a null plan.
ParallelPlanResult PlanBatchInParallel(
    const Fragmentation& frag,
    const std::vector<std::pair<NodeId, NodeId>>& endpoints,
    size_t max_chains, ChainPlanCache* chain_cache, ThreadPool* pool);

/// Runs all `specs` on `pool` (sequentially when pool is null) and
/// appends one SiteReport each; results are returned in spec order. The
/// relational engines run one task per spec. The Dijkstra engine runs
/// each fragment's specs as sites do (RunLocalQueryGroup): the specs are
/// sorted by (fragment, search direction, origin) and cut into tasks at
/// every fragment boundary and every pool->RangeSize(n) specs, never
/// inside a run of specs that share one search; a task streams its
/// fragment's shortcut relation once and runs one search per distinct
/// (direction, origin). A failed stream fails the specs of its task that
/// needed the relation, and no other. Memory: each task's overlay and
/// search arrays are per-thread scratch, reused by the thread's next
/// task. A task's time is charged to the SiteReport of its first spec
/// (the others read 0), so the total and the slowest record describe the
/// tasks. Results are bit-identical to running each spec alone. Safe to
/// call concurrently from several coordinator threads sharing one pool.
std::vector<LocalQueryResult> RunSites(const Fragmentation& frag,
                                       const ComplementaryInfo* complementary,
                                       const std::vector<LocalQuerySpec>& specs,
                                       LocalEngine engine, ThreadPool* pool,
                                       ExecutionReport* report);

/// Left-fold min-plus join over a chain's local results; returns the final
/// small relation. Join statistics are added to `report`. The paper's
/// "sequence of binary joins", kept for PHE; the chain assemblers below
/// compute the same costs without materializing relations.
Relation AssembleChain(const std::vector<const Relation*>& chain_results,
                       ExecutionReport* report);

/// Assembles the shortest-path cost answer from phase-1 results, where
/// `results[i]` answers `specs`' i-th subquery as RunLocalQuery returns it
/// (resident, canonically sorted). Each chain is one min-plus frontier
/// sweep: from `from`, hop by hop, the cheapest cost per reached node, in
/// per-thread scratch — AssembleChain's additions in its order, so the
/// cost is bit-identical to its fold's BestCost(from, to) and
/// `assembly_join_tuples` counts the same relaxations. Handles the
/// empty-plan (disconnected fragments) case; `from == to` must be
/// short-circuited by the caller. Only reads shared state, so concurrent
/// assembly of different queries over one results vector is safe.
QueryAnswer AssembleCostAnswer(const Fragmentation& frag,
                               const QueryPlan& plan,
                               const std::vector<LocalQuerySpec>& specs,
                               NodeId from, NodeId to,
                               const std::vector<LocalQueryResult>& results,
                               ExecutionReport* report);

/// Assembles the cost *and* the realizing route: AssembleCostAnswer's
/// sweep, keeping each reached node's predecessor, picks the winning chain
/// and relay sequence, then each leg is re-expanded inside its fragment
/// with shortcut hops replaced by their complementary witnesses. Same
/// inputs and concurrency contract as AssembleCostAnswer.
RouteAnswer AssembleRouteAnswer(const Fragmentation& frag,
                                const ComplementaryInfo& complementary,
                                const QueryPlan& plan,
                                const std::vector<LocalQuerySpec>& specs,
                                NodeId from, NodeId to,
                                const std::vector<LocalQueryResult>& results,
                                ExecutionReport* report);

}  // namespace tcf
