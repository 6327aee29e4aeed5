// Phase orchestration of the disconnection set approach: run the per-site
// subqueries in parallel ("neither communication nor synchronization is
// required during the first phase"), then assemble the answer with "a
// sequence of binary joins between a number of very small relations"
// (Sec. 2.1), accounting for the communication the final phase causes.
//
// This header is the *re-entrant execution core* shared by the single-query
// API (dsa/query_api.h) and the batch executor (dsa/batch.h): planning
// (one planner, PlanBatchInParallel — a single query is a batch of one),
// phase-1 fan-out, and per-chain assembly are all free functions over
// immutable inputs, so any number of coordinator threads may run queries
// against the same fragmentation and complementary information
// concurrently.
#pragma once

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "dsa/chains.h"
#include "dsa/complementary.h"
#include "dsa/local_query.h"
#include "util/sharded_table.h"
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

/// Canonical identity of a keyhole subquery: (fragment, sorted sources,
/// sorted targets). The key carries everything a LocalQuerySpec holds, so
/// the spec table materializes the spec from the key on first sight.
using SpecKey =
    std::tuple<FragmentId, std::vector<NodeId>, std::vector<NodeId>>;

struct SpecKeyHash {
  size_t operator()(const SpecKey& key) const;
};

/// The planner's interning table for keyhole subqueries: one entry per
/// distinct (fragment, sources, targets) triple, so a fragment computes
/// each selection once no matter how many chains or queries need it.
/// Mutex-striped shards keyed by the triple's hash let any number of
/// coordinator threads intern concurrently, contending only on hash
/// collisions. Intern returns a shard-encoded handle; after planning,
/// Flatten() seals the table into the flat spec vector the phase-1
/// fan-out consumes and maps every handle to its flat index.
class SubqueryTable {
 public:
  explicit SubqueryTable(size_t num_shards = 64);

  /// Thread-safe. Returns a shard-encoded handle, NOT a flat index.
  size_t Intern(SpecKey key);

  size_t size() const { return table_.size(); }

  struct Flat {
    std::vector<LocalQuerySpec> specs;
    std::vector<size_t> offsets;

    /// Maps an Intern handle to its index in `specs`.
    size_t IndexOf(size_t ref) const;
  };

  /// Moves all specs into one flat vector (shard-major order) and leaves
  /// the table empty. Callers must be quiescent (no concurrent Intern).
  Flat Flatten();

 private:
  ShardedTable<SpecKey, LocalQuerySpec, SpecKeyHash> table_;
};

/// The shared front half of every query: the chains connecting the two
/// endpoint fragments, with each hop resolved to an interned subquery.
struct QueryPlan {
  std::vector<FragmentChain> chains;
  /// chain_specs[c][i]: index into the batch's flat spec vector for hop i
  /// of chain c.
  std::vector<std::vector<size_t>> chain_specs;
  /// Skeleton-cache accounting for this plan's chain lookups.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
};

/// A whole batch of endpoint pairs planned in parallel: one plan pointer
/// per pair (nullptr for trivial from == to pairs), the sealed flat spec
/// vector phase 1 consumes, and the sharing/cache accounting. A single
/// query is a batch of one.
struct ParallelPlanResult {
  std::vector<const QueryPlan*> plans;
  SubqueryTable::Flat flat;
  /// Owns the distinct plans `plans` points into.
  std::unique_ptr<ShardedTable<uint64_t, QueryPlan, PairKeyHash>> memo;
  /// Pairs whose (from, to) plan was already interned — they skipped
  /// chain lookup and subquery interning outright.
  size_t memo_hits = 0;
  /// Skeleton-cache accounting summed over the distinct plans.
  size_t cache_hits = 0;
  size_t cache_misses = 0;

  size_t distinct_plans() const { return memo->size(); }
};

/// The one query planner, shared by DsaDatabase (single queries are
/// batches of one), BatchExecutor, SiteNetwork and BottleneckDsa: plans
/// every endpoint pair in parallel on `pool` (sequentially when null).
/// Each distinct pair is planned once from `chain_cache`'s skeletons of
/// its endpoint-fragment pairs and interned into a sharded memo by
/// (from, to), so repeats skip planning; keyhole subqueries intern into
/// one SubqueryTable batch-wide, and the table is sealed with every
/// plan's refs rewritten to flat spec indices. Both tables get
/// clamp(endpoints.size(), 1, 64) shards. `chain_cache` must be non-null.
/// Endpoints must be in range (callers validate); from == to pairs yield
/// a null plan.
ParallelPlanResult PlanBatchInParallel(
    const Fragmentation& frag,
    const std::vector<std::pair<NodeId, NodeId>>& endpoints,
    size_t max_chains, ChainPlanCache* chain_cache, ThreadPool* pool);

/// Runs all `specs` in parallel on `pool` (or sequentially when pool is
/// null) and appends one SiteReport each. Results are returned in spec
/// order. Safe to call concurrently from several coordinator threads
/// sharing one pool.
std::vector<LocalQueryResult> RunSites(const Fragmentation& frag,
                                       const ComplementaryInfo* complementary,
                                       const std::vector<LocalQuerySpec>& specs,
                                       LocalEngine engine, ThreadPool* pool,
                                       ExecutionReport* report);

/// Left-fold min-plus join over a chain's local results; returns the final
/// small relation. Join statistics are added to `report`.
Relation AssembleChain(const std::vector<const Relation*>& chain_results,
                       ExecutionReport* report);

/// Assembles the shortest-path cost answer from phase-1 results, where
/// `results[i]` answers `specs`' i-th subquery. Handles the empty-plan
/// (disconnected fragments) case; `from == to` must be short-circuited by
/// the caller. Only reads shared state, so concurrent assembly of
/// different queries over one results vector is safe.
QueryAnswer AssembleCostAnswer(const Fragmentation& frag,
                               const QueryPlan& plan,
                               const std::vector<LocalQuerySpec>& specs,
                               NodeId from, NodeId to,
                               const std::vector<LocalQueryResult>& results,
                               ExecutionReport* report);

/// Assembles the cost *and* the realizing route: a dynamic program over
/// each chain's relay layers picks the winning chain and relay sequence,
/// then each leg is re-expanded inside its fragment with shortcut hops
/// replaced by their complementary witnesses. Same concurrency contract as
/// AssembleCostAnswer.
RouteAnswer AssembleRouteAnswer(const Fragmentation& frag,
                                const ComplementaryInfo& complementary,
                                const QueryPlan& plan,
                                const std::vector<LocalQuerySpec>& specs,
                                NodeId from, NodeId to,
                                const std::vector<LocalQueryResult>& results,
                                ExecutionReport* report);

}  // namespace tcf
