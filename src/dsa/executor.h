// Phase orchestration of the disconnection set approach: run the per-site
// subqueries in parallel ("neither communication nor synchronization is
// required during the first phase"), then assemble the answer from "a
// number of very small relations" (Sec. 2.1), accounting for the
// communication the final phase causes.
//
// "If the fragmentation is not loosely connected, it is required to
// consider all possible chains of fragments independently" (Sec. 2.1).
// Instead of enumerating them, phase 2 is one search over the border
// overlay: the border nodes, joined by the fragments' shortcut relations,
// which already hold global border-to-border distances. This overlay is
// the "high-speed network" of the paper's Sec. 5 outlook (and the border
// graph of Customizable Route Planning, Delling et al., SEA 2011), so one
// search covers every chain at once and no cap can drop one. Phase 1
// answers at most two keyhole hops per query, from the query constants to
// their fragments' border nodes, and reads each planned fragment's stored
// rows.
//
// This header is the *re-entrant execution core* shared by the single-query
// API (dsa/query_api.h) and the batch executor (dsa/batch.h): planning
// (one planner, PlanBatchInParallel — a single query is a batch of one),
// phase-1 fan-out, and per-query assembly are all free functions over
// immutable inputs, so any number of coordinator threads may run queries
// against the same fragmentation and complementary information
// concurrently.
#pragma once

#include <cstdint>
#include <span>
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

/// The shared front half of every query: at most two keyhole hops and the
/// border rows its overlay search may relax, each an index into the
/// batch's flat spec vector. B(f) is BorderNodes(f); an endpoint is
/// interior when it is not a border node.
struct QueryPlan {
  static constexpr size_t kNoSpec = static_cast<size_t>(-1);

  enum class Kind : uint8_t {
    /// No fragment chain joins the endpoints (a node without edges, an
    /// interior endpoint of a fragment without border nodes, or two
    /// components of the fragmentation graph): no subquery, no answer.
    kUnconnected,
    /// Both endpoints interior to one fragment f: `from_hop` is
    /// (f, {from}, {to}), exact on its own thanks to the shortcuts.
    kLocal,
    /// One search over the border overlay, seeded by `from_hop` (or at
    /// `from` itself) and closed by `to_hop` (or by `to` settling).
    kOverlay,
  };
  Kind kind = Kind::kUnconnected;
  /// (fa, {from}, B(fa)) when `from` is interior to fa; kNoSpec when it is
  /// a border node.
  size_t from_hop = kNoSpec;
  /// (fb, B(fb), {to}) when `to` is interior to fb; kNoSpec otherwise.
  size_t to_hop = kNoSpec;
  /// The rows specs (f, B(f), B(f)) of the fragments the search may
  /// cross, ascending, so ordered by fragment.
  std::vector<size_t> rows;
  /// Kept only for perfbench: always empty.
  std::vector<FragmentChain> chains;
};

/// A whole batch of endpoint pairs planned: one plan pointer per pair
/// (nullptr for trivial from == to pairs), the flat spec vector phase 1
/// consumes, and the sharing accounting. A single query is a batch of
/// one. Move-only, because `plans` points into `distinct`.
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
};

/// The one query planner, shared by DsaDatabase (single queries are
/// batches of one), BatchExecutor, SiteNetwork and BottleneckDsa. It sorts
/// and deduplicates the batch's non-trivial (from, to) pairs and plans
/// each distinct pair once (ranges of pairs in parallel on `pool` for a
/// batch of at least 256 distinct pairs):
///   - both endpoints interior to one fragment f: the hop (f, {from},
///     {to}) and nothing else;
///   - otherwise an overlay search: the hop (fa, {from}, B(fa)) when
///     `from` is interior to fa, the hop (fb, B(fb), {to}) when `to` is
///     interior to fb, and the rows (f, B(f), B(f)) of every fragment
///     with border nodes left of the endpoints' fragmentation-graph
///     component after repeatedly removing each fragment with at most one
///     neighbour that holds no endpoint — except fa and fb themselves,
///     whose hops already reach (or close from) each of their border nodes
///     at its global distance. A removed subtree hangs off a kept fragment
///     through one disconnection set, whose nodes all lie in the kept
///     fragment, so the kept fragment's shortcuts cover any detour into
///     it; on an acyclic fragmentation graph a query reads the fragments
///     of its one chain, one subquery each, as the chain did. Endpoints in
///     different components, or without edges, get a kUnconnected plan.
/// The hops and rows are deduplicated per fragment and emitted fragment
/// by fragment; the specs and every plan's indices depend only on the
/// pairs, never on the pool or its thread count. `max_chains` and
/// `chain_cache` are kept only for perfbench and read nowhere. Endpoints
/// must be in range (callers validate); from == to pairs yield a null
/// plan.
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
/// "sequence of binary joins", kept for PHE's three-hop chain.
Relation AssembleChain(const std::vector<const Relation*>& chain_results,
                       ExecutionReport* report);

/// Assembles the shortest-path cost answer from phase-1 results, where
/// `results[i]` answers `specs`' i-th subquery as RunLocalQuery returns it
/// (resident, canonically sorted). A kLocal plan reads its hop's one
/// tuple. A kOverlay plan runs one Dijkstra over the border nodes in
/// per-thread scratch: seeded with the `from` hop's tuples (or `from` at
/// cost 0), a settled node v offers v's `to`-hop tuple as a sink candidate
/// (or ends the search when v == `to`) and relaxes v's rows in every
/// planned fragment that holds v, found by binary search on `src`, except
/// the fragment whose row reached v (its predecessor relaxed that row
/// already, and global distances obey the triangle inequality); the
/// search stops once the least heap key is no better than the best
/// candidate. Exact: cut a shortest path at the border nodes it visits;
/// two consecutive ones share the fragment whose interior the segment
/// between them crosses, and that fragment's shortcut costs no more than
/// the segment (shortcuts hold global distances, footnote 3).
/// `assembly_join_tuples` counts the tuples the search combines. `from ==
/// to` must be short-circuited by the caller. Only reads shared state, so
/// concurrent assembly of different queries over one results vector is
/// safe.
QueryAnswer AssembleCostAnswer(const Fragmentation& frag,
                               const QueryPlan& plan,
                               const std::vector<LocalQuerySpec>& specs,
                               NodeId from, NodeId to,
                               const std::vector<LocalQueryResult>& results,
                               ExecutionReport* report);

/// Assembles the cost *and* the realizing route: AssembleCostAnswer's
/// search, keeping each settled border node's predecessor. The `from` and
/// `to` hops (and a kLocal plan's one hop) are re-expanded inside their
/// augmented fragment, and each border-to-border step of the search is
/// exactly the witness route of its shortcut; a shortcut without a witness
/// fails the query with kInvalidArgument. Same inputs and concurrency
/// contract as AssembleCostAnswer.
RouteAnswer AssembleRouteAnswer(const Fragmentation& frag,
                                const ComplementaryInfo& complementary,
                                const QueryPlan& plan,
                                const std::vector<LocalQuerySpec>& specs,
                                NodeId from, NodeId to,
                                const std::vector<LocalQueryResult>& results,
                                ExecutionReport* report);

/// The max-min counterpart of AssembleCostAnswer, for BottleneckDsa: the
/// same plan and the same search over the widest-capacity semiring, with
/// spec i's tuples in `tuples[i]` (sorted by (src, dst)). Returns the
/// widest capacity from `from` to `to`, 0 when they are not connected.
Weight AssembleWidestCapacity(const Fragmentation& frag,
                              const QueryPlan& plan,
                              const std::vector<LocalQuerySpec>& specs,
                              NodeId from, NodeId to,
                              std::span<const std::span<const PathTuple>> tuples,
                              ExecutionReport* report);

}  // namespace tcf
