// The public query interface of the disconnection set approach: a
// DsaDatabase wraps a fragmentation, precomputes the complementary
// information once (the paper's amortized pre-processing), and answers
// connection and shortest-path queries by
//   1. locating the fragments of the two query constants,
//   2. finding the chain(s) of fragments connecting them (served from a
//      thread-safe LRU plan cache — chain enumeration is pure
//      fragmentation-graph work, so hot fragment pairs are enumerated once),
//   3. running one independent subquery per fragment on the chain(s), in
//      parallel, with the disconnection sets as keyhole selections,
//   4. assembling the per-fragment answers: the min-plus fold of the
//      paper's small binary joins, one frontier sweep per chain.
//
// A single query is a batch of one: ShortestPath and ShortestRoute run
// through BatchExecutor (dsa/batch.h), the same planner and pipeline that
// answers *many* queries at once, sharing subqueries across queries as
// well as across chains.
#pragma once

#include <memory>
#include <optional>

#include "dsa/chains.h"
#include "dsa/executor.h"

namespace tcf {

struct DsaOptions {
  LocalEngine engine = LocalEngine::kDijkstra;
  /// Threads for phase 1; 0 = one per fragment.
  size_t num_threads = 0;
  /// Cap on enumerated chains when the fragmentation graph has cycles.
  size_t max_chains = kDefaultMaxChains;
  /// Ablation switch: evaluate without the complementary information
  /// (answers may then be over-estimates; see EXPERIMENTS.md).
  bool use_complementary = true;
};

/// State a maintenance epoch hands from the outgoing DsaDatabase to its
/// successor, so the successor does not pay full pre-processing again:
/// refreshed complementary info, an epoch-filtered plan cache, and the
/// shared phase-1 worker pool (threads survive epochs; only the data
/// around them is republished).
struct EpochCarryover {
  ComplementaryInfo complementary;
  std::unique_ptr<ChainPlanCache> plan_cache;
  std::shared_ptr<ThreadPool> pool;
  uint64_t epoch = 0;
};

/// A fragmented database ready to answer transitive-closure queries.
///
/// Thread-safety contract: after construction, all query methods are
/// re-entrant and safe to call concurrently from any number of threads.
/// Every query runs its phase-1 subqueries on the one pool owned by the
/// database (sized by DsaOptions::num_threads), and the chain-plan cache is
/// internally synchronized. The fragmentation must stay immutable while
/// queries run (it always is — Fragmentation is immutable by construction).
/// A DsaDatabase never mutates after construction; updates are modeled by
/// building a successor database (see dsa/maintenance.h).
class DsaDatabase {
 public:
  /// `frag` must outlive the database. Precomputes complementary info.
  DsaDatabase(const Fragmentation* frag, DsaOptions options = {});

  /// Epoch-successor constructor: adopts the carryover instead of
  /// recomputing from scratch. `carry.complementary` must already be
  /// consistent with `frag` (RefreshComplementary or a full recompute);
  /// `carry.plan_cache` may be null to start cold; a null `carry.pool`
  /// builds a fresh pool.
  DsaDatabase(const Fragmentation* frag, DsaOptions options,
              EpochCarryover carry);

  const Fragmentation& fragmentation() const { return *frag_; }
  const ComplementaryInfo& complementary() const { return complementary_; }
  const DsaOptions& options() const { return options_; }

  /// Shortest-path cost between two nodes; kInfinity when unconnected.
  /// Adds the execution breakdown to `report` (if given), so one report
  /// can accumulate several queries.
  QueryAnswer ShortestPath(NodeId from, NodeId to,
                           ExecutionReport* report = nullptr) const;

  /// Shortest path *with the realizing route* ("What is the cost of the
  /// shortest path between A and B?" needs the path itself in practice).
  /// The per-fragment answers are assembled exactly as in ShortestPath;
  /// the winning chain's relay nodes are then back-tracked and each leg is
  /// re-expanded inside its fragment, with shortcut hops replaced by their
  /// precomputed witness routes. Requires complementary information.
  RouteAnswer ShortestRoute(NodeId from, NodeId to,
                            ExecutionReport* report = nullptr) const;

  /// Reachability ("Is A connected to B?").
  bool IsConnected(NodeId from, NodeId to,
                   ExecutionReport* report = nullptr) const;

  /// The shared chain-plan cache (never null). Exposed for cache-hit-rate
  /// reporting in benches and tests.
  const ChainPlanCache* plan_cache() const { return plan_cache_.get(); }

  /// The phase-1 pool shared by all queries against this database. The
  /// batch executor schedules its deduplicated subqueries here too, so
  /// single and batched queries draw from one set of site workers.
  ThreadPool* pool() const { return pool_.get(); }

  /// The pool as a shareable handle, for carrying it into the successor
  /// database of a maintenance epoch.
  std::shared_ptr<ThreadPool> SharePool() const { return pool_; }

  /// The maintenance epoch this database was published under (0 for a
  /// freshly built database). Batch results are stamped with it so
  /// concurrent readers can tell which snapshot answered them.
  uint64_t epoch() const { return epoch_; }

 private:
  friend class BatchExecutor;

  const Fragmentation* frag_;
  DsaOptions options_;
  uint64_t epoch_ = 0;
  ComplementaryInfo complementary_;
  mutable std::shared_ptr<ThreadPool> pool_;
  mutable std::unique_ptr<ChainPlanCache> plan_cache_;
};

}  // namespace tcf
