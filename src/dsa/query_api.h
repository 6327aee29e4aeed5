// The public query interface of the disconnection set approach: a
// DsaDatabase wraps a fragmentation, precomputes the complementary
// information once (the paper's amortized pre-processing), and answers
// connection and shortest-path queries by
//   1. locating the fragments of the two query constants,
//   2. planning at most two keyhole hops — from an interior `from` to its
//      fragment's border nodes, and from an interior `to`'s fragment's
//      border nodes to `to` — plus the stored border rows of the
//      fragments a path between them may cross (one hop, and no rows,
//      when both constants are interior to one fragment),
//   3. running those subqueries in parallel, each inside its fragment
//      augmented by its shortcut relation, and reading the rows,
//   4. assembling the answer with one search over the border overlay:
//      the border nodes joined by the rows, which hold global
//      border-to-border distances, so the search covers every chain of
//      fragments at once (see dsa/executor.h).
//
// A single query is a batch of one: ShortestPath and ShortestRoute run
// through BatchExecutor (dsa/batch.h), the same planner and pipeline that
// answers *many* queries at once, sharing subqueries across queries.
#pragma once

#include <memory>
#include <optional>

#include "dsa/executor.h"

namespace tcf {

struct DsaOptions {
  LocalEngine engine = LocalEngine::kDijkstra;
  /// Threads for phase 1; 0 = one per fragment.
  size_t num_threads = 0;
  /// Kept only for perfbench: read nowhere.
  size_t max_chains = 64;
  /// Ablation switch: evaluate without the complementary information
  /// (answers may then be over-estimates; see EXPERIMENTS.md).
  bool use_complementary = true;
};

/// State a maintenance epoch hands from the outgoing DsaDatabase to its
/// successor, so the successor does not pay full pre-processing again:
/// refreshed complementary info and the shared phase-1 worker pool
/// (threads survive epochs; only the data around them is republished).
struct EpochCarryover {
  ComplementaryInfo complementary;
  std::shared_ptr<ThreadPool> pool;
  uint64_t epoch = 0;
};

/// A fragmented database ready to answer transitive-closure queries.
///
/// Thread-safety contract: after construction, all query methods are
/// re-entrant and safe to call concurrently from any number of threads.
/// Every query runs its phase-1 subqueries on the one pool owned by the
/// database (sized by DsaOptions::num_threads). The fragmentation must
/// stay immutable while
/// queries run (it always is — Fragmentation is immutable by construction).
/// A DsaDatabase never mutates after construction; updates are modeled by
/// building a successor database (see dsa/maintenance.h).
class DsaDatabase {
 public:
  /// `frag` must outlive the database. Precomputes complementary info.
  DsaDatabase(const Fragmentation* frag, DsaOptions options = {});

  /// Epoch-successor constructor: adopts the carryover instead of
  /// recomputing from scratch. `carry.complementary` must already be
  /// consistent with `frag` (RefreshComplementary or a full recompute); a
  /// null `carry.pool` builds a fresh pool.
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
  /// The overlay search runs exactly as in ShortestPath, keeping each
  /// border node's predecessor; the hops are re-expanded inside their
  /// fragments and each border-to-border step becomes its shortcut's
  /// precomputed witness route. Requires complementary information.
  RouteAnswer ShortestRoute(NodeId from, NodeId to,
                            ExecutionReport* report = nullptr) const;

  /// Reachability ("Is A connected to B?").
  bool IsConnected(NodeId from, NodeId to,
                   ExecutionReport* report = nullptr) const;

  /// Kept only for perfbench: always null.
  const ChainPlanCache* plan_cache() const { return nullptr; }

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
};

}  // namespace tcf
