// Update handling for a fragmented database — the disadvantage Sec. 2.1
// names explicitly: "The disadvantage of the disconnection set approach is
// mainly due to the pre-processing required for building the complementary
// information and to the careful treatment of updates. ... As long as
// updates are not too frequent, the pre-processing costs may be amortized
// over many queries."
//
// MaintainedDatabase owns the authoritative mutable relation and publishes
// it to readers as immutable *epoch snapshots*: every maintenance epoch
// builds a fresh (Graph, Fragmentation, DsaDatabase) triple and atomically
// swaps it in; queries in flight keep the snapshot they pinned, so updates
// never block reads and reads never observe a half-applied epoch.
//
// Epoch cost model. An epoch batches any mix of edge inserts, deletes and
// re-weights, then pays for what actually changed:
//
//   - *complementary refresh* — shortcut relations are refreshed
//     incrementally (RefreshComplementary): only border nodes whose
//     global distances can have moved are re-searched. A clean
//     fragment's relation and a clean border node's witness row are
//     shared with the old snapshot, not copied. A full recompute happens
//     only when compaction renumbered fragments.
//   - *graph and fragmentation* — an epoch that inserted and deleted
//     nothing keeps the edge list: it patches the old graph's weights and
//     copies the old fragmentation. An insert or delete epoch rebuilds
//     both from the staged edges, re-deriving node sets, disconnection
//     sets and the fragmentation graph. The legacy meters
//     (complementary_refreshes / structural_rebuilds) keep their original
//     conservative per-update semantics — a deletion that removed edges
//     always counts as structural — while EpochStats reports the exact
//     post-hoc dirty and reuse counts.
//   - *plan-cache succession* — the successor database inherits every
//     chain skeleton that provably cannot have changed (no chain through a
//     dirty fragment); skeletons are invalidated by version succession,
//     never in place, so carry-over is bounded by fragment pairs, not by
//     read traffic. If the fragmentation-graph adjacency (the
//     disconnection-set pair set) changed, or fragments were renumbered,
//     the successor starts cold.
//
// Thread-safety contract:
//   - Snapshot() and the meter accessors are safe from ANY thread at any
//     time.
//   - ApplyEpoch() (and the legacy InsertEdge/DeleteEdge/ReweightEdge
//     wrappers, which are single-op epochs) may be called from any thread;
//     calls are internally serialized — callers need no external lock.
//   - graph()/fragmentation()/db() return references INTO THE CURRENT
//     snapshot and are only stable until the next published epoch; they
//     exist for single-threaded callers (tests, benches). Concurrent
//     readers must pin a Snapshot() and use that.
//   - Under a QueryService (MaintainedBackend), this contract is what the
//     parallel flush pool leans on: the service's dedicated update-applier
//     thread calls ApplyEpoch() while several flush workers concurrently
//     pin Snapshot()s for their micro-batches — each batch pins its
//     snapshot AFTER popping its queries, which is what makes an epoch a
//     barrier for queries admitted after the update future resolved.
#pragma once

#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "dsa/query_api.h"

namespace tcf {

/// One edge-level update, the unit batched into a maintenance epoch.
struct EdgeUpdate {
  enum class Kind { kInsert, kDelete, kReweight };

  Kind kind = Kind::kInsert;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  /// Insert weight / reweight's new weight; ignored for deletes.
  Weight weight = 1.0;
  /// Insert only: fragment override (default: the maintained database's
  /// placement rule, see MaintainedDatabase::InsertEdge).
  std::optional<FragmentId> target;

  static EdgeUpdate Insert(NodeId src, NodeId dst, Weight weight,
                           std::optional<FragmentId> target = std::nullopt) {
    return EdgeUpdate{Kind::kInsert, src, dst, weight, target};
  }
  static EdgeUpdate Delete(NodeId src, NodeId dst) {
    return EdgeUpdate{Kind::kDelete, src, dst, 0.0, std::nullopt};
  }
  static EdgeUpdate Reweight(NodeId src, NodeId dst, Weight new_weight) {
    return EdgeUpdate{Kind::kReweight, src, dst, new_weight, std::nullopt};
  }

  /// Inserts and reweights need a finite, non-negative weight — the rule
  /// OpenDatabase applies to stored weights; deletes carry none.
  bool HasValidWeight() const {
    return kind == Kind::kDelete || (std::isfinite(weight) && weight >= 0.0);
  }
};

/// One published epoch: an immutable (graph, fragmentation, database)
/// triple. The shared_ptrs chain ownership (the fragmentation keeps its
/// graph alive, the database keeps its fragmentation alive), so any member
/// copied out of the snapshot remains valid on its own.
struct DsaSnapshot {
  uint64_t epoch = 0;
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const Fragmentation> frag;
  std::shared_ptr<const DsaDatabase> db;
};

/// What one ApplyEpoch call did and what it cost.
struct EpochStats {
  uint64_t epoch = 0;        // epoch id if published, else the current one
  bool published = false;    // false when every op was a no-op
  bool structural = false;   // counted on the legacy structural meter
  bool renumbered = false;   // compaction changed fragment ids (full redo)
  bool caches_reset = false;  // successor plan caches started cold

  size_t ops_applied = 0;  // ops with an effect (no-ops are skipped)
  size_t edges_inserted = 0;
  size_t edges_removed = 0;
  size_t edges_reweighted = 0;

  // Exact incremental-complementary accounting (RefreshComplementary).
  size_t complementary_searches = 0;
  size_t dirty_border_nodes = 0;
  size_t reused_border_nodes = 0;
  size_t dirty_fragments = 0;
  size_t reused_fragments = 0;
  // OK, or the storage error that made the refresh recompute every
  // shortcut relation because the old epoch's paged ones could not be
  // read. The refreshed info is exact either way.
  Status complementary_fallback = Status::OK();

  // Plan-cache succession accounting (ChainPlanCache::NextEpoch).
  size_t skeletons_kept = 0;
  size_t skeletons_dropped = 0;
  size_t plans_kept = 0;     // kept only for perfbench: always 0
  size_t plans_dropped = 0;  // kept only for perfbench: always 0
};

class MaintainedDatabase {
 public:
  /// Takes ownership of a materialized relation (as a graph) and its
  /// edge -> fragment assignment. Publishes epoch 0.
  MaintainedDatabase(Graph graph, std::vector<FragmentId> fragment_of_edge,
                     size_t num_fragments, DsaOptions options = {});

  /// Builds from an existing fragmentation (copies the graph).
  static MaintainedDatabase FromFragmentation(const Fragmentation& frag,
                                              DsaOptions options = {});

  /// Adopts a prebuilt snapshot — e.g. one reopened from disk via
  /// storage/database_io.h — publishing it as-is (no refragmentation, no
  /// complementary recompute) and resuming updates at snapshot.epoch + 1.
  /// The snapshot must be internally consistent (its db built on its frag
  /// built on its graph), which OpenDatabase guarantees.
  MaintainedDatabase(DsaSnapshot snapshot, DsaOptions options = {});

  MaintainedDatabase(const MaintainedDatabase&) = delete;
  MaintainedDatabase& operator=(const MaintainedDatabase&) = delete;

  /// Pins the current epoch. Safe from any thread; the returned snapshot
  /// stays valid (and immutable) for as long as the caller holds it, no
  /// matter how many epochs are published meanwhile.
  DsaSnapshot Snapshot() const;

  /// Current epoch id (the one Snapshot() would return right now).
  uint64_t epoch() const;

  /// Applies `updates` in order as ONE maintenance epoch and publishes the
  /// successor snapshot (unless every op was a no-op, in which case nothing
  /// is published and `published` is false). Serialized internally; safe
  /// from any thread. Node ids must exist, and insert and reweight weights
  /// must be finite and non-negative (both checked).
  EpochStats ApplyEpoch(const std::vector<EdgeUpdate>& updates);

  // Legacy single-op epochs --------------------------------------------

  /// Inserts one edge tuple. By default it joins the fragment that already
  /// contains both endpoints, else the (smallest) fragment containing one
  /// endpoint, else the smallest fragment overall; `target` overrides.
  void InsertEdge(NodeId src, NodeId dst, Weight weight,
                  std::optional<FragmentId> target = std::nullopt);

  /// Deletes every tuple (src, dst); returns how many were removed.
  size_t DeleteEdge(NodeId src, NodeId dst);

  /// Changes the weight of every (src, dst) tuple; returns how many
  /// changed. A pure re-weight never changes fragment node sets, so it
  /// costs a complementary refresh only.
  size_t ReweightEdge(NodeId src, NodeId dst, Weight new_weight);

  // Current-snapshot accessors (see thread-safety contract above) ------

  const Graph& graph() const { return *snapshot_.graph; }
  const Fragmentation& fragmentation() const { return *snapshot_.frag; }
  const DsaDatabase& db() const { return *snapshot_.db; }

  /// Maintenance cost meters (legacy conservative semantics; cumulative
  /// over all published epochs).
  size_t complementary_refreshes() const {
    return refreshes_.load(std::memory_order_relaxed);
  }
  size_t structural_rebuilds() const {
    return rebuilds_.load(std::memory_order_relaxed);
  }

 private:
  FragmentId PickFragment(const Fragmentation& frag, NodeId src,
                          NodeId dst) const;
  void PublishInitial();

  DsaOptions options_;

  // Authoritative staged state; guarded by update_mutex_. Between epochs
  // edges_[i] is the published graph's edge i, which reweight-only
  // epochs rely on to patch that graph by edge id.
  std::vector<Edge> edges_;
  std::vector<Point> coords_;  // empty when the graph has no coordinates
  size_t num_nodes_ = 0;
  std::vector<FragmentId> fragment_of_edge_;
  size_t num_fragments_ = 0;
  uint64_t next_epoch_ = 1;
  std::mutex update_mutex_;

  // Published snapshot; pointer swap guarded by snapshot_mutex_.
  mutable std::mutex snapshot_mutex_;
  DsaSnapshot snapshot_;

  std::atomic<size_t> refreshes_{0};
  std::atomic<size_t> rebuilds_{0};
};

}  // namespace tcf
