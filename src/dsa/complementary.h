// Complementary information of the disconnection set approach (Sec. 2.1):
// "it is required to store in addition some complementary information about
// the identity of border cities and the properties of their connections...
// for the shortest path problem it is required to precompute the shortest
// path among any two cities on the border between two fragments.
// Complementary information about DS_ij is stored at both sites storing the
// fragments R_i and R_j."
//
// Concretely we precompute, for every fragment f, the *global* shortest
// distance between every ordered pair of border nodes of f, stored as a
// small shortcut relation at site f. Footnote 3 of the paper is why these
// are global: "the shortest path might include nodes outside the chain,
// however, their contribution is precomputed in the complementary
// information." Evaluating a fragment's subquery on the fragment *augmented
// with its shortcut relation* makes chain evaluation exact (tests verify
// against a whole-graph Dijkstra oracle).
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "fragment/fragmentation.h"
#include "relational/relation.h"

namespace tcf {

/// One border node x's witness routes: for each co-border y (a border node
/// of a fragment that contains x, other than x) at a finite distance, the
/// global node sequence x..y that realizes d*(x, y). Routes are stored
/// flat: the route to targets[i] is nodes[offsets[i], offsets[i + 1]).
struct WitnessRow {
  std::vector<NodeId> targets;    // strictly increasing
  std::vector<size_t> offsets{0};
  std::vector<NodeId> nodes;

  size_t size() const { return targets.size(); }
  std::span<const NodeId> Route(size_t i) const {
    return {nodes.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  /// Appends the route to route.back(), which must exceed every target
  /// already in the row.
  void Append(std::span<const NodeId> route);
};

/// Witness rows by source border node.
using WitnessMap = std::map<NodeId, std::shared_ptr<const WitnessRow>>;

/// Precomputed shortcut relations, one per fragment.
struct ComplementaryInfo {
  /// shortcuts[f]: tuples (x, y, d*(x, y)) for border nodes x != y of
  /// fragment f with finite global shortest distance, sorted by (x, y)
  /// with no pair repeated. Every builder sorts, the file reader rejects
  /// any other order, and the overlay search binary-searches the rows by
  /// x (dsa/executor.h).
  std::vector<Relation> shortcuts;

  /// Witness routes for the shortcut tuples, one immutable row per source
  /// border node (none for a source without routes). The shortcut between
  /// two border nodes is the same in every fragment that holds it, so one
  /// route serves them all. Route reconstruction expands shortcut hops
  /// back into real edges through them ("the properties of their
  /// connections", Sec. 2.1). An epoch that leaves a source clean shares
  /// its row with the old snapshot rather than copying it (see
  /// RefreshComplementary).
  WitnessMap witness;

  /// The witness route x..y; empty when there is none.
  std::span<const NodeId> Witness(NodeId x, NodeId y) const;

  /// Total stored tuples — the paper's pre-processing cost that "may be
  /// amortized over many queries".
  size_t total_tuples = 0;
  /// Number of single-source searches performed to build the information.
  size_t searches = 0;

  const Relation& ForFragment(FragmentId f) const {
    TCF_CHECK(f < shortcuts.size());
    return shortcuts[f];
  }
};

/// Builds the complementary information with one whole-graph Dijkstra per
/// distinct border node. For pure reachability workloads the same structure
/// is used (a tuple's presence encodes reachability; its cost is the
/// distance witness).
ComplementaryInfo PrecomputeComplementary(const Fragmentation& frag);

/// One maintenance epoch's weight-level delta, classified by how it can
/// move global shortest distances:
///   - `relaxed`: edges inserted or re-weighted DOWN (new weight) — these
///     can only create shorter paths;
///   - `tightened`: ordered endpoint pairs whose edges were deleted or
///     re-weighted UP — these can only break paths that used them.
struct ComplementaryDelta {
  std::vector<Edge> relaxed;
  std::vector<std::pair<NodeId, NodeId>> tightened;
};

/// RefreshComplementary's result: the refreshed info plus the incremental
/// accounting (how much of the paper's pre-processing cost the epoch
/// actually paid versus reused).
struct ComplementaryRefresh {
  ComplementaryInfo info;
  size_t dirty_border_nodes = 0;   // whole-graph searches re-run
  size_t reused_border_nodes = 0;  // border nodes whose tuples carried over
  size_t dirty_fragments = 0;      // shortcut relations rebuilt
  size_t reused_fragments = 0;     // shortcut relations kept by handle
  /// OK when the incremental path ran; set to the storage error that
  /// forced a full recompute when reading the old (paged) shortcut
  /// relations failed. The refreshed info is exact either way.
  Status fallback_cause = Status::OK();
};

/// Incrementally refreshes `old` for the post-epoch fragmentation `frag`,
/// re-running the whole-graph search of exactly the border nodes whose
/// shortcut tuples can have changed. A border node x is dirty iff
///   - its fragment's border-node set changed (its tuple *schema* moved),
///   - a stored witness route from x traverses a tightened edge (a path
///     that avoids every tightened edge keeps its old cost, so an
///     untouched witness proves x's distances cannot have grown), or
///   - some relaxed edge (u, v, w) improves a pair: two auxiliary searches
///     per relaxed edge give the exact new-graph distances d(·, u) and
///     d(v, ·), and d(x,u) + w + d(v,y) < old d(x,y) for a co-border y
///     (any genuinely shorter new path decomposes at its last modified
///     edge, so the probe cannot miss an improvement).
/// Fragments with no dirty border and an unchanged border set keep their
/// shortcut relation by handle, unread. A clean source keeps its witness
/// row by pointer, or a copy filtered to its current co-borders when it
/// left a fragment. Exact — tests hold the result to the full-recompute
/// oracle. Requires `frag` and `old_frag` to have the same fragment count
/// with aligned ids (the caller falls back to PrecomputeComplementary
/// when compaction renumbered fragments).
ComplementaryRefresh RefreshComplementary(const Fragmentation& frag,
                                          const Fragmentation& old_frag,
                                          const ComplementaryInfo& old,
                                          const ComplementaryDelta& delta);

}  // namespace tcf
