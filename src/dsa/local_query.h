// Phase 1 of the disconnection set approach: one site's subqueries. "Each
// subquery determines a shortest path per fragment; note that disconnection
// sets introduce additional selections in the processing of the recursive
// query, they act as intermediate nodes that must be mandatorily
// traversed." (Sec. 2.1)
//
// A local query computes best paths from a source node set (the query
// constant or the incoming disconnection set) to a target node set (the
// outgoing disconnection set or the query constant), within one fragment
// augmented by its complementary shortcut relation.
//
// Two engines:
//   - the relational engines evaluate the recursive query with the
//     transitive-closure strategies of src/relational/ (faithful to the
//     paper's database setting, with full workload statistics);
//   - the Dijkstra engine runs graph search on the augmented fragment
//     (the "any suitable single-processor algorithm may be chosen" remark).
//     Its cost is O(fragment), not O(graph). Like a site of Sec. 2.1, it
//     answers a group of one fragment's subqueries at a time, and a group
//     streams the fragment's shortcut relation once, into a per-thread
//     overlay CSR in local ids, resident and paged stores alike. The
//     decoded tuples live in per-thread scratch for one group only and
//     nothing is cached outside the buffer pool, so a paged database's
//     memory budget is unchanged. With complementary info, a subquery
//     whose sources and targets (those inside the fragment) are all border
//     nodes needs no search: the shortcut relation already holds d*(x, y)
//     for every border pair, and no path of the augmented fragment is
//     shorter, so the answer is its sources' overlay rows restricted to
//     its targets. When both sides are all of the fragment's border nodes
//     (the planner's rows subquery) the answer is the stored relation
//     itself, taken as it streams, in its stored (src, dst) order. Every other subquery searches the fragment's LocalGraph
//     (Fragmentation::LocalGraphOf, dense local ids, built once per
//     snapshot) plus the overlay, from the smaller keyhole side: forward
//     from each source, or backward from each target when there are fewer
//     targets than sources (the reverse overlay is built only when a
//     backward search needs it). The group runs one search per distinct
//     (direction, origin), which stops as soon as the union of its
//     subqueries' far sides is settled, and each subquery reads its own
//     far side off it. A longer Dijkstra run pops the same prefix of
//     nodes, so every answer is bit-identical to a group of one. A failed
//     stream fails exactly the group's subqueries that needed the
//     relation. Distance, heap and overlay arrays are per-thread scratch
//     sized to the largest fragment the thread has searched; global ids
//     become local through a per-thread map with one entry per graph node,
//     of which a group writes only its fragment's.
#pragma once

#include <span>

#include "dsa/complementary.h"
#include "fragment/fragmentation.h"
#include "relational/transitive_closure.h"

namespace tcf {

enum class LocalEngine {
  kSemiNaive,  // relational semi-naive iteration
  kSmart,      // relational logarithmic squaring
  kDijkstra    // graph search on the augmented fragment
};

struct LocalQuerySpec {
  FragmentId fragment = 0;
  NodeSet sources;
  NodeSet targets;
};

struct LocalQueryResult {
  /// Best (src, dst, cost) per source-target pair, canonically sorted,
  /// including zero-cost self-tuples for nodes in sources ∩ targets —
  /// except the Dijkstra engine's stored-rows answer, which is the
  /// shortcut relation as stored (sorted by (src, dst), no self-tuples).
  Relation paths;
  /// Workload statistics. The relational engines fill them all; Dijkstra
  /// fills only `iterations`, with the number of nodes its searches
  /// settled before they stopped (summed over its searches; 0 for a
  /// border-to-border subquery answered from the shortcut relation; in a
  /// group, a search several subqueries share counts once, on the first
  /// of them), and `result_size`.
  TcStats stats;
  /// OK unless streaming the shortcut relation failed: kIOError for an
  /// unreadable (paged) page, kInvalidArgument for a tuple joining a node
  /// outside the fragment. On failure `paths` is empty and the query
  /// using this result must fail too.
  Status status = Status::OK();
};

/// Runs one local query. If `complementary` is null the fragment is *not*
/// augmented — the ablation showing why footnote 3's precomputation is
/// needed for correctness. Sources and targets outside the fragment reach
/// nothing in it; the only tuple they can yield is the zero-cost
/// pass-through of a node that is both a source and a target.
LocalQueryResult RunLocalQuery(const Fragmentation& frag,
                               const ComplementaryInfo* complementary,
                               const LocalQuerySpec& spec,
                               LocalEngine engine = LocalEngine::kDijkstra);

/// True when the Dijkstra engine searches `spec` backward, from its
/// targets: it has fewer targets than sources.
inline bool SearchesBackward(const LocalQuerySpec& spec) {
  return spec.targets.size() < spec.sources.size();
}

/// The Dijkstra engine on a group of subqueries of one fragment:
/// `results[k]` answers `*specs[k]` exactly as RunLocalQuery would, with
/// one stream of the shortcut relation and one search per distinct
/// (direction, origin) for the whole group. RunLocalQuery with
/// LocalEngine::kDijkstra is this on a group of one.
void RunLocalQueryGroup(const Fragmentation& frag,
                        const ComplementaryInfo* complementary,
                        std::span<const LocalQuerySpec* const> specs,
                        std::span<LocalQueryResult> results);

/// The fragment as a standalone graph over the global node-id space,
/// augmented with the fragment's shortcut relation — for route
/// re-expansion and the widest-path pipeline, which need edge ids; the
/// Dijkstra engine searches the fragment's LocalGraph instead. Edge ids
/// below `*num_real_edges_out` (if non-null) are fragment edges, in
/// FragmentEdges order; ids at or above it are shortcut edges — route
/// reconstruction uses this split to know which hops must be expanded via
/// the complementary witnesses. Fails (instead of returning a partial
/// graph) when the shortcut relation is paged and its pages cannot be
/// read.
Result<Graph> BuildAugmentedFragment(const Fragmentation& frag,
                                     const ComplementaryInfo* complementary,
                                     FragmentId fragment,
                                     size_t* num_real_edges_out = nullptr);

}  // namespace tcf
