// Chain finding in the fragmentation graph (Sec. 2.1): "for any two nodes
// in G there is only one chain of fragments G_i such that the first one
// includes the first node [...]" — when the fragmentation is loosely
// connected. "If the fragmentation is not loosely connected, it is required
// to consider all possible chains of fragments independently."
//
// On top of raw chain enumeration this header defines the *plan skeleton*:
// a fragment pair's chains fully expanded into per-hop subquery templates
// (fragment + keyhole selections, pre-sorted for interning). A skeleton
// depends only on the fragmentation — not on the query constants — so the
// ChainPlanCache keeps whole skeletons resident and a query is planned by
// stamping its two endpoints into the cached skeletons of its endpoint
// fragments (PlanBatchInParallel in dsa/executor.h), skipping both chain
// enumeration and disconnection-set expansion on every hot fragment pair.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fragment/fragmentation.h"
#include "util/lru_cache.h"

namespace tcf {

/// Hash for PairKey-encoded (from, to) keys in sharded plan memos.
/// std::hash<uint64_t> is the identity on the common standard libraries,
/// which would shard a memo by `to % num_shards` — a
/// hub-destination batch would then serialize all planning on one shard
/// mutex. Finalize with a full-avalanche mix (splitmix64) instead.
struct PairKeyHash {
  size_t operator()(uint64_t key) const {
    key += 0x9e3779b97f4a7c15ull;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(key ^ (key >> 31));
  }
};

using FragmentChain = std::vector<FragmentId>;

/// Default cap on enumerated chains per fragment pair — the single source
/// of truth shared by DsaOptions::max_chains and the SiteNetwork
/// coordinator planner (which must plan with the same cap to produce the
/// same chain sets).
inline constexpr size_t kDefaultMaxChains = 64;

/// All simple paths from fragment `from` to fragment `to` in the
/// fragmentation graph, shortest first, capped at `max_chains` (the paper's
/// Parallel Hierarchical Evaluation exists because this can blow up).
/// `from == to` yields the single trivial chain {from}.
std::vector<FragmentChain> FindChains(const Fragmentation& frag,
                                      FragmentId from, FragmentId to,
                                      size_t max_chains = 64);

/// One hop of a plan skeleton: the fragment plus its keyhole selections,
/// already sorted the way subquery interning wants them. An endpoint hop
/// (first / last of a chain) has no fixed selection — the planner
/// substitutes the query constant — so its side is flagged and left empty.
struct HopTemplate {
  FragmentId fragment = 0;
  std::vector<NodeId> sources;  // sorted DS nodes; empty when endpoint
  std::vector<NodeId> targets;
  bool source_is_endpoint = false;
  bool target_is_endpoint = false;
};

/// A fragment pair's fully expanded plan: every chain with its per-hop
/// subquery templates. Pure fragmentation metadata — the unit the
/// ChainPlanCache stores.
struct PlanSkeleton {
  std::vector<FragmentChain> chains;           // FindChains order
  std::vector<std::vector<HopTemplate>> hops;  // parallel to chains
};

/// Expands FindChains(frag, from, to) into a skeleton: each chain hop gets
/// its disconnection-set selections resolved and sorted once.
PlanSkeleton BuildPlanSkeleton(const Fragmentation& frag, FragmentId from,
                               FragmentId to, size_t max_chains);

/// A thread-safe LRU cache of plan skeletons keyed by (from, to) fragment
/// pair. Skeletons are pure fragmentation-graph work — they depend on
/// neither the query constants nor the data — so every query between the
/// same endpoint fragments reuses one expansion. With F fragments there are
/// at most F^2 keys, so a modest capacity usually caches the whole
/// fragmentation graph; the LRU bound matters for large F (sharded
/// deployments) and keeps hot pairs resident.
///
/// One cache serves one (Fragmentation, max_chains) combination — and,
/// under live updates, one *maintenance epoch* of it. Epoch invalidation
/// is by version succession, never in place: each cache instance is
/// stamped with the epoch it serves, and a maintenance epoch builds the
/// next version with NextEpoch(), carrying over exactly the entries the
/// new fragmentation cannot have changed. The old instance keeps serving
/// in-flight queries pinned to the old snapshot unmodified — neither
/// epoch's readers can observe (or poison) the other's entries. All
/// methods may be called concurrently.
class ChainPlanCache {
 public:
  /// `capacity` bounds the number of resident skeletons (fragment-pair
  /// keys).
  explicit ChainPlanCache(size_t capacity = 4096);

  /// The plan skeleton for `from` -> `to`, computed via BuildPlanSkeleton
  /// on a miss. `was_hit_out`, if non-null, reports whether this lookup was
  /// a cache hit (used for per-batch accounting on top of the cumulative
  /// Stats()).
  std::shared_ptr<const PlanSkeleton> SkeletonFor(const Fragmentation& frag,
                                                  FragmentId from,
                                                  FragmentId to,
                                                  size_t max_chains,
                                                  bool* was_hit_out = nullptr);

  /// Carry-over accounting of one NextEpoch() call, for the maintenance
  /// meters and the cache-invalidation-precision tests.
  struct EpochCarry {
    std::unique_ptr<ChainPlanCache> cache;
    size_t skeletons_kept = 0;
    size_t skeletons_dropped = 0;
  };

  /// Builds this cache's successor version for the epoch `new_epoch`
  /// snapshot. `dirty_fragment[f]` marks fragments whose node set changed
  /// this epoch; a skeleton survives iff none of its chains touches a
  /// dirty fragment. The rule is exact under the caller's precondition
  /// that the epoch kept fragment ids and the fragmentation-graph
  /// adjacency intact (chains are paths in the adjacency graph, so no
  /// *new* chain can appear outside dirty fragments; a changed
  /// disconnection set always has a dirty endpoint fragment, and both
  /// endpoints of every DS crossing are on the chain). When adjacency or
  /// the fragment count changed, start cold instead (fresh
  /// ChainPlanCache). Recency and capacity carry over; counters start at
  /// zero — the new version's hit rates are its own.
  EpochCarry NextEpoch(const std::vector<bool>& dirty_fragment,
                       uint64_t new_epoch) const;

  /// The maintenance epoch this cache version serves (0 for a fresh
  /// database).
  uint64_t epoch() const { return epoch_; }

  /// Cumulative skeleton-cache counters and resident entry count.
  LruCacheStats Stats() const { return cache_.Stats(); }
  size_t capacity() const { return cache_.capacity(); }

 private:
  uint64_t epoch_ = 0;
  LruCache<uint64_t, PlanSkeleton> cache_;
};

}  // namespace tcf
