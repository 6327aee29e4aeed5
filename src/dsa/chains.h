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
// stamping its two endpoints into a cached skeleton, skipping both chain
// enumeration and disconnection-set expansion on every hot fragment pair.
//
// One level up sits the *interned plan* (InternedPlan): a (from, to) NODE
// pair's whole plan — its deduplicated chains, each referring back into
// the skeletons it came from by skeleton-relative (skeleton, chain) refs.
// Those refs are pure fragmentation metadata plus the two query constants;
// they name no spec-table slots, so they outlive any batch's spec-table
// sealing. The ChainPlanCache keeps interned plans resident across batch
// boundaries: a later batch (a single query is a batch of one) that
// repeats a hot (from, to) pair skips endpoint-fragment location, skeleton
// lookups, and chain deduplication outright, and only re-stamps the hop
// templates into its own spec table (PlanBatchInParallel in
// dsa/executor.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fragment/fragmentation.h"
#include "util/lru_cache.h"

namespace tcf {

/// Hash for PairKey-encoded (from, to) keys in plan caches and sharded
/// plan memos. std::hash<uint64_t> is the identity on the common standard
/// libraries, which would shard a memo by `to % num_shards` — a
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
/// interned-plan cache stores.
struct PlanSkeleton {
  std::vector<FragmentChain> chains;           // FindChains order
  std::vector<std::vector<HopTemplate>> hops;  // parallel to chains
};

/// Expands FindChains(frag, from, to) into a skeleton: each chain hop gets
/// its disconnection-set selections resolved and sorted once.
PlanSkeleton BuildPlanSkeleton(const Fragmentation& frag, FragmentId from,
                               FragmentId to, size_t max_chains);

/// A (from, to) NODE pair's plan in skeleton-relative form: the
/// deduplicated chains of every endpoint-fragment pair, each chain a
/// (skeleton, chain) ref into one of the cached skeletons the plan holds
/// alive. Nothing here names a spec-table slot, so an interned plan
/// survives batch boundaries — instantiation stamps `from`/`to` into the
/// referenced hop templates and interns the hops into the *current*
/// batch's spec table (PlanBatchInParallel in dsa/executor.h).
struct InternedPlan {
  NodeId from = 0;
  NodeId to = 0;

  /// A chain's home in the skeletons this plan references.
  struct ChainRef {
    uint32_t skeleton = 0;  // index into `skeletons`
    uint32_t chain = 0;     // chain index within that skeleton
  };

  /// The distinct chains in first-seen order over the endpoint-fragment
  /// pairs (border nodes make several pairs contribute; duplicates
  /// between their skeletons are dropped here, once, instead of per
  /// batch) — stored as refs only, so a resident plan adds no chain
  /// copies on top of the skeletons it pins.
  std::vector<ChainRef> chain_refs;
  /// The skeletons `chain_refs` index, kept alive for the plan's lifetime
  /// (eviction from the skeleton cache cannot invalidate a plan — which
  /// also means resident plans, not the skeleton cache's capacity, bound
  /// skeleton memory once this cache is in play).
  std::vector<std::shared_ptr<const PlanSkeleton>> skeletons;

  /// Number of distinct chains.
  size_t num_chains() const { return chain_refs.size(); }
  /// The i-th distinct chain, resolved through its skeleton.
  const FragmentChain& chain(size_t i) const {
    const ChainRef ref = chain_refs[i];
    return skeletons[ref.skeleton]->chains[ref.chain];
  }
  /// The i-th chain's hop templates.
  const std::vector<HopTemplate>& hops(size_t i) const {
    const ChainRef ref = chain_refs[i];
    return skeletons[ref.skeleton]->hops[ref.chain];
  }

  /// Skeleton-cache lookups performed when this plan was built (the
  /// per-batch accounting attributes them to the batch that built the
  /// plan; cache hits of the plan itself cost zero skeleton lookups).
  size_t cache_hits = 0;
  size_t cache_misses = 0;
};

/// A thread-safe LRU cache of plan skeletons keyed by (from, to) fragment
/// pair, plus an LRU cache of interned plans keyed by (from, to) NODE
/// pair. Skeletons are pure fragmentation-graph work — they depend on
/// neither the query constants nor the data — so every query between the
/// same endpoint fragments reuses one expansion. With F fragments there are
/// at most F^2 keys, so a modest capacity usually caches the whole
/// fragmentation graph; the LRU bound matters for large F (sharded
/// deployments) and keeps hot pairs resident. Interned plans have up to
/// N^2 node-pair keys, so their LRU bound does real work: it keeps the
/// hot-pair plans of repeated traffic resident across batch boundaries.
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
  static constexpr size_t kDefaultPlanCapacity = 1 << 16;

  /// `capacity` bounds the skeleton cache (fragment-pair keys);
  /// `plan_capacity` bounds the interned-plan cache (node-pair keys), with
  /// 0 disabling cross-batch plan interning (PlanFor then builds every
  /// time — the skeleton cache still serves the chain lookups).
  explicit ChainPlanCache(size_t capacity = 4096,
                          size_t plan_capacity = kDefaultPlanCapacity);

  /// The plan skeleton for `from` -> `to`, computed via BuildPlanSkeleton
  /// on a miss. `was_hit_out`, if non-null, reports whether this lookup was
  /// a cache hit (used for per-batch accounting on top of the cumulative
  /// Stats()).
  std::shared_ptr<const PlanSkeleton> SkeletonFor(const Fragmentation& frag,
                                                  FragmentId from,
                                                  FragmentId to,
                                                  size_t max_chains,
                                                  bool* was_hit_out = nullptr);

  /// The chains between `from` and `to` — a view into the cached skeleton
  /// (same entry, same stats).
  std::shared_ptr<const std::vector<FragmentChain>> ChainsBetween(
      const Fragmentation& frag, FragmentId from, FragmentId to,
      size_t max_chains, bool* was_hit_out = nullptr);

  /// The interned plan for the NODE pair `from` -> `to`, built through
  /// this cache's skeletons on a miss. Entries are keyed by the UNORDERED
  /// pair: (a, b) and (b, a) alias one entry (2× effective capacity), and
  /// the returned plan's own from/to say which direction built it — a
  /// caller querying the reverse direction must instantiate it reversed
  /// (PlanBatchInParallel in dsa/executor.h does this transparently;
  /// valid because disconnection sets and fragment adjacency are
  /// symmetric, so the reverse pair's chains are the element-wise
  /// reversals of the stored ones). A racing build of the same cold
  /// pair may run twice (the loser's plan is returned to its caller and
  /// simply not cached), which keeps every caller's skeleton-lookup
  /// accounting consistent with the cumulative Stats(). `was_hit_out`, if
  /// non-null, reports whether the plan came from cache. Requires
  /// from != to.
  std::shared_ptr<const InternedPlan> PlanFor(const Fragmentation& frag,
                                              NodeId from, NodeId to,
                                              size_t max_chains,
                                              bool* was_hit_out = nullptr);

  /// Carry-over accounting of one NextEpoch() call, for the maintenance
  /// meters and the cache-invalidation-precision tests.
  struct EpochCarry {
    std::unique_ptr<ChainPlanCache> cache;
    size_t skeletons_kept = 0;
    size_t skeletons_dropped = 0;
    size_t plans_kept = 0;
    size_t plans_dropped = 0;
  };

  /// Builds this cache's successor version for the epoch `new_epoch`
  /// snapshot. `dirty_fragment[f]` marks fragments whose node set changed
  /// this epoch; `endpoint_changed[v]` marks nodes whose fragment
  /// membership changed. A skeleton survives iff none of its chains
  /// touches a dirty fragment; an interned plan additionally requires
  /// both its endpoints' memberships unchanged. The rule is exact under
  /// the caller's precondition that the epoch kept fragment ids and the
  /// fragmentation-graph adjacency intact (chains are paths in the
  /// adjacency graph, so no *new* chain can appear outside dirty
  /// fragments; a changed disconnection set always has a dirty endpoint
  /// fragment, and both endpoints of every DS crossing are on the chain).
  /// When adjacency or the fragment count changed, start cold instead
  /// (fresh ChainPlanCache). Recency and capacities carry over; counters
  /// start at zero — the new version's hit rates are its own.
  EpochCarry NextEpoch(const std::vector<bool>& dirty_fragment,
                       const std::vector<bool>& endpoint_changed,
                       uint64_t new_epoch) const;

  /// The maintenance epoch this cache version serves (0 for a fresh
  /// database).
  uint64_t epoch() const { return epoch_; }

  /// Cumulative skeleton-cache counters and resident entry count.
  LruCacheStats Stats() const { return cache_.Stats(); }
  /// Cumulative interned-plan-cache counters (all zero when disabled).
  LruCacheStats PlanStats() const {
    return plan_cache_ == nullptr ? LruCacheStats{} : plan_cache_->Stats();
  }
  size_t capacity() const { return cache_.capacity(); }
  size_t plan_capacity() const {
    return plan_cache_ == nullptr ? 0 : plan_cache_->capacity();
  }
  void Clear() {
    cache_.Clear();
    if (plan_cache_ != nullptr) plan_cache_->Clear();
  }

 private:
  uint64_t epoch_ = 0;
  LruCache<uint64_t, PlanSkeleton> cache_;
  /// Interned plans by PairKey(min(from, to), max(from, to)) — the
  /// unordered node pair; null when plan_capacity == 0.
  std::unique_ptr<LruCache<uint64_t, InternedPlan, PairKeyHash>> plan_cache_;
};

/// Builds the interned plan of a (from, to) node pair through `cache`'s
/// skeletons: locate the endpoint fragments, fetch (or expand) each
/// endpoint-pair skeleton, and dedupe the chains into skeleton-relative
/// refs. Skeleton-cache accounting lands in the returned plan's
/// cache_hits/cache_misses. Requires from != to.
InternedPlan BuildInternedPlan(const Fragmentation& frag, NodeId from,
                               NodeId to, size_t max_chains,
                               ChainPlanCache* cache);

}  // namespace tcf
