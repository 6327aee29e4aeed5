#include "dsa/chains.h"

#include <algorithm>

namespace tcf {

namespace {

void Dfs(const Fragmentation& frag, FragmentId current, FragmentId target,
         std::vector<FragmentId>* path, std::vector<char>* on_path,
         std::vector<FragmentChain>* out, size_t max_chains) {
  if (out->size() >= max_chains) return;
  if (current == target) {
    out->push_back(*path);
    return;
  }
  for (FragmentId next : frag.FragmentNeighbors(current)) {
    if ((*on_path)[next]) continue;
    (*on_path)[next] = 1;
    path->push_back(next);
    Dfs(frag, next, target, path, on_path, out, max_chains);
    path->pop_back();
    (*on_path)[next] = 0;
  }
}

}  // namespace

std::vector<FragmentChain> FindChains(const Fragmentation& frag,
                                      FragmentId from, FragmentId to,
                                      size_t max_chains) {
  TCF_CHECK(from < frag.NumFragments() && to < frag.NumFragments());
  TCF_CHECK(max_chains >= 1);
  std::vector<FragmentChain> chains;
  std::vector<FragmentId> path = {from};
  std::vector<char> on_path(frag.NumFragments(), 0);
  on_path[from] = 1;
  Dfs(frag, from, to, &path, &on_path, &chains, max_chains);
  std::stable_sort(chains.begin(), chains.end(),
                   [](const FragmentChain& a, const FragmentChain& b) {
                     if (a.size() != b.size()) return a.size() < b.size();
                     return a < b;
                   });
  return chains;
}

PlanSkeleton BuildPlanSkeleton(const Fragmentation& frag, FragmentId from,
                               FragmentId to, size_t max_chains) {
  PlanSkeleton skeleton;
  skeleton.chains = FindChains(frag, from, to, max_chains);
  skeleton.hops.resize(skeleton.chains.size());
  auto ds_nodes = [&](FragmentId a, FragmentId b) {
    const DisconnectionSet* ds = frag.FindDisconnectionSet(a, b);
    TCF_CHECK_MSG(ds != nullptr, "chain hop without disconnection set");
    return ds->nodes;  // already sorted
  };
  for (size_t c = 0; c < skeleton.chains.size(); ++c) {
    const FragmentChain& chain = skeleton.chains[c];
    skeleton.hops[c].reserve(chain.size());
    for (size_t i = 0; i < chain.size(); ++i) {
      HopTemplate hop;
      hop.fragment = chain[i];
      if (i == 0) {
        hop.source_is_endpoint = true;
      } else {
        hop.sources = ds_nodes(chain[i - 1], chain[i]);
      }
      if (i + 1 == chain.size()) {
        hop.target_is_endpoint = true;
      } else {
        hop.targets = ds_nodes(chain[i], chain[i + 1]);
      }
      skeleton.hops[c].push_back(std::move(hop));
    }
  }
  return skeleton;
}

ChainPlanCache::ChainPlanCache(size_t capacity, size_t plan_capacity)
    : cache_(capacity) {
  if (plan_capacity > 0) {
    plan_cache_ = std::make_unique<
        LruCache<uint64_t, InternedPlan, PairKeyHash>>(plan_capacity);
  }
}

std::shared_ptr<const PlanSkeleton> ChainPlanCache::SkeletonFor(
    const Fragmentation& frag, FragmentId from, FragmentId to,
    size_t max_chains, bool* was_hit_out) {
  const uint64_t key = (static_cast<uint64_t>(from) << 32) | to;
  return cache_.GetOrCompute(
      key,
      [&]() {
        return std::make_shared<const PlanSkeleton>(
            BuildPlanSkeleton(frag, from, to, max_chains));
      },
      was_hit_out);
}

std::shared_ptr<const std::vector<FragmentChain>>
ChainPlanCache::ChainsBetween(const Fragmentation& frag, FragmentId from,
                              FragmentId to, size_t max_chains,
                              bool* was_hit_out) {
  std::shared_ptr<const PlanSkeleton> skeleton =
      SkeletonFor(frag, from, to, max_chains, was_hit_out);
  return std::shared_ptr<const std::vector<FragmentChain>>(
      skeleton, &skeleton->chains);
}

InternedPlan BuildInternedPlan(const Fragmentation& frag, NodeId from,
                               NodeId to, size_t max_chains,
                               ChainPlanCache* cache) {
  TCF_CHECK(cache != nullptr);
  TCF_CHECK(from != to);
  InternedPlan plan;
  plan.from = from;
  plan.to = to;

  // A border node lives in several fragments and every one of them is a
  // valid chain endpoint; chains shared between the endpoint-pair
  // skeletons are deduplicated here, once, in first-seen order.
  for (FragmentId fa : frag.FragmentsOfNode(from)) {
    for (FragmentId fb : frag.FragmentsOfNode(to)) {
      bool was_hit = false;
      std::shared_ptr<const PlanSkeleton> skeleton =
          cache->SkeletonFor(frag, fa, fb, max_chains, &was_hit);
      (was_hit ? plan.cache_hits : plan.cache_misses) += 1;
      const uint32_t skeleton_index =
          static_cast<uint32_t>(plan.skeletons.size());
      plan.skeletons.push_back(skeleton);
      for (size_t c = 0; c < skeleton->chains.size(); ++c) {
        const FragmentChain& chain = skeleton->chains[c];
        bool seen = false;
        for (size_t i = 0; i < plan.num_chains() && !seen; ++i) {
          seen = plan.chain(i) == chain;
        }
        if (seen) continue;
        plan.chain_refs.push_back(
            InternedPlan::ChainRef{skeleton_index, static_cast<uint32_t>(c)});
      }
    }
  }
  return plan;
}

namespace {

bool ChainTouchesDirty(const FragmentChain& chain,
                       const std::vector<bool>& dirty_fragment) {
  for (FragmentId f : chain) {
    if (f < dirty_fragment.size() && dirty_fragment[f]) return true;
  }
  return false;
}

}  // namespace

ChainPlanCache::EpochCarry ChainPlanCache::NextEpoch(
    const std::vector<bool>& dirty_fragment,
    const std::vector<bool>& endpoint_changed, uint64_t new_epoch) const {
  EpochCarry carry;
  carry.cache =
      std::make_unique<ChainPlanCache>(cache_.capacity(), plan_capacity());
  carry.cache->epoch_ = new_epoch;

  cache_.ForEachOldestFirst(
      [&](uint64_t key, const std::shared_ptr<const PlanSkeleton>& skeleton) {
        for (const FragmentChain& chain : skeleton->chains) {
          if (ChainTouchesDirty(chain, dirty_fragment)) {
            ++carry.skeletons_dropped;
            return;
          }
        }
        ++carry.skeletons_kept;
        carry.cache->cache_.Put(key, skeleton);
      });

  if (plan_cache_ != nullptr) {
    plan_cache_->ForEachOldestFirst(
        [&](uint64_t key, const std::shared_ptr<const InternedPlan>& plan) {
          bool valid = plan->from >= endpoint_changed.size() ||
                       !endpoint_changed[plan->from];
          valid = valid && (plan->to >= endpoint_changed.size() ||
                            !endpoint_changed[plan->to]);
          for (size_t i = 0; valid && i < plan->num_chains(); ++i) {
            valid = !ChainTouchesDirty(plan->chain(i), dirty_fragment);
          }
          if (!valid) {
            ++carry.plans_dropped;
            return;
          }
          ++carry.plans_kept;
          carry.cache->plan_cache_->Put(key, plan);
        });
  }
  return carry;
}

std::shared_ptr<const InternedPlan> ChainPlanCache::PlanFor(
    const Fragmentation& frag, NodeId from, NodeId to, size_t max_chains,
    bool* was_hit_out) {
  if (plan_cache_ == nullptr) {
    if (was_hit_out != nullptr) *was_hit_out = false;
    return std::make_shared<const InternedPlan>(
        BuildInternedPlan(frag, from, to, max_chains, this));
  }
  // Symmetric aliasing: (from, to) and (to, from) share one entry keyed by
  // the unordered pair. Disconnection sets are direction-free
  // (FindDisconnectionSet normalizes its arguments) and the fragmentation
  // graph is undirected, so the reverse pair's chains are exactly the
  // element-wise reversals of the stored plan's chains — the planner
  // reverses them on the fly (see PlanBatchInParallel). The stored
  // plan's own from/to record which direction built it. This doubles the
  // cache's effective node-pair capacity, which matters once concurrent
  // flush workers hammer it from both directions of hot pairs.
  const NodeId lo = std::min(from, to);
  const NodeId hi = std::max(from, to);
  const uint64_t key = (static_cast<uint64_t>(lo) << 32) | hi;
  if (std::shared_ptr<const InternedPlan> hit = plan_cache_->Get(key)) {
    if (was_hit_out != nullptr) *was_hit_out = true;
    return hit;
  }
  if (was_hit_out != nullptr) *was_hit_out = false;
  // Build outside the cache lock and return OUR build even if a racer put
  // the same key first: the racer's plan is semantically identical, and
  // returning our own keeps the caller's skeleton-lookup accounting
  // (plan.cache_hits/misses) consistent with what this call really did.
  auto built = std::make_shared<const InternedPlan>(
      BuildInternedPlan(frag, from, to, max_chains, this));
  plan_cache_->Put(key, built);
  return built;
}

}  // namespace tcf
