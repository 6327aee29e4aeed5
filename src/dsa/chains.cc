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

ChainPlanCache::ChainPlanCache(size_t capacity) : cache_(capacity) {}

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
    const std::vector<bool>& dirty_fragment, uint64_t new_epoch) const {
  EpochCarry carry;
  carry.cache = std::make_unique<ChainPlanCache>(cache_.capacity());
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
  return carry;
}

}  // namespace tcf
