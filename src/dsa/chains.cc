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

}  // namespace tcf
