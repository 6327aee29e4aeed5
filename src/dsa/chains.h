// Chain finding in the fragmentation graph (Sec. 2.1): "for any two nodes
// in G there is only one chain of fragments G_i such that the first one
// includes the first node [...]" — when the fragmentation is loosely
// connected. "If the fragmentation is not loosely connected, it is required
// to consider all possible chains of fragments independently."
//
// Queries do not enumerate chains: phase 2 searches the border overlay,
// which covers every chain at once (dsa/executor.h). FindChains is a
// fragmentation-graph metric — how many chains a query would have to
// consider one by one — for the acyclicity bench.
#pragma once

#include <cstdint>
#include <vector>

#include "fragment/fragmentation.h"

namespace tcf {

using FragmentChain = std::vector<FragmentId>;

/// All simple paths from fragment `from` to fragment `to` in the
/// fragmentation graph, shortest first, capped at `max_chains` (the paper's
/// Parallel Hierarchical Evaluation exists because this can blow up).
/// `from == to` yields the single trivial chain {from}.
std::vector<FragmentChain> FindChains(const Fragmentation& frag,
                                      FragmentId from, FragmentId to,
                                      size_t max_chains = 64);

/// Kept only for perfbench, which names the type: it holds nothing, and
/// DsaDatabase::plan_cache() returns null.
class ChainPlanCache {};

}  // namespace tcf
