#include "dsa/bottleneck.h"

#include <algorithm>
#include <unordered_map>

#include "dsa/local_query.h"
#include "graph/algorithms.h"

namespace tcf {

ComplementaryInfo PrecomputeCapacityComplementary(const Fragmentation& frag) {
  const Graph& g = frag.graph();
  ComplementaryInfo info;
  info.shortcuts.resize(frag.NumFragments());

  std::vector<NodeId> border;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (frag.IsBorderNode(v)) border.push_back(v);
  }
  std::unordered_map<NodeId, WidestPaths> search_from;
  search_from.reserve(border.size());
  for (NodeId v : border) {
    search_from.emplace(v, WidestPathsFrom(g, v));
    ++info.searches;
  }
  for (FragmentId f = 0; f < frag.NumFragments(); ++f) {
    const std::vector<NodeId>& nodes = frag.BorderNodes(f);
    Relation& rel = info.shortcuts[f];
    for (NodeId x : nodes) {
      const WidestPaths& wp = search_from.at(x);
      for (NodeId y : nodes) {
        if (x == y || wp.capacity[y] <= 0.0) continue;
        rel.Add(x, y, wp.capacity[y]);
      }
    }
    rel.SortCanonical();
    info.total_tuples += rel.size();
  }
  return info;
}

BottleneckDsa::BottleneckDsa(const Fragmentation* frag, size_t max_chains)
    : frag_(frag),
      max_chains_(max_chains),
      plan_cache_(std::make_unique<ChainPlanCache>()) {
  TCF_CHECK(frag != nullptr);
  complementary_ = PrecomputeCapacityComplementary(*frag_);
}

Relation BottleneckDsa::LocalWidest(const LocalQuerySpec& spec) const {
  // The capacity complementary is always freshly precomputed (resident),
  // so augmentation cannot hit a storage error.
  Result<Graph> built =
      BuildAugmentedFragment(*frag_, &complementary_, spec.fragment);
  TCF_CHECK_MSG(built.ok(), built.status().ToString());
  const Graph augmented = std::move(built).value();
  Relation out;
  for (NodeId s : spec.sources) {
    WidestPaths wp = WidestPathsFrom(augmented, s);
    for (NodeId t : spec.targets) {
      if (t == s) {
        out.Add(s, t, kInfinity);  // passing through costs no capacity
      } else if (wp.capacity[t] > 0.0) {
        out.Add(s, t, wp.capacity[t]);
      }
    }
  }
  out.AggregateMax();
  return out;
}

BottleneckAnswer BottleneckDsa::WidestPath(NodeId from, NodeId to,
                                           ExecutionReport* report) const {
  TCF_CHECK(from < frag_->graph().NumNodes());
  TCF_CHECK(to < frag_->graph().NumNodes());
  BottleneckAnswer answer;
  if (from == to) {
    answer.connected = true;
    answer.capacity = kInfinity;
    return answer;
  }
  // The shortest-path planner, as a batch of one: its chains and keyhole
  // selections depend only on the fragmentation, so they serve any path
  // problem — and a hop shared by several chains runs once.
  const ParallelPlanResult planned = PlanBatchInParallel(
      *frag_, {{from, to}}, max_chains_, plan_cache_.get(), nullptr);
  const QueryPlan& plan = *planned.plans.front();
  const std::vector<LocalQuerySpec>& specs = planned.flat.specs;
  answer.chains_considered = plan.chains.size();

  std::vector<Relation> local;
  local.reserve(specs.size());
  for (const LocalQuerySpec& spec : specs) {
    local.push_back(LocalWidest(spec));
    if (report != nullptr) {
      SiteReport site;
      site.fragment = spec.fragment;
      site.result_tuples = local.back().size();
      report->sites.push_back(site);
      report->communication_tuples += local.back().size();
    }
  }

  // Max-min fold: a chain carries its narrowest hop's capacity, and the
  // answer is the widest chain.
  for (const std::vector<size_t>& hops : plan.chain_specs) {
    Relation acc = local[hops.front()];
    for (size_t i = 1; i < hops.size(); ++i) {
      acc = JoinMaxMin(acc, local[hops[i]]);
    }
    answer.capacity = std::max(answer.capacity, acc.MaxCost(from, to));
  }
  answer.connected = answer.capacity > 0.0;
  return answer;
}

}  // namespace tcf
