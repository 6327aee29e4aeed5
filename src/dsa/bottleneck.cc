#include "dsa/bottleneck.h"

#include <span>
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

BottleneckDsa::BottleneckDsa(const Fragmentation* frag) : frag_(frag) {
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
      if (t != s && wp.capacity[t] > 0.0) out.Add(s, t, wp.capacity[t]);
    }
  }
  out.SortCanonical();
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
  // The shortest-path planner, as a batch of one: its hops and rows depend
  // only on the fragmentation, so they serve any path problem.
  const ParallelPlanResult planned =
      PlanBatchInParallel(*frag_, {{from, to}}, 0, nullptr, nullptr);
  const QueryPlan& plan = *planned.plans.front();
  const std::vector<LocalQuerySpec>& specs = planned.flat.specs;

  // The rows are the resident capacity shortcut relations, sorted by
  // PrecomputeCapacityComplementary; only the hops search.
  std::vector<Relation> hops(specs.size());
  std::vector<std::span<const PathTuple>> tuples(specs.size());
  for (size_t idx : plan.rows) {
    tuples[idx] = complementary_.shortcuts[specs[idx].fragment].tuples();
  }
  for (size_t idx : {plan.from_hop, plan.to_hop}) {
    if (idx == QueryPlan::kNoSpec) continue;
    hops[idx] = LocalWidest(specs[idx]);
    tuples[idx] = hops[idx].tuples();
  }
  if (report != nullptr) {
    for (size_t i = 0; i < specs.size(); ++i) {
      SiteReport site;
      site.fragment = specs[i].fragment;
      site.result_tuples = tuples[i].size();
      report->sites.push_back(site);
      report->communication_tuples += tuples[i].size();
    }
  }
  answer.capacity = AssembleWidestCapacity(*frag_, plan, specs, from, to,
                                           tuples, report);
  answer.connected = answer.capacity > 0.0;
  return answer;
}

}  // namespace tcf
