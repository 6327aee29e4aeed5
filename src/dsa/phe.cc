#include "dsa/phe.h"

#include <algorithm>

#include "graph/algorithms.h"
#include "graph/builder.h"
#include "util/timer.h"

namespace tcf {

PheDatabase::PheDatabase(const Fragmentation* frag, PheOptions options)
    : frag_(frag), options_(options) {
  TCF_CHECK(frag != nullptr);
  complementary_ = PrecomputeComplementary(*frag_);

  // High-speed network: all per-fragment shortcut relations merged into one
  // graph over the global node-id space (only border nodes carry edges).
  GraphBuilder builder;
  builder.EnsureNodes(frag_->graph().NumNodes());
  for (FragmentId f = 0; f < frag_->NumFragments(); ++f) {
    complementary_.ForFragment(f).ForEach([&](const PathTuple& t) {
      builder.AddEdge(t.src, t.dst, t.cost);
    });
  }
  builder.DeduplicateEdges();
  backbone_ = builder.Build();

  pool_ = std::make_unique<ThreadPool>(std::max<size_t>(options_.num_threads,
                                                        1));
}

QueryAnswer PheDatabase::ShortestPath(NodeId from, NodeId to,
                                      ExecutionReport* report) const {
  TCF_CHECK(from < frag_->graph().NumNodes());
  TCF_CHECK(to < frag_->graph().NumNodes());
  QueryAnswer answer;
  if (from == to) {
    answer.connected = true;
    answer.cost = 0.0;
    return answer;
  }
  const FragmentId fa = frag_->HomeFragment(from);
  const FragmentId fb = frag_->HomeFragment(to);
  if (fa == Fragmentation::kInvalidFragment ||
      fb == Fragmentation::kInvalidFragment) {
    return answer;  // isolated node
  }
  answer.fragments_involved = {fa};
  if (fb != fa) answer.fragments_involved.push_back(fb);
  std::sort(answer.fragments_involved.begin(),
            answer.fragments_involved.end());

  const auto& borders_a = frag_->BorderNodes(fa);
  const auto& borders_b = frag_->BorderNodes(fb);

  // Same fragment: one local subquery suffices — and is exact thanks to
  // the complementary augmentation — so the backbone route is skipped and
  // PHE never runs more than three subqueries.
  Weight best = kInfinity;

  std::vector<LocalQuerySpec> specs;
  if (fa == fb) {
    specs.push_back(LocalQuerySpec{fa, {from}, {to}});
  }
  // Hierarchical route: fragment(a) -> backbone -> fragment(b).
  const bool backbone_route =
      fa != fb && !borders_a.empty() && !borders_b.empty();
  size_t spec_up = 0, spec_down = 0;
  if (backbone_route) {
    spec_up = specs.size();
    specs.push_back(LocalQuerySpec{
        fa, {from}, NodeSet(borders_a.begin(), borders_a.end())});
    spec_down = specs.size();
    specs.push_back(LocalQuerySpec{
        fb, NodeSet(borders_b.begin(), borders_b.end()), {to}});
  }

  std::vector<LocalQueryResult> results =
      RunSites(*frag_, &complementary_, specs, options_.engine, pool_.get(),
               report);

  if (fa == fb) {
    best = std::min(best, results[0].paths.BestCost(from, to));
  }

  if (backbone_route) {
    // Middle subquery: shortest paths across the high-speed network.
    WallTimer timer;
    Relation middle;
    for (NodeId s : borders_a) {
      ShortestPaths sp = Dijkstra(backbone_, s);
      for (NodeId t : borders_b) {
        if (s == t) {
          middle.Add(s, t, 0.0);
        } else if (sp.distance[t] != kInfinity) {
          middle.Add(s, t, sp.distance[t]);
        }
      }
    }
    middle.AggregateMin();
    if (report != nullptr) {
      SiteReport site;
      site.fragment = static_cast<FragmentId>(frag_->NumFragments());
      site.seconds = timer.ElapsedSeconds();
      site.result_tuples = middle.size();
      report->sites.push_back(site);
      report->communication_tuples += middle.size();
    }
    std::vector<const Relation*> hops = {&results[spec_up].paths, &middle,
                                         &results[spec_down].paths};
    Relation assembled = AssembleChain(hops, report);
    best = std::min(best, assembled.BestCost(from, to));
  }

  answer.cost = best;
  answer.connected = best != kInfinity;
  return answer;
}

}  // namespace tcf
