#include "dsa/executor.h"

#include <algorithm>
#include <compare>
#include <iterator>
#include <memory>
#include <span>
#include <string>

#include "graph/algorithms.h"
#include "util/timer.h"

namespace tcf {

double ExecutionReport::SlowestSiteSeconds() const {
  double worst = 0.0;
  for (const SiteReport& s : sites) worst = std::max(worst, s.seconds);
  return worst;
}

double ExecutionReport::TotalSiteSeconds() const {
  double total = 0.0;
  for (const SiteReport& s : sites) total += s.seconds;
  return total;
}

void ExecutionReport::Merge(const ExecutionReport& other) {
  sites.insert(sites.end(), other.sites.begin(), other.sites.end());
  phase1_wall_seconds += other.phase1_wall_seconds;
  phase1_cpu_seconds += other.phase1_cpu_seconds;
  assembly_seconds += other.assembly_seconds;
  assembly_join_tuples += other.assembly_join_tuples;
  communication_tuples += other.communication_tuples;
}

namespace {

// A batch with fewer chains than this is planned on the calling thread:
// its chains take less time to stamp and deduplicate than a round trip
// through a pool that phase-1 tasks of concurrent batches also queue on.
constexpr size_t kPoolPlanChains = 512;

// A distinct pair's skeletons, one per pair of its endpoints' fragments,
// held until the batch's hops are deduplicated because a concurrent batch
// may evict them from the cache meanwhile; and the hop templates its
// chains were stamped from: `templates[c][h]` is hop h of chain c.
struct PairSkeletons {
  std::vector<std::shared_ptr<const PlanSkeleton>> skeletons;
  std::vector<const HopTemplate*> templates;
};

// Stamps a pair's chains into `plan`, leaving the spec indices for the
// per-fragment dedup. A border node lives in several fragments and every
// one of them is a valid chain endpoint, so each endpoint-fragment pair
// contributes its chains. A chain begins in its pair's first fragment and
// ends in its second, so chains of different pairs never coincide and no
// chain is taken twice.
void StampChains(PairSkeletons& pair, QueryPlan* plan) {
  for (const std::shared_ptr<const PlanSkeleton>& skeleton : pair.skeletons) {
    for (size_t c = 0; c < skeleton->chains.size(); ++c) {
      plan->chains.push_back(skeleton->chains[c]);
      plan->chain_specs.emplace_back(skeleton->chains[c].size());
      pair.templates.push_back(skeleton->hops[c].data());
    }
  }
}

// Tags a side key as a query endpoint rather than a neighbouring fragment.
constexpr uint64_t kEndpointKey = uint64_t{1} << 32;

// A planned hop awaiting its spec index: its template, the query
// endpoints stamped into it, and the plan slot the index goes to. A side
// selects the query endpoint or the disconnection set toward the
// neighbouring fragment on the chain, so equal side keys (the tagged
// endpoint, or that neighbour) mean equal selections without reading them.
struct HopRef {
  const HopTemplate* hop;
  NodeId from;
  NodeId to;
  uint64_t source_key;
  uint64_t target_key;
  size_t* slot;
};

std::span<const NodeId> Sources(const HopRef& r) {
  return r.hop->source_is_endpoint ? std::span<const NodeId>(&r.from, 1)
                                   : std::span<const NodeId>(r.hop->sources);
}

std::span<const NodeId> Targets(const HopRef& r) {
  return r.hop->target_is_endpoint ? std::span<const NodeId>(&r.to, 1)
                                   : std::span<const NodeId>(r.hop->targets);
}

std::strong_ordering CompareNodes(std::span<const NodeId> a,
                                  std::span<const NodeId> b) {
  return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                b.begin(), b.end());
}

// Orders a fragment's hops by their selections: sources, then targets.
std::strong_ordering CompareSelections(const HopRef& a, const HopRef& b) {
  if (a.source_key != b.source_key) {
    if (auto c = CompareNodes(Sources(a), Sources(b)); c != 0) return c;
  }
  if (a.target_key == b.target_key) return std::strong_ordering::equal;
  return CompareNodes(Targets(a), Targets(b));
}

// Deduplicates fragment `f`'s hops of the batch's plans by their
// selections: numbers the distinct selections from 0 in selection order,
// writes each hop's number into its plan slot and returns the specs in
// that order. Writes only the slots of `f`'s hops.
std::vector<LocalQuerySpec> DedupFragment(
    FragmentId f, const std::vector<uint64_t>& pairs,
    std::vector<QueryPlan>& plans, const std::vector<PairSkeletons>& held) {
  thread_local std::vector<HopRef> refs;  // per-thread scratch
  refs.clear();
  for (size_t p = 0; p < plans.size(); ++p) {
    const NodeId from = static_cast<NodeId>(pairs[p] >> 32);
    const NodeId to = static_cast<NodeId>(pairs[p]);
    for (size_t c = 0; c < plans[p].chains.size(); ++c) {
      const FragmentChain& chain = plans[p].chains[c];
      for (size_t h = 0; h < chain.size(); ++h) {
        if (chain[h] != f) continue;
        const HopTemplate& hop = held[p].templates[c][h];
        refs.push_back(HopRef{
            &hop, from, to,
            hop.source_is_endpoint ? kEndpointKey | from : chain[h - 1],
            hop.target_is_endpoint ? kEndpointKey | to : chain[h + 1],
            &plans[p].chain_specs[c][h]});
      }
    }
  }
  std::sort(refs.begin(), refs.end(), [](const HopRef& a, const HopRef& b) {
    return CompareSelections(a, b) < 0;
  });
  std::vector<LocalQuerySpec> specs;
  for (size_t i = 0; i < refs.size(); ++i) {
    if (i == 0 || CompareSelections(refs[i - 1], refs[i]) != 0) {
      const std::span<const NodeId> sources = Sources(refs[i]);
      const std::span<const NodeId> targets = Targets(refs[i]);
      LocalQuerySpec& spec = specs.emplace_back();
      spec.fragment = f;
      spec.sources = NodeSet(sources.begin(), sources.end());
      spec.targets = NodeSet(targets.begin(), targets.end());
    }
    *refs[i].slot = specs.size() - 1;
  }
  return specs;
}

}  // namespace

ParallelPlanResult PlanBatchInParallel(
    const Fragmentation& frag,
    const std::vector<std::pair<NodeId, NodeId>>& endpoints,
    size_t max_chains, ChainPlanCache* chain_cache, ThreadPool* pool) {
  TCF_CHECK(chain_cache != nullptr);
  ParallelPlanResult out;

  // Each distinct pair is planned once; repeats (hot-pair traffic) share
  // its plan.
  std::vector<uint64_t> pairs;
  pairs.reserve(endpoints.size());
  for (const auto& [from, to] : endpoints) {
    if (from != to) pairs.push_back(PairKey(from, to));
  }
  std::sort(pairs.begin(), pairs.end());
  out.memo_hits = pairs.size();
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  out.memo_hits -= pairs.size();
  out.distinct.resize(pairs.size());
  out.plans.assign(endpoints.size(), nullptr);
  for (size_t i = 0; i < endpoints.size(); ++i) {
    const auto [from, to] = endpoints[i];
    if (from == to) continue;
    out.plans[i] = &out.distinct[std::lower_bound(pairs.begin(), pairs.end(),
                                                  PairKey(from, to)) -
                                 pairs.begin()];
  }

  // Look up every pair's skeletons, which also sizes the batch's work.
  std::vector<PairSkeletons> held(pairs.size());
  size_t chains = 0;
  for (size_t p = 0; p < pairs.size(); ++p) {
    const NodeId from = static_cast<NodeId>(pairs[p] >> 32);
    const NodeId to = static_cast<NodeId>(pairs[p]);
    for (FragmentId fa : frag.FragmentsOfNode(from)) {
      for (FragmentId fb : frag.FragmentsOfNode(to)) {
        bool was_hit = false;
        held[p].skeletons.push_back(
            chain_cache->SkeletonFor(frag, fa, fb, max_chains, &was_hit));
        (was_hit ? out.cache_hits : out.cache_misses) += 1;
        chains += held[p].skeletons.back()->chains.size();
      }
    }
  }
  if (chains < kPoolPlanChains) pool = nullptr;

  // Stamp the chains, ranges of pairs in parallel; then deduplicate the
  // hops, one task per fragment.
  auto stamp_range = [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      StampChains(held[p], &out.distinct[p]);
    }
  };
  std::vector<std::vector<LocalQuerySpec>> specs(frag.NumFragments());
  auto dedup = [&](size_t f) {
    specs[f] = DedupFragment(static_cast<FragmentId>(f), pairs, out.distinct,
                             held);
  };
  if (pool != nullptr) {
    pool->ParallelForRanges(pairs.size(), stamp_range);
    pool->ParallelFor(specs.size(), dedup);
  } else {
    stamp_range(0, pairs.size());
    for (size_t f = 0; f < specs.size(); ++f) dedup(f);
  }

  // Emit the specs fragment by fragment, and offset every plan slot's
  // fragment-local index by its fragment's first flat index.
  std::vector<size_t> first(specs.size(), 0);
  for (size_t f = 0; f < specs.size(); ++f) {
    first[f] = out.flat.specs.size();
    std::move(specs[f].begin(), specs[f].end(),
              std::back_inserter(out.flat.specs));
  }
  for (QueryPlan& plan : out.distinct) {
    for (size_t c = 0; c < plan.chains.size(); ++c) {
      for (size_t h = 0; h < plan.chains[c].size(); ++h) {
        plan.chain_specs[c][h] += first[plan.chains[c][h]];
      }
    }
  }
  return out;
}

namespace {

// Where a spec goes in the Dijkstra engine's task order: its fragment,
// its search direction and its origin (the least node of the side it
// searches from), then its index, so that the order is deterministic.
struct TaskKey {
  FragmentId fragment = 0;
  bool backward = false;
  NodeId origin = 0;
  size_t index = 0;

  auto operator<=>(const TaskKey&) const = default;

  bool SameSearch(const TaskKey& o) const {
    return fragment == o.fragment && backward == o.backward &&
           origin == o.origin;
  }
};

TaskKey TaskKeyOf(const LocalQuerySpec& spec, size_t index) {
  const bool backward = SearchesBackward(spec);
  const NodeSet& near = backward ? spec.targets : spec.sources;
  return {spec.fragment, backward,
          *std::min_element(near.begin(), near.end()), index};
}

}  // namespace

std::vector<LocalQueryResult> RunSites(
    const Fragmentation& frag, const ComplementaryInfo* complementary,
    const std::vector<LocalQuerySpec>& specs, LocalEngine engine,
    ThreadPool* pool, ExecutionReport* report) {
  const size_t n = specs.size();
  // `order` lists the specs task by task; task t runs
  // order[cuts[t], cuts[t + 1]).
  std::vector<size_t> order(n);
  std::vector<size_t> cuts = {0};
  if (engine == LocalEngine::kDijkstra) {
    std::vector<TaskKey> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = TaskKeyOf(specs[i], i);
    std::sort(keys.begin(), keys.end());
    const size_t range = pool != nullptr ? pool->RangeSize(n) : n;
    for (size_t i = 0; i < n; ++i) {
      order[i] = keys[i].index;
      if (i == 0) continue;
      const TaskKey& prev = keys[i - 1];
      if (keys[i].fragment != prev.fragment ||
          (!keys[i].SameSearch(prev) && i - cuts.back() >= range)) {
        cuts.push_back(i);
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      order[i] = i;
      if (i > 0) cuts.push_back(i);
    }
  }
  if (n > 0) cuts.push_back(n);

  std::vector<LocalQueryResult> results(n);
  std::vector<double> seconds(n, 0.0);
  WallTimer phase_timer;
  auto run_task = [&](size_t t) {
    WallTimer task_timer;
    const size_t begin = cuts[t];
    const size_t size = cuts[t + 1] - begin;
    if (engine == LocalEngine::kDijkstra) {
      std::vector<const LocalQuerySpec*> group(size);
      std::vector<LocalQueryResult> out(size);
      for (size_t k = 0; k < size; ++k) group[k] = &specs[order[begin + k]];
      RunLocalQueryGroup(frag, complementary, group, out);
      for (size_t k = 0; k < size; ++k) {
        results[order[begin + k]] = std::move(out[k]);
      }
    } else {
      results[order[begin]] =
          RunLocalQuery(frag, complementary, specs[order[begin]], engine);
    }
    seconds[order[begin]] = task_timer.ElapsedSeconds();
  };
  const size_t num_tasks = cuts.size() - 1;
  if (pool != nullptr) {
    pool->ParallelFor(num_tasks, run_task);
  } else {
    for (size_t t = 0; t < num_tasks; ++t) run_task(t);
  }
  const double wall = phase_timer.ElapsedSeconds();

  if (report != nullptr) {
    report->phase1_wall_seconds += wall;
    for (size_t i = 0; i < n; ++i) {
      SiteReport site;
      site.fragment = specs[i].fragment;
      site.stats = results[i].stats;
      site.seconds = seconds[i];
      site.result_tuples = results[i].paths.size();
      report->phase1_cpu_seconds += site.seconds;
      report->communication_tuples += site.result_tuples;
      report->sites.push_back(std::move(site));
    }
  }
  return results;
}

namespace {

// The distinct fragments the plan's subqueries touch, ascending.
std::vector<FragmentId> InvolvedFragments(
    const Fragmentation& frag, const QueryPlan& plan,
    const std::vector<LocalQuerySpec>& specs) {
  std::vector<char> involved(frag.NumFragments(), 0);
  for (const std::vector<size_t>& hops : plan.chain_specs) {
    for (size_t idx : hops) involved[specs[idx].fragment] = 1;
  }
  std::vector<FragmentId> out;
  for (FragmentId f = 0; f < frag.NumFragments(); ++f) {
    if (involved[f]) out.push_back(f);
  }
  return out;
}

// First failure among the phase-1 results a plan consumes (OK when all
// its subqueries read their storage cleanly). Assembly over a failed
// subquery would compute a confidently wrong answer from partial paths.
Status PlanResultsStatus(const QueryPlan& plan,
                         const std::vector<LocalQueryResult>& results) {
  for (const std::vector<size_t>& hops : plan.chain_specs) {
    for (size_t idx : hops) {
      if (!results[idx].status.ok()) return results[idx].status;
    }
  }
  return Status::OK();
}

/// A node a chain sweep reached after a hop: its cheapest cost from the
/// query's source, and the index in the previous layer of the relay that
/// cost came through.
struct Reached {
  NodeId node = 0;
  Weight cost = 0.0;
  uint32_t pred = 0;
};

/// Per-thread sweep state, reused by every chain the thread assembles.
/// layers[i] holds the nodes reached after hop i - 1 (layers[0] is the
/// query's source); slot_of[v] is v's index in the layer being built iff
/// slot_stamp[v] == stamp.
struct SweepScratch {
  std::vector<std::vector<Reached>> layers;
  std::vector<uint32_t> slot_of;
  std::vector<uint64_t> slot_stamp;
  uint64_t stamp = 0;
};

SweepScratch& ThreadSweepScratch() {
  thread_local SweepScratch scratch;
  return scratch;
}

/// The min-plus frontier sweep over one chain, `hops` indexing its
/// phase-1 results in chain order: layer i + 1 keeps, per node, the
/// cheapest layer-i cost plus a hop-i tuple cost. These are AssembleChain's
/// additions in its order, so the cost at `to` is bit-identical to the
/// fold's BestCost(from, to), and the relaxations of hops after the first,
/// added to `*relaxations`, are the fold's join tuples. Returns `to`'s
/// entry in the last layer (valid until the next sweep on this thread), or
/// null when the chain does not connect.
const Reached* SweepChain(const std::vector<size_t>& hops,
                          const std::vector<LocalQueryResult>& results,
                          NodeId from, NodeId to, SweepScratch& s,
                          size_t* relaxations) {
  if (s.layers.size() <= hops.size()) s.layers.resize(hops.size() + 1);
  s.layers[0].assign(1, Reached{from, 0.0, 0});
  for (size_t i = 0; i < hops.size(); ++i) {
    // Phase-1 results are resident and canonically sorted, so a relay's
    // tuples are one binary search away.
    const std::vector<PathTuple>& tuples = results[hops[i]].paths.tuples();
    const std::vector<Reached>& frontier = s.layers[i];
    std::vector<Reached>& next = s.layers[i + 1];
    next.clear();
    ++s.stamp;
    for (uint32_t j = 0; j < frontier.size(); ++j) {
      const Reached& x = frontier[j];
      auto t = std::lower_bound(
          tuples.begin(), tuples.end(), x.node,
          [](const PathTuple& a, NodeId v) { return a.src < v; });
      for (; t != tuples.end() && t->src == x.node; ++t) {
        // The fold starts from hop 0's own costs.
        const Weight cost = i == 0 ? t->cost : x.cost + t->cost;
        if (t->dst >= s.slot_of.size()) {
          s.slot_of.resize(t->dst + 1);
          s.slot_stamp.resize(t->dst + 1, 0);
        }
        if (s.slot_stamp[t->dst] != s.stamp) {
          s.slot_stamp[t->dst] = s.stamp;
          s.slot_of[t->dst] = static_cast<uint32_t>(next.size());
          next.push_back(Reached{t->dst, cost, j});
        } else if (Reached& y = next[s.slot_of[t->dst]]; cost < y.cost) {
          y.cost = cost;
          y.pred = j;
        }
        if (i > 0) ++*relaxations;
      }
    }
    if (next.empty()) return nullptr;
  }
  if (to >= s.slot_of.size() || s.slot_stamp[to] != s.stamp) return nullptr;
  return &s.layers[hops.size()][s.slot_of[to]];
}

}  // namespace

Relation AssembleChain(const std::vector<const Relation*>& chain_results,
                       ExecutionReport* report) {
  TCF_CHECK(!chain_results.empty());
  WallTimer timer;
  Relation acc = *chain_results.front();
  for (size_t i = 1; i < chain_results.size(); ++i) {
    size_t join_tuples = 0;
    acc = JoinMinPlus(acc, *chain_results[i], &join_tuples);
    if (report != nullptr) report->assembly_join_tuples += join_tuples;
  }
  if (report != nullptr) report->assembly_seconds += timer.ElapsedSeconds();
  return acc;
}

QueryAnswer AssembleCostAnswer(const Fragmentation& frag,
                               const QueryPlan& plan,
                               const std::vector<LocalQuerySpec>& specs,
                               NodeId from, NodeId to,
                               const std::vector<LocalQueryResult>& results,
                               ExecutionReport* report) {
  QueryAnswer answer;
  answer.chains_considered = plan.chains.size();
  if (plan.chains.empty()) return answer;
  answer.fragments_involved = InvolvedFragments(frag, plan, specs);
  answer.status = PlanResultsStatus(plan, results);
  if (!answer.status.ok()) return answer;

  // Sweep each chain; the overall best is the answer.
  WallTimer timer;
  SweepScratch& s = ThreadSweepScratch();
  size_t relaxations = 0;
  for (const std::vector<size_t>& hops : plan.chain_specs) {
    const Reached* reached = SweepChain(hops, results, from, to, s,
                                        &relaxations);
    if (reached != nullptr && reached->cost < answer.cost) {
      answer.cost = reached->cost;
    }
  }
  answer.connected = answer.cost != kInfinity;
  if (report != nullptr) {
    report->assembly_join_tuples += relaxations;
    report->assembly_seconds += timer.ElapsedSeconds();
  }
  return answer;
}

RouteAnswer AssembleRouteAnswer(const Fragmentation& frag,
                                const ComplementaryInfo& complementary,
                                const QueryPlan& plan,
                                const std::vector<LocalQuerySpec>& specs,
                                NodeId from, NodeId to,
                                const std::vector<LocalQueryResult>& results,
                                ExecutionReport* report) {
  RouteAnswer out;
  out.answer.chains_considered = plan.chains.size();
  if (plan.chains.empty()) return out;
  out.answer.fragments_involved = InvolvedFragments(frag, plan, specs);
  out.answer.status = PlanResultsStatus(plan, results);
  if (!out.answer.status.ok()) return out;
  WallTimer timer;

  // The cost sweep over each chain's relay layers — {from}, DS_1, ...,
  // DS_{m-1}, {to} — keeping the winning chain's relay sequence.
  SweepScratch& s = ThreadSweepScratch();
  size_t relaxations = 0;
  size_t best_chain = 0;
  Weight best_cost = kInfinity;
  std::vector<NodeId> best_relays;  // relay node at each layer boundary
  for (size_t c = 0; c < plan.chains.size(); ++c) {
    const std::vector<size_t>& hops = plan.chain_specs[c];
    const Reached* reached = SweepChain(hops, results, from, to, s,
                                        &relaxations);
    if (reached == nullptr || reached->cost >= best_cost) continue;
    best_cost = reached->cost;
    best_chain = c;
    // Backtrack the relay sequence from..to through the predecessors.
    best_relays.assign(hops.size() + 1, to);
    best_relays.front() = from;
    for (size_t i = hops.size() - 1, k = reached->pred; i > 0; --i) {
      best_relays[i] = s.layers[i][k].node;
      k = s.layers[i][k].pred;
    }
  }
  if (report != nullptr) report->assembly_join_tuples += relaxations;

  out.answer.cost = best_cost;
  out.answer.connected = best_cost != kInfinity;
  if (!out.answer.connected) {
    if (report != nullptr) report->assembly_seconds += timer.ElapsedSeconds();
    return out;
  }

  // Expand each leg inside its fragment's augmented graph; shortcut hops
  // (edge ids past the real-edge count) are replaced by their witnesses.
  // A leg that cannot be expanded fails the route query just like a
  // phase-1 failure would.
  auto fail = [&](Status status) {
    out.answer = QueryAnswer();
    out.answer.chains_considered = plan.chains.size();
    out.answer.status = std::move(status);
    out.route.clear();
    if (report != nullptr) report->assembly_seconds += timer.ElapsedSeconds();
    return std::move(out);
  };
  const FragmentChain& chain = plan.chains[best_chain];
  out.route = {from};
  for (size_t i = 0; i < chain.size(); ++i) {
    const NodeId u = best_relays[i];
    const NodeId v = best_relays[i + 1];
    if (u == v) continue;  // pass-through at a shared border node
    size_t real_edges = 0;
    Result<Graph> built = BuildAugmentedFragment(frag, &complementary,
                                                 chain[i], &real_edges);
    // The re-expansion re-reads the shortcut store.
    if (!built.ok()) return fail(built.status());
    const Graph augmented = std::move(built).value();
    ShortestPaths sp = Dijkstra(augmented, u);
    TCF_CHECK_MSG(sp.distance[v] != kInfinity,
                  "relay pair unreachable during reconstruction");
    std::vector<NodeId> nodes = sp.PathTo(v);
    std::vector<EdgeId> edges = sp.EdgesTo(v);
    for (size_t k = 0; k < edges.size(); ++k) {
      if (edges[k] < real_edges) {
        out.route.push_back(nodes[k + 1]);
        continue;
      }
      const std::span<const NodeId> witness =
          complementary.Witness(nodes[k], nodes[k + 1]);
      if (witness.empty()) {
        std::string message = "no witness route for shortcut ";
        message += std::to_string(nodes[k]);
        message += "->";
        message += std::to_string(nodes[k + 1]);
        return fail(Status::InvalidArgument(message));
      }
      out.route.insert(out.route.end(), witness.begin() + 1, witness.end());
    }
  }
  if (report != nullptr) report->assembly_seconds += timer.ElapsedSeconds();
  return out;
}

}  // namespace tcf
