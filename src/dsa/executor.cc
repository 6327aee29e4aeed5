#include "dsa/executor.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

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

// Materializes the spec a key denotes.
LocalQuerySpec SpecFromKey(const SpecKey& key) {
  LocalQuerySpec spec;
  spec.fragment = std::get<0>(key);
  spec.sources = NodeSet(std::get<1>(key).begin(), std::get<1>(key).end());
  spec.targets = NodeSet(std::get<2>(key).begin(), std::get<2>(key).end());
  return spec;
}

}  // namespace

size_t SpecKeyHash::operator()(const SpecKey& key) const {
  // FNV-ish combine; the node lists are sorted, so equal specs always
  // produce equal hashes.
  uint64_t h = 0x9e3779b97f4a7c15ull ^ std::get<0>(key);
  auto mix = [&h](const std::vector<NodeId>& nodes) {
    h ^= nodes.size() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    for (NodeId n : nodes) {
      h ^= n + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
  };
  mix(std::get<1>(key));
  mix(std::get<2>(key));
  return static_cast<size_t>(h);
}

SubqueryTable::SubqueryTable(size_t num_shards) : table_(num_shards) {}

size_t SubqueryTable::Intern(SpecKey key) {
  auto result = table_.Intern(
      std::move(key), [](const SpecKey& k) { return SpecFromKey(k); });
  return static_cast<size_t>(result.handle);
}

size_t SubqueryTable::Flat::IndexOf(size_t ref) const {
  using Table = ShardedTable<SpecKey, LocalQuerySpec, SpecKeyHash>;
  return offsets[Table::ShardOf(ref)] + Table::SlotOf(ref);
}

SubqueryTable::Flat SubqueryTable::Flatten() {
  auto flattened = table_.Flatten();
  Flat flat;
  flat.specs = std::move(flattened.values);
  flat.offsets = std::move(flattened.offsets);
  return flat;
}

namespace {

// Appends one chain to `plan`: stamp the query constants into the hop
// templates and intern one subquery per hop — shared between chains and
// between a batch's queries when identical, so a fragment computes each
// selection once.
void StampChain(const FragmentChain& chain,
                const std::vector<HopTemplate>& hops, NodeId from, NodeId to,
                SubqueryTable* specs, QueryPlan* plan) {
  plan->chains.push_back(chain);
  std::vector<size_t>& refs = plan->chain_specs.emplace_back();
  refs.reserve(hops.size());
  for (const HopTemplate& hop : hops) {
    SpecKey key(hop.fragment,
                hop.source_is_endpoint ? std::vector<NodeId>{from}
                                       : hop.sources,
                hop.target_is_endpoint ? std::vector<NodeId>{to}
                                       : hop.targets);
    refs.push_back(specs->Intern(std::move(key)));
  }
}

// Plans one (from, to) pair from the cached skeletons of its endpoint
// fragments. A border node lives in several fragments and every one of
// them is a valid chain endpoint, so each endpoint-fragment pair
// contributes its chains. A chain begins in its pair's first fragment and
// ends in its second, so chains of different pairs never coincide and no
// chain is taken twice.
QueryPlan BuildPlan(const Fragmentation& frag, NodeId from, NodeId to,
                    size_t max_chains, ChainPlanCache* cache,
                    SubqueryTable* specs) {
  QueryPlan plan;
  for (FragmentId fa : frag.FragmentsOfNode(from)) {
    for (FragmentId fb : frag.FragmentsOfNode(to)) {
      bool was_hit = false;
      std::shared_ptr<const PlanSkeleton> skeleton =
          cache->SkeletonFor(frag, fa, fb, max_chains, &was_hit);
      (was_hit ? plan.cache_hits : plan.cache_misses) += 1;
      for (size_t c = 0; c < skeleton->chains.size(); ++c) {
        StampChain(skeleton->chains[c], skeleton->hops[c], from, to, specs,
                   &plan);
      }
    }
  }
  return plan;
}

}  // namespace

ParallelPlanResult PlanBatchInParallel(
    const Fragmentation& frag,
    const std::vector<std::pair<NodeId, NodeId>>& endpoints,
    size_t max_chains, ChainPlanCache* chain_cache, ThreadPool* pool) {
  TCF_CHECK(chain_cache != nullptr);
  // Shards buy concurrency, which a small batch cannot use; each costs a
  // mutex and a deque, and a batch of one would pay for 64 of them.
  const size_t num_shards = std::clamp<size_t>(endpoints.size(), 1, 64);
  ParallelPlanResult out;
  out.plans.assign(endpoints.size(), nullptr);
  out.memo = std::make_unique<
      ShardedTable<uint64_t, QueryPlan, PairKeyHash>>(num_shards);
  SubqueryTable specs(num_shards);
  std::atomic<size_t> memo_hits{0};

  // Two layers of reuse keep the coordinator scalable: the per-batch plan
  // memo interns whole plans by (from, to) — repeats (hot-pair traffic)
  // skip even spec interning — and the sharded spec table interns keyhole
  // subqueries without a global lock, so identical selections within a
  // query's chains or across queries are computed once. Plan refs stay
  // shard-encoded until the table is sealed below.
  auto plan_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto [from, to] = endpoints[i];
      if (from == to) continue;
      auto interned = out.memo->Intern(
          PairKey(from, to),
          [&](const uint64_t&) {
            return BuildPlan(frag, from, to, max_chains, chain_cache, &specs);
          });
      out.plans[i] = interned.value;
      if (!interned.inserted) {
        memo_hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelForRanges(endpoints.size(), plan_range);
  } else {
    plan_range(0, endpoints.size());
  }

  // Seal the sharded table into the flat spec vector phase 1 consumes,
  // and rewrite each distinct plan's shard handles to flat indices —
  // once per plan, not per endpoint pair.
  out.flat = specs.Flatten();
  out.memo->ForEach([&](QueryPlan& plan) {
    for (std::vector<size_t>& hops : plan.chain_specs) {
      for (size_t& ref : hops) ref = out.flat.IndexOf(ref);
    }
    out.cache_hits += plan.cache_hits;
    out.cache_misses += plan.cache_misses;
  });
  out.memo_hits = memo_hits.load(std::memory_order_relaxed);
  return out;
}

std::vector<LocalQueryResult> RunSites(
    const Fragmentation& frag, const ComplementaryInfo* complementary,
    const std::vector<LocalQuerySpec>& specs, LocalEngine engine,
    ThreadPool* pool, ExecutionReport* report) {
  std::vector<LocalQueryResult> results(specs.size());
  std::vector<double> seconds(specs.size(), 0.0);

  WallTimer phase_timer;
  auto run_one = [&](size_t i) {
    WallTimer site_timer;
    results[i] = RunLocalQuery(frag, complementary, specs[i], engine);
    seconds[i] = site_timer.ElapsedSeconds();
  };
  if (pool != nullptr) {
    pool->ParallelFor(specs.size(), run_one);
  } else {
    for (size_t i = 0; i < specs.size(); ++i) run_one(i);
  }
  const double wall = phase_timer.ElapsedSeconds();

  if (report != nullptr) {
    report->phase1_wall_seconds += wall;
    for (size_t i = 0; i < specs.size(); ++i) {
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

  // Assemble each chain; the overall best is the answer.
  for (size_t c = 0; c < plan.chains.size(); ++c) {
    std::vector<const Relation*> hop_results;
    hop_results.reserve(plan.chain_specs[c].size());
    for (size_t idx : plan.chain_specs[c]) {
      hop_results.push_back(&results[idx].paths);
    }
    Relation final = AssembleChain(hop_results, report);
    const Weight cost = final.BestCost(from, to);
    if (cost < answer.cost) answer.cost = cost;
  }
  answer.connected = answer.cost != kInfinity;
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

  // Dynamic program over each chain's relay layers, keeping predecessors.
  // Layers: {from}, DS_1, ..., DS_{m-1}, {to}; hop i's relation connects
  // layer i to layer i+1.
  size_t best_chain = 0;
  Weight best_cost = kInfinity;
  std::vector<NodeId> best_relays;  // relay node at each layer boundary
  for (size_t c = 0; c < plan.chains.size(); ++c) {
    const auto& hop_specs = plan.chain_specs[c];
    std::unordered_map<NodeId, Weight> dist = {{from, 0.0}};
    std::vector<std::unordered_map<NodeId, NodeId>> pred(hop_specs.size());
    for (size_t i = 0; i < hop_specs.size(); ++i) {
      const Relation& rel = results[hop_specs[i]].paths;
      std::unordered_map<NodeId, Weight> next;
      rel.ForEach([&](const PathTuple& t) {
        auto it = dist.find(t.src);
        if (it == dist.end()) return;
        const Weight d = it->second + t.cost;
        auto [slot, inserted] = next.emplace(t.dst, d);
        if (inserted || d < slot->second) {
          slot->second = d;
          pred[i][t.dst] = t.src;
        }
      });
      dist = std::move(next);
    }
    auto it = dist.find(to);
    if (it == dist.end() || it->second >= best_cost) continue;
    best_cost = it->second;
    best_chain = c;
    // Backtrack the relay sequence from..to.
    std::vector<NodeId> relays(hop_specs.size() + 1);
    relays.back() = to;
    for (size_t i = hop_specs.size(); i-- > 0;) {
      relays[i] = pred[i].at(relays[i + 1]);
    }
    best_relays = std::move(relays);
  }

  out.answer.cost = best_cost;
  out.answer.connected = best_cost != kInfinity;
  if (!out.answer.connected) {
    if (report != nullptr) report->assembly_seconds += timer.ElapsedSeconds();
    return out;
  }

  // Expand each leg inside its fragment's augmented graph; shortcut hops
  // (edge ids past the real-edge count) are replaced by their witnesses.
  const FragmentChain& chain = plan.chains[best_chain];
  out.route = {from};
  for (size_t i = 0; i < chain.size(); ++i) {
    const NodeId u = best_relays[i];
    const NodeId v = best_relays[i + 1];
    if (u == v) continue;  // pass-through at a shared border node
    size_t real_edges = 0;
    Result<Graph> built = BuildAugmentedFragment(frag, &complementary,
                                                 chain[i], &real_edges);
    if (!built.ok()) {
      // The re-expansion re-reads the shortcut store; a read failure here
      // fails the route query just like a phase-1 failure would.
      out.answer = QueryAnswer();
      out.answer.chains_considered = plan.chains.size();
      out.answer.status = built.status();
      out.route.clear();
      if (report != nullptr) {
        report->assembly_seconds += timer.ElapsedSeconds();
      }
      return out;
    }
    const Graph augmented = std::move(built).value();
    ShortestPaths sp = Dijkstra(augmented, u);
    TCF_CHECK_MSG(sp.distance[v] != kInfinity,
                  "relay pair unreachable during reconstruction");
    std::vector<NodeId> nodes = sp.PathTo(v);
    std::vector<EdgeId> edges = sp.EdgesTo(v);
    for (size_t k = 0; k < edges.size(); ++k) {
      if (edges[k] < real_edges) {
        out.route.push_back(nodes[k + 1]);
      } else {
        const auto& witness =
            complementary.witness.at(PairKey(nodes[k], nodes[k + 1]));
        out.route.insert(out.route.end(), witness.begin() + 1, witness.end());
      }
    }
  }
  if (report != nullptr) report->assembly_seconds += timer.ElapsedSeconds();
  return out;
}

}  // namespace tcf
