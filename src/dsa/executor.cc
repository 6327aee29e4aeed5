#include "dsa/executor.h"

#include <algorithm>
#include <span>
#include <string>
#include <tuple>

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

// A batch with fewer distinct pairs than this is planned on the calling
// thread: its pairs take less time to plan than a round trip through a
// pool that phase-1 tasks of concurrent batches also queue on.
constexpr size_t kPoolPlanPairs = 256;

// The component of every fragment in the fragmentation graph, numbered
// from 0 in fragment order.
std::vector<uint32_t> FragmentComponents(const Fragmentation& frag) {
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  std::vector<uint32_t> component(frag.NumFragments(), kNone);
  std::vector<FragmentId> stack;
  uint32_t next = 0;
  for (FragmentId root = 0; root < frag.NumFragments(); ++root) {
    if (component[root] != kNone) continue;
    component[root] = next;
    stack.push_back(root);
    while (!stack.empty()) {
      const FragmentId f = stack.back();
      stack.pop_back();
      for (FragmentId g : frag.FragmentNeighbors(f)) {
        if (component[g] == kNone) {
          component[g] = next;
          stack.push_back(g);
        }
      }
    }
    ++next;
  }
  return component;
}

// Per-thread scratch of RowFragments, grown to the fragment count.
struct PruneScratch {
  enum : uint8_t { kOut, kIn, kTerminal };
  std::vector<uint8_t> state;
  std::vector<uint32_t> degree;
  std::vector<FragmentId> leaves;
};

// Fills `rows` with the fragments whose rows an overlay search from
// `from` to `to` reads, ascending: the endpoints' component after
// repeatedly removing every fragment with at most one neighbour that holds
// no endpoint, less an interior endpoint's fragment and fragments without
// border nodes (see PlanBatchInParallel).
void RowFragments(const Fragmentation& frag,
                  const std::vector<uint32_t>& component, NodeId from,
                  NodeId to, std::vector<size_t>* rows) {
  thread_local PruneScratch s;
  const size_t n = frag.NumFragments();
  s.state.assign(n, PruneScratch::kOut);
  s.degree.resize(n);
  s.leaves.clear();
  const uint32_t c = component[frag.FragmentsOfNode(from).front()];
  for (FragmentId f = 0; f < n; ++f) {
    if (component[f] != c) continue;
    s.state[f] = PruneScratch::kIn;
    s.degree[f] = static_cast<uint32_t>(frag.FragmentNeighbors(f).size());
  }
  for (NodeId v : {from, to}) {
    for (FragmentId f : frag.FragmentsOfNode(v)) {
      s.state[f] = PruneScratch::kTerminal;
    }
  }
  for (FragmentId f = 0; f < n; ++f) {
    if (s.state[f] == PruneScratch::kIn && s.degree[f] <= 1) {
      s.leaves.push_back(f);
    }
  }
  // A fragment joins `leaves` once: when first seen with at most one
  // neighbour, or when its count drops from 2 to 1.
  while (!s.leaves.empty()) {
    const FragmentId f = s.leaves.back();
    s.leaves.pop_back();
    s.state[f] = PruneScratch::kOut;
    for (FragmentId g : frag.FragmentNeighbors(f)) {
      if (s.state[g] == PruneScratch::kOut) continue;
      if (--s.degree[g] == 1 && s.state[g] == PruneScratch::kIn) {
        s.leaves.push_back(g);
      }
    }
  }
  // An interior endpoint's hop reaches (or closes from) each border node
  // of its fragment at its global distance, so no search improves on it
  // through that fragment's rows.
  for (NodeId v : {from, to}) {
    const std::vector<FragmentId>& frags = frag.FragmentsOfNode(v);
    if (frags.size() == 1) s.state[frags.front()] = PruneScratch::kOut;
  }
  rows->clear();
  for (FragmentId f = 0; f < n; ++f) {
    if (s.state[f] != PruneScratch::kOut && !frag.BorderNodes(f).empty()) {
      rows->push_back(f);
    }
  }
}

// Plans one distinct pair, leaving the hop indices for the dedup and
// `rows` holding fragment ids. A fragment without border nodes has no
// neighbour, so an interior endpoint of it shares a component only with
// endpoints of the same fragment: the component test covers it.
void PlanPair(const Fragmentation& frag,
              const std::vector<uint32_t>& component, NodeId from, NodeId to,
              QueryPlan* plan) {
  const std::vector<FragmentId>& fa = frag.FragmentsOfNode(from);
  const std::vector<FragmentId>& fb = frag.FragmentsOfNode(to);
  if (fa.empty() || fb.empty() ||
      component[fa.front()] != component[fb.front()]) {
    return;
  }
  if (fa.size() == 1 && fb.size() == 1 && fa.front() == fb.front()) {
    plan->kind = QueryPlan::Kind::kLocal;
    return;
  }
  plan->kind = QueryPlan::Kind::kOverlay;
  RowFragments(frag, component, from, to, &plan->rows);
}

// The hops of a fragment in their order of emission, after its rows.
enum class HopKind : uint8_t { kFrom, kLocal, kTo };

// A planned hop awaiting its spec index: its fragment and kind, the
// endpoint(s) it selects (0 for the side a border set fills) and the plan
// slot the index goes to. Equal keys are equal specs.
struct HopRef {
  FragmentId fragment;
  HopKind kind;
  NodeId from;
  NodeId to;
  size_t* slot;

  auto Key() const { return std::tie(fragment, kind, from, to); }
};

NodeSet BorderSet(const Fragmentation& frag, FragmentId f) {
  const std::vector<NodeId>& border = frag.BorderNodes(f);
  return NodeSet(border.begin(), border.end());
}

}  // namespace

ParallelPlanResult PlanBatchInParallel(
    const Fragmentation& frag,
    const std::vector<std::pair<NodeId, NodeId>>& endpoints,
    size_t /*max_chains*/, ChainPlanCache* /*chain_cache*/,
    ThreadPool* pool) {
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
  if (pairs.empty()) return out;

  const std::vector<uint32_t> component = FragmentComponents(frag);
  auto plan_range = [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      PlanPair(frag, component, static_cast<NodeId>(pairs[p] >> 32),
               static_cast<NodeId>(pairs[p]), &out.distinct[p]);
    }
  };
  if (pool != nullptr && pairs.size() >= kPoolPlanPairs) {
    pool->ParallelForRanges(pairs.size(), plan_range);
  } else {
    plan_range(0, pairs.size());
  }

  // Collect the hops and the fragments whose rows some plan reads.
  std::vector<HopRef> refs;
  refs.reserve(2 * pairs.size());
  std::vector<uint8_t> needs_rows(frag.NumFragments(), 0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    const NodeId from = static_cast<NodeId>(pairs[p] >> 32);
    const NodeId to = static_cast<NodeId>(pairs[p]);
    QueryPlan& plan = out.distinct[p];
    const std::vector<FragmentId>& fa = frag.FragmentsOfNode(from);
    const std::vector<FragmentId>& fb = frag.FragmentsOfNode(to);
    switch (plan.kind) {
      case QueryPlan::Kind::kUnconnected:
        break;
      case QueryPlan::Kind::kLocal:
        refs.push_back({fa.front(), HopKind::kLocal, from, to,
                        &plan.from_hop});
        break;
      case QueryPlan::Kind::kOverlay:
        if (fa.size() == 1) {
          refs.push_back({fa.front(), HopKind::kFrom, from, 0,
                          &plan.from_hop});
        }
        if (fb.size() == 1) {
          refs.push_back({fb.front(), HopKind::kTo, 0, to, &plan.to_hop});
        }
        for (size_t f : plan.rows) needs_rows[f] = 1;
        break;
    }
  }
  std::sort(refs.begin(), refs.end(), [](const HopRef& a, const HopRef& b) {
    return a.Key() < b.Key();
  });

  // Emit the specs fragment by fragment: the rows first, then the hops in
  // key order, one spec per distinct key.
  std::vector<LocalQuerySpec>& specs = out.flat.specs;
  std::vector<size_t> rows_spec(frag.NumFragments(), QueryPlan::kNoSpec);
  size_t r = 0;
  for (FragmentId f = 0; f < frag.NumFragments(); ++f) {
    if (needs_rows[f]) {
      rows_spec[f] = specs.size();
      NodeSet border = BorderSet(frag, f);
      specs.push_back(LocalQuerySpec{f, border, std::move(border)});
    }
    for (; r < refs.size() && refs[r].fragment == f; ++r) {
      const HopRef& ref = refs[r];
      if (r == 0 || refs[r - 1].Key() != ref.Key()) {
        switch (ref.kind) {
          case HopKind::kFrom:
            specs.push_back({f, {ref.from}, BorderSet(frag, f)});
            break;
          case HopKind::kLocal:
            specs.push_back({f, {ref.from}, {ref.to}});
            break;
          case HopKind::kTo:
            specs.push_back({f, BorderSet(frag, f), {ref.to}});
            break;
        }
      }
      *ref.slot = specs.size() - 1;
    }
  }
  for (QueryPlan& plan : out.distinct) {
    for (size_t& row : plan.rows) row = rows_spec[row];
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

// Calls fn(i) for every spec index the plan reads.
template <typename Fn>
void ForEachSpec(const QueryPlan& plan, Fn&& fn) {
  if (plan.from_hop != QueryPlan::kNoSpec) fn(plan.from_hop);
  if (plan.to_hop != QueryPlan::kNoSpec) fn(plan.to_hop);
  for (size_t idx : plan.rows) fn(idx);
}

// The distinct fragments the plan's subqueries touch, ascending.
std::vector<FragmentId> InvolvedFragments(
    const QueryPlan& plan, const std::vector<LocalQuerySpec>& specs) {
  std::vector<FragmentId> out;
  ForEachSpec(plan, [&](size_t idx) { out.push_back(specs[idx].fragment); });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// First failure among the phase-1 results a plan consumes (OK when all
// its subqueries read their storage cleanly). Assembly over a failed
// subquery would compute a confidently wrong answer from partial paths.
Status PlanResultsStatus(const QueryPlan& plan,
                         const std::vector<LocalQueryResult>& results) {
  Status status = Status::OK();
  ForEachSpec(plan, [&](size_t idx) {
    if (status.ok() && !results[idx].status.ok()) status = results[idx].status;
  });
  return status;
}

// The path semirings of the overlay search: how a step extends a path's
// value, which of two values is better, the value of the empty path and
// that of no path.
struct MinPlus {
  static constexpr Weight kEmpty = 0.0;
  static constexpr Weight kNone = kInfinity;
  static Weight Extend(Weight a, Weight b) { return a + b; }
  static bool Better(Weight a, Weight b) { return a < b; }
};

struct MaxMin {
  static constexpr Weight kEmpty = kInfinity;
  static constexpr Weight kNone = 0.0;
  static Weight Extend(Weight a, Weight b) { return std::min(a, b); }
  static bool Better(Weight a, Weight b) { return a > b; }
};

/// Per-thread search state over global node ids, reused by every query the
/// thread assembles: value[v], pred[v] and via[v] (the fragment whose row
/// set value[v]) hold iff seen[v] == stamp.
struct OverlayScratch {
  std::vector<Weight> value;
  std::vector<NodeId> pred;
  std::vector<FragmentId> via;
  std::vector<uint64_t> seen;
  uint64_t stamp = 0;
  std::vector<std::pair<Weight, NodeId>> heap;

  void Begin(size_t num_nodes) {
    if (seen.size() < num_nodes) {
      value.resize(num_nodes);
      pred.resize(num_nodes);
      via.resize(num_nodes);
      seen.resize(num_nodes, 0);
    }
    ++stamp;
    heap.clear();
  }
  bool Seen(NodeId v) const { return seen[v] == stamp; }
};

OverlayScratch& ThreadOverlayScratch() {
  thread_local OverlayScratch scratch;
  return scratch;
}

/// The tuples with src == v of a relation sorted by (src, dst).
std::span<const PathTuple> TuplesFrom(std::span<const PathTuple> tuples,
                                      NodeId v) {
  auto lo = std::lower_bound(
      tuples.begin(), tuples.end(), v,
      [](const PathTuple& t, NodeId x) { return t.src < x; });
  auto hi = lo;
  while (hi != tuples.end() && hi->src == v) ++hi;
  return {lo, hi};
}

/// What an overlay search found: the best value at `to`, and the border
/// node it left the overlay from (the node whose `to`-hop tuple closed it,
/// or `to` itself), kInvalidNode when nothing reached `to`.
struct OverlayResult {
  Weight value = 0.0;
  NodeId sink = kInvalidNode;
};

/// The overlay search of a kOverlay plan in semiring S; `tuples_of(i)`
/// returns spec i's tuples sorted by (src, dst). Leaves each settled
/// node's predecessor in `s` (kInvalidNode where the search began at it).
/// Adds the tuples it combines to `*relaxations`.
template <typename S, typename TuplesOf>
OverlayResult SearchOverlay(const Fragmentation& frag, const QueryPlan& plan,
                            const std::vector<LocalQuerySpec>& specs,
                            NodeId from, NodeId to, const TuplesOf& tuples_of,
                            OverlayScratch& s, size_t* relaxations) {
  // Heap order: the better value first, ties by node id.
  auto later = [](const std::pair<Weight, NodeId>& a,
                  const std::pair<Weight, NodeId>& b) {
    return S::Better(b.first, a.first) ||
           (a.first == b.first && a.second > b.second);
  };
  auto offer = [&](NodeId v, Weight value, NodeId pred, FragmentId via) {
    if (s.Seen(v) && !S::Better(value, s.value[v])) return;
    s.seen[v] = s.stamp;
    s.value[v] = value;
    s.pred[v] = pred;
    s.via[v] = via;
    s.heap.emplace_back(value, v);
    std::push_heap(s.heap.begin(), s.heap.end(), later);
  };

  s.Begin(frag.graph().NumNodes());
  if (plan.from_hop != QueryPlan::kNoSpec) {
    const FragmentId fa = specs[plan.from_hop].fragment;
    for (const PathTuple& t : tuples_of(plan.from_hop)) {
      offer(t.dst, t.cost, kInvalidNode, fa);
      ++*relaxations;
    }
  } else {
    offer(from, S::kEmpty, kInvalidNode, Fragmentation::kInvalidFragment);
  }
  std::span<const PathTuple> sink_tuples;
  if (plan.to_hop != QueryPlan::kNoSpec) sink_tuples = tuples_of(plan.to_hop);

  OverlayResult best{S::kNone, kInvalidNode};
  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), later);
    const auto [value, v] = s.heap.back();
    s.heap.pop_back();
    if (S::Better(s.value[v], value)) continue;  // stale entry
    if (!S::Better(value, best.value)) break;    // nothing left can win
    if (plan.to_hop == QueryPlan::kNoSpec) {
      if (v == to) {
        best = {value, v};
        break;
      }
    } else {
      for (const PathTuple& t : TuplesFrom(sink_tuples, v)) {
        ++*relaxations;
        const Weight closed = S::Extend(value, t.cost);
        if (S::Better(closed, best.value)) best = {closed, v};
      }
    }
    // The row of v's own arrival fragment cannot help: its predecessor
    // relaxed that row already, and global distances obey the triangle
    // inequality (widest capacities its max-min form).
    for (FragmentId f : frag.FragmentsOfNode(v)) {
      if (f == s.via[v]) continue;
      auto row = std::lower_bound(
          plan.rows.begin(), plan.rows.end(), f,
          [&](size_t idx, FragmentId g) { return specs[idx].fragment < g; });
      if (row == plan.rows.end() || specs[*row].fragment != f) continue;
      for (const PathTuple& t : TuplesFrom(tuples_of(*row), v)) {
        ++*relaxations;
        offer(t.dst, S::Extend(value, t.cost), v, f);
      }
    }
  }
  return best;
}

/// Runs a plan of any kind in semiring S: a kLocal plan's value is its
/// hop's (from, to) tuple.
template <typename S, typename TuplesOf>
OverlayResult SearchPlan(const Fragmentation& frag, const QueryPlan& plan,
                         const std::vector<LocalQuerySpec>& specs,
                         NodeId from, NodeId to, const TuplesOf& tuples_of,
                         OverlayScratch& s, size_t* relaxations) {
  switch (plan.kind) {
    case QueryPlan::Kind::kUnconnected:
      break;
    case QueryPlan::Kind::kLocal:
      for (const PathTuple& t : TuplesFrom(tuples_of(plan.from_hop), from)) {
        if (t.dst == to) return {t.cost, to};
      }
      break;
    case QueryPlan::Kind::kOverlay:
      return SearchOverlay<S>(frag, plan, specs, from, to, tuples_of, s,
                              relaxations);
  }
  return {S::kNone, kInvalidNode};
}

/// Phase-1 results as the search reads them.
auto ResultTuples(const std::vector<LocalQueryResult>& results) {
  return [&results](size_t idx) -> std::span<const PathTuple> {
    return results[idx].paths.tuples();
  };
}

/// Appends the witness route of shortcut x -> y to `route` (which ends at
/// x); kInvalidArgument when the shortcut has none.
Status AppendWitness(const ComplementaryInfo& complementary, NodeId x,
                     NodeId y, std::vector<NodeId>* route) {
  const std::span<const NodeId> witness = complementary.Witness(x, y);
  if (witness.empty()) {
    std::string message = "no witness route for shortcut ";
    message += std::to_string(x);
    message += "->";
    message += std::to_string(y);
    return Status::InvalidArgument(message);
  }
  route->insert(route->end(), witness.begin() + 1, witness.end());
  return Status::OK();
}

/// Appends the route u..v inside fragment f's augmented graph to `route`
/// (which ends at u), each shortcut hop replaced by its witness.
Status ExpandLeg(const Fragmentation& frag,
                 const ComplementaryInfo& complementary, FragmentId f,
                 NodeId u, NodeId v, std::vector<NodeId>* route) {
  if (u == v) return Status::OK();
  size_t real_edges = 0;
  // The re-expansion re-reads the shortcut store.
  Result<Graph> built =
      BuildAugmentedFragment(frag, &complementary, f, &real_edges);
  if (!built.ok()) return built.status();
  const Graph augmented = std::move(built).value();
  ShortestPaths sp = Dijkstra(augmented, u);
  TCF_CHECK_MSG(sp.distance[v] != kInfinity,
                "relay pair unreachable during reconstruction");
  const std::vector<NodeId> nodes = sp.PathTo(v);
  const std::vector<EdgeId> edges = sp.EdgesTo(v);
  for (size_t k = 0; k < edges.size(); ++k) {
    if (edges[k] < real_edges) {
      route->push_back(nodes[k + 1]);
    } else {
      TCF_RETURN_NOT_OK(
          AppendWitness(complementary, nodes[k], nodes[k + 1], route));
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
  if (plan.kind == QueryPlan::Kind::kUnconnected) return answer;
  answer.fragments_involved = InvolvedFragments(plan, specs);
  answer.status = PlanResultsStatus(plan, results);
  if (!answer.status.ok()) return answer;

  WallTimer timer;
  size_t relaxations = 0;
  answer.cost = SearchPlan<MinPlus>(frag, plan, specs, from, to,
                                    ResultTuples(results),
                                    ThreadOverlayScratch(), &relaxations)
                    .value;
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
  if (plan.kind == QueryPlan::Kind::kUnconnected) return out;
  out.answer.fragments_involved = InvolvedFragments(plan, specs);
  out.answer.status = PlanResultsStatus(plan, results);
  if (!out.answer.status.ok()) return out;
  WallTimer timer;

  OverlayScratch& s = ThreadOverlayScratch();
  size_t relaxations = 0;
  const OverlayResult best = SearchPlan<MinPlus>(
      frag, plan, specs, from, to, ResultTuples(results), s, &relaxations);
  if (report != nullptr) report->assembly_join_tuples += relaxations;
  out.answer.cost = best.value;
  out.answer.connected = best.value != kInfinity;
  if (!out.answer.connected) {
    if (report != nullptr) report->assembly_seconds += timer.ElapsedSeconds();
    return out;
  }

  // The border nodes the search passed, from its first to `sink`.
  std::vector<NodeId> relays;
  if (plan.kind == QueryPlan::Kind::kOverlay) {
    for (NodeId v = best.sink; v != kInvalidNode; v = s.pred[v]) {
      relays.push_back(v);
    }
    std::reverse(relays.begin(), relays.end());
  }

  // Expand the hops inside their fragments and each overlay step through
  // its witness. A step that cannot be expanded fails the route query
  // just like a phase-1 failure would.
  out.route = {from};
  Status expanded = Status::OK();
  if (plan.kind == QueryPlan::Kind::kLocal) {
    expanded = ExpandLeg(frag, complementary, specs[plan.from_hop].fragment,
                         from, to, &out.route);
  } else {
    if (plan.from_hop != QueryPlan::kNoSpec) {
      expanded = ExpandLeg(frag, complementary,
                           specs[plan.from_hop].fragment, from,
                           relays.front(), &out.route);
    }
    for (size_t i = 0; expanded.ok() && i + 1 < relays.size(); ++i) {
      expanded = AppendWitness(complementary, relays[i], relays[i + 1],
                               &out.route);
    }
    if (expanded.ok() && plan.to_hop != QueryPlan::kNoSpec) {
      expanded = ExpandLeg(frag, complementary, specs[plan.to_hop].fragment,
                           relays.back(), to, &out.route);
    }
  }
  if (!expanded.ok()) {
    out.answer = QueryAnswer();
    out.answer.status = std::move(expanded);
    out.route.clear();
  }
  if (report != nullptr) report->assembly_seconds += timer.ElapsedSeconds();
  return out;
}

Weight AssembleWidestCapacity(
    const Fragmentation& frag, const QueryPlan& plan,
    const std::vector<LocalQuerySpec>& specs, NodeId from, NodeId to,
    std::span<const std::span<const PathTuple>> tuples,
    ExecutionReport* report) {
  WallTimer timer;
  size_t relaxations = 0;
  const Weight capacity =
      SearchPlan<MaxMin>(frag, plan, specs, from, to,
                         [tuples](size_t idx) { return tuples[idx]; },
                         ThreadOverlayScratch(), &relaxations)
          .value;
  if (report != nullptr) {
    report->assembly_join_tuples += relaxations;
    report->assembly_seconds += timer.ElapsedSeconds();
  }
  return capacity;
}

}  // namespace tcf
