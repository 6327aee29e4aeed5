#include "dsa/local_query.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.h"

namespace tcf {

namespace {

/// Fragment base relation plus the fragment's shortcut relation. Fails
/// when the (paged) shortcut relation cannot be read — a base relation
/// missing shortcuts would silently answer queries wrong.
Result<Relation> AugmentedRelation(const Fragmentation& frag,
                                   const ComplementaryInfo* complementary,
                                   FragmentId f) {
  Relation base = Relation::FromEdgeSubset(frag.graph(),
                                           frag.FragmentEdges(f));
  if (complementary != nullptr) {
    // Append streams the shortcut relation through its cursor: when the
    // shortcuts are paged, only this fragment's extent is pinned, and only
    // for the duration of the copy — the keyhole property at the storage
    // layer.
    TCF_RETURN_NOT_OK(base.Append(complementary->ForFragment(f)));
    base.AggregateMin();
  }
  return base;
}

}  // namespace

Result<Graph> BuildAugmentedFragment(const Fragmentation& frag,
                                     const ComplementaryInfo* complementary,
                                     FragmentId fragment,
                                     size_t* num_real_edges_out) {
  const Graph& g = frag.graph();
  GraphBuilder builder;
  builder.EnsureNodes(g.NumNodes());
  for (EdgeId e : frag.FragmentEdges(fragment)) {
    const Edge& edge = g.edge(e);
    builder.AddEdge(edge.src, edge.dst, edge.weight);
  }
  if (num_real_edges_out != nullptr) {
    *num_real_edges_out = frag.FragmentEdges(fragment).size();
  }
  if (complementary != nullptr) {
    TCF_RETURN_NOT_OK(complementary->ForFragment(fragment)
                          .ForEach([&](const PathTuple& t) {
                            builder.AddEdge(t.src, t.dst, t.cost);
                          }));
  }
  return builder.Build();
}

namespace {

LocalQueryResult RunRelational(const Fragmentation& frag,
                               const ComplementaryInfo* complementary,
                               const LocalQuerySpec& spec,
                               TcAlgorithm algorithm) {
  LocalQueryResult result;
  Result<Relation> base = AugmentedRelation(frag, complementary,
                                            spec.fragment);
  if (!base.ok()) {
    result.status = base.status();
    return result;
  }
  TcOptions options;
  options.algorithm = algorithm;
  options.semiring = TcSemiring::kMinPlus;
  options.sources = spec.sources;
  options.targets = spec.targets;
  result.paths = TransitiveClosure(base.value(), options, &result.stats);
  return result;
}

// Roles of a local id in the current subquery (bits of SearchScratch::role).
constexpr uint8_t kSource = 1;
constexpr uint8_t kTarget = 2;

/// Per-thread search state, reused by every subquery the thread runs and
/// grown to the largest fragment it has searched. Between searches `dist`
/// is kInfinity except at the ids in `touched`, and `role` is non-zero
/// only at the ids in `near` and `far`; Clear() restores the all-cold
/// state.
struct SearchScratch {
  std::vector<Weight> dist;
  std::vector<uint32_t> touched;
  std::vector<uint8_t> role;   // kSource | kTarget of each local id
  std::vector<uint32_t> near;  // local ids the searches start from
  std::vector<uint32_t> far;   // local ids they must settle
  std::vector<std::pair<Weight, uint32_t>> heap;
  std::vector<LocalArc> shortcut_arcs;
  LocalCsr overlay;
  // Global -> local ids of the current subquery's fragment, one entry per
  // graph node: local_of[v] holds iff local_stamp[v] == stamp, so a
  // subquery writes only its own fragment's entries. A wide-DS fragment
  // streams thousands of shortcut tuples per subquery; binary searches of
  // FragmentNodes cost most of such a subquery.
  std::vector<NodeId> local_of;
  std::vector<uint64_t> local_stamp;
  uint64_t stamp = 0;

  void MapFragment(const std::vector<NodeId>& nodes, size_t num_nodes) {
    if (local_of.size() < num_nodes) {
      local_of.resize(num_nodes);
      local_stamp.resize(num_nodes, 0);
    }
    ++stamp;
    for (NodeId i = 0; i < nodes.size(); ++i) {
      local_of[nodes[i]] = i;
      local_stamp[nodes[i]] = stamp;
    }
  }
  /// Local id of global node `v`, or kInvalidNode outside the fragment.
  NodeId LocalOf(NodeId v) const {
    return v < local_of.size() && local_stamp[v] == stamp ? local_of[v]
                                                           : kInvalidNode;
  }

  void ResetDistances() {
    for (uint32_t v : touched) dist[v] = kInfinity;
    touched.clear();
  }
  void Clear() {
    ResetDistances();
    for (uint32_t v : near) role[v] = 0;
    for (uint32_t v : far) role[v] = 0;
    near.clear();
    far.clear();
  }
};

SearchScratch& ThreadScratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

void Relax(const LocalCsr& csr, uint32_t v, Weight d, SearchScratch& s) {
  for (uint32_t i = csr.offsets[v]; i < csr.offsets[v + 1]; ++i) {
    const uint32_t w = csr.heads[i];
    const Weight nd = d + csr.weights[i];
    if (nd < s.dist[w]) {
      if (s.dist[w] == kInfinity) s.touched.push_back(w);
      s.dist[w] = nd;
      s.heap.emplace_back(nd, w);
      std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>());
    }
  }
}

/// Dijkstra from local node `origin` over `graph` plus the shortcut
/// `overlay` (null without complementary info), both in the search's
/// direction. Ties pop in local-id order, which is global-id order. Stops
/// as soon as every far-side node (role `far_role`) is settled; returns
/// the number of nodes settled.
size_t Search(const LocalCsr& graph, const LocalCsr* overlay,
              uint8_t far_role, uint32_t origin, SearchScratch& s) {
  s.dist[origin] = 0.0;
  s.touched.push_back(origin);
  s.heap.clear();
  s.heap.emplace_back(0.0, origin);
  size_t settled = 0;
  size_t far_left = s.far.size();
  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>());
    const auto [d, v] = s.heap.back();
    s.heap.pop_back();
    if (d > s.dist[v]) continue;  // stale entry
    ++settled;
    if ((s.role[v] & far_role) && --far_left == 0) break;
    Relax(graph, v, d, s);
    if (overlay != nullptr) Relax(*overlay, v, d, s);
  }
  return settled;
}

/// The Dijkstra engine. A subquery between border nodes only is the
/// selection of its fragment's shortcut relation; any other runs one
/// search per node of the smaller keyhole side, on the fragment's local
/// graph plus its shortcut relation streamed into a per-thread overlay.
/// Either way the shortcut relation is streamed once, resident and paged
/// stores alike, so a paged subquery pins only this fragment's extent,
/// only while it is read.
LocalQueryResult RunLocalSearch(const Fragmentation& frag,
                                const ComplementaryInfo* complementary,
                                const LocalQuerySpec& spec) {
  LocalQueryResult result;
  const FragmentId f = spec.fragment;
  const std::vector<NodeId>& nodes = frag.FragmentNodes(f);
  const size_t n = nodes.size();
  SearchScratch& s = ThreadScratch();
  s.Clear();
  if (s.dist.size() < n) {
    s.dist.resize(n, kInfinity);
    s.role.resize(n, 0);
  }
  s.MapFragment(nodes, frag.graph().NumNodes());

  // Search from the smaller side: forward from each source, or backward
  // from each target when there are fewer targets. Nodes outside the
  // fragment reach nothing inside it.
  const bool backward = spec.targets.size() < spec.sources.size();
  bool all_border = true;
  auto to_local = [&](const NodeSet& ids, uint8_t role,
                      std::vector<uint32_t>* out) {
    for (NodeId v : ids) {
      const NodeId local = s.LocalOf(v);
      if (local == kInvalidNode) continue;
      out->push_back(local);
      s.role[local] |= role;
      all_border = all_border && frag.IsBorderNode(v);
    }
  };
  to_local(spec.sources, kSource, backward ? &s.far : &s.near);
  to_local(spec.targets, kTarget, backward ? &s.near : &s.far);
  if (s.near.empty() || s.far.empty()) return result;

  // Between border nodes the shortcut relation is the answer: it holds
  // (x, y, d*(x, y)) for every border pair of the fragment, and every path
  // of the augmented fragment is a real path, so no search can beat d*.
  const bool select_shortcuts = complementary != nullptr && all_border;
  const LocalCsr* overlay = nullptr;
  if (complementary != nullptr) {
    s.shortcut_arcs.clear();
    size_t foreign = 0;
    const Status read = complementary->ForFragment(f).ForEach(
        [&](const PathTuple& t) {
          const NodeId a = s.LocalOf(t.src);
          const NodeId b = s.LocalOf(t.dst);
          if (a == kInvalidNode || b == kInvalidNode) {
            ++foreign;
          } else if (!select_shortcuts) {
            s.shortcut_arcs.push_back(LocalArc{a, b, t.cost});
          } else if ((s.role[a] & kSource) && (s.role[b] & kTarget)) {
            result.paths.Add(t);
          }
        });
    if (!read.ok()) {
      result.status = read;
      return result;
    }
    if (foreign > 0) {
      result.status = Status::InvalidArgument(
          "fragment " + std::to_string(f) + " shortcut relation has " +
          std::to_string(foreign) + " tuples joining nodes outside it");
      return result;
    }
    if (select_shortcuts) return result;
    BuildLocalCsr(n, s.shortcut_arcs, backward, &s.overlay);
    overlay = &s.overlay;
  }

  const LocalGraph& local = frag.LocalGraphOf(f);
  const LocalCsr& graph = backward ? local.reverse : local.forward;
  const uint8_t far_role = backward ? kSource : kTarget;
  for (uint32_t origin : s.near) {
    result.stats.iterations += Search(graph, overlay, far_role, origin, s);
    for (uint32_t v : s.far) {
      if (v == origin || s.dist[v] == kInfinity) continue;
      if (backward) {
        result.paths.Add(nodes[v], nodes[origin], s.dist[v]);
      } else {
        result.paths.Add(nodes[origin], nodes[v], s.dist[v]);
      }
    }
    s.ResetDistances();
  }
  return result;
}

}  // namespace

LocalQueryResult RunLocalQuery(const Fragmentation& frag,
                               const ComplementaryInfo* complementary,
                               const LocalQuerySpec& spec,
                               LocalEngine engine) {
  TCF_CHECK(spec.fragment < frag.NumFragments());
  TCF_CHECK(!spec.sources.empty() && !spec.targets.empty());

  LocalQueryResult result;
  switch (engine) {
    case LocalEngine::kSemiNaive:
      result = RunRelational(frag, complementary, spec, TcAlgorithm::kSemiNaive);
      break;
    case LocalEngine::kSmart:
      result = RunRelational(frag, complementary, spec, TcAlgorithm::kSmart);
      break;
    case LocalEngine::kDijkstra:
      result = RunLocalSearch(frag, complementary, spec);
      break;
  }
  // A failed subquery stays failed: no post-processing can repair a
  // partial path relation.
  if (!result.status.ok()) return result;

  // Zero-cost pass-through tuples for shared source/target nodes. The
  // relational closure only derives paths of length >= 1, and a chain may
  // cross a fragment at a single disconnection-set node.
  for (NodeId v : spec.sources) {
    if (spec.targets.count(v)) result.paths.Add(v, v, 0.0);
  }
  result.paths.AggregateMin();
  result.paths.SortCanonical();
  result.stats.result_size = result.paths.size();
  return result;
}

}  // namespace tcf
