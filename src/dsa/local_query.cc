#include "dsa/local_query.h"

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <tuple>
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


/// Zero-cost pass-through tuples for the nodes in both sources and
/// targets, then canonical order. The relational closure only derives
/// paths of length >= 1, and a chain may cross a fragment at a single
/// disconnection-set node. A failed subquery stays failed: no
/// post-processing can repair a partial path relation.
void Finish(const LocalQuerySpec& spec, LocalQueryResult* result) {
  if (!result->status.ok()) return;
  for (NodeId v : spec.sources) {
    if (spec.targets.count(v)) result->paths.Add(v, v, 0.0);
  }
  result->paths.AggregateMin();
  result->paths.SortCanonical();
  result->stats.result_size = result->paths.size();
}

/// How the Dijkstra engine answers one subquery of a group.
enum class Answer : uint8_t {
  kNothing,  // a side has no node in the fragment: no tuple to find
  kRows,     // both sides all of B(f), with complementary info: the
             // stored shortcut tuples as they stream
  kSelect,   // border nodes only, with complementary info: overlay rows
  kSearch,   // one search per node of the smaller keyhole side
};

/// One subquery of a group: its sides in local ids, as ranges of
/// GroupScratch::ids — sources [begin, mid), targets [mid, end).
struct Sides {
  uint32_t begin = 0;
  uint32_t mid = 0;
  uint32_t end = 0;
  Answer answer = Answer::kNothing;
};

/// A search a subquery of the group needs, in its direction from one node
/// of its near side. Sorted, the needs of one (direction, origin) are
/// adjacent and become one search.
struct Need {
  bool backward = false;
  uint32_t origin = 0;
  uint32_t spec = 0;  // index in the group

  bool operator<(const Need& o) const {
    return std::tie(backward, origin, spec) <
           std::tie(o.backward, o.origin, o.spec);
  }
};

/// Per-thread state of the Dijkstra engine, reused by every group the
/// thread runs and grown to the largest fragment it has seen. Between
/// searches `dist` is kInfinity except at the ids in `touched`, and
/// `marked` is zero everywhere.
struct GroupScratch {
  std::vector<Weight> dist;
  std::vector<uint32_t> touched;
  std::vector<uint8_t> marked;  // the far side of the current search, or
                                // the targets of the current selection
  std::vector<uint32_t> far;    // the marked ids of the current search
  std::vector<std::pair<Weight, uint32_t>> heap;
  std::vector<LocalArc> shortcut_arcs;
  std::vector<PathTuple> rows;  // the stream in global ids, when kept
  LocalCsr overlay;          // shortcut arcs by tail
  LocalCsr reverse_overlay;  // by head, built only for backward searches
  std::vector<uint32_t> ids;  // every subquery's sides, see Sides
  std::vector<Sides> sides;   // one per subquery of the group
  std::vector<Need> needs;
  // Global -> local ids of the current group's fragment, one entry per
  // graph node: local_of[v] holds iff local_stamp[v] == stamp, so a group
  // writes only its own fragment's entries. A wide-DS fragment streams
  // thousands of shortcut tuples; binary searches of FragmentNodes cost
  // most of such a stream.
  std::vector<NodeId> local_of;
  std::vector<uint64_t> local_stamp;
  uint64_t stamp = 0;

  void MapFragment(const std::vector<NodeId>& nodes, size_t num_nodes) {
    if (dist.size() < nodes.size()) {
      dist.resize(nodes.size(), kInfinity);
      marked.resize(nodes.size(), 0);
    }
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
};

GroupScratch& ThreadScratch() {
  thread_local GroupScratch scratch;
  return scratch;
}

/// Streams fragment f's shortcut relation into `s.shortcut_arcs`, in local
/// ids, and when `keep_rows` also into `s.rows` as they are (stored
/// relations are sorted by (src, dst), see ComplementaryInfo::shortcuts).
/// Fails on an unreadable page, and on a tuple joining a node outside the
/// fragment (it has no local id to be placed at).
Status StreamShortcuts(const ComplementaryInfo& complementary, FragmentId f,
                       bool keep_rows, GroupScratch& s) {
  s.shortcut_arcs.clear();
  s.rows.clear();
  size_t foreign = 0;
  TCF_RETURN_NOT_OK(
      complementary.ForFragment(f).ForEach([&](const PathTuple& t) {
        const NodeId a = s.LocalOf(t.src);
        const NodeId b = s.LocalOf(t.dst);
        if (a == kInvalidNode || b == kInvalidNode) {
          ++foreign;
        } else {
          s.shortcut_arcs.push_back(LocalArc{a, b, t.cost});
          if (keep_rows) s.rows.push_back(t);
        }
      }));
  if (foreign > 0) {
    return Status::InvalidArgument(
        "fragment " + std::to_string(f) + " shortcut relation has " +
        std::to_string(foreign) + " tuples joining nodes outside it");
  }
  return Status::OK();
}

void Relax(const LocalCsr& csr, uint32_t v, Weight d, GroupScratch& s) {
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
/// as soon as every marked node (`s.far`) is settled; returns the number
/// of nodes settled.
size_t Search(const LocalCsr& graph, const LocalCsr* overlay,
              uint32_t origin, GroupScratch& s) {
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
    if (s.marked[v] && --far_left == 0) break;
    Relax(graph, v, d, s);
    if (overlay != nullptr) Relax(*overlay, v, d, s);
  }
  return settled;
}

}  // namespace

void RunLocalQueryGroup(const Fragmentation& frag,
                        const ComplementaryInfo* complementary,
                        std::span<const LocalQuerySpec* const> specs,
                        std::span<LocalQueryResult> results) {
  TCF_CHECK(!specs.empty() && specs.size() == results.size());
  const FragmentId f = specs.front()->fragment;
  TCF_CHECK(f < frag.NumFragments());
  const std::vector<NodeId>& nodes = frag.FragmentNodes(f);
  const size_t n = nodes.size();
  GroupScratch& s = ThreadScratch();
  s.MapFragment(nodes, frag.graph().NumNodes());

  // Each subquery's sides in local ids (nodes outside the fragment reach
  // nothing in it), how it is answered, and the searches it needs.
  s.ids.clear();
  s.sides.clear();
  s.needs.clear();
  bool needs_shortcuts = false;
  bool needs_overlay = false;
  bool any_rows = false;
  bool any_backward = false;
  const size_t num_border = frag.BorderNodes(f).size();
  for (uint32_t k = 0; k < specs.size(); ++k) {
    const LocalQuerySpec& spec = *specs[k];
    TCF_CHECK(spec.fragment == f);
    TCF_CHECK(!spec.sources.empty() && !spec.targets.empty());
    results[k] = LocalQueryResult();
    bool all_border = true;
    auto to_local = [&](const NodeSet& ids) {
      for (NodeId v : ids) {
        const NodeId local = s.LocalOf(v);
        if (local == kInvalidNode) continue;
        s.ids.push_back(local);
        all_border = all_border && frag.IsBorderNode(v);
      }
      return static_cast<uint32_t>(s.ids.size());
    };
    Sides sides;
    sides.begin = static_cast<uint32_t>(s.ids.size());
    sides.mid = to_local(spec.sources);
    sides.end = to_local(spec.targets);
    if (sides.begin == sides.mid || sides.mid == sides.end) {
      sides.answer = Answer::kNothing;
    } else if (complementary != nullptr && all_border &&
               spec.sources.size() == num_border &&
               spec.targets.size() == num_border &&
               sides.mid - sides.begin == num_border &&
               sides.end - sides.mid == num_border) {
      // Both sides are exactly B(f): the stored relation itself, read as
      // it streams — no overlay walk, no self-tuples, no aggregation.
      sides.answer = Answer::kRows;
      any_rows = true;
    } else if (complementary != nullptr && all_border) {
      // Between border nodes the shortcut relation is the answer: it
      // holds (x, y, d*(x, y)) for every border pair of the fragment, and
      // every path of the augmented fragment is a real path, so no search
      // can beat d*.
      sides.answer = Answer::kSelect;
    } else {
      // Search from the smaller side: forward from each source, or
      // backward from each target when there are fewer targets.
      sides.answer = Answer::kSearch;
      const bool backward = SearchesBackward(spec);
      any_backward = any_backward || backward;
      const uint32_t from = backward ? sides.mid : sides.begin;
      const uint32_t to = backward ? sides.end : sides.mid;
      for (uint32_t i = from; i < to; ++i) {
        s.needs.push_back(Need{backward, s.ids[i], k});
      }
    }
    needs_shortcuts = needs_shortcuts || (complementary != nullptr &&
                                          sides.answer != Answer::kNothing);
    needs_overlay = needs_overlay || sides.answer == Answer::kSelect ||
                    sides.answer == Answer::kSearch;
    s.sides.push_back(sides);
  }

  // One stream of the shortcut relation for the whole group. A failed
  // stream fails every subquery that needed it, before any of them reads
  // a partly built overlay.
  const LocalCsr* overlay = nullptr;
  const LocalCsr* reverse_overlay = nullptr;
  if (needs_shortcuts) {
    const Status read = StreamShortcuts(*complementary, f, any_rows, s);
    if (!read.ok()) {
      for (size_t k = 0; k < specs.size(); ++k) {
        if (s.sides[k].answer != Answer::kNothing) results[k].status = read;
        Finish(*specs[k], &results[k]);
      }
      return;
    }
    if (needs_overlay) {
      BuildLocalCsr(n, s.shortcut_arcs, /*reverse=*/false, &s.overlay);
      overlay = &s.overlay;
    }
    if (any_backward) {
      BuildLocalCsr(n, s.shortcut_arcs, /*reverse=*/true,
                    &s.reverse_overlay);
      reverse_overlay = &s.reverse_overlay;
    }
  }

  // Border-to-border subqueries: the stored rows whole, or each source's
  // overlay row restricted to the subquery's targets.
  for (size_t k = 0; k < specs.size(); ++k) {
    const Sides& sides = s.sides[k];
    if (sides.answer == Answer::kRows) {
      results[k].paths = Relation(s.rows);
      results[k].stats.result_size = s.rows.size();
      continue;
    }
    if (sides.answer != Answer::kSelect) continue;
    for (uint32_t i = sides.mid; i < sides.end; ++i) s.marked[s.ids[i]] = 1;
    for (uint32_t i = sides.begin; i < sides.mid; ++i) {
      const uint32_t a = s.ids[i];
      for (uint32_t j = s.overlay.offsets[a]; j < s.overlay.offsets[a + 1];
           ++j) {
        const uint32_t b = s.overlay.heads[j];
        if (s.marked[b]) {
          results[k].paths.Add(nodes[a], nodes[b], s.overlay.weights[j]);
        }
      }
    }
    for (uint32_t i = sides.mid; i < sides.end; ++i) s.marked[s.ids[i]] = 0;
  }

  // One search per distinct (direction, origin). It stops once the union
  // of its subqueries' far sides is settled; a longer Dijkstra run pops
  // the same prefix of nodes, so each subquery reads the distances its
  // own search would have found. The settled count goes to the first
  // subquery of the run, so the group's counts sum to its work.
  if (!s.needs.empty()) {
    std::sort(s.needs.begin(), s.needs.end());
    const LocalGraph& local = frag.LocalGraphOf(f);
    for (size_t r = 0; r < s.needs.size();) {
      const bool backward = s.needs[r].backward;
      const uint32_t origin = s.needs[r].origin;
      size_t e = r;
      while (e < s.needs.size() && s.needs[e].backward == backward &&
             s.needs[e].origin == origin) {
        ++e;
      }
      auto far_side = [&](const Sides& sides) {
        return backward ? std::pair(sides.begin, sides.mid)
                        : std::pair(sides.mid, sides.end);
      };
      for (size_t q = r; q < e; ++q) {
        const auto [lo, hi] = far_side(s.sides[s.needs[q].spec]);
        for (uint32_t i = lo; i < hi; ++i) {
          const uint32_t v = s.ids[i];
          if (!s.marked[v]) {
            s.marked[v] = 1;
            s.far.push_back(v);
          }
        }
      }
      results[s.needs[r].spec].stats.iterations +=
          Search(backward ? local.reverse : local.forward,
                 backward ? reverse_overlay : overlay, origin, s);
      for (size_t q = r; q < e; ++q) {
        const uint32_t k = s.needs[q].spec;
        const auto [lo, hi] = far_side(s.sides[k]);
        for (uint32_t i = lo; i < hi; ++i) {
          const uint32_t v = s.ids[i];
          if (v == origin || s.dist[v] == kInfinity) continue;
          if (backward) {
            results[k].paths.Add(nodes[v], nodes[origin], s.dist[v]);
          } else {
            results[k].paths.Add(nodes[origin], nodes[v], s.dist[v]);
          }
        }
      }
      for (uint32_t v : s.touched) s.dist[v] = kInfinity;
      s.touched.clear();
      for (uint32_t v : s.far) s.marked[v] = 0;
      s.far.clear();
      r = e;
    }
  }
  for (size_t k = 0; k < specs.size(); ++k) {
    if (s.sides[k].answer != Answer::kRows) Finish(*specs[k], &results[k]);
  }
}

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
    case LocalEngine::kDijkstra: {
      const LocalQuerySpec* group[] = {&spec};
      RunLocalQueryGroup(frag, complementary, group, {&result, 1});
      return result;
    }
  }
  Finish(spec, &result);
  return result;
}

}  // namespace tcf
