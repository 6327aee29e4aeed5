#include "dsa/complementary.h"

#include <unordered_map>
#include <unordered_set>

#include "graph/algorithms.h"

namespace tcf {

ComplementaryInfo PrecomputeComplementary(const Fragmentation& frag) {
  const Graph& g = frag.graph();
  ComplementaryInfo info;
  info.shortcuts.resize(frag.NumFragments());

  // Distinct border nodes across all fragments.
  std::vector<NodeId> border;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (frag.IsBorderNode(v)) border.push_back(v);
  }

  // One global single-source search per border node.
  std::unordered_map<NodeId, ShortestPaths> search_from;
  search_from.reserve(border.size());
  for (NodeId v : border) {
    search_from.emplace(v, Dijkstra(g, v));
    ++info.searches;
  }

  for (FragmentId f = 0; f < frag.NumFragments(); ++f) {
    const std::vector<NodeId>& nodes = frag.BorderNodes(f);
    Relation& rel = info.shortcuts[f];
    for (NodeId x : nodes) {
      const ShortestPaths& sp = search_from.at(x);
      for (NodeId y : nodes) {
        if (x == y) continue;
        if (sp.distance[y] == kInfinity) continue;
        rel.Add(x, y, sp.distance[y]);
        info.witness.emplace(PairKey(x, y), sp.PathTo(y));
      }
    }
    rel.SortCanonical();
    info.total_tuples += rel.size();
  }
  return info;
}

namespace {

// The incremental path of RefreshComplementary. It reads the old epoch's
// shortcut relations — which may be paged — so any storage failure aborts
// it with a Status (leaving `*out` partial) and the public wrapper falls
// back to a full recompute, which needs no old data.
Status TryRefreshIncremental(const Fragmentation& frag,
                             const Fragmentation& old_frag,
                             const ComplementaryInfo& old,
                             const ComplementaryDelta& delta,
                             ComplementaryRefresh* out_ptr) {
  const Graph& g = frag.graph();
  const size_t num_frags = frag.NumFragments();

  ComplementaryRefresh& out = *out_ptr;
  ComplementaryInfo& info = out.info;
  info.shortcuts.resize(num_frags);

  // Rule (a): a changed border-node set invalidates the fragment's whole
  // tuple schema — every one of its (current) border nodes is dirty. This
  // also covers nodes that became borders this epoch: they have no prior
  // search to reuse, and their appearance changed the set.
  std::vector<char> border_set_changed(num_frags, 0);
  std::vector<char> dirty(g.NumNodes(), 0);
  for (FragmentId f = 0; f < num_frags; ++f) {
    if (frag.BorderNodes(f) != old_frag.BorderNodes(f)) {
      border_set_changed[f] = 1;
      for (NodeId x : frag.BorderNodes(f)) dirty[x] = 1;
    }
  }

  // Rule (b): tightened edges can only break stored witness routes. A
  // source whose every witness avoids them keeps all its old distances.
  if (!delta.tightened.empty()) {
    std::unordered_set<uint64_t> tightened;
    tightened.reserve(delta.tightened.size());
    for (const auto& [u, v] : delta.tightened) {
      tightened.insert(PairKey(u, v));
    }
    for (const auto& [key, route] : old.witness) {
      const NodeId x = static_cast<NodeId>(key >> 32);
      if (x >= dirty.size() || dirty[x]) continue;
      for (size_t i = 0; i + 1 < route.size(); ++i) {
        if (tightened.count(PairKey(route[i], route[i + 1])) > 0) {
          dirty[x] = 1;
          break;
        }
      }
    }
  }

  // Rule (c) and the clean-source carry-over below probe the old shortcut
  // relations. Each one probed is read once, on its first probe, into a
  // map of min costs; for a paged relation this is where the store is
  // read, and a disk fault surfaces as a Status, not a crash.
  std::vector<std::unordered_map<uint64_t, Weight>> old_costs(num_frags);
  std::vector<char> old_read(num_frags, 0);
  auto read_old = [&](FragmentId f) -> Status {
    if (old_read[f]) return Status::OK();
    std::unordered_map<uint64_t, Weight>& costs = old_costs[f];
    costs.reserve(old.shortcuts[f].size());
    TCF_RETURN_NOT_OK(old.shortcuts[f].ForEach([&](const PathTuple& t) {
      auto [it, inserted] = costs.emplace(PairKey(t.src, t.dst), t.cost);
      if (!inserted && t.cost < it->second) it->second = t.cost;
    }));
    old_read[f] = 1;
    return Status::OK();
  };
  auto old_cost = [&](FragmentId f, NodeId x, NodeId y) {
    auto it = old_costs[f].find(PairKey(x, y));
    return it == old_costs[f].end() ? kInfinity : it->second;
  };

  // Rule (c): for each relaxed edge e = (u, v, w), exact new-graph
  // distances d(x, u) (backward search) and d(v, y) (forward search) let
  // us probe every still-clean co-border pair for an improvement through
  // e. Fragments with a changed border set are skipped — their borders
  // are all dirty already, and their old relation's pair schema is stale.
  for (const Edge& e : delta.relaxed) {
    const ShortestPaths to_u = Dijkstra(g, e.src, Direction::kBackward);
    const ShortestPaths from_v = Dijkstra(g, e.dst, Direction::kForward);
    info.searches += 2;
    for (FragmentId f = 0; f < num_frags; ++f) {
      if (border_set_changed[f]) continue;
      TCF_RETURN_NOT_OK(read_old(f));
      const std::vector<NodeId>& borders = frag.BorderNodes(f);
      for (NodeId x : borders) {
        if (dirty[x] || to_u.distance[x] == kInfinity) continue;
        for (NodeId y : borders) {
          if (y == x || from_v.distance[y] == kInfinity) continue;
          if (to_u.distance[x] + e.weight + from_v.distance[y] <
              old_cost(f, x, y)) {
            dirty[x] = 1;
            break;
          }
        }
      }
    }
  }

  // Re-run the whole-graph search of exactly the dirty border nodes.
  std::unordered_map<NodeId, ShortestPaths> fresh;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (!frag.IsBorderNode(v)) continue;
    if (dirty[v]) {
      fresh.emplace(v, Dijkstra(g, v));
      ++info.searches;
      ++out.dirty_border_nodes;
    } else {
      ++out.reused_border_nodes;
    }
  }

  for (FragmentId f = 0; f < num_frags; ++f) {
    const std::vector<NodeId>& borders = frag.BorderNodes(f);
    bool any_dirty = border_set_changed[f] != 0;
    for (NodeId x : borders) any_dirty = any_dirty || dirty[x] != 0;

    if (!any_dirty) {
      // Untouched schema, untouched distances: the old relation (and its
      // witnesses) carry over verbatim. A paged relation carries over as a
      // shared reference to its immutable store — no copy, no decode;
      // dirty fragments below are rebuilt tuple by tuple into resident
      // memory (the copy-on-write half of the epoch contract).
      info.shortcuts[f] = old.shortcuts[f];
      TCF_RETURN_NOT_OK(
          info.shortcuts[f].ForEach([&](const PathTuple& t) {
            auto it = old.witness.find(PairKey(t.src, t.dst));
            if (it != old.witness.end()) {
              info.witness.emplace(it->first, it->second);
            }
          }));
      info.total_tuples += info.shortcuts[f].size();
      ++out.reused_fragments;
      continue;
    }

    ++out.dirty_fragments;
    Relation& rel = info.shortcuts[f];
    for (NodeId x : borders) {
      if (dirty[x]) {
        const ShortestPaths& sp = fresh.at(x);
        for (NodeId y : borders) {
          if (x == y || sp.distance[y] == kInfinity) continue;
          rel.Add(x, y, sp.distance[y]);
          info.witness.emplace(PairKey(x, y), sp.PathTo(y));
        }
      } else {
        // A clean source inside a dirty fragment (possible only when the
        // border set is unchanged): its tuples are provably unchanged.
        TCF_RETURN_NOT_OK(read_old(f));
        for (NodeId y : borders) {
          if (x == y) continue;
          const Weight c = old_cost(f, x, y);
          if (c == kInfinity) continue;
          rel.Add(x, y, c);
          auto it = old.witness.find(PairKey(x, y));
          if (it != old.witness.end()) {
            info.witness.emplace(it->first, it->second);
          }
        }
      }
    }
    rel.SortCanonical();
    info.total_tuples += rel.size();
  }
  return Status::OK();
}

}  // namespace

ComplementaryRefresh RefreshComplementary(const Fragmentation& frag,
                                          const Fragmentation& old_frag,
                                          const ComplementaryInfo& old,
                                          const ComplementaryDelta& delta) {
  TCF_CHECK(frag.NumFragments() == old_frag.NumFragments());

  ComplementaryRefresh out;
  const Status incremental =
      TryRefreshIncremental(frag, old_frag, old, delta, &out);
  if (incremental.ok()) return out;

  // The old epoch's (paged) shortcut relations could not be read. The
  // full recompute needs nothing from the old epoch, so maintenance
  // survives a damaged old database at the cost of one epoch's worth of
  // incremental savings.
  out = ComplementaryRefresh();
  out.info = PrecomputeComplementary(frag);
  out.dirty_fragments = frag.NumFragments();
  out.dirty_border_nodes = out.info.searches;
  out.fallback_cause = incremental;
  return out;
}

}  // namespace tcf
