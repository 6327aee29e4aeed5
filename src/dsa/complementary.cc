#include "dsa/complementary.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "graph/algorithms.h"

namespace tcf {

void WitnessRow::Append(std::span<const NodeId> route) {
  TCF_CHECK(route.size() >= 2);
  TCF_CHECK(targets.empty() || route.back() > targets.back());
  nodes.insert(nodes.end(), route.begin(), route.end());
  targets.push_back(route.back());
  offsets.push_back(nodes.size());
}

std::span<const NodeId> ComplementaryInfo::Witness(NodeId x,
                                                   NodeId y) const {
  const auto row = witness.find(x);
  if (row == witness.end()) return {};
  const std::vector<NodeId>& targets = row->second->targets;
  const auto it = std::lower_bound(targets.begin(), targets.end(), y);
  if (it == targets.end() || *it != y) return {};
  return row->second->Route(static_cast<size_t>(it - targets.begin()));
}

namespace {

/// Every border node of every fragment containing x, other than x, sorted.
std::vector<NodeId> CoBorders(const Fragmentation& frag, NodeId x) {
  std::vector<NodeId> out;
  for (FragmentId f : frag.FragmentsOfNode(x)) {
    const std::vector<NodeId>& borders = frag.BorderNodes(f);
    out.insert(out.end(), borders.begin(), borders.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove(out.begin(), out.end(), x), out.end());
  return out;
}

/// x's row from its whole-graph search `sp`; null when no co-border is
/// reachable.
std::shared_ptr<const WitnessRow> BuildRow(const Fragmentation& frag,
                                           NodeId x,
                                           const ShortestPaths& sp) {
  auto row = std::make_shared<WitnessRow>();
  for (NodeId y : CoBorders(frag, x)) {
    if (sp.distance[y] != kInfinity) row->Append(sp.PathTo(y));
  }
  if (row->targets.empty()) return nullptr;
  return row;
}

/// The routes of `row` whose targets are in `keep` (sorted); null when
/// none is left.
std::shared_ptr<const WitnessRow> FilterRow(const WitnessRow& row,
                                            const std::vector<NodeId>& keep) {
  auto out = std::make_shared<WitnessRow>();
  for (size_t i = 0; i < row.size(); ++i) {
    if (std::binary_search(keep.begin(), keep.end(), row.targets[i])) {
      out->Append(row.Route(i));
    }
  }
  if (out->targets.empty()) return nullptr;
  return out;
}

}  // namespace

ComplementaryInfo PrecomputeComplementary(const Fragmentation& frag) {
  const Graph& g = frag.graph();
  ComplementaryInfo info;
  info.shortcuts.resize(frag.NumFragments());

  // One global single-source search per distinct border node.
  std::unordered_map<NodeId, ShortestPaths> search_from;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (!frag.IsBorderNode(v)) continue;
    const ShortestPaths& sp =
        search_from.emplace(v, Dijkstra(g, v)).first->second;
    ++info.searches;
    if (auto row = BuildRow(frag, v, sp)) {
      info.witness.emplace(v, std::move(row));
    }
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
  // The set is probed only at hops leaving a tightened edge's tail.
  if (!delta.tightened.empty()) {
    std::unordered_set<uint64_t> tightened;
    std::vector<char> tightened_tail(g.NumNodes(), 0);
    tightened.reserve(delta.tightened.size());
    for (const auto& [u, v] : delta.tightened) {
      tightened.insert(PairKey(u, v));
      tightened_tail[u] = 1;
    }
    auto crosses = [&](std::span<const NodeId> route) {
      for (size_t i = 0; i + 1 < route.size(); ++i) {
        if (tightened_tail[route[i]] &&
            tightened.count(PairKey(route[i], route[i + 1])) > 0) {
          return true;
        }
      }
      return false;
    };
    for (const auto& [x, row] : old.witness) {
      if (x >= dirty.size() || dirty[x]) continue;
      for (size_t i = 0; i < row->size() && !dirty[x]; ++i) {
        dirty[x] = crosses(row->Route(i)) ? 1 : 0;
      }
    }
  }

  // Rule (c) and the clean sources of dirty fragments below probe the old
  // shortcut relations. Each one probed is read once, on its first probe,
  // into a map of min costs; for a paged relation this is where the store
  // is read, and a disk fault surfaces as a Status, not a crash.
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

  // Re-run the whole-graph search of exactly the dirty border nodes; a
  // dirty source gets a fresh witness row. A clean source keeps its old
  // row by pointer: its distances, and with no gained fragment (that would
  // have changed a border set) its co-borders, are unchanged — unless it
  // left a fragment, which shrinks its co-borders to a filtered copy.
  std::unordered_map<NodeId, ShortestPaths> fresh;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (!frag.IsBorderNode(v)) continue;
    std::shared_ptr<const WitnessRow> row;
    if (dirty[v]) {
      const ShortestPaths& sp =
          fresh.emplace(v, Dijkstra(g, v)).first->second;
      ++info.searches;
      ++out.dirty_border_nodes;
      row = BuildRow(frag, v, sp);
    } else {
      ++out.reused_border_nodes;
      const auto it = old.witness.find(v);
      if (it == old.witness.end()) continue;
      row = frag.FragmentsOfNode(v) == old_frag.FragmentsOfNode(v)
                ? it->second
                : FilterRow(*it->second, CoBorders(frag, v));
    }
    if (row != nullptr) info.witness.emplace(v, std::move(row));
  }

  for (FragmentId f = 0; f < num_frags; ++f) {
    const std::vector<NodeId>& borders = frag.BorderNodes(f);
    bool any_dirty = border_set_changed[f] != 0;
    for (NodeId x : borders) any_dirty = any_dirty || dirty[x] != 0;

    if (!any_dirty) {
      // Untouched schema, untouched distances: the old relation carries
      // over by handle, unread. A paged relation stays a shared reference
      // to its immutable store; dirty fragments below are rebuilt tuple by
      // tuple into resident memory (the copy-on-write half of the epoch
      // contract).
      info.shortcuts[f] = old.shortcuts[f];
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
