#include "dsa/maintenance.h"

#include <algorithm>
#include <utility>

#include "graph/builder.h"
#include "util/logging.h"

namespace tcf {

namespace {

Graph BuildStagedGraph(const std::vector<Point>& coords, size_t num_nodes,
                       const std::vector<Edge>& edges) {
  GraphBuilder builder;
  if (!coords.empty()) {
    for (const Point& p : coords) builder.AddNode(p);
  } else {
    builder.EnsureNodes(num_nodes);
  }
  for (const Edge& e : edges) builder.AddEdge(e.src, e.dst, e.weight);
  return builder.Build();
}

/// The fragmentation-graph adjacency as a comparable value: the sorted
/// pair set of nonempty disconnection sets. If this changes between
/// epochs, chains not enumerable in the old fragmentation graph may exist,
/// so no cached plan is trustworthy.
std::vector<std::pair<FragmentId, FragmentId>> AdjacencyPairs(
    const Fragmentation& frag) {
  std::vector<std::pair<FragmentId, FragmentId>> pairs;
  pairs.reserve(frag.disconnection_sets().size());
  for (const DisconnectionSet& ds : frag.disconnection_sets()) {
    pairs.emplace_back(ds.frag_a, ds.frag_b);
  }
  return pairs;  // disconnection_sets() is sorted by (frag_a, frag_b)
}

}  // namespace

MaintainedDatabase::MaintainedDatabase(
    Graph graph, std::vector<FragmentId> fragment_of_edge,
    size_t num_fragments, DsaOptions options)
    : options_(options),
      edges_(graph.edges()),
      coords_(graph.coordinates()),
      num_nodes_(graph.NumNodes()),
      fragment_of_edge_(std::move(fragment_of_edge)),
      num_fragments_(num_fragments) {
  TCF_CHECK(fragment_of_edge_.size() == edges_.size());
  PublishInitial();
}

MaintainedDatabase MaintainedDatabase::FromFragmentation(
    const Fragmentation& frag, DsaOptions options) {
  GraphBuilder builder;
  const Graph& g = frag.graph();
  if (g.has_coordinates()) {
    for (const Point& p : g.coordinates()) builder.AddNode(p);
  } else {
    builder.EnsureNodes(g.NumNodes());
  }
  for (const Edge& e : g.edges()) builder.AddEdge(e.src, e.dst, e.weight);
  return MaintainedDatabase(builder.Build(), frag.fragment_of_edge(),
                            frag.NumFragments(), options);
}

MaintainedDatabase::MaintainedDatabase(DsaSnapshot snapshot,
                                       DsaOptions options)
    : options_(options),
      edges_(snapshot.graph->edges()),
      coords_(snapshot.graph->coordinates()),
      num_nodes_(snapshot.graph->NumNodes()),
      fragment_of_edge_(snapshot.frag->fragment_of_edge()),
      num_fragments_(snapshot.frag->NumFragments()),
      next_epoch_(snapshot.epoch + 1) {
  TCF_CHECK(snapshot.graph != nullptr && snapshot.frag != nullptr &&
            snapshot.db != nullptr);
  TCF_CHECK(fragment_of_edge_.size() == edges_.size());
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

void MaintainedDatabase::PublishInitial() {
  auto graph = std::make_shared<const Graph>(
      BuildStagedGraph(coords_, num_nodes_, edges_));
  std::shared_ptr<const Fragmentation> frag(
      new Fragmentation(graph.get(), fragment_of_edge_, num_fragments_),
      [graph](const Fragmentation* p) { delete p; });
  // Compaction may renumber fragments; adopt the compacted assignment.
  fragment_of_edge_ = frag->fragment_of_edge();
  num_fragments_ = frag->NumFragments();
  std::shared_ptr<const DsaDatabase> db(
      new DsaDatabase(frag.get(), options_),
      [frag](const DsaDatabase* p) { delete p; });
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = DsaSnapshot{0, std::move(graph), std::move(frag),
                          std::move(db)};
}

DsaSnapshot MaintainedDatabase::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

uint64_t MaintainedDatabase::epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_.epoch;
}

FragmentId MaintainedDatabase::PickFragment(const Fragmentation& frag,
                                            NodeId src, NodeId dst) const {
  // Prefer a fragment already containing both endpoints; then the smallest
  // fragment containing one; then the smallest fragment overall.
  const auto& fs = frag.FragmentsOfNode(src);
  const auto& fd = frag.FragmentsOfNode(dst);
  for (FragmentId f : fs) {
    if (std::find(fd.begin(), fd.end(), f) != fd.end()) return f;
  }
  auto smallest_of = [&](const std::vector<FragmentId>& candidates) {
    FragmentId best = Fragmentation::kInvalidFragment;
    for (FragmentId f : candidates) {
      if (best == Fragmentation::kInvalidFragment ||
          frag.FragmentEdges(f).size() < frag.FragmentEdges(best).size()) {
        best = f;
      }
    }
    return best;
  };
  std::vector<FragmentId> either(fs.begin(), fs.end());
  either.insert(either.end(), fd.begin(), fd.end());
  FragmentId best = smallest_of(either);
  if (best != Fragmentation::kInvalidFragment) return best;
  std::vector<FragmentId> all(frag.NumFragments());
  for (FragmentId f = 0; f < frag.NumFragments(); ++f) all[f] = f;
  return smallest_of(all);
}

EpochStats MaintainedDatabase::ApplyEpoch(
    const std::vector<EdgeUpdate>& updates) {
  std::lock_guard<std::mutex> update_lock(update_mutex_);
  const DsaSnapshot old_snap = Snapshot();
  const Fragmentation& old_frag = *old_snap.frag;

  EpochStats stats;
  stats.epoch = old_snap.epoch;

  // Stage every op, classifying its weight-level effect for the
  // incremental complementary refresh. Structural classification (the
  // legacy meter) is against PRE-epoch node sets, matching the single-op
  // semantics the meters always had.
  ComplementaryDelta delta;
  std::vector<std::pair<EdgeId, Weight>> reweighted;
  bool structural = false;
  for (const EdgeUpdate& u : updates) {
    TCF_CHECK_MSG(u.HasValidWeight(),
                  "update weights must be finite and non-negative");
    switch (u.kind) {
      case EdgeUpdate::Kind::kInsert: {
        TCF_CHECK(u.src < num_nodes_ && u.dst < num_nodes_);
        const FragmentId f =
            u.target.value_or(PickFragment(old_frag, u.src, u.dst));
        TCF_CHECK(f < num_fragments_);
        const auto& nodes = old_frag.FragmentNodes(f);
        structural =
            structural ||
            !std::binary_search(nodes.begin(), nodes.end(), u.src) ||
            !std::binary_search(nodes.begin(), nodes.end(), u.dst);
        edges_.push_back(Edge{u.src, u.dst, u.weight});
        fragment_of_edge_.push_back(f);
        delta.relaxed.push_back(Edge{u.src, u.dst, u.weight});
        ++stats.edges_inserted;
        ++stats.ops_applied;
        break;
      }
      case EdgeUpdate::Kind::kDelete: {
        size_t removed = 0;
        size_t out = 0;
        for (size_t e = 0; e < edges_.size(); ++e) {
          if (edges_[e].src == u.src && edges_[e].dst == u.dst) {
            ++removed;
            continue;
          }
          edges_[out] = edges_[e];
          fragment_of_edge_[out] = fragment_of_edge_[e];
          ++out;
        }
        if (removed == 0) break;
        edges_.resize(out);
        fragment_of_edge_.resize(out);
        delta.tightened.emplace_back(u.src, u.dst);
        stats.edges_removed += removed;
        ++stats.ops_applied;
        // A deletion can shrink a fragment's node set (and thus the
        // disconnection sets), so it is always a structural event on the
        // legacy meter; the exact dirty sets below may still find nothing
        // changed.
        structural = true;
        break;
      }
      case EdgeUpdate::Kind::kReweight: {
        bool decreased = false;
        bool increased = false;
        size_t changed = 0;
        for (EdgeId id = 0; id < edges_.size(); ++id) {
          Edge& e = edges_[id];
          if (e.src != u.src || e.dst != u.dst || e.weight == u.weight) {
            continue;
          }
          (u.weight < e.weight ? decreased : increased) = true;
          e.weight = u.weight;
          reweighted.emplace_back(id, u.weight);
          ++changed;
        }
        if (changed == 0) break;
        if (decreased) {
          delta.relaxed.push_back(Edge{u.src, u.dst, u.weight});
        }
        if (increased) delta.tightened.emplace_back(u.src, u.dst);
        stats.edges_reweighted += changed;
        ++stats.ops_applied;
        break;
      }
    }
  }
  if (stats.ops_applied == 0) return stats;  // nothing to publish

  const uint64_t epoch_id = next_epoch_++;
  stats.epoch = epoch_id;
  stats.published = true;
  stats.structural = structural;

  // An epoch that inserted and deleted nothing keeps the edge list and its
  // fragment assignment, and with them everything the fragmentation
  // derives: it patches the old graph's weights and copies the old
  // fragmentation. Any other epoch rebuilds both from the staged edges.
  const bool edge_set_changed =
      stats.edges_inserted > 0 || stats.edges_removed > 0;
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const Fragmentation> frag;
  if (edge_set_changed) {
    graph = std::make_shared<const Graph>(
        BuildStagedGraph(coords_, num_nodes_, edges_));
    frag.reset(
        new Fragmentation(graph.get(), fragment_of_edge_, num_fragments_),
        [graph](const Fragmentation* p) { delete p; });
    fragment_of_edge_ = frag->fragment_of_edge();
  } else {
    // edges_ is index-aligned with the snapshot graph's edge ids.
    const Graph& old_graph = *old_snap.graph;
    TCF_CHECK(old_graph.NumEdges() == edges_.size());
    for (const auto& [id, weight] : reweighted) {
      TCF_CHECK(old_graph.edge(id).src == edges_[id].src &&
                old_graph.edge(id).dst == edges_[id].dst);
    }
    graph = std::make_shared<const Graph>(old_graph.Reweighted(reweighted));
    frag.reset(new Fragmentation(graph.get(), old_frag),
               [graph](const Fragmentation* p) { delete p; });
  }
  const size_t new_num_fragments = frag->NumFragments();
  // Compaction preserves the relative order of nonempty fragments, so an
  // unchanged count means unchanged ids; a changed count renumbers and
  // every identity-keyed carry-over below is off the table.
  stats.renumbered = new_num_fragments != num_fragments_;
  num_fragments_ = new_num_fragments;

  // Exact post-hoc dirty sets (id-aligned epochs only).
  std::vector<bool> dirty_fragment;
  bool adjacency_changed = true;
  if (!stats.renumbered) {
    dirty_fragment.assign(num_fragments_, false);
    for (FragmentId f = 0; f < num_fragments_; ++f) {
      dirty_fragment[f] = frag->FragmentNodes(f) != old_frag.FragmentNodes(f);
    }
    adjacency_changed = AdjacencyPairs(*frag) != AdjacencyPairs(old_frag);
  }
  stats.caches_reset = stats.renumbered || adjacency_changed;

  EpochCarryover carry;
  carry.epoch = epoch_id;
  carry.pool = old_snap.db->SharePool();

  if (options_.use_complementary) {
    if (stats.renumbered) {
      carry.complementary = PrecomputeComplementary(*frag);
      stats.complementary_searches = carry.complementary.searches;
      stats.dirty_border_nodes = carry.complementary.searches;
      stats.dirty_fragments = num_fragments_;
    } else {
      ComplementaryRefresh refresh = RefreshComplementary(
          *frag, old_frag, old_snap.db->complementary(), delta);
      stats.complementary_searches = refresh.info.searches;
      stats.dirty_border_nodes = refresh.dirty_border_nodes;
      stats.reused_border_nodes = refresh.reused_border_nodes;
      stats.dirty_fragments = refresh.dirty_fragments;
      stats.reused_fragments = refresh.reused_fragments;
      stats.complementary_fallback = refresh.fallback_cause;
      if (!refresh.fallback_cause.ok()) {
        TCF_LOG(Warning) << "epoch " << epoch_id
                         << ": complementary refresh fell back to a full "
                            "recompute: "
                         << refresh.fallback_cause.ToString();
      }
      carry.complementary = std::move(refresh.info);
    }
  }

  if (!stats.caches_reset) {
    ChainPlanCache::EpochCarry plan_carry =
        old_snap.db->plan_cache()->NextEpoch(dirty_fragment, epoch_id);
    carry.plan_cache = std::move(plan_carry.cache);
    stats.skeletons_kept = plan_carry.skeletons_kept;
    stats.skeletons_dropped = plan_carry.skeletons_dropped;
  }

  std::shared_ptr<const DsaDatabase> db(
      new DsaDatabase(frag.get(), options_, std::move(carry)),
      [frag](const DsaDatabase* p) { delete p; });

  refreshes_.fetch_add(1, std::memory_order_relaxed);
  if (structural) rebuilds_.fetch_add(1, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = DsaSnapshot{epoch_id, std::move(graph), std::move(frag),
                            std::move(db)};
  }
  return stats;
}

void MaintainedDatabase::InsertEdge(NodeId src, NodeId dst, Weight weight,
                                    std::optional<FragmentId> target) {
  ApplyEpoch({EdgeUpdate::Insert(src, dst, weight, target)});
}

size_t MaintainedDatabase::DeleteEdge(NodeId src, NodeId dst) {
  return ApplyEpoch({EdgeUpdate::Delete(src, dst)}).edges_removed;
}

size_t MaintainedDatabase::ReweightEdge(NodeId src, NodeId dst,
                                        Weight new_weight) {
  return ApplyEpoch({EdgeUpdate::Reweight(src, dst, new_weight)})
      .edges_reweighted;
}

}  // namespace tcf
