// The fragmentation model of Sec. 2: the relation R is partitioned into n
// fragments R_i; this induces subgraphs G_i; the disconnection sets are the
// node intersections DS_ij = G_i ∩ G_j; the fragmentation graph G' has one
// node per fragment and an edge per nonempty disconnection set, and the
// fragmentation is "loosely connected" when G' is acyclic.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace tcf {

using FragmentId = uint32_t;

/// Compressed adjacency over a fragment's dense local node ids: the arcs
/// leaving local node v are heads[i] with weights[i], for i in
/// [offsets[v], offsets[v + 1]).
struct LocalCsr {
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> heads;
  std::vector<Weight> weights;
};

/// One arc between local node ids.
struct LocalArc {
  uint32_t tail = 0;
  uint32_t head = 0;
  Weight weight = 0.0;
};

/// Fills `out` with the arcs grouped by tail over `num_nodes` local ids
/// (or by head, with tail and head swapped, when `reverse`). Arcs of one
/// node keep their input order. Reuses `out`'s capacity.
void BuildLocalCsr(size_t num_nodes, std::span<const LocalArc> arcs,
                   bool reverse, LocalCsr* out);

/// A fragment's own edges over dense local ids: local id i is
/// FragmentNodes(f)[i], so local ids order exactly like the global ones.
/// Phase-1 searches run on it instead of a CSR over the whole graph.
struct LocalGraph {
  LocalCsr forward;  // arcs src -> dst
  LocalCsr reverse;  // the same arcs, dst -> src
};

/// A disconnection set DS_ij (i < j): the nodes shared by fragments i and j.
struct DisconnectionSet {
  FragmentId frag_a = 0;
  FragmentId frag_b = 0;
  std::vector<NodeId> nodes;  // sorted
};

/// An edge-partition of a graph together with everything the disconnection
/// set approach derives from it. Immutable once constructed; only the
/// per-fragment LocalGraphs are built lazily (and thread-safely) on first
/// use.
class Fragmentation {
 public:
  /// Builds from an edge -> fragment assignment (every edge must be
  /// assigned; fragment ids must be < num_fragments). Empty fragments are
  /// compacted away, preserving relative order.
  Fragmentation(const Graph* graph, std::vector<FragmentId> fragment_of_edge,
                size_t num_fragments);

  /// A copy of `same_edges` bound to `graph`, which must have the same edge
  /// list as same_edges.graph() up to weights: node and edge sets, and so
  /// everything derived from them, carry over. Local graphs, which hold
  /// weights, start cold.
  Fragmentation(const Graph* graph, const Fragmentation& same_edges);

  const Graph& graph() const { return *graph_; }
  size_t NumFragments() const { return fragment_edges_.size(); }

  /// Which fragment owns each edge (compacted ids).
  const std::vector<FragmentId>& fragment_of_edge() const {
    return fragment_of_edge_;
  }
  /// Edge ids of fragment f.
  const std::vector<EdgeId>& FragmentEdges(FragmentId f) const {
    TCF_CHECK(f < fragment_edges_.size());
    return fragment_edges_[f];
  }
  /// Sorted node ids of fragment f (nodes incident to its edges).
  const std::vector<NodeId>& FragmentNodes(FragmentId f) const {
    TCF_CHECK(f < fragment_nodes_.size());
    return fragment_nodes_[f];
  }
  /// All fragments containing `node` (possibly several: border nodes).
  const std::vector<FragmentId>& FragmentsOfNode(NodeId node) const {
    TCF_CHECK(node < fragments_of_node_.size());
    return fragments_of_node_[node];
  }
  /// True if `node` belongs to >= 2 fragments.
  bool IsBorderNode(NodeId node) const {
    return FragmentsOfNode(node).size() >= 2;
  }
  /// All border nodes of fragment f (nodes of f shared with any other
  /// fragment), sorted.
  const std::vector<NodeId>& BorderNodes(FragmentId f) const {
    TCF_CHECK(f < border_nodes_.size());
    return border_nodes_[f];
  }

  /// The nonempty disconnection sets, sorted by (frag_a, frag_b).
  const std::vector<DisconnectionSet>& disconnection_sets() const {
    return disconnection_sets_;
  }
  /// The disconnection set between a and b, or nullptr if empty.
  const DisconnectionSet* FindDisconnectionSet(FragmentId a,
                                               FragmentId b) const;

  /// Fragmentation graph adjacency: neighbors of fragment f in G'.
  const std::vector<FragmentId>& FragmentNeighbors(FragmentId f) const {
    TCF_CHECK(f < fragment_adjacency_.size());
    return fragment_adjacency_[f];
  }

  /// Sec. 2.1: loosely connected == the fragmentation graph is acyclic.
  bool IsLooselyConnected() const { return loosely_connected_; }

  /// Number of independent cycles in the fragmentation graph
  /// (edges - nodes + components).
  size_t FragmentationGraphCycles() const { return cycles_; }

  /// The fragment that contains `node` interior-ly, or the first fragment
  /// containing it if it is a border node; kInvalidFragment if isolated.
  static constexpr FragmentId kInvalidFragment =
      std::numeric_limits<FragmentId>::max();
  FragmentId HomeFragment(NodeId node) const {
    const auto& frags = FragmentsOfNode(node);
    return frags.empty() ? kInvalidFragment : frags.front();
  }

  /// Materializes fragment f as a standalone Graph over the *global* node
  /// id space (node count = graph().NumNodes(), edges = fragment edges).
  Graph FragmentSubgraph(FragmentId f) const;

  /// Node -> fragment map for visualisation: border nodes get the first
  /// fragment, isolated nodes -1.
  std::vector<int> NodeGroups() const;

  /// Fragment f's edges as a LocalGraph. Built by the first caller and
  /// shared by every later one; safe from any number of threads. A copy
  /// of the Fragmentation starts with no local graph built.
  const LocalGraph& LocalGraphOf(FragmentId f) const;

  /// How many local graphs this object has built (each fragment's at
  /// most once).
  size_t LocalGraphsBuilt() const;

 private:
  // One lazily built LocalGraph per fragment. The cells hold
  // synchronization state, so copies get fresh cold cells and a
  // moved-from cache is empty.
  class LocalGraphCache {
   public:
    explicit LocalGraphCache(size_t num_fragments = 0)
        : cells_(new Cell[num_fragments]), size_(num_fragments) {}
    LocalGraphCache(const LocalGraphCache& other)
        : LocalGraphCache(other.size_) {}
    LocalGraphCache& operator=(const LocalGraphCache& other) {
      if (this != &other) *this = LocalGraphCache(other.size_);
      return *this;
    }
    LocalGraphCache(LocalGraphCache&& other) noexcept
        : cells_(std::move(other.cells_)),
          size_(std::exchange(other.size_, 0)) {}
    LocalGraphCache& operator=(LocalGraphCache&& other) noexcept {
      cells_ = std::move(other.cells_);
      size_ = std::exchange(other.size_, 0);
      return *this;
    }

    const LocalGraph& Get(const Fragmentation& frag, FragmentId f) const;
    size_t Built() const;

   private:
    struct Cell {
      std::once_flag once;
      std::atomic<uint32_t> builds{0};
      LocalGraph graph;
    };
    std::unique_ptr<Cell[]> cells_;
    size_t size_ = 0;
  };

  const Graph* graph_;
  std::vector<FragmentId> fragment_of_edge_;
  std::vector<std::vector<EdgeId>> fragment_edges_;
  std::vector<std::vector<NodeId>> fragment_nodes_;
  std::vector<std::vector<FragmentId>> fragments_of_node_;
  std::vector<std::vector<NodeId>> border_nodes_;
  std::vector<DisconnectionSet> disconnection_sets_;
  std::vector<std::vector<FragmentId>> fragment_adjacency_;
  bool loosely_connected_ = true;
  size_t cycles_ = 0;
  LocalGraphCache local_graphs_;
};

}  // namespace tcf
