// The base relation R of the paper: a directed graph, where each tuple
// (src, dst, weight) is one edge, with optional 2-D coordinates per node
// (Sec. 4.1 assigns coordinates to every node; the linear-fragmentation and
// distributed-centers algorithms require them).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/status.h"

namespace tcf {

using NodeId = uint32_t;
using EdgeId = uint32_t;
using Weight = double;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
/// Sentinel distance for "unreachable".
inline constexpr Weight kInfinity = std::numeric_limits<Weight>::infinity();

/// One tuple of the connection relation R.
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Weight weight = 1.0;

  bool operator==(const Edge& other) const = default;
};

/// 2-D node coordinate (Sec. 4.1).
struct Point {
  double x = 0.0;
  double y = 0.0;

  bool operator==(const Point& other) const = default;
};

/// Euclidean distance d(p, q) used by the generator's probability function.
inline double Distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// CSR entry for outgoing adjacency.
struct OutEdge {
  NodeId dst;
  Weight weight;
  EdgeId id;
};

/// CSR entry for incoming adjacency.
struct InEdge {
  NodeId src;
  Weight weight;
  EdgeId id;
};

/// Immutable directed graph with CSR adjacency in both directions plus a
/// deduplicated undirected neighbor list (the paper's "grade" of a node and
/// the bond-energy adjacency matrix ignore direction).
///
/// Build one with GraphBuilder (builder.h).
class Graph {
 public:
  Graph() = default;

  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const { return edges_.size(); }

  const std::vector<Edge>& edges() const { return edges_; }
  const Edge& edge(EdgeId id) const {
    TCF_CHECK(id < edges_.size());
    return edges_[id];
  }

  std::span<const OutEdge> OutEdges(NodeId node) const {
    TCF_CHECK(node < num_nodes_);
    return {out_adj_.data() + out_offsets_[node],
            out_offsets_[node + 1] - out_offsets_[node]};
  }
  std::span<const InEdge> InEdges(NodeId node) const {
    TCF_CHECK(node < num_nodes_);
    return {in_adj_.data() + in_offsets_[node],
            in_offsets_[node + 1] - in_offsets_[node]};
  }
  /// Distinct neighbors across both edge directions, sorted ascending.
  std::span<const NodeId> UndirectedNeighbors(NodeId node) const {
    TCF_CHECK(node < num_nodes_);
    return {und_adj_.data() + und_offsets_[node],
            und_offsets_[node + 1] - und_offsets_[node]};
  }

  size_t OutDegree(NodeId node) const { return OutEdges(node).size(); }
  size_t InDegree(NodeId node) const { return InEdges(node).size(); }
  /// The paper's grade(i): the number of edges adjacent to i (both
  /// directions, counting multiplicity).
  size_t Grade(NodeId node) const {
    return OutDegree(node) + InDegree(node);
  }
  /// Number of distinct undirected neighbors.
  size_t UndirectedDegree(NodeId node) const {
    return UndirectedNeighbors(node).size();
  }

  bool has_coordinates() const { return !coordinates_.empty(); }
  const Point& coordinate(NodeId node) const {
    TCF_CHECK(has_coordinates() && node < num_nodes_);
    return coordinates_[node];
  }
  const std::vector<Point>& coordinates() const { return coordinates_; }

  /// True if for every edge (u, v) the reverse edge (v, u) also exists.
  bool IsSymmetric() const;

  /// A copy with each listed edge's weight replaced (later entries for one
  /// edge win). Edge ids, the CSR layout and the neighbor lists are kept,
  /// so this costs one copy, not a rebuild.
  Graph Reweighted(
      std::span<const std::pair<EdgeId, Weight>> new_weights) const;

 private:
  friend class GraphBuilder;

  size_t num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::vector<Point> coordinates_;  // empty if no coordinates

  std::vector<size_t> out_offsets_;
  std::vector<OutEdge> out_adj_;
  std::vector<size_t> in_offsets_;
  std::vector<InEdge> in_adj_;
  std::vector<size_t> und_offsets_;
  std::vector<NodeId> und_adj_;
};

}  // namespace tcf
