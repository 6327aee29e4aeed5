#include "graph/graph.h"

#include <algorithm>

namespace tcf {

bool Graph::IsSymmetric() const {
  for (const Edge& e : edges_) {
    auto out = OutEdges(e.dst);
    bool found = std::any_of(out.begin(), out.end(), [&](const OutEdge& oe) {
      return oe.dst == e.src;
    });
    if (!found) return false;
  }
  return true;
}

Graph Graph::Reweighted(
    std::span<const std::pair<EdgeId, Weight>> new_weights) const {
  Graph g = *this;
  for (const auto& [id, weight] : new_weights) {
    TCF_CHECK(id < g.edges_.size());
    Edge& e = g.edges_[id];
    e.weight = weight;
    // Each edge has exactly one slot in each CSR direction.
    for (size_t i = g.out_offsets_[e.src]; i < g.out_offsets_[e.src + 1];
         ++i) {
      if (g.out_adj_[i].id == id) g.out_adj_[i].weight = weight;
    }
    for (size_t i = g.in_offsets_[e.dst]; i < g.in_offsets_[e.dst + 1]; ++i) {
      if (g.in_adj_[i].id == id) g.in_adj_[i].weight = weight;
    }
  }
  return g;
}

}  // namespace tcf
