#include "fragment/fragmentation.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "graph/builder.h"

namespace tcf {

Fragmentation::Fragmentation(const Graph* graph,
                             std::vector<FragmentId> fragment_of_edge,
                             size_t num_fragments)
    : graph_(graph) {
  TCF_CHECK(graph != nullptr);
  TCF_CHECK_MSG(fragment_of_edge.size() == graph->NumEdges(),
                "every edge must be assigned to a fragment");

  // Compact away empty fragments, preserving order.
  std::vector<size_t> counts(num_fragments, 0);
  for (FragmentId f : fragment_of_edge) {
    TCF_CHECK_MSG(f < num_fragments, "fragment id out of range");
    ++counts[f];
  }
  std::vector<FragmentId> remap(num_fragments, 0);
  FragmentId next = 0;
  for (size_t f = 0; f < num_fragments; ++f) {
    remap[f] = next;
    if (counts[f] > 0) ++next;
  }
  const size_t nf = next;
  fragment_of_edge_.resize(fragment_of_edge.size());
  for (size_t e = 0; e < fragment_of_edge.size(); ++e) {
    fragment_of_edge_[e] = remap[fragment_of_edge[e]];
  }

  // Edge and node sets per fragment.
  fragment_edges_.resize(nf);
  for (EdgeId e = 0; e < fragment_of_edge_.size(); ++e) {
    fragment_edges_[fragment_of_edge_[e]].push_back(e);
  }
  fragment_nodes_.resize(nf);
  for (FragmentId f = 0; f < nf; ++f) {
    auto& nodes = fragment_nodes_[f];
    for (EdgeId e : fragment_edges_[f]) {
      nodes.push_back(graph_->edge(e).src);
      nodes.push_back(graph_->edge(e).dst);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  }

  // Node -> fragments.
  fragments_of_node_.resize(graph_->NumNodes());
  for (FragmentId f = 0; f < nf; ++f) {
    for (NodeId v : fragment_nodes_[f]) fragments_of_node_[v].push_back(f);
  }

  // Disconnection sets DS_ij = V_i ∩ V_j, discovered through border nodes.
  std::map<std::pair<FragmentId, FragmentId>, std::vector<NodeId>> ds;
  border_nodes_.resize(nf);
  for (NodeId v = 0; v < graph_->NumNodes(); ++v) {
    const auto& frags = fragments_of_node_[v];
    if (frags.size() < 2) continue;
    for (size_t i = 0; i < frags.size(); ++i) {
      border_nodes_[frags[i]].push_back(v);
      for (size_t j = i + 1; j < frags.size(); ++j) {
        ds[{frags[i], frags[j]}].push_back(v);
      }
    }
  }
  for (auto& [key, nodes] : ds) {
    std::sort(nodes.begin(), nodes.end());
    disconnection_sets_.push_back(
        DisconnectionSet{key.first, key.second, std::move(nodes)});
  }
  for (auto& nodes : border_nodes_) {
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  }

  // Fragmentation graph G' and its cycle structure.
  fragment_adjacency_.resize(nf);
  for (const DisconnectionSet& d : disconnection_sets_) {
    fragment_adjacency_[d.frag_a].push_back(d.frag_b);
    fragment_adjacency_[d.frag_b].push_back(d.frag_a);
  }
  for (auto& adj : fragment_adjacency_) std::sort(adj.begin(), adj.end());

  // cycles = E' - N' + components(G').
  std::vector<int> comp(nf, -1);
  int num_comps = 0;
  for (FragmentId start = 0; start < nf; ++start) {
    if (comp[start] >= 0) continue;
    ++num_comps;
    std::vector<FragmentId> stack = {start};
    comp[start] = num_comps - 1;
    while (!stack.empty()) {
      FragmentId f = stack.back();
      stack.pop_back();
      for (FragmentId g : fragment_adjacency_[f]) {
        if (comp[g] < 0) {
          comp[g] = num_comps - 1;
          stack.push_back(g);
        }
      }
    }
  }
  const size_t num_frag_edges = disconnection_sets_.size();
  cycles_ = num_frag_edges + static_cast<size_t>(num_comps) >= nf
                ? num_frag_edges + static_cast<size_t>(num_comps) - nf
                : 0;
  loosely_connected_ = (cycles_ == 0);
  local_graphs_ = LocalGraphCache(nf);
}

Fragmentation::Fragmentation(const Graph* graph,
                             const Fragmentation& same_edges)
    : Fragmentation(same_edges) {
  TCF_CHECK(graph != nullptr);
  TCF_CHECK_MSG(graph->NumEdges() == fragment_of_edge_.size() &&
                    graph->NumNodes() == graph_->NumNodes(),
                "a reweighted graph keeps the edge list");
  graph_ = graph;
}

const DisconnectionSet* Fragmentation::FindDisconnectionSet(
    FragmentId a, FragmentId b) const {
  if (a > b) std::swap(a, b);
  for (const DisconnectionSet& d : disconnection_sets_) {
    if (d.frag_a == a && d.frag_b == b) return &d;
  }
  return nullptr;
}

Graph Fragmentation::FragmentSubgraph(FragmentId f) const {
  TCF_CHECK(f < NumFragments());
  GraphBuilder builder;
  if (graph_->has_coordinates()) {
    for (const Point& p : graph_->coordinates()) builder.AddNode(p);
  } else {
    builder.EnsureNodes(graph_->NumNodes());
  }
  for (EdgeId e : fragment_edges_[f]) {
    const Edge& edge = graph_->edge(e);
    builder.AddEdge(edge.src, edge.dst, edge.weight);
  }
  return builder.Build();
}

void BuildLocalCsr(size_t num_nodes, std::span<const LocalArc> arcs,
                   bool reverse, LocalCsr* out) {
  out->offsets.assign(num_nodes + 1, 0);
  for (const LocalArc& a : arcs) {
    ++out->offsets[(reverse ? a.head : a.tail) + 1];
  }
  for (size_t v = 0; v < num_nodes; ++v) {
    out->offsets[v + 1] += out->offsets[v];
  }
  out->heads.resize(arcs.size());
  out->weights.resize(arcs.size());
  // Counting sort: offsets[v] walks to the start of v + 1's range as v's
  // arcs are placed, then shifts back one slot below.
  for (const LocalArc& a : arcs) {
    const uint32_t from = reverse ? a.head : a.tail;
    const uint32_t slot = out->offsets[from]++;
    out->heads[slot] = reverse ? a.tail : a.head;
    out->weights[slot] = a.weight;
  }
  for (size_t v = num_nodes; v > 0; --v) out->offsets[v] = out->offsets[v - 1];
  out->offsets[0] = 0;
}

const LocalGraph& Fragmentation::LocalGraphOf(FragmentId f) const {
  return local_graphs_.Get(*this, f);
}

size_t Fragmentation::LocalGraphsBuilt() const {
  return local_graphs_.Built();
}

const LocalGraph& Fragmentation::LocalGraphCache::Get(
    const Fragmentation& frag, FragmentId f) const {
  TCF_CHECK(f < size_);
  Cell& cell = cells_[f];
  std::call_once(cell.once, [&] {
    const std::vector<NodeId>& nodes = frag.FragmentNodes(f);
    // A dense map, not a search of `nodes` per endpoint: the build runs
    // on a query's path, and binary searches made it ten times slower.
    std::vector<NodeId> local_of(frag.graph().NumNodes(), kInvalidNode);
    for (NodeId i = 0; i < nodes.size(); ++i) local_of[nodes[i]] = i;
    const std::vector<EdgeId>& edge_ids = frag.FragmentEdges(f);
    std::vector<LocalArc> arcs;
    arcs.reserve(edge_ids.size());
    for (EdgeId e : edge_ids) {
      const Edge& edge = frag.graph().edge(e);
      TCF_CHECK_MSG(edge.weight >= 0,
                    "local searches require non-negative weights");
      arcs.push_back(
          LocalArc{local_of[edge.src], local_of[edge.dst], edge.weight});
    }
    const size_t n = nodes.size();
    BuildLocalCsr(n, arcs, /*reverse=*/false, &cell.graph.forward);
    BuildLocalCsr(n, arcs, /*reverse=*/true, &cell.graph.reverse);
    cell.builds.fetch_add(1, std::memory_order_relaxed);
  });
  return cell.graph;
}

size_t Fragmentation::LocalGraphCache::Built() const {
  size_t built = 0;
  for (size_t f = 0; f < size_; ++f) {
    built += cells_[f].builds.load(std::memory_order_relaxed);
  }
  return built;
}

std::vector<int> Fragmentation::NodeGroups() const {
  std::vector<int> groups(graph_->NumNodes(), -1);
  for (NodeId v = 0; v < graph_->NumNodes(); ++v) {
    const auto& frags = fragments_of_node_[v];
    if (!frags.empty()) groups[v] = static_cast<int>(frags.front());
  }
  return groups;
}

}  // namespace tcf
