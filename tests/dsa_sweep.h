// Shared fixture code for the DSA-vs-oracle sweeps: the central invariant
// — DsaDatabase answers equal the whole-graph Dijkstra oracle — checked
// over every fragmenter and local engine. dsa_test.cc runs a small fast
// sweep on every ctest invocation; dsa_heavy_test.cc runs the full
// parameter grid on larger graphs.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <unordered_map>

#include "dsa/query_api.h"
#include "fragment/bond_energy.h"
#include "fragment/center_based.h"
#include "fragment/linear.h"
#include "fragment/random_partition.h"
#include "graph/algorithms.h"
#include "graph/generator.h"

namespace tcf {
namespace dsa_sweep {

inline TransportationGraph MakeTransport(uint64_t seed, size_t clusters = 4,
                                         size_t nodes = 15) {
  TransportationGraphOptions opts;
  opts.num_clusters = clusters;
  opts.nodes_per_cluster = nodes;
  opts.target_edges_per_cluster = static_cast<double>(nodes) * 4;
  Rng rng(seed);
  return GenerateTransportationGraph(opts, &rng);
}

enum class Fragmenter { kCenter, kCenterDistributed, kBondEnergy, kLinear,
                        kRandom };

inline Fragmentation MakeFragmentation(const Graph& g, Fragmenter which,
                                       uint64_t seed) {
  switch (which) {
    case Fragmenter::kCenter: {
      CenterBasedOptions opts;
      opts.num_fragments = 4;
      return CenterBasedFragmentation(g, opts);
    }
    case Fragmenter::kCenterDistributed: {
      CenterBasedOptions opts;
      opts.num_fragments = 4;
      opts.distributed_centers = true;
      return CenterBasedFragmentation(g, opts);
    }
    case Fragmenter::kBondEnergy: {
      BondEnergyOptions opts;
      opts.num_fragments = 4;
      return BondEnergyFragmentation(g, opts);
    }
    case Fragmenter::kLinear: {
      LinearOptions opts;
      opts.num_fragments = 4;
      return LinearFragmentation(g, opts).fragmentation;
    }
    case Fragmenter::kRandom: {
      Rng rng(seed * 977 + 13);
      return RandomFragmentation(g, 4, &rng);
    }
  }
  TCF_CHECK(false);
  CenterBasedOptions opts;
  return CenterBasedFragmentation(g, opts);
}

/// The cost of walking `route` in `g`, taking the cheapest parallel edge
/// per hop; kInfinity when a hop is not an edge of `g`.
inline Weight RouteCost(const Graph& g, std::span<const NodeId> route) {
  Weight total = 0.0;
  for (size_t i = 0; i + 1 < route.size(); ++i) {
    Weight hop = kInfinity;
    for (const OutEdge& e : g.OutEdges(route[i])) {
      if (e.dst == route[i + 1]) hop = std::min(hop, e.weight);
    }
    total += hop;
  }
  return total;
}

/// Probes a deterministic set of node pairs (random plus every border node)
/// and expects DsaDatabase to match the whole-graph Dijkstra oracle. The
/// oracle is cached per source so each distinct source costs one search.
inline void ExpectMatchesOracle(const Graph& g, const Fragmentation& frag,
                                LocalEngine engine, uint64_t seed,
                                int random_pairs = 12) {
  DsaOptions opts;
  opts.engine = engine;
  DsaDatabase db(&frag, opts);

  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < random_pairs; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.NextBounded(g.NumNodes())),
                       static_cast<NodeId>(rng.NextBounded(g.NumNodes())));
  }
  // Probe border nodes as endpoints, subsampled to a fixed budget: a
  // random fragmentation can make nearly every node a border node, and
  // each probe is a full query.
  std::vector<NodeId> borders;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (frag.IsBorderNode(v)) borders.push_back(v);
  }
  constexpr size_t kMaxBorderProbes = 16;
  const size_t stride = borders.size() <= kMaxBorderProbes
                            ? 1
                            : (borders.size() + kMaxBorderProbes - 1) /
                                  kMaxBorderProbes;
  for (size_t i = 0; i < borders.size(); i += stride) {
    pairs.emplace_back(0, borders[i]);
    pairs.emplace_back(borders[i],
                       static_cast<NodeId>(g.NumNodes() - 1));
  }

  std::unordered_map<NodeId, ShortestPaths> oracle;
  for (auto [s, u] : pairs) {
    if (s != u && !oracle.count(s)) oracle.emplace(s, Dijkstra(g, s));
    const Weight expected = s == u ? 0.0 : oracle.at(s).distance[u];
    const auto answer = db.ShortestPath(s, u);
    if (expected == kInfinity) {
      EXPECT_FALSE(answer.connected) << s << "->" << u;
    } else {
      ASSERT_TRUE(answer.connected) << s << "->" << u;
      EXPECT_NEAR(answer.cost, expected, 1e-9) << s << "->" << u;
    }
  }
}

}  // namespace dsa_sweep
}  // namespace tcf
