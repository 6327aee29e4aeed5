// The disconnection set approach instantiated for a second path problem —
// widest (bottleneck-capacity) paths: "what is the largest shipment that
// can travel from A to B?". Sec. 2.1: "these properties depend on the
// particular path problem considered" and "Complementary information is
// different for each type of path problem" — here it is the globally
// *widest* capacity between any two border nodes of a fragment, and the
// final assembly combines per-fragment answers with max-min joins instead
// of min-plus ones.
//
// Edge weights are interpreted as capacities and must be > 0.
#pragma once

#include <memory>

#include "dsa/chains.h"
#include "dsa/complementary.h"
#include "dsa/executor.h"

namespace tcf {

struct BottleneckAnswer {
  bool connected = false;
  /// Max over paths of the min edge capacity; kInfinity when from == to.
  Weight capacity = 0.0;
  size_t chains_considered = 0;
};

/// Bottleneck-path database over a fragmentation. Precomputes capacity
/// complementary information on construction; `frag` must outlive it.
class BottleneckDsa {
 public:
  explicit BottleneckDsa(const Fragmentation* frag, size_t max_chains = 64);

  const ComplementaryInfo& complementary() const { return complementary_; }

  BottleneckAnswer WidestPath(NodeId from, NodeId to,
                              ExecutionReport* report = nullptr) const;

 private:
  /// Widest capacities from every source to every target of `spec`
  /// inside the capacity-augmented fragment.
  Relation LocalWidest(const LocalQuerySpec& spec) const;

  const Fragmentation* frag_;
  size_t max_chains_;
  ComplementaryInfo complementary_;  // shortcut costs = capacities
  /// Chain plans are fragmentation metadata, not capacities, so widest
  /// paths plan through the same cache type as shortest paths (its own
  /// instance; internally synchronized, so WidestPath stays const).
  std::unique_ptr<ChainPlanCache> plan_cache_;
};

/// Builds the capacity complementary information: for every fragment, the
/// globally widest capacity between each ordered pair of its border nodes.
ComplementaryInfo PrecomputeCapacityComplementary(const Fragmentation& frag);

}  // namespace tcf
