// The disconnection set approach instantiated for a second path problem —
// widest (bottleneck-capacity) paths: "what is the largest shipment that
// can travel from A to B?". Sec. 2.1: "these properties depend on the
// particular path problem considered" and "Complementary information is
// different for each type of path problem" — here it is the globally
// *widest* capacity between any two border nodes of a fragment. A query
// runs the shortest-path planner's keyhole hops inside the
// capacity-augmented fragments and the same border-overlay search as
// shortest paths, over the max-min semiring instead of min-plus; the
// overlay's rows are the resident capacity shortcut relations.
//
// Edge weights are interpreted as capacities and must be > 0.
#pragma once

#include "dsa/complementary.h"
#include "dsa/executor.h"

namespace tcf {

struct BottleneckAnswer {
  bool connected = false;
  /// Max over paths of the min edge capacity; kInfinity when from == to.
  Weight capacity = 0.0;
};

/// Bottleneck-path database over a fragmentation. Precomputes capacity
/// complementary information on construction; `frag` must outlive it.
class BottleneckDsa {
 public:
  explicit BottleneckDsa(const Fragmentation* frag);

  const ComplementaryInfo& complementary() const { return complementary_; }

  BottleneckAnswer WidestPath(NodeId from, NodeId to,
                              ExecutionReport* report = nullptr) const;

 private:
  /// Widest capacities from every source to every target of a hop spec
  /// inside the capacity-augmented fragment, sorted by (src, dst).
  Relation LocalWidest(const LocalQuerySpec& spec) const;

  const Fragmentation* frag_;
  ComplementaryInfo complementary_;  // shortcut costs = capacities
};

/// Builds the capacity complementary information: for every fragment, the
/// globally widest capacity between each ordered pair of its border nodes.
ComplementaryInfo PrecomputeCapacityComplementary(const Fragmentation& frag);

}  // namespace tcf
