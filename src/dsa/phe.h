// Parallel Hierarchical Evaluation (Sec. 5 / reference [12]): when the
// fragmentation graph is complex, enumerating all chains of fragments
// becomes expensive. PHE introduces "a 'high-speed network'; this is a
// separate fragment that mandatorily has to be traversed when going to a
// non-adjacent fragment."
//
// We synthesize the high-speed fragment from the complementary
// information: a backbone graph over all border nodes whose edges are the
// per-fragment shortcut relations. Any query then needs at most three
// subqueries — source fragment, backbone, destination fragment — no matter
// how tangled the fragmentation graph is; tests verify PHE answers match
// DsaDatabase and the whole-graph oracle. DsaDatabase searches the same
// overlay in its phase 2, reading only the rows a query may cross; PHE
// materializes the whole backbone, as the paper's comparison point.
#pragma once

#include <memory>

#include "dsa/query_api.h"

namespace tcf {

struct PheOptions {
  LocalEngine engine = LocalEngine::kDijkstra;
  size_t num_threads = 3;  // the three subqueries
};

/// Hierarchical evaluator over a fragmentation. Precomputes the backbone
/// once; `frag` must outlive the evaluator.
class PheDatabase {
 public:
  explicit PheDatabase(const Fragmentation* frag, PheOptions options = {});

  /// Shortest-path cost between two nodes; kInfinity when unconnected.
  QueryAnswer ShortestPath(NodeId from, NodeId to,
                           ExecutionReport* report = nullptr) const;

  /// The synthesized high-speed network (exposed for tests/benches).
  const Graph& backbone() const { return backbone_; }

 private:
  const Fragmentation* frag_;
  PheOptions options_;
  ComplementaryInfo complementary_;
  Graph backbone_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace tcf
