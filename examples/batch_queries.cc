// Serving many queries at once: generate a transportation network, build a
// DsaDatabase, and answer a skewed 500-query workload in one
// BatchExecutor::Execute call. The batch layer shares work twice over —
// a repeated (from, to) pair is planned once, and keyhole subqueries and
// border rows are deduplicated across queries — so a hot-pair workload
// runs far fewer site computations than it has queries.
#include <cstdio>

#include "dsa/batch.h"
#include "dsa/workload.h"
#include "fragment/linear.h"
#include "graph/generator.h"

using namespace tcf;

int main() {
  // A 4-country railway network (Fig. 3's shape) fragmented per country.
  Rng rng(2024);
  TransportationGraphOptions gopts;
  gopts.num_clusters = 4;
  gopts.nodes_per_cluster = 40;
  gopts.target_edges_per_cluster = 160;
  TransportationGraph t = GenerateTransportationGraph(gopts, &rng);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;

  DsaDatabase db(&frag);
  BatchExecutor executor(&db);

  // 500 queries, 90% of them hitting 6 hot city pairs.
  WorkloadSpec spec;
  spec.mix = WorkloadMix::kHotPair;
  spec.num_queries = 500;
  spec.num_hot_pairs = 6;
  std::vector<Query> queries = GenerateWorkload(frag, spec, &rng);
  BatchResult result = executor.Execute(queries);

  size_t connected = 0;
  for (const RouteAnswer& a : result.answers) {
    if (a.answer.connected) ++connected;
  }
  const BatchStats& s = result.stats;
  std::printf("answered %zu queries (%zu connected) in %.1f ms\n",
              s.num_queries, connected, s.wall_seconds * 1e3);
  std::printf("  subqueries: %zu requested -> %zu executed (%.1f%% shared)\n",
              s.subqueries_requested, s.subqueries_executed,
              100.0 * s.DedupSavings());
  std::printf("  throughput: %.0f queries/sec\n", s.QueriesPerSecond());

  // Single queries and batches share one database; mixing them is safe.
  const Query& probe = queries.front();
  QueryAnswer single = db.ShortestPath(probe.from, probe.to);
  std::printf("cross-check %u -> %u: batch %.3f, single %.3f\n", probe.from,
              probe.to, result.answers.front().answer.cost, single.cost);
  return 0;
}
