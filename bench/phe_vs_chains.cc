// Reproduces the motivation for Parallel Hierarchical Evaluation
// (Sec. 5 / footnote 4): "If the fragmentation graph becomes very complex
// and contains many routes from one fragment to another, a technique
// called Parallel Hierarchical Evaluation can be used to avoid problems."
//
// We drive the fragmentation-graph complexity up (random fragmentations
// with growing fragment counts on a well-connected graph) and compare the
// DSA against PHE: fragments read, subqueries run, query latency and
// wrong answers against a whole-graph Dijkstra. Both search the border
// overlay — PHE its materialized backbone, once per source border node;
// the DSA one search per query over the rows it plans — so both must be
// exact at every fragment count; only the cost diverges.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "dsa/phe.h"
#include "dsa/query_api.h"
#include "graph/algorithms.h"
#include "util/timer.h"

using namespace tcf;
using namespace tcf::bench;

int main() {
  GeneralGraphOptions gopts;
  gopts.num_nodes = 120;
  gopts.target_edges = 500;  // well connected -> tangled fragment graphs
  gopts.ensure_connected = true;
  Rng rng(3);
  Graph g = GenerateGeneralGraph(gopts, &rng);

  std::printf("== PHE vs the DSA's overlay search on complex fragmentation "
              "graphs (Sec. 5 / [12]) ==\n");
  std::printf("workload: 120-node general graph (%zu edges), random "
              "node-partition fragmentations,\n20 random queries per "
              "configuration, each checked against a whole-graph "
              "Dijkstra\n\n",
              g.NumEdges());

  TablePrinter table({"fragments", "frag-graph cycles", "DSA frags/query",
                      "DSA sites/query", "DSA ms", "DSA wrong",
                      "PHE sites/query", "PHE ms", "PHE wrong"});
  size_t wrong_total = 0;
  for (size_t f : {3, 5, 7, 9}) {
    Rng frng(100 + f);
    Fragmentation frag = RandomFragmentation(g, f, &frng);
    DsaDatabase dsa(&frag);
    PheDatabase phe(&frag);

    Accumulator dsa_frags, dsa_sites, dsa_ms, phe_sites, phe_ms;
    size_t dsa_wrong = 0;
    size_t phe_wrong = 0;
    auto wrong = [](Weight got, Weight want) {
      if (want == kInfinity || got == kInfinity) return got != want;
      return std::abs(got - want) > 1e-9 * std::max(1.0, want);
    };
    Rng qrng(7);
    for (int q = 0; q < 20; ++q) {
      const NodeId s = static_cast<NodeId>(qrng.NextBounded(g.NumNodes()));
      const NodeId t = static_cast<NodeId>(qrng.NextBounded(g.NumNodes()));
      const Weight want = s == t ? 0.0 : Dijkstra(g, s).distance[t];
      {
        ExecutionReport report;
        WallTimer timer;
        QueryAnswer a = dsa.ShortestPath(s, t, &report);
        dsa_ms.Add(timer.ElapsedMillis());
        dsa_frags.Add(static_cast<double>(a.fragments_involved.size()));
        dsa_sites.Add(static_cast<double>(report.sites.size()));
        dsa_wrong += wrong(a.cost, want);
      }
      {
        ExecutionReport report;
        WallTimer timer;
        QueryAnswer a = phe.ShortestPath(s, t, &report);
        phe_ms.Add(timer.ElapsedMillis());
        phe_sites.Add(static_cast<double>(report.sites.size()));
        phe_wrong += wrong(a.cost, want);
      }
    }
    wrong_total += dsa_wrong + phe_wrong;
    table.AddRow({std::to_string(frag.NumFragments()),
                  std::to_string(frag.FragmentationGraphCycles()),
                  TablePrinter::Fmt(dsa_frags.Mean()),
                  TablePrinter::Fmt(dsa_sites.Mean()),
                  TablePrinter::Fmt(dsa_ms.Mean(), 3),
                  std::to_string(dsa_wrong) + "/20",
                  TablePrinter::Fmt(phe_sites.Mean()),
                  TablePrinter::Fmt(phe_ms.Mean(), 3),
                  std::to_string(phe_wrong) + "/20"});
  }
  table.Print();
  std::printf("\nreading: the fragmentation graph's cycles do not "
              "multiply the DSA's work:\nits overlay search reads each "
              "fragment's rows at most once per query, and PHE\nstays at "
              "<= 3 subqueries by routing through the high-speed network. "
              "Both engines\nanswered %s.\n",
              wrong_total == 0 ? "every query exactly"
                               : "SOME QUERIES WRONG (see the wrong columns)");
  return wrong_total == 0 ? 0 : 1;
}
