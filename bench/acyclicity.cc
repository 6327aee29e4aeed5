// Reproduces the loose-connectivity discussion (Sec. 2.1/2.2 third issue,
// Fig. 2): how often each algorithm produces an acyclic fragmentation
// graph, on both graph families, and how many chains of fragments join a
// fragment pair — the chains a query would have to consider one by one
// (FindChains, as a fragmentation-graph metric).
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "dsa/chains.h"
#include "fragment/metrics.h"

using namespace tcf;
using namespace tcf::bench;

namespace {

void RunFamily(const char* family,
               const std::function<Graph(Rng*)>& make_graph,
               size_t fragments) {
  constexpr int kTrials = 15;
  std::printf("%s (%d seeds, f=%zu):\n", family, kTrials, fragments);
  TablePrinter table({"Algorithm", "acyclic", "avg cycles",
                      "avg chains per query pair"});
  for (Algo algo : {Algo::kCenter, Algo::kDistributedCenters,
                    Algo::kBondEnergy, Algo::kLinear, Algo::kRandom}) {
    int acyclic = 0;
    Accumulator cycles, chains;
    Rng rng(3);
    for (int t = 0; t < kTrials; ++t) {
      Rng child = rng.Fork();
      Graph g = make_graph(&child);
      Fragmentation frag = RunAlgo(g, algo, fragments,
                                   static_cast<uint64_t>(t));
      if (frag.IsLooselyConnected()) ++acyclic;
      cycles.Add(static_cast<double>(frag.FragmentationGraphCycles()));
      // Chains between every ordered fragment pair.
      Accumulator per_pair;
      for (FragmentId a = 0; a < frag.NumFragments(); ++a) {
        for (FragmentId b = 0; b < frag.NumFragments(); ++b) {
          if (a == b) continue;
          per_pair.Add(static_cast<double>(
              FindChains(frag, a, b, 1024).size()));
        }
      }
      if (!per_pair.empty()) chains.Add(per_pair.Mean());
    }
    table.AddRow({AlgoName(algo),
                  TablePrinter::Fmt(100.0 * acyclic / kTrials, 0) + "%",
                  TablePrinter::Fmt(cycles.Mean(), 2),
                  TablePrinter::Fmt(chains.Mean(), 2)});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== Loose connectivity of the fragmentation graph (Sec. 2, "
              "Fig. 2) ==\n\n");
  RunFamily("transportation graphs (4x25)",
            [](Rng* rng) {
              return GenerateTransportationGraph(Table1Options(), rng).graph;
            },
            4);
  RunFamily("general graphs (100 nodes)",
            [](Rng* rng) { return GenerateGeneralGraph(Table3Options(), rng); },
            3);
  std::printf("reading: linear fragmentation is acyclic by construction "
              "(exactly one chain\nper query pair); the others may produce "
              "cycles, which multiply the chains\nbetween fragment pairs. "
              "The DSA does not enumerate them: one search over the\nborder "
              "overlay covers every chain, as Parallel Hierarchical "
              "Evaluation's\nhigh-speed network does.\n");
  return 0;
}
