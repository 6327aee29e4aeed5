// Batched vs. sequential query execution (see docs/ARCHITECTURE.md, batch
// layer): the same workload is answered once as a sequential
// DsaDatabase::ShortestPath loop (each call a batch of one through the
// same planner) and once as a single BatchExecutor::Execute call, for
// each WorkloadSpec mix; the sequential rate (seq_qps) is the gated
// single-query series. Reports queries/sec for both paths, the batch
// speed-up, the planning-phase time, the cross-query subquery
// deduplication savings, the chain-plan (skeleton) cache hit rate, and the
// share of queries whose (from, to) pair repeats an earlier one ("plan
// skips") — the sharing effects that make batching pay, especially on the
// hot-pair mix.
//
// A second section sweeps the coordinator thread count on a large uniform
// batch: planning runs on the database pool (pairs in ranges, then one
// dedup task per fragment), so the planning phase should not grow with
// threads (and end-to-end throughput must not regress).
// `batch_throughput [N]` sets the sweep's batch size (default 10000).
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "dsa/batch.h"
#include "dsa/workload.h"
#include "util/timer.h"

using namespace tcf;
using namespace tcf::bench;

namespace {

void RunFamily(const char* family, const char* family_key, const Graph& g,
               Fragmentation frag, size_t num_queries, JsonMetrics* metrics) {
  std::printf(
      "%s: %zu nodes, %zu edges, %zu fragments, %zu queries per mix\n",
      family, g.NumNodes(), g.NumEdges(), frag.NumFragments(), num_queries);
  TablePrinter table({"Mix", "seq q/s", "batch q/s", "speedup", "plan ms",
                      "dedup", "skel hits", "plan skips"});

  for (WorkloadMix mix :
       {WorkloadMix::kUniform, WorkloadMix::kHotPair,
        WorkloadMix::kWithinFragment, WorkloadMix::kCrossChain}) {
    WorkloadSpec spec;
    spec.mix = mix;
    spec.num_queries = num_queries;
    Rng rng(41);
    const std::vector<Query> queries = GenerateWorkload(frag, spec, &rng);

    // Fresh databases so one mix's plan cache cannot help another, and the
    // sequential loop cannot warm the batch run.
    DsaDatabase seq_db(&frag);
    WallTimer seq_timer;
    for (const Query& q : queries) seq_db.ShortestPath(q.from, q.to);
    const double seq_seconds = seq_timer.ElapsedSeconds();

    DsaDatabase batch_db(&frag);
    BatchExecutor executor(&batch_db);
    const BatchResult result = executor.Execute(queries);

    const double seq_qps =
        seq_seconds == 0.0 ? 0.0 : static_cast<double>(num_queries) /
                                       seq_seconds;
    const double speedup = result.stats.wall_seconds == 0.0
                               ? 0.0
                               : seq_seconds / result.stats.wall_seconds;
    table.AddRow(
        {WorkloadMixName(mix), TablePrinter::Fmt(seq_qps, 0),
         TablePrinter::Fmt(result.stats.QueriesPerSecond(), 0),
         TablePrinter::Fmt(speedup, 2) + "x",
         TablePrinter::Fmt(result.stats.plan_seconds * 1e3, 2),
         TablePrinter::Fmt(100.0 * result.stats.DedupSavings(), 1) + "%",
         TablePrinter::Fmt(100.0 * result.stats.PlanCacheHitRate(), 1) + "%",
         TablePrinter::Fmt(100.0 * result.stats.PlanMemoHitRate(), 1) +
             "%"});
    const std::string prefix =
        std::string(family_key) + "/" + WorkloadMixName(mix);
    metrics->Set(prefix + "/batch_qps", result.stats.QueriesPerSecond());
    metrics->Set(prefix + "/seq_qps", seq_qps);
    metrics->Set(prefix + "/dedup_savings", result.stats.DedupSavings());
    metrics->Set(prefix + "/plan_memo_hit_rate",
                 result.stats.PlanMemoHitRate());
  }
  table.Print();
  std::printf("\n");
}

/// Coordinator scaling: the same uniform batch planned and executed with
/// 1, 2, 4, 8 pool threads. Each thread count runs the batch twice and
/// reports the second (warm skeleton cache) run, so the sweep isolates the
/// steady-state planning path. `plan speedup` is vs. the 1-thread row —
/// the acceptance bar for the parallel planner.
void RunCoordinatorScaling(const Graph& g, Fragmentation frag,
                           size_t num_queries, JsonMetrics* metrics) {
  std::printf(
      "coordinator scaling: uniform mix, %zu queries, %zu nodes, "
      "%zu fragments (second run per row; warm skeleton cache)\n",
      num_queries, g.NumNodes(), frag.NumFragments());
  TablePrinter table({"threads", "plan ms", "plan speedup", "phase1 ms",
                      "assemble ms", "batch q/s"});

  double base_plan_seconds = 0.0;
  for (size_t threads : {1, 2, 4, 8}) {
    DsaOptions opts;
    opts.num_threads = threads;
    DsaDatabase db(&frag, opts);
    BatchExecutor executor(&db);

    WorkloadSpec spec;
    spec.mix = WorkloadMix::kUniform;
    spec.num_queries = num_queries;
    Rng rng(91);
    const std::vector<Query> queries = GenerateWorkload(frag, spec, &rng);

    executor.Execute(queries);  // cold run warms the skeleton cache
    const BatchResult result = executor.Execute(queries);

    if (threads == 1) base_plan_seconds = result.stats.plan_seconds;
    const double plan_speedup =
        result.stats.plan_seconds == 0.0
            ? 0.0
            : base_plan_seconds / result.stats.plan_seconds;
    table.AddRow({std::to_string(threads),
                  TablePrinter::Fmt(result.stats.plan_seconds * 1e3, 2),
                  TablePrinter::Fmt(plan_speedup, 2) + "x",
                  TablePrinter::Fmt(result.stats.phase1_seconds * 1e3, 2),
                  TablePrinter::Fmt(result.stats.assemble_seconds * 1e3, 2),
                  TablePrinter::Fmt(result.stats.QueriesPerSecond(), 0)});
    const std::string prefix =
        "scaling/threads_" + std::to_string(threads);
    metrics->Set(prefix + "/plan_ms", result.stats.plan_seconds * 1e3);
    metrics->Set(prefix + "/plan_speedup", plan_speedup);
  }
  table.Print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  constexpr size_t kQueries = 1000;
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  const size_t scaling_queries =
      argc > 1 ? static_cast<size_t>(std::strtoull(argv[1], nullptr, 10))
               : 10000;
  JsonMetrics metrics("batch_throughput");

  {
    Rng rng(7);
    TransportationGraphOptions opts = Table1Options();
    TransportationGraph t = GenerateTransportationGraph(opts, &rng);
    LinearOptions lopts;
    lopts.num_fragments = 4;
    RunFamily("transportation graph (Table 1 workload)", "transportation",
              t.graph, LinearFragmentation(t.graph, lopts).fragmentation,
              kQueries, &metrics);
  }
  {
    Rng rng(7);
    GeneralGraphOptions opts = Table3Options();
    Graph g = GenerateGeneralGraph(opts, &rng);
    CenterBasedOptions copts;
    copts.num_fragments = 4;
    copts.distributed_centers = true;
    RunFamily("general graph (Table 3 workload)", "general", g,
              CenterBasedFragmentation(g, copts), kQueries, &metrics);
  }
  {
    Rng rng(7);
    TransportationGraphOptions opts = Table1Options();
    TransportationGraph t = GenerateTransportationGraph(opts, &rng);
    LinearOptions lopts;
    lopts.num_fragments = 4;
    RunCoordinatorScaling(t.graph,
                          LinearFragmentation(t.graph, lopts).fragmentation,
                          scaling_queries, &metrics);
  }
  if (!json_path.empty() && !metrics.WriteFile(json_path)) return 1;
  return 0;
}
