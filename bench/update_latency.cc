// Read latency under concurrent maintenance epochs (the Sec. 2.1
// amortization premise made measurable). Two sections over the Table 1
// transportation workload on a MaintainedDatabase:
//
//   1. reads under updates — client threads stream uniform queries through
//      a QueryService while one updater thread submits reweight epochs at
//      a swept rate (0 = frozen baseline). Because queries pin epoch
//      snapshots, read p99 should degrade gently rather than stall behind
//      epoch publication; the updater's submit-to-publish latency is
//      reported beside it.
//   2. epoch cost — direct single-op ApplyEpoch timing per update kind:
//      reweight-only epochs ride the incremental complementary refresh,
//      inserts/deletes pay the structural path.
//
// `update_latency [N [clients]]` sets the per-cell query count (default
// 6000) and reader-thread count (default 4); `--json <path>` writes the
// machine-readable metrics for the CI perf gate. Gated series (keys ending
// "_qps"): read throughput per update rate, the inverse p99 read latency
// under updates (1/p99 seconds, so "higher is better" like every gated
// key), and reweight-epoch application throughput.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dsa/maintenance.h"
#include "dsa/service.h"
#include "dsa/workload.h"
#include "util/timer.h"

using namespace tcf;
using namespace tcf::bench;

namespace {

std::vector<Query> UniformWorkload(const Fragmentation& frag, size_t n,
                                   uint64_t seed) {
  WorkloadSpec spec;
  spec.mix = WorkloadMix::kUniform;
  spec.num_queries = n;
  Rng rng(seed);
  return GenerateWorkload(frag, spec, &rng);
}

struct CellResult {
  double wall_seconds = 0.0;
  ServiceStats stats;
};

/// Closed-loop readers (window of 32 futures each) racing one open-loop
/// updater that submits absolute reweights of initial edges at
/// `updates_per_second` (0 disables the updater).
CellResult DriveReadsUnderUpdates(MaintainedDatabase* mdb,
                                  const std::vector<Query>& queries,
                                  size_t clients,
                                  double updates_per_second) {
  ServiceOptions opts;
  opts.max_batch = 64;
  QueryService service(mdb, opts);

  const std::vector<Edge> initial_edges = mdb->graph().edges();
  std::atomic<bool> done{false};
  std::thread updater;
  if (updates_per_second > 0.0) {
    updater = std::thread([&]() {
      Rng rng(97);
      const auto gap = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / updates_per_second));
      auto next = std::chrono::steady_clock::now();
      while (!done.load(std::memory_order_acquire)) {
        const Edge& e = initial_edges[rng.NextBounded(initial_edges.size())];
        service
            .SubmitUpdate(EdgeUpdate::Reweight(
                e.src, e.dst, e.weight * rng.NextDouble(0.5, 1.5)))
            .get();
        next += gap;
        std::this_thread::sleep_until(next);
      }
    });
  }

  constexpr size_t kWindow = 32;
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      std::vector<std::future<Weight>> in_flight;
      in_flight.reserve(kWindow);
      for (size_t i = c; i < queries.size(); i += clients) {
        in_flight.push_back(
            service.SubmitShortestPath(queries[i].from, queries[i].to));
        if (in_flight.size() == kWindow) {
          for (auto& f : in_flight) f.get();
          in_flight.clear();
        }
      }
      for (auto& f : in_flight) f.get();
    });
  }
  for (auto& t : threads) t.join();
  const double wall = timer.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  if (updater.joinable()) updater.join();
  service.Shutdown();

  CellResult out;
  out.wall_seconds = wall;
  out.stats = service.Stats();
  return out;
}

void ReadsUnderUpdates(const Fragmentation& frag, size_t num_queries,
                       size_t clients, JsonMetrics* metrics) {
  std::printf(
      "reads under updates: uniform mix, %zu queries, %zu reader threads, "
      "one updater\n",
      num_queries, clients);
  // "read q/s" vs "ops/s": SustainedQps() counts QUERIES only; the
  // combined column adds the applied updates back in so the mixed
  // workload's total throughput is not silently under-reported.
  TablePrinter table({"updates/s", "read q/s", "ops/s", "p50 ms", "p99 ms",
                      "epochs", "update p50 ms", "update p99 ms"});

  constexpr double kRates[] = {0.0, 50.0, 400.0};
  for (double rate : kRates) {
    MaintainedDatabase mdb = MaintainedDatabase::FromFragmentation(frag);
    const std::vector<Query> queries = UniformWorkload(frag, num_queries, 61);
    const CellResult run =
        DriveReadsUnderUpdates(&mdb, queries, clients, rate);
    const double read_qps =
        static_cast<double>(num_queries) / run.wall_seconds;
    const double p99_ms = run.stats.LatencyPercentileMs(99);
    const bool has_updates = run.stats.update_epochs > 0;
    const double up50 =
        has_updates ? run.stats.update_latency_seconds.Percentile(50) * 1e3
                    : 0.0;
    const double up99 =
        has_updates ? run.stats.update_latency_seconds.Percentile(99) * 1e3
                    : 0.0;

    table.AddRow({TablePrinter::Fmt(rate, 0), TablePrinter::Fmt(read_qps, 0),
                  TablePrinter::Fmt(run.stats.SustainedOpsPerSec(), 0),
                  TablePrinter::Fmt(run.stats.LatencyPercentileMs(50), 2),
                  TablePrinter::Fmt(p99_ms, 2),
                  std::to_string(run.stats.update_epochs),
                  has_updates ? TablePrinter::Fmt(up50, 2) : "-",
                  has_updates ? TablePrinter::Fmt(up99, 2) : "-"});

    const std::string prefix =
        "reads/rate_" + std::to_string(static_cast<int>(rate));
    metrics->Set(prefix + "_qps", read_qps);
    metrics->Set(prefix + "/p99_ms", p99_ms);
    if (rate > 0.0) {
      metrics->Set(prefix + "/update_p99_ms", up99);
      metrics->Set(prefix + "/epochs",
                   static_cast<double>(run.stats.update_epochs));
      // The split rates: queries and updates separately plus the combined
      // operation rate, so the JSON never hides update work inside a
      // "qps" that only counted reads.
      metrics->Set(prefix + "/update_rate",
                   run.stats.SustainedUpdatesPerSec());
      metrics->Set(prefix + "/ops_per_sec", run.stats.SustainedOpsPerSec());
    }
    // The gated read-tail series: inverse p99 (1/seconds) so the "_qps"
    // regression gate's higher-is-better rule covers tail latency too.
    // Keyed on the heaviest swept rate.
    if (rate == kRates[2] && p99_ms > 0.0) {
      metrics->Set("reads/p99_read_inv_qps", 1e3 / p99_ms);
    }
  }
  table.Print();
  std::printf("\n");
}

void EpochCost(const Fragmentation& frag, JsonMetrics* metrics) {
  constexpr size_t kEpochs = 200;
  std::printf("epoch cost: %zu single-op epochs per kind (direct "
              "ApplyEpoch, no service)\n",
              kEpochs);
  TablePrinter table({"kind", "epochs/s", "mean ms", "structural",
                      "dirty borders", "reused borders"});

  struct Kind {
    const char* name;
    const char* key;
  };
  constexpr Kind kKinds[] = {{"reweight", "reweight"},
                             {"insert+delete", "structural"}};
  for (const Kind& kind : kKinds) {
    MaintainedDatabase mdb = MaintainedDatabase::FromFragmentation(frag);
    const std::vector<Edge> initial_edges = mdb.graph().edges();
    Rng rng(113);
    size_t structural = 0, dirty = 0, reused = 0;
    WallTimer timer;
    for (size_t i = 0; i < kEpochs; ++i) {
      const Edge& e = initial_edges[rng.NextBounded(initial_edges.size())];
      EpochStats stats;
      if (std::string(kind.key) == "reweight") {
        stats = mdb.ApplyEpoch({EdgeUpdate::Reweight(
            e.src, e.dst, e.weight * rng.NextDouble(0.5, 1.5))});
      } else if (i % 2 == 0) {
        stats = mdb.ApplyEpoch({EdgeUpdate::Insert(
            e.src, e.dst, e.weight * rng.NextDouble(0.5, 1.5))});
      } else {
        stats = mdb.ApplyEpoch({EdgeUpdate::Delete(e.src, e.dst)});
      }
      structural += stats.structural ? 1 : 0;
      dirty += stats.dirty_border_nodes;
      reused += stats.reused_border_nodes;
    }
    const double seconds = timer.ElapsedSeconds();
    const double eps = static_cast<double>(kEpochs) / seconds;
    table.AddRow({kind.name, TablePrinter::Fmt(eps, 0),
                  TablePrinter::Fmt(1e3 * seconds / kEpochs, 3),
                  std::to_string(structural), std::to_string(dirty),
                  std::to_string(reused)});
    metrics->Set(std::string("epoch/") + kind.key + "_epochs_qps", eps);
    metrics->Set(std::string("epoch/") + kind.key + "_dirty_borders",
                 static_cast<double>(dirty));
    metrics->Set(std::string("epoch/") + kind.key + "_reused_borders",
                 static_cast<double>(reused));
  }
  table.Print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  const size_t num_queries =
      argc > 1 ? static_cast<size_t>(std::strtoull(argv[1], nullptr, 10))
               : 6000;
  const size_t clients =
      argc > 2 ? static_cast<size_t>(std::strtoull(argv[2], nullptr, 10)) : 4;
  JsonMetrics metrics("update_latency");

  Rng rng(7);
  TransportationGraphOptions opts = Table1Options();
  TransportationGraph t = GenerateTransportationGraph(opts, &rng);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  const Fragmentation frag =
      LinearFragmentation(t.graph, lopts).fragmentation;
  std::printf("graph: %zu nodes, %zu edges, %zu fragments\n\n",
              t.graph.NumNodes(), t.graph.NumEdges(), frag.NumFragments());

  ReadsUnderUpdates(frag, num_queries, clients, &metrics);
  EpochCost(frag, &metrics);

  if (!json_path.empty() && !metrics.WriteFile(json_path)) return 1;
  return 0;
}
