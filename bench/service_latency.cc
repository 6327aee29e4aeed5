// Streaming admission latency/throughput (see docs/ARCHITECTURE.md,
// admission layer). Four sections over the Table 1 transportation
// workload:
//
//   1. streaming vs naive — N client threads stream the uniform workload
//      through a QueryService (micro-batched via BatchExecutor) vs the
//      naive one-query-at-a-time dispatch loop over the same database.
//      The acceptance bar: streaming sustains >= 2x the naive qps at 8
//      clients.
//   2. latency vs throughput — a max_batch sweep under closed-loop load:
//      a larger cap lets the backlog that builds during one batch run as
//      one bigger batch, buying throughput with latency.
//   3. open-loop arrivals — uniform vs bursty arrival processes at a fixed
//      offered rate: burstiness deepens micro-batch fill at the same mean
//      rate.
//   4. flush-worker scaling — the parallel flush pipeline
//      (ServiceOptions::flush_workers) swept over submitters {4, 16} x
//      flush-workers {1, 2, 4}: concurrent micro-batch execution on a
//      re-entrant backend. The acceptance bar (gated only where the
//      hardware can show it): workers=4 sustains >= 1.5x the workers=1
//      qps at 16 submitters on a machine with >= 4 hardware threads.
//
// `service_latency [N [clients]]` sets the workload size (default 10000)
// and client-thread count (default 8); `--json <path>` additionally writes
// the machine-readable metrics the CI perf gate compares.
// `--gate-flush-speedup` turns the flush-worker acceptance bar into a
// hard exit code on machines with >= 4 hardware threads (a no-op
// elsewhere, so single-core runners only record the sweep).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.h"
#include "dsa/service.h"
#include "dsa/workload.h"
#include "util/timer.h"

using namespace tcf;
using namespace tcf::bench;

namespace {

struct LoadResult {
  double wall_seconds = 0.0;
  ServiceStats stats;
};

/// Closed-loop load: each of `clients` threads streams its share of
/// `queries` through `service` with a bounded pipeline window (submit up
/// to `window` futures, then drain them) — many concurrent clients with a
/// few requests in flight each, not one giant pre-formed batch.
LoadResult DriveClosedLoop(QueryService* service,
                           const std::vector<Query>& queries, size_t clients,
                           size_t window) {
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      std::vector<std::future<Weight>> in_flight;
      in_flight.reserve(window);
      for (size_t i = c; i < queries.size(); i += clients) {
        in_flight.push_back(
            service->SubmitShortestPath(queries[i].from, queries[i].to));
        if (in_flight.size() == window) {
          for (auto& f : in_flight) f.get();
          in_flight.clear();
        }
      }
      for (auto& f : in_flight) f.get();
    });
  }
  for (auto& t : threads) t.join();
  LoadResult out;
  out.wall_seconds = timer.ElapsedSeconds();
  out.stats = service->Stats();
  return out;
}

/// Open-loop load: one driver submits along the generated arrival
/// schedule, never waiting for answers (futures are drained afterwards).
LoadResult DriveOpenLoop(QueryService* service,
                         const std::vector<Query>& queries,
                         const std::vector<double>& arrivals) {
  WallTimer timer;
  std::vector<std::future<Weight>> futures;
  futures.reserve(queries.size());
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(arrivals[i])));
    futures.push_back(
        service->SubmitShortestPath(queries[i].from, queries[i].to));
  }
  for (auto& f : futures) f.get();
  LoadResult out;
  out.wall_seconds = timer.ElapsedSeconds();
  out.stats = service->Stats();
  return out;
}

std::vector<Query> UniformWorkload(const Fragmentation& frag, size_t n,
                                   uint64_t seed) {
  WorkloadSpec spec;
  spec.mix = WorkloadMix::kUniform;
  spec.num_queries = n;
  Rng rng(seed);
  return GenerateWorkload(frag, spec, &rng);
}

void StreamingVsNaive(const Fragmentation& frag, size_t num_queries,
                      size_t clients, JsonMetrics* metrics) {
  const std::vector<Query> queries = UniformWorkload(frag, num_queries, 51);
  std::printf(
      "streaming vs naive: uniform mix, %zu queries, %zu client threads\n",
      num_queries, clients);

  // Naive baseline: the same database, one query at a time — what serving
  // this stream looks like without an admission layer.
  DsaDatabase naive_db(&frag);
  WallTimer naive_timer;
  for (const Query& q : queries) naive_db.ShortestPath(q.from, q.to);
  const double naive_seconds = naive_timer.ElapsedSeconds();
  const double naive_qps = static_cast<double>(num_queries) / naive_seconds;

  // Streaming: fresh database so the naive loop cannot warm any cache.
  // Throughput-leaning policy (the max_batch sweep below measures the
  // trade-off): deep micro-batches maximize cross-query sharing.
  DsaDatabase db(&frag);
  ServiceOptions opts;
  opts.max_batch = 256;
  QueryService service(&db, opts);
  const LoadResult run =
      DriveClosedLoop(&service, queries, clients, opts.max_batch);
  service.Shutdown();
  const double service_qps =
      static_cast<double>(num_queries) / run.wall_seconds;

  TablePrinter table({"path", "q/s", "p50 ms", "p95 ms", "p99 ms",
                      "mean fill", "speedup"});
  table.AddRow({"naive 1-at-a-time", TablePrinter::Fmt(naive_qps, 0), "-",
                "-", "-", "1.0", "1.00x"});
  table.AddRow({"streaming service", TablePrinter::Fmt(service_qps, 0),
                TablePrinter::Fmt(run.stats.LatencyPercentileMs(50), 2),
                TablePrinter::Fmt(run.stats.LatencyPercentileMs(95), 2),
                TablePrinter::Fmt(run.stats.LatencyPercentileMs(99), 2),
                TablePrinter::Fmt(run.stats.MeanBatchFill(), 1),
                TablePrinter::Fmt(service_qps / naive_qps, 2) + "x"});
  table.Print();
  std::printf("\n");

  metrics->Set("streaming/service_qps", service_qps);
  metrics->Set("streaming/naive_qps", naive_qps);
  metrics->Set("streaming/speedup", service_qps / naive_qps);
  metrics->Set("streaming/p99_ms", run.stats.LatencyPercentileMs(99));
  metrics->Set("streaming/mean_fill", run.stats.MeanBatchFill());
}

void LatencyVsThroughput(const Fragmentation& frag, size_t num_queries,
                         size_t clients, JsonMetrics* metrics) {
  const std::vector<Query> queries = UniformWorkload(frag, num_queries, 52);
  std::printf(
      "latency vs throughput: max_batch sweep, %zu queries, "
      "%zu client threads (closed loop)\n",
      num_queries, clients);
  TablePrinter table({"max_batch", "q/s", "p50 ms", "p95 ms", "p99 ms",
                      "mean fill"});

  for (size_t max_batch : {16, 64, 256}) {
    DsaDatabase db(&frag);
    ServiceOptions opts;
    opts.max_batch = max_batch;
    QueryService service(&db, opts);
    const LoadResult run =
        DriveClosedLoop(&service, queries, clients, max_batch);
    service.Shutdown();
    const double qps = static_cast<double>(num_queries) / run.wall_seconds;
    table.AddRow({std::to_string(max_batch), TablePrinter::Fmt(qps, 0),
                  TablePrinter::Fmt(run.stats.LatencyPercentileMs(50), 2),
                  TablePrinter::Fmt(run.stats.LatencyPercentileMs(95), 2),
                  TablePrinter::Fmt(run.stats.LatencyPercentileMs(99), 2),
                  TablePrinter::Fmt(run.stats.MeanBatchFill(), 1)});
    metrics->Set("grid/batch_" + std::to_string(max_batch) + "_qps", qps);
  }
  table.Print();
  std::printf("\n");
}

void OpenLoopArrivals(const Fragmentation& frag, size_t num_queries,
                      JsonMetrics* metrics) {
  // Offered rate low enough that even the naive path could keep up — the
  // comparison isolates the *shape* of the arrival process.
  const double offered_qps = 4000.0;
  const size_t n = std::min<size_t>(num_queries, 4000);
  std::printf(
      "open-loop arrivals: uniform mix, %zu queries, offered %.0f q/s\n", n,
      offered_qps);
  TablePrinter table({"arrivals", "sustained q/s", "p50 ms", "p95 ms",
                      "p99 ms", "mean fill", "batches"});

  for (ArrivalProcess process :
       {ArrivalProcess::kUniform, ArrivalProcess::kBursty}) {
    WorkloadSpec spec;
    spec.mix = WorkloadMix::kUniform;
    spec.num_queries = n;
    spec.arrivals = process;
    spec.arrival_rate_qps = offered_qps;
    Rng qrng(53), arng(54);
    const std::vector<Query> queries = GenerateWorkload(frag, spec, &qrng);
    const std::vector<double> arrivals = GenerateArrivalTimes(spec, &arng);

    DsaDatabase db(&frag);
    ServiceOptions opts;
    opts.max_batch = 64;
    QueryService service(&db, opts);
    const LoadResult run = DriveOpenLoop(&service, queries, arrivals);
    service.Shutdown();

    table.AddRow({ArrivalProcessName(process),
                  TablePrinter::Fmt(run.stats.SustainedQps(), 0),
                  TablePrinter::Fmt(run.stats.LatencyPercentileMs(50), 2),
                  TablePrinter::Fmt(run.stats.LatencyPercentileMs(95), 2),
                  TablePrinter::Fmt(run.stats.LatencyPercentileMs(99), 2),
                  TablePrinter::Fmt(run.stats.MeanBatchFill(), 1),
                  std::to_string(run.stats.batches)});
    metrics->Set(std::string("open_loop/") + ArrivalProcessName(process) +
                     "/mean_fill",
                 run.stats.MeanBatchFill());
    metrics->Set(std::string("open_loop/") + ArrivalProcessName(process) +
                     "/p99_ms",
                 run.stats.LatencyPercentileMs(99));
  }
  table.Print();
  std::printf("\n");
}

/// Section 4: submitters x flush_workers. Returns false only when `gate`
/// is set, the machine has >= 4 hardware threads, and the workers=4-vs-1
/// speedup misses the 1.5x bar.
bool FlushWorkerSweep(const Fragmentation& frag, size_t num_queries,
                      JsonMetrics* metrics, bool gate) {
  const size_t n = std::min<size_t>(num_queries, 8000);
  const std::vector<Query> queries = UniformWorkload(frag, n, 57);
  const unsigned hardware = std::thread::hardware_concurrency();
  constexpr size_t kSubmitters[] = {4, 16};
  constexpr size_t kWorkers[] = {1, 2, 4};
  std::printf(
      "flush-worker scaling: uniform mix, %zu queries, closed loop "
      "(submitters x flush_workers), %u hardware threads\n",
      n, hardware);
  TablePrinter table({"submitters", "workers=1 q/s", "workers=2 q/s",
                      "workers=4 q/s", "4v1 speedup"});

  double qps_16sub_w1 = 0.0;
  double qps_16sub_w4 = 0.0;
  for (size_t submitters : kSubmitters) {
    std::vector<double> qps_by_workers;
    for (size_t workers : kWorkers) {
      // Best of three: cells compare against each other and closed-loop
      // runs at up to 16 threads are scheduler-noisy.
      double qps = 0.0;
      for (int repeat = 0; repeat < 3; ++repeat) {
        DsaDatabase db(&frag);
        ServiceOptions opts;
        opts.max_batch = 256;
        opts.flush_workers = workers;
        QueryService service(&db, opts);
        const LoadResult run =
            DriveClosedLoop(&service, queries, submitters, 32);
        service.Shutdown();
        qps = std::max(qps, static_cast<double>(n) / run.wall_seconds);
      }
      qps_by_workers.push_back(qps);
      // Deliberately NOT named *_qps: the per-cell numbers are recorded
      // for the baseline artifact but kept out of the rolling-median CI
      // gate (which keys on the _qps suffix); the explicit
      // --gate-flush-speedup bar below is the enforcement point.
      metrics->Set("flush_sweep/sub_" + std::to_string(submitters) +
                       "_workers_" + std::to_string(workers) + "_throughput",
                   qps);
      if (submitters == 16) {
        if (workers == 1) qps_16sub_w1 = qps;
        if (workers == 4) qps_16sub_w4 = qps;
      }
    }
    table.AddRow({std::to_string(submitters),
                  TablePrinter::Fmt(qps_by_workers[0], 0),
                  TablePrinter::Fmt(qps_by_workers[1], 0),
                  TablePrinter::Fmt(qps_by_workers[2], 0),
                  TablePrinter::Fmt(qps_by_workers[2] / qps_by_workers[0], 2) +
                      "x"});
  }
  table.Print();
  const double speedup =
      qps_16sub_w1 == 0.0 ? 0.0 : qps_16sub_w4 / qps_16sub_w1;
  std::printf("16-submitter speedup, 4 flush workers vs 1: %.2fx\n\n",
              speedup);
  metrics->Set("flush_sweep/speedup_workers4_vs_1", speedup);
  metrics->Set("flush_sweep/hardware_threads",
               static_cast<double>(hardware));

  if (gate && hardware >= 4 && speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: flush-worker speedup %.2fx < 1.50x bar "
                 "(workers=4 vs 1 at 16 submitters, %u hardware threads)\n",
                 speedup, hardware);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  bool gate_flush_speedup = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gate-flush-speedup") {
      gate_flush_speedup = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  const size_t num_queries =
      argc > 1 ? static_cast<size_t>(std::strtoull(argv[1], nullptr, 10))
               : 10000;
  const size_t clients =
      argc > 2 ? static_cast<size_t>(std::strtoull(argv[2], nullptr, 10)) : 8;
  JsonMetrics metrics("service_latency");

  Rng rng(7);
  TransportationGraphOptions opts = Table1Options();
  TransportationGraph t = GenerateTransportationGraph(opts, &rng);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  const Fragmentation frag =
      LinearFragmentation(t.graph, lopts).fragmentation;
  std::printf("graph: %zu nodes, %zu edges, %zu fragments\n\n",
              t.graph.NumNodes(), t.graph.NumEdges(), frag.NumFragments());

  StreamingVsNaive(frag, num_queries, clients, &metrics);
  LatencyVsThroughput(frag, std::min<size_t>(num_queries, 4000), clients,
                      &metrics);
  OpenLoopArrivals(frag, num_queries, &metrics);
  const bool flush_ok =
      FlushWorkerSweep(frag, num_queries, &metrics, gate_flush_speedup);

  if (!json_path.empty() && !metrics.WriteFile(json_path)) return 1;
  return flush_ok ? 0 : 1;
}
