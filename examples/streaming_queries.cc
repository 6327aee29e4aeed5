// Streaming queries through the admission service: several client threads
// submit single shortest-path queries and get futures back, while the
// QueryService coalesces the concurrent arrivals into micro-batches that
// run on the batch executor — so the clients transparently share subquery
// work and cached plans. A second round swaps the backend for a
// message-passing SiteNetwork without touching the client code: the
// backend seam in action.
#include <cstdio>
#include <thread>
#include <vector>

#include "dsa/service.h"
#include "dsa/sites.h"
#include "dsa/workload.h"
#include "fragment/linear.h"
#include "graph/generator.h"

using namespace tcf;

namespace {

void RunClients(QueryService* service, const Fragmentation& frag,
                size_t num_clients, size_t queries_per_client) {
  std::vector<std::thread> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c]() {
      WorkloadSpec spec;
      spec.mix = WorkloadMix::kHotPair;
      spec.num_queries = queries_per_client;
      Rng rng(100 + c);  // every client streams its own workload
      const std::vector<Query> queries = GenerateWorkload(frag, spec, &rng);
      std::vector<std::future<Weight>> futures;
      futures.reserve(queries.size());
      for (const Query& q : queries) {
        futures.push_back(service->SubmitShortestPath(q.from, q.to));
      }
      size_t connected = 0;
      for (auto& f : futures) {
        if (f.get() != kInfinity) ++connected;
      }
      std::printf("  client %zu: %zu/%zu queries connected\n", c, connected,
                  queries.size());
    });
  }
  for (auto& t : clients) t.join();
}

void PrintStats(const char* label, const ServiceStats& stats) {
  std::printf(
      "%s: %zu queries in %zu micro-batches (mean fill %.1f), "
      "%.0f queries/s sustained, latency p50/p95/p99 = %.2f/%.2f/%.2f ms\n\n",
      label, stats.completed, stats.batches, stats.MeanBatchFill(),
      stats.SustainedQps(), stats.LatencyPercentileMs(50),
      stats.LatencyPercentileMs(95), stats.LatencyPercentileMs(99));
}

}  // namespace

int main() {
  // A transportation-style graph split into 4 fragments.
  Rng rng(42);
  TransportationGraphOptions gopts;
  gopts.num_clusters = 4;
  gopts.nodes_per_cluster = 25;
  gopts.target_edges_per_cluster = 100;
  TransportationGraph t = GenerateTransportationGraph(gopts, &rng);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  const Fragmentation frag =
      LinearFragmentation(t.graph, lopts).fragmentation;

  ServiceOptions opts;
  opts.max_batch = 32;
  // Flush in parallel: 0 (the default) runs one flush worker per hardware
  // thread; pin it when you want deterministic batch shapes instead.
  opts.flush_workers = 0;

  // Round 1: the in-process database backend.
  {
    DsaDatabase db(&frag);
    QueryService service(&db, opts);
    std::printf("streaming against the in-process database (%zu flush "
                "workers):\n",
                service.num_flush_workers());
    RunClients(&service, frag, 4, 500);
    service.Shutdown();
    PrintStats("database backend", service.Stats());
  }

  // Round 2: identical clients, message-passing backend.
  {
    SiteNetwork net(&frag);
    SiteNetworkBackend backend(&net);
    QueryService service(&backend, opts);
    std::printf("streaming against the message-passing site network:\n");
    RunClients(&service, frag, 4, 250);
    service.Shutdown();
    PrintStats("site-network backend", service.Stats());
  }
  return 0;
}
