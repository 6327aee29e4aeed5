// Network-edge latency/throughput: what the wire protocol (src/net/) costs
// on top of the in-process QueryService, measured over loopback TCP
// against an in-process Server. Three sections:
//
//   1. blocking RPC — one request on the wire at a time: per-call p50/p99
//      and the resulting qps; the floor a naive request/response client
//      pays per round trip (syscalls + framing + a batch of one, which an
//      idle flush worker runs at once).
//   2. pipelining depth sweep — one client, {1, 8, 64, 256} requests in
//      flight: pipelining amortizes the round trip AND fills the
//      service's micro-batches, so qps should climb steeply with depth.
//   3. multi-client — 4 concurrent connections at depth 64, the daemon's
//      steady-state shape; also reports the in-process submission rate on
//      the same service for reference (the wire tax at saturation).
//
// `net_latency [N]` sets the per-section query count (default 20000);
// `--json <path>` writes the CI perf-gate metrics (keys ending `_qps`
// are gated against the rolling baseline median).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dsa/service.h"
#include "dsa/workload.h"
#include "fragment/linear.h"
#include "graph/generator.h"
#include "net/client.h"
#include "net/server.h"
#include "util/timer.h"

using namespace tcf;
using namespace tcf::bench;

namespace {

double PercentileMs(std::vector<double>* samples_ms, double pct) {
  if (samples_ms->empty()) return 0.0;
  std::sort(samples_ms->begin(), samples_ms->end());
  const size_t idx = static_cast<size_t>(
      pct / 100.0 * static_cast<double>(samples_ms->size() - 1));
  return (*samples_ms)[idx];
}

std::vector<Query> UniformWorkload(const Fragmentation& frag, size_t n,
                                   uint64_t seed) {
  WorkloadSpec spec;
  spec.mix = WorkloadMix::kUniform;
  spec.num_queries = n;
  Rng rng(seed);
  return GenerateWorkload(frag, spec, &rng);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  const size_t num_queries =
      argc > 1 ? static_cast<size_t>(std::strtoull(argv[1], nullptr, 10))
               : 20000;
  JsonMetrics metrics("net_latency");

  Rng rng(7);
  TransportationGraphOptions gen;
  TransportationGraph t = GenerateTransportationGraph(gen, &rng);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  const Fragmentation frag =
      LinearFragmentation(t.graph, lopts).fragmentation;
  DsaDatabase db(&frag);
  ServiceOptions sopts;
  sopts.max_batch = 256;
  QueryService service(&db, sopts);
  Server server(&service);
  TCF_CHECK(server.Start().ok());
  std::printf("graph: %zu nodes, %zu edges, %zu fragments; server on :%u\n\n",
              t.graph.NumNodes(), t.graph.NumEdges(), frag.NumFragments(),
              static_cast<unsigned>(server.port()));

  // ---- 1. blocking RPC ----------------------------------------------------
  {
    const size_t n = std::min<size_t>(num_queries, 2000);
    const std::vector<Query> queries = UniformWorkload(frag, n, 61);
    auto client =
        std::move(Client::Connect("127.0.0.1", server.port()).value());
    std::vector<double> call_ms;
    call_ms.reserve(n);
    WallTimer timer;
    for (const Query& q : queries) {
      WallTimer call;
      TCF_CHECK(client->ShortestPathCost(q.from, q.to).ok());
      call_ms.push_back(call.ElapsedSeconds() * 1e3);
    }
    const double seconds = timer.ElapsedSeconds();
    const double qps = static_cast<double>(n) / seconds;
    std::printf("blocking RPC: %zu calls, %.0f q/s, p50 %.3f ms, p99 %.3f ms\n",
                n, qps, PercentileMs(&call_ms, 50), PercentileMs(&call_ms, 99));
    metrics.Set("blocking_rpc_qps", qps);
    metrics.Set("blocking/p50_ms", PercentileMs(&call_ms, 50));
    metrics.Set("blocking/p99_ms", PercentileMs(&call_ms, 99));
  }

  // ---- 2. pipelining depth sweep ------------------------------------------
  std::printf("\npipelining depth sweep (one connection):\n");
  for (size_t depth : {size_t{1}, size_t{8}, size_t{64}, size_t{256}}) {
    const std::vector<Query> queries = UniformWorkload(frag, num_queries, 62);
    auto client =
        std::move(Client::Connect("127.0.0.1", server.port()).value());
    std::vector<std::future<Result<Weight>>> in_flight;
    in_flight.reserve(depth);
    WallTimer timer;
    for (const Query& q : queries) {
      in_flight.push_back(client->SubmitShortestPath(q.from, q.to));
      if (in_flight.size() == depth) {
        for (auto& f : in_flight) TCF_CHECK(f.get().ok());
        in_flight.clear();
      }
    }
    for (auto& f : in_flight) TCF_CHECK(f.get().ok());
    const double qps =
        static_cast<double>(queries.size()) / timer.ElapsedSeconds();
    std::printf("  depth %3zu: %8.0f q/s\n", depth, qps);
    metrics.Set("pipelined_d" + std::to_string(depth) + "_qps", qps);
  }

  // ---- 3. multi-client ----------------------------------------------------
  {
    constexpr size_t kClients = 4;
    constexpr size_t kDepth = 64;
    const std::vector<Query> queries = UniformWorkload(frag, num_queries, 63);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    WallTimer timer;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c]() {
        auto client =
            std::move(Client::Connect("127.0.0.1", server.port()).value());
        std::vector<std::future<Result<Weight>>> in_flight;
        in_flight.reserve(kDepth);
        for (size_t i = c; i < queries.size(); i += kClients) {
          in_flight.push_back(
              client->SubmitShortestPath(queries[i].from, queries[i].to));
          if (in_flight.size() == kDepth) {
            for (auto& f : in_flight) TCF_CHECK(f.get().ok());
            in_flight.clear();
          }
        }
        for (auto& f : in_flight) TCF_CHECK(f.get().ok());
      });
    }
    for (auto& th : threads) th.join();
    const double wire_qps =
        static_cast<double>(queries.size()) / timer.ElapsedSeconds();

    // Reference: the same load submitted in-process (no sockets, no
    // framing) — the denominator of the wire tax.
    WallTimer direct_timer;
    std::vector<std::thread> direct;
    direct.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      direct.emplace_back([&, c]() {
        std::vector<std::future<Weight>> in_flight;
        in_flight.reserve(kDepth);
        for (size_t i = c; i < queries.size(); i += kClients) {
          in_flight.push_back(
              service.SubmitShortestPath(queries[i].from, queries[i].to));
          if (in_flight.size() == kDepth) {
            for (auto& f : in_flight) f.get();
            in_flight.clear();
          }
        }
        for (auto& f : in_flight) f.get();
      });
    }
    for (auto& th : direct) th.join();
    const double direct_qps =
        static_cast<double>(queries.size()) / direct_timer.ElapsedSeconds();

    std::printf(
        "\nmulti-client: %zu connections x depth %zu: %8.0f q/s over the "
        "wire, %8.0f q/s in-process (wire keeps %.0f%%)\n",
        kClients, kDepth, wire_qps, direct_qps, 100.0 * wire_qps / direct_qps);
    metrics.Set("multiclient_qps", wire_qps);
    // Deliberately NOT *_qps-keyed: a reference number recorded for the
    // baseline artifact, not a gated series.
    metrics.Set("multiclient/inprocess_reference_rate", direct_qps);
    metrics.Set("multiclient/wire_efficiency", wire_qps / direct_qps);
  }

  server.Stop();
  service.Shutdown();
  const ServerStats stats = server.stats();
  std::printf(
      "\nserver: %llu requests, %llu ok replies, %llu error replies\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.replies_ok),
      static_cast<unsigned long long>(stats.replies_error));

  if (!json_path.empty() && !metrics.WriteFile(json_path)) return 1;
  return 0;
}
