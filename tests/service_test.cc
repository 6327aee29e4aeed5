// Tests for the streaming admission layer (dsa/service.h): answers match a
// Floyd–Warshall min-plus oracle element-wise, an idle flush worker runs a
// lone query at once while a backlog runs in batches of max_batch, a
// backend Status fails only its own query's future and keeps its code, the
// bounded queue rejects TrySubmit when full and bounds the whole backlog
// whichever threads submit, Shutdown drains every admitted query (and
// wakes submitters blocked on backpressure), the parallel flush pool
// keeps ServiceStats totals scheduling-independent across worker counts
// (with elapsed_seconds frozen at shutdown), and the backend seam serves
// both the in-process database and the message-passing SiteNetwork.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <optional>
#include <thread>

#include "dsa/service.h"
#include "dsa/sites.h"
#include "dsa/workload.h"
#include "fragment/linear.h"
#include "graph/generator.h"

namespace tcf {
namespace {

/// Dense min-plus closure — the cost oracle (d[v][v] = 0: a query's empty
/// path, matching the from == to semantics of the query API).
std::vector<std::vector<Weight>> WarshallCostOracle(const Graph& g) {
  const size_t n = g.NumNodes();
  std::vector<std::vector<Weight>> d(n, std::vector<Weight>(n, kInfinity));
  for (NodeId v = 0; v < n; ++v) d[v][v] = 0.0;
  for (const Edge& e : g.edges()) {
    d[e.src][e.dst] = std::min(d[e.src][e.dst], e.weight);
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (d[i][k] == kInfinity) continue;
      for (size_t j = 0; j < n; ++j) {
        if (d[k][j] == kInfinity) continue;
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

struct Fixture {
  explicit Fixture(uint64_t seed) {
    Rng rng(seed);
    TransportationGraphOptions gopts;
    gopts.num_clusters = 3;
    gopts.nodes_per_cluster = 10;
    gopts.target_edges_per_cluster = 40;
    graph = GenerateTransportationGraph(gopts, &rng).graph;
    LinearOptions lopts;
    lopts.num_fragments = 4;
    frag = std::make_unique<Fragmentation>(
        LinearFragmentation(graph, lopts).fragmentation);
    DsaOptions dopts;
    dopts.num_threads = 2;
    db = std::make_unique<DsaDatabase>(frag.get(), dopts);
    oracle = WarshallCostOracle(graph);
  }

  std::vector<Query> Workload(size_t n, uint64_t seed) const {
    WorkloadSpec spec;
    spec.mix = WorkloadMix::kHotPair;
    spec.num_queries = n;
    Rng rng(seed);
    return GenerateWorkload(*frag, spec, &rng);
  }

  Graph graph;
  std::unique_ptr<Fragmentation> frag;
  std::unique_ptr<DsaDatabase> db;
  std::vector<std::vector<Weight>> oracle;
};

void ExpectOracle(const Fixture& fx, NodeId from, NodeId to, Weight got) {
  const Weight want = fx.oracle[from][to];
  if (want == kInfinity) {
    EXPECT_EQ(got, kInfinity) << from << " -> " << to;
  } else {
    EXPECT_NEAR(got, want, 1e-9) << from << " -> " << to;
  }
}

TEST(QueryService, AnswersMatchWarshallOracle) {
  Fixture fx(301);
  ServiceOptions opts;
  opts.max_batch = 16;
  QueryService service(fx.db.get(), opts);

  const std::vector<Query> queries = fx.Workload(300, 7);
  std::vector<std::future<Weight>> futures;
  futures.reserve(queries.size());
  for (const Query& q : queries) {
    futures.push_back(service.SubmitShortestPath(q.from, q.to));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectOracle(fx, queries[i].from, queries[i].to, futures[i].get());
  }
  service.Shutdown();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.completed, queries.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GE(stats.MeanBatchFill(), 1.0);
  EXPECT_LE(stats.batch_fill.Max(), static_cast<double>(opts.max_batch));
}

TEST(QueryService, SubmitBatchKeepsPerQueryFutures) {
  Fixture fx(302);
  QueryService service(fx.db.get());
  std::vector<Query> queries = fx.Workload(120, 8);
  queries.push_back({11, 11, QueryKind::kCost});  // from == to: cost 0
  std::vector<std::future<Weight>> futures = service.SubmitBatch(queries);
  ASSERT_EQ(futures.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectOracle(fx, queries[i].from, queries[i].to, futures[i].get());
  }
}

/// Backend stub whose ExecuteBatch blocks on a gate — makes queue-full
/// and backlog states deterministic and exercises the backend seam with a
/// third, test-only implementation. Answers from + to, except that a query
/// from kIOErrorNode fails with an IOError, the way a paged database fails
/// a query whose page read fails.
class GatedBackend : public ServiceBackend {
 public:
  static constexpr NodeId kIOErrorNode = 99;

  std::vector<Result<Weight>> ExecuteBatch(
      const std::vector<Query>& queries) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      batch_sizes_.push_back(queries.size());
      executing_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this]() { return released_; });
    }
    std::vector<Result<Weight>> costs;
    for (const Query& q : queries) {
      if (q.from == kIOErrorNode) {
        costs.push_back(Status::IOError("page 7: checksum mismatch"));
      } else {
        costs.push_back(static_cast<Weight>(q.from) +
                        static_cast<Weight>(q.to));
      }
    }
    return costs;
  }

  void WaitUntilExecuting() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this]() { return executing_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }
  /// Query count of every batch executed so far, in execution order.
  std::vector<size_t> BatchSizes() {
    std::lock_guard<std::mutex> lock(mutex_);
    return batch_sizes_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool executing_ = false;
  bool released_ = false;
  std::vector<size_t> batch_sizes_;
};

/// `n` distinct cost queries i -> i + 1 (GatedBackend answers 2i + 1).
std::vector<Query> DistinctQueries(size_t n) {
  std::vector<Query> queries;
  for (NodeId i = 0; i < n; ++i) {
    queries.push_back({i, i + 1, QueryKind::kCost});
  }
  return queries;
}

TEST(QueryService, IdleWorkerRunsALoneQueryAtOnce) {
  // An idle worker flushes at once: nothing waits for company, so a lone
  // query on an idle service is answered even with an hour-long max_wait,
  // which the service no longer reads.
  GatedBackend backend;
  backend.Release();
  ServiceOptions opts;
  opts.max_wait = std::chrono::hours(1);
  opts.flush_workers = 1;
  QueryService service(&backend, opts);

  std::future<Weight> lone = service.SubmitShortestPath(1, 2);
  ASSERT_EQ(lone.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_DOUBLE_EQ(lone.get(), 3.0);
  service.Shutdown();
  EXPECT_EQ(backend.BatchSizes(), std::vector<size_t>{1});
}

TEST(QueryService, FlushesOnBatchSize) {
  // Queries coalesce exactly while the worker is busy: 20 queries admitted
  // behind a gated batch run as batches of max_batch once it opens.
  GatedBackend backend;
  ServiceOptions opts;
  opts.max_batch = 8;
  opts.flush_workers = 1;  // exact batch shapes: one popper, no splitting
  QueryService service(&backend, opts);

  std::future<Weight> running = service.SubmitShortestPath(0, 1);
  backend.WaitUntilExecuting();
  const std::vector<Query> backlog = DistinctQueries(20);
  std::vector<std::future<Weight>> futures = service.SubmitBatch(backlog);
  backend.Release();

  EXPECT_DOUBLE_EQ(running.get(), 1.0);
  for (size_t i = 0; i < backlog.size(); ++i) {
    EXPECT_DOUBLE_EQ(futures[i].get(), 2.0 * i + 1.0) << "query " << i;
  }
  service.Shutdown();

  EXPECT_EQ(backend.BatchSizes(), (std::vector<size_t>{1, 8, 8, 4}));
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 21u);
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_DOUBLE_EQ(stats.batch_fill.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.batch_fill.Max(), 8.0);
}

TEST(QueryService, BackendStatusFailsOnlyItsOwnFuture) {
  // A query the backend answers with a Status fails its own future with a
  // StatusError that keeps the code; its batch-mates are answered.
  GatedBackend backend;
  ServiceOptions opts;
  opts.flush_workers = 1;  // the three queued queries form one batch
  QueryService service(&backend, opts);

  std::future<Weight> running = service.SubmitShortestPath(0, 1);
  backend.WaitUntilExecuting();
  std::vector<std::future<Weight>> futures = service.SubmitBatch(
      {{1, 2, QueryKind::kCost},
       {GatedBackend::kIOErrorNode, 3, QueryKind::kCost},
       {4, 5, QueryKind::kCost}});
  backend.Release();

  EXPECT_DOUBLE_EQ(running.get(), 1.0);
  EXPECT_DOUBLE_EQ(futures[0].get(), 3.0);
  try {
    futures[1].get();
    ADD_FAILURE() << "the failed query's future carried a value";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kIOError);
    EXPECT_EQ(e.status().message(), "page 7: checksum mismatch");
  }
  EXPECT_DOUBLE_EQ(futures[2].get(), 9.0);
  service.Shutdown();
  EXPECT_EQ(backend.BatchSizes(), (std::vector<size_t>{1, 3}));
  // A failed query is not throughput: it is counted apart and not timed.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.latency_seconds.count(), 3u);
}

TEST(QueryService, TrySubmitRejectsWhenQueueFull) {
  GatedBackend backend;
  ServiceOptions opts;
  opts.max_batch = 1;
  opts.queue_capacity = 2;
  // One flush worker: a second worker would pull a queued query into the
  // gate too and free the slot this test needs to stay full.
  opts.flush_workers = 1;
  QueryService service(&backend, opts);

  // First query is pulled into the (gated) backend; the next two fill the
  // bounded queue; the fourth must be rejected.
  auto running = service.SubmitShortestPath(1, 2);
  backend.WaitUntilExecuting();
  auto queued_a = service.TrySubmit(3, 4);
  auto queued_b = service.TrySubmit(5, 6);
  ASSERT_TRUE(queued_a.has_value());
  ASSERT_TRUE(queued_b.has_value());
  EXPECT_FALSE(service.TrySubmit(7, 8).has_value());
  EXPECT_EQ(service.Stats().rejected, 1u);

  backend.Release();
  EXPECT_DOUBLE_EQ(running.get(), 3.0);
  EXPECT_DOUBLE_EQ(queued_a->get(), 7.0);
  EXPECT_DOUBLE_EQ(queued_b->get(), 11.0);
  service.Shutdown();
  EXPECT_EQ(service.Stats().completed, 3u);
}

TEST(QueryService, QueueCapacityBoundsTheWholeBacklog) {
  // queue_capacity bounds the whole backlog, whichever threads submit:
  // with the only worker held in the gate and room for 2, exactly 2 of 8
  // concurrent TrySubmit calls are admitted and 6 are rejected. Every
  // submitter waits at the latch before it exits, so no thread id is
  // reused while the others submit.
  GatedBackend backend;
  ServiceOptions opts;
  opts.queue_capacity = 2;
  opts.flush_workers = 1;
  QueryService service(&backend, opts);

  std::future<Weight> running = service.SubmitShortestPath(0, 1);
  backend.WaitUntilExecuting();

  constexpr size_t kSubmitters = 8;
  std::vector<std::optional<std::future<Weight>>> results(kSubmitters);
  std::latch all_submitted(kSubmitters);
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  for (size_t t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t]() {
      const NodeId from = static_cast<NodeId>(t);
      results[t] = service.TrySubmit(from, from + 1);
      all_submitted.arrive_and_wait();
    });
  }
  for (std::thread& th : threads) th.join();

  size_t admitted = 0;
  for (const auto& result : results) admitted += result.has_value();
  EXPECT_EQ(admitted, 2u);
  EXPECT_EQ(service.Stats().rejected, kSubmitters - 2);

  backend.Release();
  EXPECT_DOUBLE_EQ(running.get(), 1.0);
  for (size_t t = 0; t < kSubmitters; ++t) {
    if (results[t].has_value()) {
      EXPECT_DOUBLE_EQ(results[t]->get(), 2.0 * t + 1.0) << "submitter " << t;
    }
  }
  service.Shutdown();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(QueryService, ShutdownDrainsQueuedQueries) {
  // A Shutdown() called while queries wait behind a busy worker must
  // drain every one of them, not drop them.
  GatedBackend backend;
  ServiceOptions opts;
  opts.max_batch = 8;
  opts.flush_workers = 1;
  QueryService service(&backend, opts);

  std::future<Weight> running = service.SubmitShortestPath(0, 1);
  backend.WaitUntilExecuting();
  const std::vector<Query> queued = DistinctQueries(20);
  std::vector<std::future<Weight>> futures = service.SubmitBatch(queued);
  std::thread stopper([&]() { service.Shutdown(); });
  while (!service.IsShuttingDown()) std::this_thread::yield();
  backend.Release();
  stopper.join();

  EXPECT_DOUBLE_EQ(running.get(), 1.0);
  for (size_t i = 0; i < queued.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "query " << i << " was not drained";
    EXPECT_DOUBLE_EQ(futures[i].get(), 2.0 * i + 1.0) << "query " << i;
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 21u);
  EXPECT_EQ(stats.completed, 21u);
  // Elapsed time is frozen at drain end.
  EXPECT_DOUBLE_EQ(stats.elapsed_seconds, service.Stats().elapsed_seconds);
}

TEST(QueryService, SubmitAfterShutdownFails) {
  Fixture fx(306);
  QueryService service(fx.db.get());
  service.Shutdown();
  service.Shutdown();  // idempotent

  EXPECT_FALSE(service.TrySubmit(0, 1).has_value());
  std::future<Weight> future = service.SubmitShortestPath(0, 1);
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(QueryService, ManySubmittersTotalsAreSchedulingIndependent) {
  // 16 submitter threads on the default service: every future must
  // resolve with the oracle answer and the ServiceStats totals must count
  // every query exactly once — contention may only change who waits,
  // never what is admitted or answered.
  Fixture fx(309);
  const std::vector<Query> queries = fx.Workload(240, 14);
  constexpr size_t kSubmitters = 16;

  ServiceOptions opts;
  opts.max_batch = 32;
  QueryService service(fx.db.get(), opts);

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  for (size_t t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t j = (i + t * 31) % queries.size();
        const Query& q = queries[j];
        std::future<Weight> future = service.SubmitShortestPath(q.from, q.to);
        const Weight got = future.get();
        const Weight want = fx.oracle[q.from][q.to];
        if (want == kInfinity ? got != kInfinity
                              : std::abs(got - want) > 1e-9) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  service.Shutdown();

  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, kSubmitters * queries.size());
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.latency_seconds.count(), stats.completed);
  EXPECT_LE(stats.batch_fill.Max(), static_cast<double>(opts.max_batch));
}

TEST(QueryService, FlushWorkerSweepTotalsAreSchedulingIndependent) {
  // Across flush_workers {1, 2, 4}, with 8 concurrent submitters, every
  // future resolves with the oracle answer and the drained totals are
  // identical at every worker count. Worker count may only change which
  // thread pops a query — never whether it is admitted, answered, or
  // counted.
  Fixture fx(313);
  const std::vector<Query> queries = fx.Workload(160, 17);
  constexpr size_t kSubmitters = 8;

  for (size_t workers : {1, 2, 4}) {
    ServiceOptions opts;
    opts.max_batch = 16;
    opts.flush_workers = workers;
    QueryService service(fx.db.get(), opts);
    ASSERT_EQ(service.num_flush_workers(), workers);

    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kSubmitters);
    for (size_t t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&, t]() {
        for (size_t i = 0; i < queries.size(); ++i) {
          const Query& q = queries[(i + t * 37) % queries.size()];
          const Weight got = service.SubmitShortestPath(q.from, q.to).get();
          const Weight want = fx.oracle[q.from][q.to];
          if (want == kInfinity ? got != kInfinity
                                : std::abs(got - want) > 1e-9) {
            ++mismatches;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    service.Shutdown();

    const ServiceStats stats = service.Stats();
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(stats.submitted, kSubmitters * queries.size());
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.latency_seconds.count(), stats.completed);
    EXPECT_LE(stats.batch_fill.Max(), static_cast<double>(opts.max_batch));
    // With no updates submitted, the combined operation rate degenerates
    // to the query rate and the update rate to zero.
    EXPECT_DOUBLE_EQ(stats.SustainedOpsPerSec(), stats.SustainedQps());
    EXPECT_DOUBLE_EQ(stats.SustainedUpdatesPerSec(), 0.0);
  }
}

TEST(QueryService, StatsAreFrozenAfterShutdownUnderParallelFlush) {
  // Regression for the multi-worker stats freeze: elapsed_seconds must be
  // stamped exactly once, after the LAST flush worker drains — not when
  // the first exits, which would leak a still-ticking clock into later
  // snapshots.
  // Two Stats() calls separated by real time must be identical, and the
  // drained totals must balance regardless of which worker popped what.
  Fixture fx(314);
  ServiceOptions opts;
  opts.max_batch = 8;
  opts.flush_workers = 4;
  QueryService service(fx.db.get(), opts);

  std::vector<std::future<Weight>> futures =
      service.SubmitBatch(fx.Workload(120, 18));
  for (auto& f : futures) f.get();
  service.Shutdown();

  const ServiceStats first = service.Stats();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const ServiceStats second = service.Stats();

  EXPECT_GT(first.elapsed_seconds, 0.0);
  EXPECT_DOUBLE_EQ(first.elapsed_seconds, second.elapsed_seconds);
  EXPECT_DOUBLE_EQ(first.SustainedQps(), second.SustainedQps());
  EXPECT_DOUBLE_EQ(first.SustainedOpsPerSec(), second.SustainedOpsPerSec());
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.batches, second.batches);
  EXPECT_EQ(first.submitted, 120u);
  EXPECT_EQ(first.completed, first.submitted);
  EXPECT_EQ(first.rejected, 0u);
}

TEST(QueryService, ShutdownWakesSubmitterBlockedOnFullQueue) {
  // Regression: a submitter blocked on queue_capacity backpressure must be
  // woken and rejected when Shutdown() begins — not deadlock. The gated
  // backend holds the flush thread mid-batch so the queue stays full.
  GatedBackend backend;
  ServiceOptions opts;
  opts.max_batch = 1;
  opts.queue_capacity = 1;
  opts.flush_workers = 1;  // one popper: the gate holds the only worker
  QueryService service(&backend, opts);

  auto running = service.SubmitShortestPath(1, 2);
  backend.WaitUntilExecuting();
  auto queued = service.SubmitShortestPath(3, 4);  // fills the queue

  // This submitter blocks on backpressure (queue full, flush thread gated).
  std::promise<void> blocked_returned;
  std::future<Weight> blocked_future;
  std::thread blocked([&]() {
    blocked_future = service.SubmitShortestPath(5, 6);
    blocked_returned.set_value();
  });
  // Give the submitter time to reach the space wait; it must NOT return
  // while the queue is full.
  auto returned = blocked_returned.get_future();
  EXPECT_EQ(returned.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);

  // Shutdown must wake it; the flush thread is released so the drain can
  // finish. The blocked submission either got queue space during the
  // drain (answered) or was rejected with the shutdown error — it must
  // not hang.
  std::thread stopper([&]() { service.Shutdown(); });
  backend.Release();
  stopper.join();
  blocked.join();

  EXPECT_DOUBLE_EQ(running.get(), 3.0);
  EXPECT_DOUBLE_EQ(queued.get(), 7.0);
  try {
    const Weight got = blocked_future.get();
    EXPECT_DOUBLE_EQ(got, 11.0);  // admitted before the stop flag
  } catch (const std::runtime_error&) {
    // rejected by shutdown: equally correct, and the point of the test —
    // it returned instead of deadlocking.
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(QueryService, InvalidQueriesFailTheirOwnFutureNotTheService) {
  // Admission-time validation: an out-of-range endpoint must fail that
  // query's future — not reach the flush thread and TCF_CHECK-abort the
  // whole service — and traffic after it must keep flowing.
  Fixture fx(312);
  QueryService service(fx.db.get());
  const NodeId bad = static_cast<NodeId>(fx.graph.NumNodes());

  std::future<Weight> invalid = service.SubmitShortestPath(bad, 0);
  EXPECT_THROW(invalid.get(), std::out_of_range);
  auto try_invalid = service.TrySubmit(0, bad + 7);
  ASSERT_TRUE(try_invalid.has_value());  // not a queue-full rejection
  EXPECT_THROW(try_invalid->get(), std::out_of_range);

  // A kRoute query against a database without complementary info is
  // rejected at admission too (only reachable via SubmitBatch).
  DsaOptions no_comp;
  no_comp.use_complementary = false;
  DsaDatabase plain_db(fx.frag.get(), no_comp);
  QueryService plain(&plain_db);
  std::vector<std::future<Weight>> futures =
      plain.SubmitBatch({{0, 5, QueryKind::kRoute}});
  EXPECT_THROW(futures[0].get(), std::out_of_range);
  plain.Shutdown();

  // The original service is still alive and correct.
  std::future<Weight> ok = service.SubmitShortestPath(0, 5);
  ExpectOracle(fx, 0, 5, ok.get());
  service.Shutdown();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, stats.submitted);  // invalid never admitted
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(QueryService, LatencySampleCapBoundsStoredSamples) {
  Fixture fx(311);
  ServiceOptions opts;
  opts.max_batch = 8;
  QueryService service(fx.db.get(), opts);

  const std::vector<Query> queries = fx.Workload(200, 16);
  std::vector<std::future<Weight>> futures = service.SubmitBatch(queries);
  for (auto& f : futures) f.get();
  service.Shutdown();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, queries.size());
  // Every accumulator's stored samples are capped; every completion is
  // still counted.
  EXPECT_EQ(stats.latency_seconds.max_samples(), kServiceSampleCap);
  EXPECT_EQ(stats.update_latency_seconds.max_samples(), kServiceSampleCap);
  EXPECT_EQ(stats.batch_fill.max_samples(), kServiceSampleCap);
  EXPECT_EQ(stats.latency_seconds.count(), queries.size());
  EXPECT_GT(stats.LatencyPercentileMs(99), 0.0);
}

TEST(QueryService, SiteNetworkBackendMatchesOracle) {
  Fixture fx(307);
  SiteNetwork net(fx.frag.get());
  SiteNetworkBackend backend(&net);
  ServiceOptions opts;
  opts.max_batch = 32;
  QueryService service(&backend, opts);

  const std::vector<Query> queries = fx.Workload(80, 11);
  std::vector<std::future<Weight>> futures = service.SubmitBatch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectOracle(fx, queries[i].from, queries[i].to, futures[i].get());
  }
  service.Shutdown();
  EXPECT_EQ(service.Stats().completed, queries.size());
}

TEST(QueryService, OpenLoopArrivalsUniformAndBursty) {
  // Open-loop driver: submit along a generated arrival schedule (scaled to
  // stay fast) for both arrival processes; every answer must match.
  Fixture fx(308);
  for (ArrivalProcess process :
       {ArrivalProcess::kUniform, ArrivalProcess::kBursty}) {
    WorkloadSpec spec;
    spec.mix = WorkloadMix::kUniform;
    spec.num_queries = 150;
    spec.arrivals = process;
    spec.arrival_rate_qps = 200000.0;
    Rng qrng(12), arng(13);
    const std::vector<Query> queries = GenerateWorkload(*fx.frag, spec, &qrng);
    const std::vector<double> arrivals = GenerateArrivalTimes(spec, &arng);
    ASSERT_EQ(arrivals.size(), queries.size());

    ServiceOptions opts;
    opts.max_batch = 16;
    QueryService service(fx.db.get(), opts);

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::future<Weight>> futures;
    futures.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(arrivals[i])));
      futures.push_back(
          service.SubmitShortestPath(queries[i].from, queries[i].to));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectOracle(fx, queries[i].from, queries[i].to, futures[i].get());
    }
    service.Shutdown();
    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.completed, queries.size()) << ArrivalProcessName(process);
    EXPECT_GT(stats.SustainedQps(), 0.0);
    // Percentiles are monotone.
    EXPECT_LE(stats.LatencyPercentileMs(50), stats.LatencyPercentileMs(95));
    EXPECT_LE(stats.LatencyPercentileMs(95), stats.LatencyPercentileMs(99));
  }
}

}  // namespace
}  // namespace tcf
