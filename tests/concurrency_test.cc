// Concurrency hammer for the re-entrant execution core: many threads issue
// single queries and whole batches against ONE DsaDatabase — shared
// thread pool, shared chain-plan cache, shared complementary information —
// while validating every answer against sequentially precomputed expected
// results. Run under TSan in CI (the `sanitize` matrix leg), this suite is
// what turns the "thread-safe for concurrent queries" contract of
// dsa/query_api.h from a comment into a checked property.
//
// Failures are counted atomically per thread and asserted after join:
// GoogleTest assertion bookkeeping is not guaranteed thread-safe, and
// counting keeps the hammer loop free of test-framework synchronization
// that could mask real races.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "dsa/batch.h"
#include "dsa/local_query.h"
#include "dsa/maintenance.h"
#include "dsa/service.h"
#include "dsa/workload.h"
#include "fragment/center_based.h"
#include "fragment/linear.h"
#include "graph/generator.h"

namespace tcf {
namespace {

constexpr size_t kThreads = 8;

struct Fixture {
  explicit Fixture(uint64_t seed, bool cyclic = false) {
    Rng rng(seed);
    TransportationGraphOptions gopts;
    gopts.num_clusters = 3;
    gopts.nodes_per_cluster = 10;
    gopts.target_edges_per_cluster = 40;
    graph = GenerateTransportationGraph(gopts, &rng).graph;
    if (cyclic) {
      CenterBasedOptions copts;
      copts.num_fragments = 4;
      copts.distributed_centers = true;
      frag = std::make_unique<Fragmentation>(
          CenterBasedFragmentation(graph, copts));
    } else {
      LinearOptions lopts;
      lopts.num_fragments = 4;
      frag = std::make_unique<Fragmentation>(
          LinearFragmentation(graph, lopts).fragmentation);
    }
    DsaOptions dopts;
    dopts.num_threads = 4;  // shared pool smaller than the hammer threads
    db = std::make_unique<DsaDatabase>(frag.get(), dopts);
  }

  Graph graph;
  std::unique_ptr<Fragmentation> frag;
  std::unique_ptr<DsaDatabase> db;
};

/// All-pairs query set with sequentially precomputed expected costs.
struct Expected {
  std::vector<Query> queries;
  std::vector<Weight> costs;
};

Expected Precompute(const DsaDatabase& db, size_t num_queries,
                    uint64_t seed) {
  Expected out;
  WorkloadSpec spec;
  spec.mix = WorkloadMix::kHotPair;
  spec.num_queries = num_queries;
  spec.num_hot_pairs = 12;
  Rng rng(seed);
  out.queries = GenerateWorkload(db.fragmentation(), spec, &rng);
  out.costs.reserve(out.queries.size());
  for (const Query& q : out.queries) {
    out.costs.push_back(db.ShortestPath(q.from, q.to).cost);
  }
  return out;
}

TEST(Concurrency, SingleQueriesFromManyThreads) {
  Fixture fx(101);
  const Expected expected = Precompute(*fx.db, 160, 9);

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Each thread walks the whole query set from its own offset, so all
      // threads hit the same hot plans at different times.
      for (size_t i = 0; i < expected.queries.size(); ++i) {
        const size_t j = (i + t * 17) % expected.queries.size();
        const Query& q = expected.queries[j];
        const QueryAnswer answer = fx.db->ShortestPath(q.from, q.to);
        if (answer.cost != expected.costs[j]) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(Concurrency, BatchesFromManyThreads) {
  Fixture fx(102, /*cyclic=*/true);
  BatchExecutor executor(fx.db.get());
  const Expected expected = Precompute(*fx.db, 120, 10);

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Each thread executes a different rotation of the same query set as
      // one batch, twice, so concurrent batches overlap heavily on specs
      // and plans.
      std::vector<Query> batch;
      batch.reserve(expected.queries.size());
      for (size_t i = 0; i < expected.queries.size(); ++i) {
        batch.push_back(expected.queries[(i + t * 29) %
                                         expected.queries.size()]);
      }
      for (int round = 0; round < 2; ++round) {
        const BatchResult result = executor.Execute(batch);
        for (size_t i = 0; i < batch.size(); ++i) {
          const size_t j = (i + t * 29) % expected.queries.size();
          if (result.answers[i].answer.cost != expected.costs[j]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(Concurrency, MixedSinglesBatchesAndRoutes) {
  Fixture fx(103);
  BatchExecutor executor(fx.db.get());
  const Expected expected = Precompute(*fx.db, 90, 11);

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      if (t % 2 == 0) {
        // Batch threads, with route reconstruction in the mix.
        std::vector<Query> batch;
        for (size_t i = 0; i < expected.queries.size(); ++i) {
          Query q = expected.queries[i];
          q.kind = (i + t) % 2 == 0 ? QueryKind::kCost : QueryKind::kRoute;
          batch.push_back(q);
        }
        const BatchResult result = executor.Execute(batch);
        for (size_t i = 0; i < batch.size(); ++i) {
          if (result.answers[i].answer.cost != expected.costs[i]) {
            ++mismatches;
          }
        }
      } else {
        // Single-query threads alternating all three entry points.
        for (size_t i = 0; i < expected.queries.size(); ++i) {
          const Query& q = expected.queries[i];
          Weight got = kInfinity;
          switch (i % 3) {
            case 0:
              got = fx.db->ShortestPath(q.from, q.to).cost;
              break;
            case 1:
              got = fx.db->ShortestRoute(q.from, q.to).answer.cost;
              break;
            case 2:
              got = fx.db->IsConnected(q.from, q.to)
                        ? expected.costs[i]
                        : kInfinity;
              break;
          }
          if (got != expected.costs[i]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(Concurrency, ServiceHammerManyProducers) {
  // N producer threads stream single queries through one QueryService —
  // admission loop, bounded queue, and micro-batched execution all under
  // contention — and every future must carry the sequentially precomputed
  // answer. Producers mix blocking Submit with TrySubmit (retrying
  // rejections), so queue-full paths are exercised too.
  Fixture fx(105, /*cyclic=*/true);
  const Expected expected = Precompute(*fx.db, 120, 12);

  ServiceOptions opts;
  opts.max_batch = 16;
  opts.queue_capacity = 64;  // small: backpressure is part of the hammer
  QueryService service(fx.db.get(), opts);

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> retried{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t i = 0; i < expected.queries.size(); ++i) {
        const size_t j = (i + t * 13) % expected.queries.size();
        const Query& q = expected.queries[j];
        std::future<Weight> future;
        if (t % 2 == 0) {
          future = service.SubmitShortestPath(q.from, q.to);
        } else {
          // Non-blocking path: spin on rejection.
          for (;;) {
            auto maybe = service.TrySubmit(q.from, q.to);
            if (maybe.has_value()) {
              future = std::move(*maybe);
              break;
            }
            retried.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();
          }
        }
        if (future.get() != expected.costs[j]) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  service.Shutdown();

  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, kThreads * expected.queries.size());
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.rejected, retried.load());
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(stats.batch_fill.Max(), static_cast<double>(opts.max_batch));
}

TEST(Concurrency, ShardedAdmissionHammerAcrossShardCounts) {
  // The sharded admission path and the parallel flush pool under maximum
  // contention: 16 submitter threads (blocking and TrySubmit mixed)
  // against the full flush_workers {1, 2, 4} × admission_shards {1, 4, 8}
  // grid. Every future must resolve with the precomputed answer and the
  // ServiceStats totals must be scheduling-independent — identical
  // submitted/completed in every cell, rejected == observed retries. Runs
  // under TSan in CI, which is what makes the shard-striped locking
  // (shard mutexes, doorbell, multi-popper collection, drain protocol) a
  // checked property. Per-cell query count is trimmed so the 9-cell grid
  // stays inside the TSan time budget.
  Fixture fx(107, /*cyclic=*/true);
  const Expected expected = Precompute(*fx.db, 60, 14);
  constexpr size_t kSubmitters = 16;

  for (size_t workers : {1, 2, 4}) {
    for (size_t shards : {1, 4, 8}) {
      ServiceOptions opts;
      opts.max_batch = 16;
      opts.queue_capacity = 32;  // small: backpressure on every stripe
      opts.admission_shards = shards;
      opts.flush_workers = workers;
      QueryService service(fx.db.get(), opts);

      std::atomic<size_t> mismatches{0};
      std::atomic<size_t> retried{0};
      std::vector<std::thread> threads;
      threads.reserve(kSubmitters);
      for (size_t t = 0; t < kSubmitters; ++t) {
        threads.emplace_back([&, t]() {
          for (size_t i = 0; i < expected.queries.size(); ++i) {
            const size_t j = (i + t * 19) % expected.queries.size();
            const Query& q = expected.queries[j];
            std::future<Weight> future;
            if (t % 2 == 0) {
              future = service.SubmitShortestPath(q.from, q.to);
            } else {
              for (;;) {
                auto maybe = service.TrySubmit(q.from, q.to);
                if (maybe.has_value()) {
                  future = std::move(*maybe);
                  break;
                }
                retried.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::yield();
              }
            }
            if (future.get() != expected.costs[j]) ++mismatches;
          }
        });
      }
      for (std::thread& th : threads) th.join();
      service.Shutdown();

      SCOPED_TRACE(::testing::Message()
                   << "workers=" << workers << " shards=" << shards);
      EXPECT_EQ(mismatches.load(), 0u);
      const ServiceStats stats = service.Stats();
      EXPECT_EQ(stats.completed, kSubmitters * expected.queries.size());
      EXPECT_EQ(stats.submitted, stats.completed);
      EXPECT_EQ(stats.rejected, retried.load());
      EXPECT_GT(stats.batches, 0u);
      EXPECT_LE(stats.batch_fill.Max(), static_cast<double>(opts.max_batch));
    }
  }
}

TEST(Concurrency, CrossBatchPlanCacheUnderConcurrentBatches) {
  // Concurrent batches racing on a COLD skeleton cache: duplicate
  // expansions of the same fragment pair are allowed, but every answer
  // must be right and the accounting must stay consistent: the cache's
  // cumulative counters equal the per-batch skeleton hits and misses
  // summed over all batches.
  Fixture fx(108, /*cyclic=*/true);
  const Expected expected = Precompute(*fx.db, 80, 15);

  // A fresh database for the hammer: Precompute's single queries warmed
  // fx.db's plan cache, and this test accounts for every lookup.
  DsaOptions dopts;
  dopts.num_threads = 4;
  DsaDatabase hammer_db(fx.frag.get(), dopts);
  BatchExecutor executor(&hammer_db);

  std::vector<Query> batch = expected.queries;
  constexpr size_t kRounds = 3;
  std::vector<BatchStats> stats(kThreads * kRounds);
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t round = 0; round < kRounds; ++round) {
        const BatchResult result = executor.Execute(batch);
        stats[t * kRounds + round] = result.stats;
        for (size_t i = 0; i < batch.size(); ++i) {
          if (result.answers[i].answer.cost != expected.costs[i]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);

  size_t batch_hits = 0, batch_misses = 0;
  for (const BatchStats& s : stats) {
    batch_hits += s.plan_cache_hits;
    batch_misses += s.plan_cache_misses;
  }
  const LruCacheStats cache_stats = hammer_db.plan_cache()->Stats();
  EXPECT_EQ(cache_stats.hits, batch_hits);
  EXPECT_EQ(cache_stats.misses, batch_misses);
  // After the first full round every fragment pair is cached; most
  // lookups hit.
  EXPECT_GT(batch_hits, batch_misses);
}

TEST(Concurrency, ServiceShutdownRacesSubmitters) {
  // Shutdown while producers are still submitting: every future must
  // either carry the correct answer (admitted before the stop flag) or
  // throw the shutdown error — never hang, never a wrong answer.
  Fixture fx(106);
  const Expected expected = Precompute(*fx.db, 60, 13);

  ServiceOptions opts;
  opts.max_batch = 8;
  QueryService service(fx.db.get(), opts);

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> rejected_after_stop{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t round = 0; round < 4; ++round) {
        for (size_t i = 0; i < expected.queries.size(); ++i) {
          const size_t j = (i + t * 7) % expected.queries.size();
          const Query& q = expected.queries[j];
          std::future<Weight> future =
              service.SubmitShortestPath(q.from, q.to);
          try {
            if (future.get() != expected.costs[j]) ++mismatches;
          } catch (const std::runtime_error&) {
            ++rejected_after_stop;
          }
        }
      }
    });
  }
  // Let some traffic through, then pull the plug mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.Shutdown();
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, stats.submitted);  // drained, nothing dropped
}

TEST(Concurrency, PlanCacheUnderContention) {
  // A tiny-capacity cache forces constant eviction while 8 threads look up
  // overlapping fragment pairs; every returned chain list must equal the
  // uncached FindChains answer.
  Fixture fx(104, /*cyclic=*/true);
  const Fragmentation& frag = *fx.frag;
  ChainPlanCache cache(2);

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      const size_t n = frag.NumFragments();
      for (size_t round = 0; round < 50; ++round) {
        const FragmentId a = static_cast<FragmentId>((round + t) % n);
        const FragmentId b = static_cast<FragmentId>((round * 3 + t) % n);
        auto skeleton = cache.SkeletonFor(frag, a, b, 64);
        if (skeleton->chains != FindChains(frag, a, b, 64)) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const LruCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * 50u);
  EXPECT_LE(stats.entries, 2u);
}

/// The first node of fragment f that is not a border node, or
/// kInvalidNode when every node of f is one.
NodeId FirstInteriorNode(const Fragmentation& frag, FragmentId f) {
  for (NodeId v : frag.FragmentNodes(f)) {
    if (!frag.IsBorderNode(v)) return v;
  }
  return kInvalidNode;
}

/// Phase-1 specs touching every fragment in both search directions: all
/// border nodes to all border nodes, one node to the border (forward), and
/// the border to one node (backward). The lone node is an interior one
/// where the fragment has any, so that both of its specs search; between
/// border nodes only, a subquery reads the shortcut relation instead.
std::vector<LocalQuerySpec> EveryFragmentSpecs(const Fragmentation& frag) {
  std::vector<LocalQuerySpec> specs;
  for (FragmentId f = 0; f < frag.NumFragments(); ++f) {
    const std::vector<NodeId>& nodes = frag.FragmentNodes(f);
    const std::vector<NodeId>& border =
        frag.BorderNodes(f).empty() ? nodes : frag.BorderNodes(f);
    const NodeSet side(border.begin(), border.end());
    const NodeId interior = FirstInteriorNode(frag, f);
    const NodeId lone = interior != kInvalidNode ? interior : nodes.front();
    specs.push_back(LocalQuerySpec{f, side, side});
    specs.push_back(LocalQuerySpec{f, {lone}, side});
    specs.push_back(LocalQuerySpec{f, side, {lone}});
  }
  return specs;
}

/// Local graphs EveryFragmentSpecs builds: one per fragment with an
/// interior node.
size_t SearchedFragments(const Fragmentation& frag) {
  size_t searched = 0;
  for (FragmentId f = 0; f < frag.NumFragments(); ++f) {
    searched += FirstInteriorNode(frag, f) != kInvalidNode;
  }
  return searched;
}

bool SameResult(const LocalQueryResult& a, const LocalQueryResult& b) {
  return a.status.ok() && b.status.ok() &&
         a.paths.tuples() == b.paths.tuples() &&
         a.stats.iterations == b.stats.iterations;
}

/// Runs `specs` on a cold copy of `frag` on this thread alone.
std::vector<LocalQueryResult> RunAlone(
    const Fragmentation& frag, const ComplementaryInfo& comp,
    const std::vector<LocalQuerySpec>& specs) {
  const Fragmentation cold(frag);
  EXPECT_EQ(cold.LocalGraphsBuilt(), 0u);  // copies start cold
  std::vector<LocalQueryResult> out;
  for (const LocalQuerySpec& spec : specs) {
    out.push_back(RunLocalQuery(cold, &comp, spec));
  }
  return out;
}

TEST(Concurrency, ConcurrentFirstTouchBuildsEachLocalGraphOnce) {
  // Every thread's first subqueries land on a cold Fragmentation at once:
  // the lazy local-graph build must run once per fragment that searches
  // (this fixture's fragment 3 has border nodes only), and every answer
  // must equal a single-threaded run. Then the same across a
  // published epoch, whose snapshot carries a new, cold Fragmentation.
  Fixture fx(105, /*cyclic=*/true);
  const Fragmentation& frag = *fx.frag;
  ASSERT_EQ(frag.LocalGraphsBuilt(), 0u);
  const ComplementaryInfo& comp = fx.db->complementary();
  const std::vector<LocalQuerySpec> specs = EveryFragmentSpecs(frag);
  const std::vector<LocalQueryResult> expected = RunAlone(frag, comp, specs);
  const size_t searched = SearchedFragments(frag);
  ASSERT_GT(searched, 1u);

  std::atomic<size_t> mismatches{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = 0; i < specs.size(); ++i) {
        const size_t k = (i + t) % specs.size();
        if (!SameResult(RunLocalQuery(frag, &comp, specs[k]), expected[k])) {
          ++mismatches;
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(frag.LocalGraphsBuilt(), searched);

  // Across an epoch: each thread runs one pass on whatever snapshot is
  // current while the epoch is being published, then one more after it.
  MaintainedDatabase mdb = MaintainedDatabase::FromFragmentation(frag);
  const auto [v, w, id] = *fx.graph.OutEdges(0).begin();
  struct Pass {
    DsaSnapshot snap;
    std::vector<LocalQueryResult> results;
  };
  std::vector<std::vector<Pass>> passes(kThreads);
  std::atomic<bool> published{false};
  go.store(false);
  threads.clear();
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round < 2; ++round) {
        if (round == 1) {
          while (!published.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }
        Pass pass;
        pass.snap = mdb.Snapshot();
        for (const LocalQuerySpec& spec : specs) {
          pass.results.push_back(RunLocalQuery(
              *pass.snap.frag, &pass.snap.db->complementary(), spec));
        }
        passes[t].push_back(std::move(pass));
      }
    });
  }
  go.store(true, std::memory_order_release);
  const EpochStats epoch = mdb.ApplyEpoch({EdgeUpdate::Reweight(0, v, w * 2)});
  published.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  ASSERT_TRUE(epoch.published);

  size_t on_new_epoch = 0;
  for (const std::vector<Pass>& thread_passes : passes) {
    for (const Pass& pass : thread_passes) {
      const Fragmentation& snap_frag = *pass.snap.frag;
      const std::vector<LocalQueryResult> alone =
          RunAlone(snap_frag, pass.snap.db->complementary(), specs);
      for (size_t k = 0; k < specs.size(); ++k) {
        EXPECT_TRUE(SameResult(pass.results[k], alone[k])) << "spec " << k;
      }
      EXPECT_EQ(snap_frag.LocalGraphsBuilt(), SearchedFragments(snap_frag));
      on_new_epoch += pass.snap.epoch == epoch.epoch;
    }
  }
  EXPECT_GE(on_new_epoch, kThreads);
}

}  // namespace
}  // namespace tcf
