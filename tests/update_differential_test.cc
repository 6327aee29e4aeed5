// Differential tests for the epoch/snapshot update path: concurrent
// readers and mutators race on one MaintainedDatabase and every answer
// must still be explainable — a pinned snapshot is internally exact
// against a Dijkstra oracle on ITS OWN graph, a service answer must match
// some epoch that overlapped the query's admission-to-answer window, and
// the post-drain database must equal a sequential apply-then-query replay.
// The sweep crosses fragmenters x local engines x reader-thread counts;
// the whole file runs under the asan and tsan presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "dsa/maintenance.h"
#include "dsa/service.h"
#include "dsa/workload.h"
#include "graph/algorithms.h"
#include "dsa_sweep.h"

namespace tcf {
namespace {

using dsa_sweep::Fragmenter;

struct World {
  TransportationGraph transport;
  Fragmentation frag;

  World(uint64_t seed, Fragmenter fragmenter)
      : transport(dsa_sweep::MakeTransport(seed, /*clusters=*/3,
                                           /*nodes=*/6)),
        frag(dsa_sweep::MakeFragmentation(transport.graph, fragmenter,
                                          seed)) {}
};

DsaOptions MakeOptions(LocalEngine engine) {
  DsaOptions options;
  options.engine = engine;
  options.num_threads = 2;
  return options;
}

/// Cost the oracle expects for (s, t) on `g`; kInfinity when unconnected.
Weight OracleCost(const Graph& g, NodeId s, NodeId t) {
  if (s == t) return 0.0;
  return Dijkstra(g, s).distance[t];
}

void ExpectSnapshotExact(const DsaSnapshot& snap, NodeId s, NodeId t) {
  const Weight expected = OracleCost(*snap.graph, s, t);
  const auto answer = snap.db->ShortestPath(s, t);
  if (expected == kInfinity) {
    EXPECT_FALSE(answer.connected)
        << s << "->" << t << " @epoch " << snap.epoch;
  } else {
    ASSERT_TRUE(answer.connected)
        << s << "->" << t << " @epoch " << snap.epoch;
    EXPECT_NEAR(answer.cost, expected, 1e-9)
        << s << "->" << t << " @epoch " << snap.epoch;
  }
}

/// Edges of `g` as comparable (src, dst, weight) tuples in canonical order.
std::vector<std::tuple<NodeId, NodeId, Weight>> CanonicalEdges(
    const Graph& g) {
  std::vector<std::tuple<NodeId, NodeId, Weight>> out;
  out.reserve(g.NumEdges());
  for (const Edge& e : g.edges()) out.emplace_back(e.src, e.dst, e.weight);
  std::sort(out.begin(), out.end());
  return out;
}

/// A deterministic update script: GenerateMixedWorkload at
/// write_fraction=1 yields a replayable stream of inserts, deletes and
/// reweights over the initial edge list.
std::vector<EdgeUpdate> MakeUpdateScript(const Fragmentation& frag,
                                         size_t num_ops, uint64_t seed) {
  WorkloadSpec spec;
  spec.num_queries = num_ops;
  spec.write_fraction = 1.0;
  Rng rng(seed);
  std::vector<EdgeUpdate> script;
  for (const MixedOp& op : GenerateMixedWorkload(frag, spec, &rng)) {
    TCF_CHECK(op.is_update);
    script.push_back(op.update);
  }
  return script;
}

using SweepParam = std::tuple<Fragmenter, LocalEngine, size_t>;

class UpdateDifferentialSweep
    : public ::testing::TestWithParam<SweepParam> {};

// Tentpole invariant #1: while a mutator publishes structural epochs
// (inserts, deletes, reweights batched 3 ops at a time), every reader's
// pinned snapshot stays a consistent world — its database answers exactly
// match a whole-graph Dijkstra on the snapshot's OWN graph, and the
// stamped epoch matches the snapshot's.
TEST_P(UpdateDifferentialSweep, PinnedSnapshotsStayExactUnderEpochs) {
  const auto [fragmenter, engine, num_readers] = GetParam();
  World world(/*seed=*/17, fragmenter);
  MaintainedDatabase mdb =
      MaintainedDatabase::FromFragmentation(world.frag, MakeOptions(engine));
  const size_t num_nodes = mdb.graph().NumNodes();

  const std::vector<EdgeUpdate> script =
      MakeUpdateScript(world.frag, /*num_ops=*/24, /*seed=*/91);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r]() {
      Rng rng(1000 + r);
      while (!done.load(std::memory_order_acquire)) {
        const DsaSnapshot snap = mdb.Snapshot();
        EXPECT_EQ(snap.db->epoch(), snap.epoch);
        const NodeId s = static_cast<NodeId>(rng.NextBounded(num_nodes));
        const NodeId t = static_cast<NodeId>(rng.NextBounded(num_nodes));
        ExpectSnapshotExact(snap, s, t);
      }
    });
  }

  // One epoch per 3 script ops: batching ops into epochs is the point of
  // the maintenance lane.
  for (size_t i = 0; i < script.size(); i += 3) {
    const std::vector<EdgeUpdate> epoch_ops(
        script.begin() + i,
        script.begin() + std::min(i + 3, script.size()));
    const EpochStats stats = mdb.ApplyEpoch(epoch_ops);
    if (stats.published) {
      EXPECT_EQ(mdb.epoch(), stats.epoch);
      EXPECT_GE(stats.ops_applied, 1u);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Post-drain: the final snapshot is exact over every node pair. The
  // mutator was the only writer, so the staged state IS the sequential
  // replay of the script.
  const DsaSnapshot final_snap = mdb.Snapshot();
  for (NodeId s = 0; s < num_nodes; ++s) {
    for (NodeId t = 0; t < num_nodes; ++t) {
      ExpectSnapshotExact(final_snap, s, t);
    }
  }
}

// Tentpole invariant #2, service path: concurrent clients query through a
// QueryService while mutator threads reweight disjoint edge-pair sets.
// Every answer must match the oracle on SOME epoch graph that overlapped
// the query's [submit, resolve] window, and the drained end state must
// equal the sequential apply (absolute reweights on disjoint pairs commute
// across threads; each thread's own updates are FIFO through the single
// update lane).
TEST_P(UpdateDifferentialSweep, ServiceAnswersMatchOverlappedEpoch) {
  const auto [fragmenter, engine, num_readers] = GetParam();
  World world(/*seed=*/29, fragmenter);
  MaintainedDatabase mdb =
      MaintainedDatabase::FromFragmentation(world.frag, MakeOptions(engine));
  const size_t num_nodes = mdb.graph().NumNodes();

  // Distinct ordered endpoint pairs of the initial graph, partitioned
  // over the mutator threads (reweights act per (src, dst) pair, so pair
  // disjointness is what makes the concurrent scripts commute).
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const Edge& e : mdb.graph().edges()) {
    pairs.emplace_back(e.src, e.dst);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  ASSERT_FALSE(pairs.empty());

  constexpr size_t kNumMutators = 2;
  constexpr size_t kReweightRounds = 3;
  auto target_weight = [](size_t pair_index, size_t round) {
    // Absolute target, deterministic in (pair, round) alone: the final
    // state cannot depend on how the mutators' epochs interleave.
    return 1.0 + 0.25 * static_cast<double>((pair_index + round) % 7);
  };

  ServiceOptions service_options;
  service_options.max_batch = 8;
  service_options.max_wait = std::chrono::microseconds(200);
  QueryService service(&mdb, service_options);

  // Epoch -> graph log, fed by the mutators as their update futures
  // resolve (plus the initial epoch). A later epoch can slip in between a
  // future resolving and the snapshot being taken, so an epoch in a
  // query's window may be missing from the log; the check below only
  // fails a query whose window is FULLY logged and matches nowhere.
  std::mutex log_mutex;
  std::map<uint64_t, std::shared_ptr<const Graph>> epoch_graphs;
  {
    const DsaSnapshot snap = mdb.Snapshot();
    epoch_graphs[snap.epoch] = snap.graph;
  }

  struct Observation {
    NodeId from, to;
    Weight cost;
    uint64_t lo, hi;
  };
  std::mutex obs_mutex;
  std::vector<Observation> observations;

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r]() {
      Rng rng(2000 + r);
      while (!done.load(std::memory_order_acquire)) {
        Observation obs;
        obs.from = static_cast<NodeId>(rng.NextBounded(num_nodes));
        obs.to = static_cast<NodeId>(rng.NextBounded(num_nodes));
        obs.lo = mdb.epoch();
        std::future<Weight> future =
            service.SubmitShortestPath(obs.from, obs.to);
        obs.cost = future.get();
        obs.hi = mdb.epoch();
        std::lock_guard<std::mutex> lock(obs_mutex);
        observations.push_back(obs);
      }
    });
  }

  std::vector<std::thread> mutators;
  for (size_t m = 0; m < kNumMutators; ++m) {
    mutators.emplace_back([&, m]() {
      uint64_t last_epoch = 0;
      for (size_t round = 1; round <= kReweightRounds; ++round) {
        for (size_t p = m; p < pairs.size(); p += kNumMutators) {
          std::future<uint64_t> future = service.SubmitUpdate(
              EdgeUpdate::Reweight(pairs[p].first, pairs[p].second,
                                   target_weight(p, round)));
          const uint64_t epoch = future.get();
          EXPECT_GE(epoch, last_epoch);  // FIFO lane: epochs nondecreasing
          last_epoch = epoch;
          const DsaSnapshot snap = mdb.Snapshot();
          EXPECT_GE(snap.epoch, epoch);
          std::lock_guard<std::mutex> lock(log_mutex);
          epoch_graphs[snap.epoch] = snap.graph;
        }
      }
    });
  }
  for (std::thread& t : mutators) t.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  service.Shutdown();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.updates, kReweightRounds * pairs.size());
  EXPECT_GT(stats.update_epochs, 0u);
  EXPECT_LE(stats.update_epochs, stats.updates);

  size_t fully_logged_windows = 0;
  for (const Observation& obs : observations) {
    ASSERT_LE(obs.lo, obs.hi);
    bool matched = false;
    bool window_fully_logged = true;
    for (uint64_t e = obs.lo; e <= obs.hi && !matched; ++e) {
      auto it = epoch_graphs.find(e);
      if (it == epoch_graphs.end()) {
        window_fully_logged = false;
        continue;
      }
      const Weight expected = OracleCost(*it->second, obs.from, obs.to);
      matched = (expected == kInfinity && obs.cost == kInfinity) ||
                (expected != kInfinity &&
                 std::abs(expected - obs.cost) < 1e-9);
    }
    fully_logged_windows += window_fully_logged ? 1 : 0;
    EXPECT_TRUE(matched || !window_fully_logged)
        << obs.from << "->" << obs.to << " cost " << obs.cost
        << " matches no overlapped epoch in [" << obs.lo << ", " << obs.hi
        << "]";
  }
  // The initial epoch is always logged, so at minimum the pre-first-epoch
  // observations were checked for real.
  EXPECT_GT(fully_logged_windows, 0u);

  // Post-drain differential: the concurrent run's end state equals a
  // sequential apply-then-query replay of the same per-pair writes.
  MaintainedDatabase replay =
      MaintainedDatabase::FromFragmentation(world.frag, MakeOptions(engine));
  for (size_t round = 1; round <= kReweightRounds; ++round) {
    for (size_t p = 0; p < pairs.size(); ++p) {
      replay.ReweightEdge(pairs[p].first, pairs[p].second,
                          target_weight(p, round));
    }
  }
  const DsaSnapshot final_snap = mdb.Snapshot();
  EXPECT_EQ(CanonicalEdges(*final_snap.graph),
            CanonicalEdges(replay.graph()));
  for (NodeId s = 0; s < num_nodes; ++s) {
    for (NodeId t = 0; t < num_nodes; ++t) {
      ExpectSnapshotExact(final_snap, s, t);
    }
  }
}

// Structural updates (inserts and deletes) through the service, single
// mutator: the update lane is FIFO, so the post-drain state must equal a
// sequential replay of the same script on a twin database — epoch count
// included — while concurrent readers exercise the query path.
TEST_P(UpdateDifferentialSweep, ServiceStructuralUpdatesMatchReplay) {
  const auto [fragmenter, engine, num_readers] = GetParam();
  World world(/*seed=*/43, fragmenter);
  MaintainedDatabase mdb =
      MaintainedDatabase::FromFragmentation(world.frag, MakeOptions(engine));
  const size_t num_nodes = mdb.graph().NumNodes();

  const std::vector<EdgeUpdate> script =
      MakeUpdateScript(world.frag, /*num_ops=*/16, /*seed=*/7);

  QueryService service(&mdb);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r]() {
      Rng rng(3000 + r);
      while (!done.load(std::memory_order_acquire)) {
        const NodeId s = static_cast<NodeId>(rng.NextBounded(num_nodes));
        const NodeId t = static_cast<NodeId>(rng.NextBounded(num_nodes));
        const Weight cost = service.SubmitShortestPath(s, t).get();
        // Readers only smoke-check liveness here: a cost is nonnegative
        // or kInfinity. Window-exactness is the previous test's job.
        EXPECT_TRUE(cost == kInfinity || cost >= 0.0) << s << "->" << t;
      }
    });
  }

  uint64_t last_epoch = 0;
  for (const EdgeUpdate& update : script) {
    const uint64_t epoch = service.SubmitUpdate(update).get();
    EXPECT_GE(epoch, last_epoch);
    last_epoch = epoch;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  service.Shutdown();

  MaintainedDatabase replay =
      MaintainedDatabase::FromFragmentation(world.frag, MakeOptions(engine));
  for (const EdgeUpdate& update : script) {
    replay.ApplyEpoch({update});
  }
  const DsaSnapshot final_snap = mdb.Snapshot();
  EXPECT_EQ(CanonicalEdges(*final_snap.graph),
            CanonicalEdges(replay.graph()));
  EXPECT_EQ(mdb.epoch(), replay.epoch());
  for (NodeId s = 0; s < num_nodes; ++s) {
    for (NodeId t = 0; t < num_nodes; ++t) {
      ExpectSnapshotExact(final_snap, s, t);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UpdateDifferentialSweep,
    ::testing::Combine(::testing::Values(Fragmenter::kCenter,
                                         Fragmenter::kBondEnergy,
                                         Fragmenter::kLinear),
                       ::testing::Values(LocalEngine::kDijkstra,
                                         LocalEngine::kSemiNaive,
                                         LocalEngine::kSmart),
                       ::testing::Values<size_t>(1, 2, 8)));

// The update lane's ordering guarantee, exactly as documented: once
// SubmitUpdate's future yields epoch E, a query submitted afterwards
// executes on E or later. Single mutator, so "E or later" IS E, and the
// epoch-E graph is engineered to give an answer no earlier epoch gives.
// Swept over flush_workers {1, 2, 4}: the epoch barrier is applied by a
// side thread and pinned per batch at pop time, so the guarantee must be
// identical no matter how many flush workers race on the pop.
TEST(UpdateDifferential, UpdateFutureOrdersSubsequentQueries) {
  World world(/*seed=*/5, Fragmenter::kCenter);
  for (size_t workers : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "flush_workers=" << workers);
    MaintainedDatabase mdb = MaintainedDatabase::FromFragmentation(
        world.frag, MakeOptions(LocalEngine::kDijkstra));
    ServiceOptions opts;
    opts.flush_workers = workers;
    QueryService service(&mdb, opts);

    const auto out = mdb.graph().OutEdges(0);
    ASSERT_FALSE(out.empty());
    const NodeId neighbor = out[0].dst;

    uint64_t previous_epoch = 0;
    for (int step = 1; step <= 5; ++step) {
      // Remove every direct 0->neighbor edge, measure the detour cost,
      // then insert a replacement strictly cheaper than the detour and
      // than any earlier step's replacement. The 0->neighbor cost is then
      // `w` on the new epoch and on NO earlier one, so the exact
      // assertion below proves the query ran at (or after, but nothing
      // later exists) the epoch its preceding update future named.
      service.SubmitUpdate(EdgeUpdate::Delete(0, neighbor)).get();
      const Weight detour = OracleCost(*mdb.Snapshot().graph, 0, neighbor);
      const Weight cheap = detour == kInfinity ? 1.0 : detour * 0.5;
      const Weight w = cheap / static_cast<double>(step + 1);
      const uint64_t epoch =
          service.SubmitUpdate(EdgeUpdate::Insert(0, neighbor, w)).get();
      EXPECT_GT(epoch, previous_epoch);
      previous_epoch = epoch;
      const Weight cost = service.SubmitShortestPath(0, neighbor).get();
      EXPECT_NEAR(cost, w, 1e-12) << "step " << step;
    }
    service.Shutdown();
    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.updates, 10u);
    EXPECT_GE(stats.update_epochs, 1u);
    EXPECT_EQ(stats.completed, 5u);
  }
}

// Updates through a backend without update support fail their future
// instead of reaching the flush thread; invalid node ids fail validation;
// post-shutdown submissions fail like queries do.
TEST(UpdateDifferential, UpdateErrorsFailTheFuture) {
  World world(/*seed=*/7, Fragmenter::kCenter);
  DsaDatabase db(&world.frag, MakeOptions(LocalEngine::kDijkstra));
  QueryService plain(&db);
  EXPECT_THROW(plain.SubmitUpdate(EdgeUpdate::Delete(0, 1)).get(),
               std::runtime_error);
  plain.Shutdown();

  MaintainedDatabase mdb = MaintainedDatabase::FromFragmentation(
      world.frag, MakeOptions(LocalEngine::kDijkstra));
  QueryService service(&mdb);
  const NodeId bad = static_cast<NodeId>(mdb.graph().NumNodes());
  EXPECT_THROW(service.SubmitUpdate(EdgeUpdate::Delete(bad, 0)).get(),
               std::out_of_range);
  // Inserts and reweights need a finite, non-negative weight: anything
  // else fails its own future, publishes nothing, and later queries
  // still answer.
  const NodeId v = mdb.graph().OutEdges(0).begin()->dst;
  for (const Weight weight : {-1.0, std::nan(""), kInfinity}) {
    EXPECT_THROW(
        service.SubmitUpdate(EdgeUpdate::Reweight(0, v, weight)).get(),
        std::invalid_argument)
        << weight;
    EXPECT_THROW(service.SubmitUpdate(EdgeUpdate::Insert(0, v, weight)).get(),
                 std::invalid_argument)
        << weight;
  }
  EXPECT_EQ(mdb.epoch(), 0u);
  EXPECT_NEAR(service.SubmitShortestPath(0, v).get(),
              OracleCost(mdb.graph(), 0, v), 1e-9);
  service.Shutdown();
  EXPECT_THROW(service.SubmitUpdate(EdgeUpdate::Delete(0, 1)).get(),
               std::runtime_error);
}

}  // namespace
}  // namespace tcf
