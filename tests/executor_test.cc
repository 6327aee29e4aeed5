// Unit tests for the executor layer: RunSites (parallel and sequential;
// the Dijkstra engine's fragment-grouped tasks against one spec at a
// time, their shared stream and searches, and a corrupt fragment's
// reach), the planner's thread-count independence, AssembleChain, the
// chain assemblers against AssembleChain's fold, and the ExecutionReport
// accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "dsa/batch.h"
#include "dsa/executor.h"
#include "dsa/workload.h"
#include "dsa_sweep.h"
#include "fragment/node_partition.h"
#include "fragment/random_partition.h"
#include "graph/builder.h"
#include "graph/generator.h"
#include "shortcut_extents.h"
#include "storage/database_io.h"

namespace tcf {
namespace {

/// Two-fragment chain 0-1-2 | 2-3-4 (unit weights).
struct Fixture {
  Fixture() {
    GraphBuilder b(5);
    b.AddSymmetricEdge(0, 1, 1.0);
    b.AddSymmetricEdge(1, 2, 1.0);
    b.AddSymmetricEdge(2, 3, 1.0);
    b.AddSymmetricEdge(3, 4, 1.0);
    graph = b.Build();
    frag = std::make_unique<Fragmentation>(
        &graph, std::vector<FragmentId>{0, 0, 0, 0, 1, 1, 1, 1}, 2);
    comp = PrecomputeComplementary(*frag);
  }
  Graph graph;
  std::unique_ptr<Fragmentation> frag;
  ComplementaryInfo comp;
};

std::vector<LocalQuerySpec> Specs() {
  return {LocalQuerySpec{0, {0}, {2}}, LocalQuerySpec{1, {2}, {4}}};
}

TEST(RunSites, SequentialWhenPoolIsNull) {
  Fixture fx;
  ExecutionReport report;
  auto results = RunSites(*fx.frag, &fx.comp, Specs(),
                          LocalEngine::kDijkstra, nullptr, &report);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0].paths.BestCost(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(results[1].paths.BestCost(2, 4), 2.0);
  EXPECT_EQ(report.sites.size(), 2u);
  EXPECT_EQ(report.communication_tuples, 2u);
}

TEST(RunSites, ParallelMatchesSequential) {
  Fixture fx;
  ThreadPool pool(2);
  ExecutionReport seq_report, par_report;
  auto seq = RunSites(*fx.frag, &fx.comp, Specs(), LocalEngine::kDijkstra,
                      nullptr, &seq_report);
  auto par = RunSites(*fx.frag, &fx.comp, Specs(), LocalEngine::kDijkstra,
                      &pool, &par_report);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_EQ(seq[i].paths.size(), par[i].paths.size());
    for (const PathTuple& t : seq[i].paths.tuples()) {
      EXPECT_DOUBLE_EQ(par[i].paths.BestCost(t.src, t.dst), t.cost);
    }
  }
  EXPECT_EQ(par_report.communication_tuples,
            seq_report.communication_tuples);
}

TEST(RunSites, ReportAggregatesSiteTimes) {
  Fixture fx;
  ExecutionReport report;
  RunSites(*fx.frag, &fx.comp, Specs(), LocalEngine::kSemiNaive, nullptr,
           &report);
  EXPECT_GE(report.phase1_cpu_seconds, report.SlowestSiteSeconds());
  EXPECT_DOUBLE_EQ(report.TotalSiteSeconds(), report.phase1_cpu_seconds);
  for (const SiteReport& s : report.sites) {
    EXPECT_GT(s.stats.iterations, 0u);
  }
}

using dsa_sweep::Fragmenter;
using dsa_sweep::MakeFragmentation;

/// A directed transportation graph: a search in the wrong direction gives
/// different answers, and some targets are unreachable from some sources.
Graph MakeDirectedGraph(uint64_t seed) {
  TransportationGraphOptions opts;
  opts.num_clusters = 4;
  opts.nodes_per_cluster = 15;
  opts.target_edges_per_cluster = 45.0;
  opts.symmetric = false;
  Rng rng(seed);
  return GenerateTransportationGraph(opts, &rng).graph;
}

/// Clusters of 20 nodes joined by `links` of 8 edges each, fragmented by
/// cluster: wide disconnection sets, so shortcut relations span pages.
struct LinkedClusters {
  TransportationGraph t;
  std::unique_ptr<Fragmentation> frag;
};

LinkedClusters MakeLinkedClusters(
    const std::vector<std::pair<size_t, size_t>>& links) {
  TransportationGraphOptions opts;
  opts.num_clusters = 4;
  opts.nodes_per_cluster = 20;
  opts.target_edges_per_cluster = 70.0;
  for (const auto& [a, b] : links) {
    opts.links.push_back(InterClusterLink{a, b, 8});
  }
  Rng rng(29);
  LinkedClusters out;
  out.t = GenerateTransportationGraph(opts, &rng);
  out.frag = std::make_unique<Fragmentation>(FragmentationFromNodePartition(
      out.t.graph, out.t.cluster_of_node, opts.num_clusters));
  return out;
}

class PagedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "executor_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".tcfdb";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Saves `db` with the smallest pages and opens it paged through a pool
  /// of `frames` frames.
  StoredDatabase SaveAndOpenPaged(const DsaDatabase& db, size_t frames) {
    SaveOptions save;
    save.page_size = kMinPageSize;
    EXPECT_TRUE(SaveDatabase(db, path_, save).ok());
    OpenOptions paged;
    paged.mode = OpenMode::kPaged;
    paged.memory_budget_bytes = frames * kMinPageSize;
    Result<StoredDatabase> opened = OpenDatabase(path_, paged);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? std::move(opened).value() : StoredDatabase{};
  }

  std::string path_;
};

NodeSet SetOf(const std::vector<NodeId>& nodes) {
  return NodeSet(nodes.begin(), nodes.end());
}

struct SpecMix {
  std::vector<LocalQuerySpec> specs;
  size_t border_pairs = 0;     // every node a border node
  size_t shared_forward = 0;   // {v} -> X, several per origin v
  size_t shared_backward = 0;  // X -> {v}, several per origin v
  size_t overlapping = 0;      // a node on both sides
  size_t outsiders = 0;        // a node outside the fragment
};

/// Per fragment: every ordered pair of its disconnection sets; forward and
/// backward endpoint specs that share an origin (a node of the fragment,
/// inner when it has one); specs with a node on both sides; specs naming
/// nodes outside the fragment; and two random many-to-many specs. Then
/// shuffled, so that each fragment's specs are scattered.
SpecMix MixedSpecs(const Fragmentation& frag, uint64_t seed) {
  Rng rng(seed);
  SpecMix mix;
  auto add = [&](FragmentId f, NodeSet sources, NodeSet targets) {
    mix.specs.push_back(LocalQuerySpec{f, std::move(sources),
                                       std::move(targets)});
  };
  for (FragmentId f = 0; f < frag.NumFragments(); ++f) {
    const std::vector<NodeId>& nodes = frag.FragmentNodes(f);
    std::vector<NodeSet> sides;
    for (FragmentId g : frag.FragmentNeighbors(f)) {
      sides.push_back(SetOf(frag.FindDisconnectionSet(f, g)->nodes));
    }
    if (!frag.BorderNodes(f).empty()) sides.push_back(SetOf(frag.BorderNodes(f)));
    for (const NodeSet& in : sides) {
      for (const NodeSet& out : sides) {
        add(f, in, out);
        ++mix.border_pairs;
      }
    }
    std::vector<NodeId> inner;
    for (NodeId v : nodes) {
      if (!frag.IsBorderNode(v)) inner.push_back(v);
    }
    const std::vector<NodeId>& origins = inner.empty() ? nodes : inner;
    NodeId outside = 0;
    while (std::binary_search(nodes.begin(), nodes.end(), outside)) ++outside;
    for (int rep = 0; rep < 2; ++rep) {
      const NodeId v = origins[rng.NextBounded(origins.size())];
      const NodeId w = nodes[rng.NextBounded(nodes.size())];
      for (const NodeSet& side : sides) {
        add(f, {v}, side);
        ++mix.shared_forward;
        if (side.size() > 1) {
          add(f, side, {v});
          ++mix.shared_backward;
        }
      }
      add(f, {v}, {w});
      NodeSet with_v = sides.empty() ? NodeSet{w} : sides.front();
      with_v.insert(v);
      add(f, {v}, with_v);
      add(f, with_v, {v});
      mix.overlapping += 2;
      add(f, {v, outside}, {w});
      add(f, {v}, {outside, w});
      add(f, {v}, {outside});
      add(f, {outside}, {outside});
      mix.outsiders += 4;
      NodeSet many_sources, many_targets;
      for (int i = 0; i < 3; ++i) {
        many_sources.insert(nodes[rng.NextBounded(nodes.size())]);
        many_targets.insert(nodes[rng.NextBounded(nodes.size())]);
      }
      add(f, many_sources, many_targets);
    }
  }
  rng.Shuffle(&mix.specs);
  return mix;
}

/// Bit-for-bit equality of two local results: status, every tuple in
/// canonical order (costs compared as bits), and the result size.
void ExpectSameResult(const LocalQueryResult& got,
                      const LocalQueryResult& want, size_t i) {
  ASSERT_EQ(got.status.code(), want.status.code()) << "spec " << i;
  if (!want.status.ok()) return;
  ASSERT_EQ(got.paths.size(), want.paths.size()) << "spec " << i;
  for (size_t j = 0; j < want.paths.size(); ++j) {
    const PathTuple& a = got.paths.tuples()[j];
    const PathTuple& b = want.paths.tuples()[j];
    EXPECT_EQ(a.src, b.src) << "spec " << i;
    EXPECT_EQ(a.dst, b.dst) << "spec " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.cost), std::bit_cast<uint64_t>(b.cost))
        << "spec " << i << ": " << a.src << "->" << a.dst;
  }
  EXPECT_EQ(got.stats.result_size, want.stats.result_size) << "spec " << i;
}

TEST_F(PagedFileTest, GroupedSitesMatchOneSpecAtATimeBitForBit) {
  const Graph g = MakeDirectedGraph(41);
  const std::pair<const char*, Fragmenter> cases[] = {
      {"center", Fragmenter::kCenter},
      {"linear", Fragmenter::kLinear},
      {"cyclic", Fragmenter::kRandom}};
  ThreadPool pool(3);
  for (const auto& [name, which] : cases) {
    SCOPED_TRACE(name);
    const Fragmentation frag = MakeFragmentation(g, which, 5);
    if (which == Fragmenter::kRandom) {
      ASSERT_GT(frag.FragmentationGraphCycles(), 0u);
    }
    const DsaDatabase db(&frag);
    // A pool of four frames: shortcut extents span pages and scans evict.
    const StoredDatabase paged = SaveAndOpenPaged(db, 4);
    ASSERT_NE(paged.db, nullptr);
    ASSERT_TRUE(paged.db->complementary().shortcuts.front().is_paged());

    const SpecMix mix = MixedSpecs(frag, 7);
    EXPECT_GT(mix.border_pairs, 0u);
    EXPECT_GT(mix.shared_forward, 2 * frag.NumFragments());
    EXPECT_GT(mix.shared_backward, 0u);
    const std::pair<const Fragmentation*, const ComplementaryInfo*>
        stores[] = {{&frag, &db.complementary()},
                    {&frag, nullptr},
                    {paged.frag.get(), &paged.db->complementary()},
                    {paged.frag.get(), nullptr}};
    for (const auto& [site_frag, comp] : stores) {
      std::vector<LocalQueryResult> alone;
      size_t alone_settled = 0;
      for (const LocalQuerySpec& spec : mix.specs) {
        alone.push_back(RunLocalQuery(*site_frag, comp, spec));
        ASSERT_TRUE(alone.back().status.ok());
        alone_settled += alone.back().stats.iterations;
      }
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        ExecutionReport report;
        const std::vector<LocalQueryResult> grouped = RunSites(
            *site_frag, comp, mix.specs, LocalEngine::kDijkstra, p, &report);
        ASSERT_EQ(grouped.size(), mix.specs.size());
        size_t grouped_settled = 0;
        for (size_t i = 0; i < grouped.size(); ++i) {
          ExpectSameResult(grouped[i], alone[i], i);
          grouped_settled += grouped[i].stats.iterations;
        }
        // Shared origins settle their nodes once.
        EXPECT_LT(grouped_settled, alone_settled);
        EXPECT_EQ(report.sites.size(), mix.specs.size());
      }
    }
  }
}

TEST_F(PagedFileTest, OneOriginsSpecsShareOneStreamAndOneSearch) {
  // Fragment 0 is the hub of a star of clusters, so it has three
  // disconnection sets; v is one of its inner nodes.
  const LinkedClusters lc = MakeLinkedClusters({{0, 1}, {0, 2}, {0, 3}});
  const Fragmentation& frag = *lc.frag;
  const FragmentId f = 0;
  ASSERT_EQ(frag.FragmentNeighbors(f).size(), 3u);
  NodeId v = kInvalidNode;
  for (NodeId node : frag.FragmentNodes(f)) {
    if (!frag.IsBorderNode(node)) {
      v = node;
      break;
    }
  }
  ASSERT_NE(v, kInvalidNode);
  const DsaDatabase db(&frag);
  const StoredDatabase paged = SaveAndOpenPaged(db, 4);
  ASSERT_NE(paged.paged_file, nullptr);
  const ComplementaryInfo& comp = paged.db->complementary();
  std::vector<LocalQuerySpec> specs;
  for (FragmentId g : frag.FragmentNeighbors(f)) {
    specs.push_back(
        LocalQuerySpec{f, {v}, SetOf(frag.FindDisconnectionSet(f, g)->nodes)});
  }

  auto pins = [&] {
    const BufferPoolStats stats = paged.paged_file->stats();
    return stats.hits + stats.misses;
  };
  uint64_t before = pins();
  ASSERT_TRUE(comp.ForFragment(f).ForEach([](const PathTuple&) {}).ok());
  const uint64_t extent_pages = pins() - before;
  ASSERT_GT(extent_pages, 1u);

  std::vector<LocalQueryResult> alone;
  size_t most_settled = 0;
  for (const LocalQuerySpec& spec : specs) {
    alone.push_back(RunLocalQuery(*paged.frag, &comp, spec));
    most_settled = std::max(most_settled, alone.back().stats.iterations);
  }

  ThreadPool pool(4);
  before = pins();
  const std::vector<LocalQueryResult> grouped = RunSites(
      *paged.frag, &comp, specs, LocalEngine::kDijkstra, &pool, nullptr);
  EXPECT_EQ(pins() - before, extent_pages);
  size_t settled = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    ExpectSameResult(grouped[i], alone[i], i);
    EXPECT_GT(grouped[i].paths.size(), 0u);
    settled += grouped[i].stats.iterations;
  }
  // One search from v, stopped at the last node of the three sets: as
  // far as the longest of the three searches alone.
  EXPECT_EQ(settled, most_settled);
}

TEST_F(PagedFileTest, CorruptFragmentFailsExactlyTheQueriesThatUseIt) {
  // A line of clusters 0 - 1 - 2 - 3: a query between the last two
  // clusters never needs the first fragment, and the reverse.
  const LinkedClusters lc = MakeLinkedClusters({{0, 1}, {1, 2}, {2, 3}});
  const Graph& g = lc.t.graph;
  const Fragmentation& frag = *lc.frag;
  const DsaDatabase fresh(&frag);
  const StoredDatabase paged = SaveAndOpenPaged(fresh, 4);
  ASSERT_NE(paged.db, nullptr);

  // Fragment extents from the file.
  const std::vector<char> file = shortcut_extents::ReadFileBytes(path_);
  const std::vector<shortcut_extents::Extent> extents =
      shortcut_extents::ReadExtents(file);
  ASSERT_EQ(extents.size(), frag.NumFragments());
  const shortcut_extents::Extent largest = shortcut_extents::Largest(extents);
  const FragmentId corrupt = largest.fragment;
  // More pages than the pool has frames: a stream of the fragment cannot
  // be served from frames filled before the corruption.
  ASSERT_GT(largest.num_pages, 4u);

  // After the clean open, flip one payload byte of each of its pages.
  ASSERT_TRUE(shortcut_extents::CorruptExtent(path_, file, largest));

  std::vector<Query> queries;
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const auto from = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    const auto to = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    if (from != to) queries.push_back(Query{from, to, QueryKind::kCost});
  }
  const BatchResult batch = BatchExecutor(paged.db.get()).Execute(queries);
  size_t failed = 0;
  size_t answered = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto [from, to, kind] = queries[i];
    const QueryAnswer want = fresh.ShortestPath(from, to);
    const QueryAnswer& got = batch.answers[i].answer;
    const bool uses_corrupt =
        std::count(want.fragments_involved.begin(),
                   want.fragments_involved.end(), corrupt) > 0;
    if (uses_corrupt) {
      EXPECT_EQ(got.status.code(), StatusCode::kIOError)
          << from << "->" << to << ": " << got.status.ToString();
      ++failed;
    } else {
      ASSERT_TRUE(got.status.ok()) << from << "->" << to << ": "
                                   << got.status.ToString();
      EXPECT_EQ(std::bit_cast<uint64_t>(got.cost),
                std::bit_cast<uint64_t>(want.cost))
          << from << "->" << to;
      const Weight oracle = Dijkstra(g, from).distance[to];
      if (oracle == kInfinity) {
        EXPECT_FALSE(got.connected);
      } else {
        EXPECT_NEAR(got.cost, oracle, 1e-9 * std::max(1.0, oracle));
      }
      ++answered;
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_GT(answered, 0u);
}

TEST(PlanBatchInParallel, PlansTheSameSpecsAtEveryThreadCount) {
  // One mixed batch (uniform and hot pairs, self queries among them)
  // planned without a pool and on pools of 1, 2 and 8 threads: the flat
  // specs come out grouped by fragment and in one order, and every plan
  // indexes them alike, so phase 1 never depends on scheduling.
  TransportationGraphOptions opts;
  opts.num_clusters = 4;
  opts.nodes_per_cluster = 12;
  opts.target_edges_per_cluster = 36.0;
  Rng rng(67);
  const Graph g = GenerateTransportationGraph(opts, &rng).graph;
  Rng partition_rng(5);
  const Fragmentation frag = RandomFragmentation(g, 4, &partition_rng);
  ASSERT_GT(frag.FragmentationGraphCycles(), 0u);

  std::vector<std::pair<NodeId, NodeId>> endpoints;
  Rng workload_rng(3);
  for (WorkloadMix mix : {WorkloadMix::kUniform, WorkloadMix::kHotPair}) {
    WorkloadSpec spec;
    spec.mix = mix;
    spec.num_queries = 128;
    for (const Query& q : GenerateWorkload(frag, spec, &workload_rng)) {
      endpoints.emplace_back(q.from, q.to);
    }
  }
  for (size_t i = 0; i < endpoints.size(); i += 37) {
    endpoints[i].second = endpoints[i].first;
  }

  auto plan = [&](ThreadPool* pool) {
    ChainPlanCache cache;
    return PlanBatchInParallel(frag, endpoints, kDefaultMaxChains, &cache,
                               pool);
  };
  const ParallelPlanResult reference = plan(nullptr);
  const std::vector<LocalQuerySpec>& specs = reference.flat.specs;
  EXPECT_TRUE(std::is_sorted(
      specs.begin(), specs.end(),
      [](const LocalQuerySpec& a, const LocalQuerySpec& b) {
        return a.fragment < b.fragment;
      }));
  EXPECT_GT(reference.memo_hits, 0u);
  size_t trivial = 0;
  for (const QueryPlan* p : reference.plans) trivial += p == nullptr;
  EXPECT_GT(trivial, 0u);
  // Enough chains that the planner fans out to the pool (a batch of fewer
  // than 512 is planned on the calling thread).
  size_t chains = 0;
  for (const QueryPlan& p : reference.distinct) chains += p.chains.size();
  EXPECT_GE(chains, 512u);

  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ThreadPool pool(threads);
    const ParallelPlanResult got = plan(&pool);
    ASSERT_EQ(got.flat.specs.size(), specs.size());
    for (size_t s = 0; s < specs.size(); ++s) {
      EXPECT_EQ(got.flat.specs[s].fragment, specs[s].fragment) << s;
      EXPECT_EQ(got.flat.specs[s].sources, specs[s].sources) << s;
      EXPECT_EQ(got.flat.specs[s].targets, specs[s].targets) << s;
    }
    ASSERT_EQ(got.plans.size(), reference.plans.size());
    for (size_t i = 0; i < endpoints.size(); ++i) {
      ASSERT_EQ(got.plans[i] == nullptr, reference.plans[i] == nullptr) << i;
      if (got.plans[i] == nullptr) continue;
      EXPECT_EQ(got.plans[i]->chains, reference.plans[i]->chains) << i;
      EXPECT_EQ(got.plans[i]->chain_specs, reference.plans[i]->chain_specs)
          << i;
    }
    EXPECT_EQ(got.memo_hits, reference.memo_hits);
  }
}

TEST(AssembleChain, FoldsMinPlusJoins) {
  Relation r1, r2, r3;
  r1.Add(0, 2, 2.0);
  r2.Add(2, 4, 2.0);
  r2.Add(2, 5, 9.0);
  r3.Add(4, 6, 1.0);
  r3.Add(5, 6, 1.0);
  ExecutionReport report;
  Relation out = AssembleChain({&r1, &r2, &r3}, &report);
  EXPECT_DOUBLE_EQ(out.BestCost(0, 6), 5.0);
  EXPECT_GT(report.assembly_join_tuples, 0u);
  EXPECT_GE(report.assembly_seconds, 0.0);
}

TEST(AssembleChain, SingleHopIsIdentity) {
  Relation r;
  r.Add(1, 2, 3.0);
  Relation out = AssembleChain({&r}, nullptr);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out.BestCost(1, 2), 3.0);
}

TEST(AssembleChain, EmptyHopYieldsEmpty) {
  Relation r1, empty;
  r1.Add(0, 2, 2.0);
  Relation out = AssembleChain({&r1, &empty}, nullptr);
  EXPECT_TRUE(out.empty());
}

TEST(AssembleCostAnswer, SweepMatchesTheChainFoldBitForBit) {
  // Every ordered node pair of a cyclic fragmentation of a directed graph
  // (so some hops find nothing): the frontier sweep against the
  // AssembleChain fold of the same chains, bit for bit, with the same
  // join-tuple count; the route assembler shares the sweep.
  TransportationGraphOptions opts;
  opts.num_clusters = 4;
  opts.nodes_per_cluster = 12;
  opts.target_edges_per_cluster = 36.0;
  opts.symmetric = false;
  Rng rng(61);
  const Graph g = GenerateTransportationGraph(opts, &rng).graph;
  Rng partition_rng(5);
  const Fragmentation frag = RandomFragmentation(g, 4, &partition_rng);
  ASSERT_GT(frag.FragmentationGraphCycles(), 0u);
  const ComplementaryInfo comp = PrecomputeComplementary(frag);

  std::vector<std::pair<NodeId, NodeId>> endpoints;
  for (NodeId from = 0; from < g.NumNodes(); ++from) {
    for (NodeId to = 0; to < g.NumNodes(); ++to) {
      if (from != to) endpoints.emplace_back(from, to);
    }
  }
  ChainPlanCache cache;
  const ParallelPlanResult planned = PlanBatchInParallel(
      frag, endpoints, kDefaultMaxChains, &cache, nullptr);
  const std::vector<LocalQuerySpec>& specs = planned.flat.specs;
  const std::vector<LocalQueryResult> results = RunSites(
      frag, &comp, specs, LocalEngine::kDijkstra, nullptr, nullptr);

  size_t multi_chain_pairs = 0;
  size_t single_hop_chains = 0;
  size_t empty_hop_chains = 0;
  size_t connected = 0;
  for (size_t q = 0; q < endpoints.size(); ++q) {
    const auto [from, to] = endpoints[q];
    const QueryPlan& plan = *planned.plans[q];
    Weight fold_cost = kInfinity;
    ExecutionReport fold_report;
    for (const std::vector<size_t>& hops : plan.chain_specs) {
      std::vector<const Relation*> chain;
      for (size_t idx : hops) chain.push_back(&results[idx].paths);
      const Relation folded = AssembleChain(chain, &fold_report);
      fold_cost = std::min(fold_cost, folded.BestCost(from, to));
      single_hop_chains += hops.size() == 1;
      empty_hop_chains += std::any_of(
          chain.begin(), chain.end(),
          [](const Relation* r) { return r->empty(); });
    }
    multi_chain_pairs += plan.chains.size() > 1;

    ExecutionReport report;
    const QueryAnswer got =
        AssembleCostAnswer(frag, plan, specs, from, to, results, &report);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(got.cost),
              std::bit_cast<uint64_t>(fold_cost))
        << from << "->" << to << ": " << got.cost << " vs " << fold_cost;
    EXPECT_EQ(report.assembly_join_tuples, fold_report.assembly_join_tuples)
        << from << "->" << to;
    EXPECT_EQ(got.connected, fold_cost != kInfinity);
    connected += got.connected;

    const RouteAnswer route = AssembleRouteAnswer(frag, comp, plan, specs,
                                                  from, to, results, nullptr);
    ASSERT_TRUE(route.answer.status.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(route.answer.cost),
              std::bit_cast<uint64_t>(got.cost))
        << from << "->" << to;
    EXPECT_EQ(route.route.empty(), !got.connected);
  }
  // The sweep covered what it claims to.
  EXPECT_GT(multi_chain_pairs, endpoints.size() / 2);
  EXPECT_GT(single_hop_chains, 0u);
  EXPECT_GT(empty_hop_chains, 0u);
  EXPECT_GT(connected, 0u);
  EXPECT_LT(connected, endpoints.size());
}

}  // namespace
}  // namespace tcf
