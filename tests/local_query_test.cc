// Differential test of the Dijkstra phase-1 kernel: RunLocalQuery with
// LocalEngine::kDijkstra (searches on the fragment's LocalGraph, from the
// smaller keyhole side, stopping at the last far-side node; with
// complementary info, a border-to-border subquery is the selection of the
// shortcut relation) against a reference that runs a whole-graph Dijkstra
// from every source on BuildAugmentedFragment's graph — the engine's
// former implementation. Specs of all four shapes (1×1, 1×T, S×1, S×T) are
// drawn for every fragment of a center-based, a linear and a cyclic
// fragmentation of a directed graph, with and without complementary info,
// on resident and paged stores.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dsa/local_query.h"
#include "dsa/query_api.h"
#include "dsa_sweep.h"
#include "graph/algorithms.h"
#include "storage/database_io.h"

namespace tcf {
namespace {

using dsa_sweep::Fragmenter;
using dsa_sweep::MakeFragmentation;

/// A directed transportation graph: without symmetric edges a search in
/// the wrong direction gives different answers, and some targets are
/// unreachable from some sources.
Graph MakeDirectedGraph(uint64_t seed) {
  TransportationGraphOptions opts;
  opts.num_clusters = 4;
  opts.nodes_per_cluster = 15;
  opts.target_edges_per_cluster = 45.0;
  opts.symmetric = false;
  Rng rng(seed);
  return GenerateTransportationGraph(opts, &rng).graph;
}

bool InFragment(const Fragmentation& frag, FragmentId f, NodeId v) {
  const std::vector<NodeId>& nodes = frag.FragmentNodes(f);
  return std::binary_search(nodes.begin(), nodes.end(), v);
}

struct Reference {
  std::map<std::pair<NodeId, NodeId>, Weight> costs;
  /// Nodes a full search (no early exit) settles from each node of the
  /// side the kernel searches from, in the kernel's direction.
  size_t settled = 0;
};

Reference RunReference(const Graph& augmented, const Fragmentation& frag,
                       const LocalQuerySpec& spec) {
  Reference ref;
  for (NodeId s : spec.sources) {
    const ShortestPaths sp = Dijkstra(augmented, s);
    for (NodeId t : spec.targets) {
      if (t != s && sp.distance[t] != kInfinity) {
        ref.costs[{s, t}] = sp.distance[t];
      }
    }
    if (spec.targets.count(s)) ref.costs[{s, s}] = 0.0;
  }
  const bool backward = spec.targets.size() < spec.sources.size();
  for (NodeId origin : backward ? spec.targets : spec.sources) {
    if (!InFragment(frag, spec.fragment, origin)) continue;
    const ShortestPaths sp =
        Dijkstra(augmented, origin,
                 backward ? Direction::kBackward : Direction::kForward);
    for (Weight d : sp.distance) ref.settled += d != kInfinity;
  }
  return ref;
}

/// True when every source and target of `spec` is a border node.
bool AllBorder(const Fragmentation& frag, const LocalQuerySpec& spec) {
  auto border = [&](const NodeSet& ids) {
    return std::all_of(ids.begin(), ids.end(),
                       [&](NodeId v) { return frag.IsBorderNode(v); });
  };
  return border(spec.sources) && border(spec.targets);
}

/// What a border-to-border spec must return: the fragment's shortcut
/// tuples from a source to a target, plus the zero-cost pass-through of
/// every node on both sides, canonically sorted.
std::vector<PathTuple> ShortcutSelection(const ComplementaryInfo& comp,
                                         const LocalQuerySpec& spec) {
  Relation out;
  const Status read = comp.ForFragment(spec.fragment)
                          .ForEach([&](const PathTuple& t) {
                            if (spec.sources.count(t.src) &&
                                spec.targets.count(t.dst)) {
                              out.Add(t);
                            }
                          });
  EXPECT_TRUE(read.ok()) << read.ToString();
  for (NodeId v : spec.sources) {
    if (spec.targets.count(v)) out.Add(v, v, 0.0);
  }
  out.SortCanonical();
  return out.tuples();
}

/// Draws `count` distinct nodes of fragment f, half of them (when it has
/// any) from its border nodes — the disconnection-set nodes real specs
/// use.
NodeSet DrawNodes(const Fragmentation& frag, FragmentId f, size_t count,
                  Rng* rng) {
  const std::vector<NodeId>& nodes = frag.FragmentNodes(f);
  const std::vector<NodeId>& border = frag.BorderNodes(f);
  count = std::min(count, nodes.size());
  NodeSet out;
  while (out.size() < count) {
    const bool from_border = !border.empty() && rng->NextBounded(2) == 0;
    const std::vector<NodeId>& pool = from_border ? border : nodes;
    out.insert(pool[rng->NextBounded(pool.size())]);
  }
  return out;
}

struct SweepCounts {
  size_t specs = 0;
  size_t shortcut_selections = 0;  // border-to-border, with complementary
  size_t backward = 0;
  size_t overlapping = 0;
  size_t unreachable_pairs = 0;
};

/// Runs every shape of spec on every fragment of `frag` and compares the
/// kernel with the reference.
void SweepFragmentation(const Fragmentation& frag,
                        const ComplementaryInfo* complementary, uint64_t seed,
                        SweepCounts* counts) {
  Rng rng(seed);
  for (FragmentId f = 0; f < frag.NumFragments(); ++f) {
    Result<Graph> augmented = BuildAugmentedFragment(frag, complementary, f);
    ASSERT_TRUE(augmented.ok()) << augmented.status().ToString();
    const size_t n = frag.FragmentNodes(f).size();
    const size_t wide = std::min<size_t>(5, n);
    const std::pair<size_t, size_t> shapes[] = {
        {1, 1}, {1, wide}, {wide, 1}, {wide, std::max<size_t>(2, wide - 1)}};
    for (const auto& [num_sources, num_targets] : shapes) {
      for (int rep = 0; rep < 6; ++rep) {
        LocalQuerySpec spec;
        spec.fragment = f;
        spec.sources = DrawNodes(frag, f, num_sources, &rng);
        spec.targets = DrawNodes(frag, f, num_targets, &rng);
        // Every third spec shares a node between the two sides.
        if (rep % 3 == 0 && spec.targets.size() > 1) {
          spec.targets.erase(spec.targets.begin());
          spec.targets.insert(*spec.sources.begin());
        }
        const bool backward = spec.targets.size() < spec.sources.size();
        const bool selection =
            complementary != nullptr && AllBorder(frag, spec);
        const Reference ref = RunReference(augmented.value(), frag, spec);
        const LocalQueryResult got =
            RunLocalQuery(frag, complementary, spec, LocalEngine::kDijkstra);
        ASSERT_TRUE(got.status.ok()) << got.status.ToString();

        ++counts->specs;
        counts->shortcut_selections += selection;
        counts->backward += backward;
        for (NodeId s : spec.sources) {
          counts->overlapping += spec.targets.count(s);
        }
        counts->unreachable_pairs +=
            spec.sources.size() * spec.targets.size() - ref.costs.size();

        ASSERT_EQ(got.paths.size(), ref.costs.size())
            << "fragment " << f << " spec " << num_sources << "x"
            << num_targets;
        // A backward search, or the shortcut d*, sums a path in another
        // order than the forward reference does: equal within rounding.
        for (const PathTuple& t : got.paths.tuples()) {
          const auto it = ref.costs.find({t.src, t.dst});
          ASSERT_NE(it, ref.costs.end()) << t.src << "->" << t.dst;
          if (backward || selection) {
            EXPECT_LE(std::abs(t.cost - it->second),
                      1e-12 * std::abs(it->second))
                << t.src << "->" << t.dst;
          } else {
            EXPECT_EQ(t.cost, it->second) << t.src << "->" << t.dst;
          }
        }
        if (selection) {
          EXPECT_EQ(got.paths.tuples(),
                    ShortcutSelection(*complementary, spec));
          EXPECT_EQ(got.stats.iterations, 0u);
        }
        EXPECT_LE(got.stats.iterations, ref.settled);
        EXPECT_EQ(got.stats.result_size, ref.costs.size());
      }
    }
  }
}

class LocalKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "local_query_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".tcfdb";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(LocalKernelTest, MatchesWholeGraphDijkstraOnAugmentedFragment) {
  const Graph g = MakeDirectedGraph(41);
  const std::pair<const char*, Fragmenter> cases[] = {
      {"center", Fragmenter::kCenter},
      {"linear", Fragmenter::kLinear},
      {"cyclic", Fragmenter::kRandom}};
  SweepCounts counts;
  for (const auto& [name, which] : cases) {
    SCOPED_TRACE(name);
    const Fragmentation frag = MakeFragmentation(g, which, 5);
    if (which == Fragmenter::kRandom) {
      ASSERT_GT(frag.FragmentationGraphCycles(), 0u);
    }
    const DsaDatabase db(&frag);

    // Small pages and a pool of four frames: shortcut extents span pages
    // and scans evict, so the overlay is streamed, not cached.
    SaveOptions save;
    save.page_size = kMinPageSize;
    ASSERT_TRUE(SaveDatabase(db, path_, save).ok());
    OpenOptions paged;
    paged.mode = OpenMode::kPaged;
    paged.memory_budget_bytes = 4 * kMinPageSize;
    Result<StoredDatabase> opened = OpenDatabase(path_, paged);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const Fragmentation& paged_frag = *opened.value().frag;
    const ComplementaryInfo& paged_comp =
        opened.value().db->complementary();
    ASSERT_TRUE(paged_comp.shortcuts.front().is_paged());

    for (const uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
      SweepFragmentation(frag, &db.complementary(), seed, &counts);
      SweepFragmentation(frag, nullptr, seed, &counts);
      SweepFragmentation(paged_frag, &paged_comp, seed, &counts);
      SweepFragmentation(paged_frag, nullptr, seed, &counts);
    }
  }
  // The sweep exercised what it claims to.
  EXPECT_GT(counts.shortcut_selections, 0u);
  EXPECT_LT(counts.shortcut_selections, counts.specs);
  EXPECT_GT(counts.backward, 0u);
  EXPECT_LT(counts.backward, counts.specs);
  EXPECT_GT(counts.overlapping, 0u);
  EXPECT_GT(counts.unreachable_pairs, 0u);
}

/// The border-to-border specs chains produce in each fragment: every
/// ordered pair of its disconnection sets (the same one twice included),
/// and all its border nodes to all of them.
std::vector<LocalQuerySpec> BorderPairSpecs(const Fragmentation& frag) {
  std::vector<LocalQuerySpec> specs;
  for (FragmentId f = 0; f < frag.NumFragments(); ++f) {
    std::vector<NodeSet> sides;
    for (FragmentId g : frag.FragmentNeighbors(f)) {
      const std::vector<NodeId>& ds = frag.FindDisconnectionSet(f, g)->nodes;
      sides.emplace_back(ds.begin(), ds.end());
    }
    const std::vector<NodeId>& border = frag.BorderNodes(f);
    sides.emplace_back(border.begin(), border.end());
    for (const NodeSet& in : sides) {
      for (const NodeSet& out : sides) {
        specs.push_back(LocalQuerySpec{f, in, out});
      }
    }
  }
  return specs;
}

TEST(LocalKernel, BorderPairSubqueriesReadTheShortcutRelation) {
  // A subquery between border nodes is answered by one pass over the
  // fragment's shortcut relation: no local graph, no search. Without
  // complementary info the same subquery still searches.
  const Graph g = MakeDirectedGraph(53);
  const std::string path = ::testing::TempDir() + "local_query_border_" +
                           std::to_string(::getpid()) + ".tcfdb";
  const std::pair<const char*, Fragmenter> cases[] = {
      {"center", Fragmenter::kCenter},
      {"linear", Fragmenter::kLinear},
      {"cyclic", Fragmenter::kRandom}};
  for (const auto& [name, which] : cases) {
    SCOPED_TRACE(name);
    const Fragmentation frag = MakeFragmentation(g, which, 5);
    const DsaDatabase db(&frag);
    SaveOptions save;
    save.page_size = kMinPageSize;
    ASSERT_TRUE(SaveDatabase(db, path, save).ok());
    OpenOptions paged;
    paged.mode = OpenMode::kPaged;
    paged.memory_budget_bytes = 4 * kMinPageSize;
    Result<StoredDatabase> opened = OpenDatabase(path, paged);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const ComplementaryInfo& paged_comp = opened.value().db->complementary();
    ASSERT_TRUE(paged_comp.shortcuts.front().is_paged());

    const std::vector<LocalQuerySpec> specs = BorderPairSpecs(frag);
    ASSERT_FALSE(specs.empty());
    for (const ComplementaryInfo* comp : {&db.complementary(), &paged_comp}) {
      const Fragmentation cold(comp == &paged_comp ? *opened.value().frag
                                                   : frag);
      size_t selected = 0;
      for (const LocalQuerySpec& spec : specs) {
        const LocalQueryResult got = RunLocalQuery(cold, comp, spec);
        ASSERT_TRUE(got.status.ok()) << got.status.ToString();
        EXPECT_EQ(got.paths.tuples(), ShortcutSelection(*comp, spec));
        EXPECT_EQ(got.stats.iterations, 0u);
        selected += got.paths.size();
      }
      EXPECT_GT(selected, specs.size());
      EXPECT_EQ(cold.LocalGraphsBuilt(), 0u);

      for (const LocalQuerySpec& spec : specs) {
        EXPECT_GT(RunLocalQuery(cold, nullptr, spec).stats.iterations, 0u);
      }
      EXPECT_EQ(cold.LocalGraphsBuilt(), cold.NumFragments());
    }
  }
  std::remove(path.c_str());
}

TEST(LocalKernel, NodesOutsideTheFragmentYieldNoTuples) {
  const Graph g = MakeDirectedGraph(43);
  const Fragmentation frag = MakeFragmentation(g, Fragmenter::kCenter, 3);
  const DsaDatabase db(&frag);
  const FragmentId f = 0;
  const std::vector<NodeId>& nodes = frag.FragmentNodes(f);
  NodeId outside = 0;
  while (InFragment(frag, f, outside)) ++outside;
  ASSERT_LT(outside, g.NumNodes());
  const NodeId no_such_node = static_cast<NodeId>(g.NumNodes()) + 5;
  const NodeId inside = nodes.front();

  for (const ComplementaryInfo* comp :
       {&db.complementary(), static_cast<const ComplementaryInfo*>(nullptr)}) {
    // Outsiders on the source side (backward search: one target).
    LocalQuerySpec from_outside;
    from_outside.fragment = f;
    from_outside.sources = {outside, no_such_node, inside};
    from_outside.targets = {nodes.back()};
    LocalQueryResult r = RunLocalQuery(frag, comp, from_outside);
    ASSERT_TRUE(r.status.ok());
    for (const PathTuple& t : r.paths.tuples()) EXPECT_EQ(t.src, inside);

    // Outsiders on the target side (forward search: one source).
    LocalQuerySpec to_outside;
    to_outside.fragment = f;
    to_outside.sources = {inside};
    to_outside.targets = {outside, no_such_node};
    r = RunLocalQuery(frag, comp, to_outside);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.paths.size(), 0u);
    EXPECT_EQ(r.stats.iterations, 0u);

    // Only outsiders: nothing to search at all.
    LocalQuerySpec only_outside;
    only_outside.fragment = f;
    only_outside.sources = {outside};
    only_outside.targets = {no_such_node};
    r = RunLocalQuery(frag, comp, only_outside);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.paths.size(), 0u);
  }
}

TEST(LocalKernel, ShortcutOutsideTheFragmentFailsTheSubquery) {
  // A hand-made shortcut relation naming a node outside the fragment
  // cannot be placed in the fragment's local ids; the subquery reports
  // it instead of answering from a different graph.
  const Graph g = MakeDirectedGraph(47);
  const Fragmentation frag = MakeFragmentation(g, Fragmenter::kCenter, 3);
  const DsaDatabase db(&frag);
  ComplementaryInfo bad = db.complementary();
  NodeId outside = 0;
  while (InFragment(frag, 0, outside)) ++outside;
  const NodeId inside = frag.FragmentNodes(0).front();
  bad.shortcuts[0].Add(inside, outside, 1.0);

  LocalQuerySpec spec;
  spec.fragment = 0;
  spec.sources = {inside};
  spec.targets = {frag.FragmentNodes(0).back()};
  EXPECT_EQ(RunLocalQuery(frag, &bad, spec).status.code(),
            StatusCode::kInvalidArgument);

  // A border-to-border subquery reads the same relation without a search.
  const std::vector<NodeId>& border = frag.BorderNodes(0);
  ASSERT_FALSE(border.empty());
  spec.sources = NodeSet(border.begin(), border.end());
  spec.targets = spec.sources;
  EXPECT_EQ(RunLocalQuery(frag, &bad, spec).status.code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tcf
