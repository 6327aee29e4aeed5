// Save/open cost of the paged database format (storage/database_io.h) —
// the "open, don't rebuild" promise of ROADMAP item 4 made measurable. On
// a transportation graph of few large clusters (default 8 x 300):
//
//   1. rebuild  — fragment the graph and build a DsaDatabase from scratch
//                 (the full complementary precompute every restart pays
//                 without storage);
//   2. save     — serialize it to a paged, checksummed file;
//   3. open     — reopen resident, through the mmap fast path, with the
//                 whole-file checksum sweep;
//   4. equality — a randomized query sweep must answer identically on the
//                 fresh and the reopened database (exit 1 on mismatch);
//   5. serve    — query throughput on the mmap-reopened database, the
//                 gated "did reopening cost us anything at serve time"
//                 series (the median of five passes over 400 pairs);
//   6. paged    — reopen with OpenMode::kPaged and a buffer pool capped at
//                 a quarter of the file, answer the same sweep (exact
//                 equality, gated by --gate-paged-correct), and measure
//                 query throughput through pinned pages vs resident
//                 (paged_query_qps, the same median of five passes;
//                 pool_hit_rate, peak pinned pages).
//
// `storage_io [clusters [nodes-per-cluster]]` scales the graph; `--json
// <path>` writes the perf-gate metrics (gated keys: reopen_query_qps and
// paged_query_qps — any *_qps key is rolling-median gated;
// save/open/rebuild wall times and the open-vs-rebuild speedup ride along
// ungated); `--db <path>` places the database file (kept afterwards)
// instead of a scratch file (deleted); `--gate-open-speedup` exits 1
// unless mmap open beats rebuild by >= 5x — the acceptance bar CI
// enforces; `--gate-paged-correct` exits 1 if the capped-pool paged
// database answers the sweep any differently from the fresh build.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "fragment/node_partition.h"
#include "storage/database_io.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace tcf;
using namespace tcf::bench;

namespace {

constexpr double kRequiredSpeedup = 5.0;

struct OpenTiming {
  double seconds = 0.0;
  StoredDatabase stored;
};

OpenTiming TimedOpen(const std::string& path) {
  WallTimer timer;
  Result<StoredDatabase> opened = OpenDatabase(path);
  if (!opened.ok()) {
    std::fprintf(stderr, "storage_io: open %s: %s\n", path.c_str(),
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  return OpenTiming{timer.ElapsedSeconds(), std::move(opened).value()};
}

/// Random query pairs, fixed seed — the same sweep every run.
std::vector<std::pair<NodeId, NodeId>> SweepPairs(size_t num_nodes,
                                                  size_t count) {
  Rng rng(4243);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.NextBounded(num_nodes)),
                       static_cast<NodeId>(rng.NextBounded(num_nodes)));
  }
  return pairs;
}

// A serve rate is the median of this many timed passes over the same
// pairs: one 400-pair pass varied by more than 1.5x between runs, against
// a CI gate at 25 % below the rolling median.
constexpr int kServePasses = 5;

/// Queries per second of `db` over `pairs`, the median pass of
/// kServePasses; `checksum` receives the sum of a pass's finite costs.
double MedianServeQps(const DsaDatabase& db,
                      const std::vector<std::pair<NodeId, NodeId>>& pairs,
                      double* checksum) {
  std::vector<double> rates;
  for (int pass = 0; pass < kServePasses; ++pass) {
    WallTimer timer;
    double sum = 0.0;
    for (const auto& [from, to] : pairs) {
      const double cost = db.ShortestPath(from, to).cost;
      if (cost < kInfinity) sum += cost;
    }
    rates.push_back(pairs.size() / timer.ElapsedSeconds());
    *checksum = sum;
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  bool gate_open_speedup = false;
  bool gate_paged_correct = false;
  std::string db_path;
  for (int i = 1; i < argc;) {
    const std::string arg = argv[i];
    if (arg == "--gate-open-speedup") {
      gate_open_speedup = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else if (arg == "--gate-paged-correct") {
      gate_paged_correct = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else if (arg == "--db" && i + 1 < argc) {
      db_path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    } else {
      ++i;
    }
  }
  // Default shape: few, LARGE clusters. The open-vs-rebuild ratio is the
  // point of the bench, and it scales with per-fragment edge count over
  // border count — rebuild pays a Dijkstra per border node over the whole
  // fragment, while open pays decode per border-pair tuple. Many small
  // clusters measures the opposite regime (decode-bound) and takes far
  // longer for a weaker signal.
  const size_t clusters =
      argc > 1 ? static_cast<size_t>(std::strtoull(argv[1], nullptr, 10))
               : 8;
  const size_t nodes_per_cluster =
      argc > 2 ? static_cast<size_t>(std::strtoull(argv[2], nullptr, 10))
               : 300;
  const bool keep_file = !db_path.empty();
  if (db_path.empty()) db_path = "bench_storage_io.tcfdb";
  JsonMetrics metrics("storage_io");

  Rng rng(7);
  TransportationGraphOptions gen;
  gen.num_clusters = clusters;
  gen.nodes_per_cluster = nodes_per_cluster;
  gen.target_edges_per_cluster = 4.0 * nodes_per_cluster;
  // A well-connected ring (8 undirected edges per link instead of the
  // default 2): more border nodes per disconnection set, so the rebuild
  // pays realistically many complementary searches while the file stays
  // small — the regime where reopening instead of rebuilding matters.
  for (size_t c = 0; c < clusters; ++c) {
    gen.links.push_back(InterClusterLink{c, (c + 1) % clusters, 8});
  }
  TransportationGraph t = GenerateTransportationGraph(gen, &rng);
  std::printf("graph: %zu nodes, %zu edges (%zu clusters x %zu)\n",
              t.graph.NumNodes(), t.graph.NumEdges(), clusters,
              nodes_per_cluster);

  // 1. rebuild: what every restart costs without the storage layer. The
  // fragmentation follows the generator's natural clusters (the paper's
  // "countries of a railway network"), so the disconnection sets are the
  // sparse inter-cluster links — the regime DSA is designed for.
  WallTimer rebuild_timer;
  const Fragmentation frag = FragmentationFromNodePartition(
      t.graph, t.cluster_of_node, clusters);
  const DsaDatabase fresh(&frag);
  const double rebuild_s = rebuild_timer.ElapsedSeconds();
  std::printf(
      "rebuild: %.1f ms (%zu fragments, %zu complementary tuples, %zu "
      "searches)\n",
      rebuild_s * 1e3, frag.NumFragments(),
      fresh.complementary().total_tuples, fresh.complementary().searches);

  // 2. save.
  WallTimer save_timer;
  const Status saved = SaveDatabase(fresh, db_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "storage_io: save: %s\n", saved.ToString().c_str());
    return 1;
  }
  const double save_s = save_timer.ElapsedSeconds();
  std::FILE* f = std::fopen(db_path.c_str(), "rb");
  double file_mb = 0.0;
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    file_mb = static_cast<double>(std::ftell(f)) / (1024.0 * 1024.0);
    std::fclose(f);
  }
  std::printf("save:    %.1f ms (%.2f MiB)\n", save_s * 1e3, file_mb);

  // 3. open resident (the checksum sweep always runs).
  OpenTiming mmap_open = TimedOpen(db_path);
  const double speedup =
      mmap_open.seconds > 0.0 ? rebuild_s / mmap_open.seconds : 0.0;
  std::printf("open:    %.1f ms (mmap) — %.1fx faster than rebuild\n",
              mmap_open.seconds * 1e3, speedup);

  // 4. answer equality: fresh == mmap-opened on a random sweep. Identical
  // inputs (same graph, same complementary tuples) must give identical
  // costs.
  const auto pairs = SweepPairs(t.graph.NumNodes(), 150);
  size_t mismatches = 0;
  for (const auto& [from, to] : pairs) {
    const double want = fresh.ShortestPath(from, to).cost;
    const double got = mmap_open.stored.db->ShortestPath(from, to).cost;
    if (want != got) {
      if (++mismatches <= 5) {
        std::fprintf(stderr,
                     "storage_io: MISMATCH %u -> %u: fresh %.17g, mmap "
                     "%.17g\n",
                     from, to, want, got);
      }
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "storage_io: %zu of %zu sweep answers differ after reopen\n",
                 mismatches, pairs.size());
    return 1;
  }
  std::printf("equality: %zu random answers identical after reopen\n",
              pairs.size());

  // 5. serve from the reopened database (the gated series).
  const auto serve_pairs = SweepPairs(t.graph.NumNodes(), 400);
  double checksum = 0.0;
  const double qps =
      MedianServeQps(*mmap_open.stored.db, serve_pairs, &checksum);
  std::printf("serve:   %.0f qps on the reopened database (median of %d "
              "passes; checksum %.3f)\n",
              qps, kServePasses, checksum);

  // 6. the paged cell: reopen with relations left on disk and the pool
  // capped at a quarter of the file, so queries genuinely stream through
  // pinned pages. Correctness first (the same sweep, exact equality),
  // then throughput against the resident serve above.
  OpenOptions paged_options;
  paged_options.mode = OpenMode::kPaged;
  paged_options.memory_budget_bytes = static_cast<size_t>(
      file_mb * 1024.0 * 1024.0 / 4.0);
  WallTimer paged_open_timer;
  Result<StoredDatabase> paged_opened = OpenDatabase(db_path, paged_options);
  if (!paged_opened.ok()) {
    std::fprintf(stderr, "storage_io: paged open: %s\n",
                 paged_opened.status().ToString().c_str());
    return 1;
  }
  const double paged_open_s = paged_open_timer.ElapsedSeconds();
  const StoredDatabase& paged = paged_opened.value();
  std::printf("open:    %.1f ms (paged, %zu pool frames of %zu bytes)\n",
              paged_open_s * 1e3, paged.paged_file->pool().num_frames(),
              paged.paged_file->page_size());

  size_t paged_mismatches = 0;
  for (const auto& [from, to] : pairs) {
    const double want = fresh.ShortestPath(from, to).cost;
    const double got = paged.db->ShortestPath(from, to).cost;
    if (want != got) {
      if (++paged_mismatches <= 5) {
        std::fprintf(stderr,
                     "storage_io: PAGED MISMATCH %u -> %u: fresh %.17g, "
                     "paged %.17g\n",
                     from, to, want, got);
      }
    }
  }
  std::printf("equality: %zu random answers %s on the capped-pool paged "
              "database\n",
              pairs.size(),
              paged_mismatches == 0 ? "identical" : "DIFFER");

  double paged_checksum = 0.0;
  const double paged_qps =
      MedianServeQps(*paged.db, serve_pairs, &paged_checksum);
  const BufferPoolStats pool_stats = paged.paged_file->stats();
  const double paged_factor = paged_qps > 0.0 ? qps / paged_qps : 0.0;
  std::printf(
      "serve:   %.0f qps paged (checksum %.3f) — %.2fx slower than "
      "resident; pool %.1f%% hit rate, peak %llu pinned pages\n",
      paged_qps, paged_checksum, paged_factor, 100.0 * pool_stats.HitRate(),
      static_cast<unsigned long long>(pool_stats.peak_pinned_frames));

  metrics.Set("rebuild_ms", rebuild_s * 1e3);
  metrics.Set("save_ms", save_s * 1e3);
  metrics.Set("mmap_open_ms", mmap_open.seconds * 1e3);
  metrics.Set("paged_open_ms", paged_open_s * 1e3);
  metrics.Set("file_mb", file_mb);
  metrics.Set("mmap_speedup_vs_rebuild", speedup);
  metrics.Set("reopen_query_qps", qps);
  metrics.Set("paged_query_qps", paged_qps);
  metrics.Set("paged_vs_resident_factor", paged_factor);
  metrics.Set("pool_hit_rate", pool_stats.HitRate());
  metrics.Set("peak_pinned_pages",
              static_cast<double>(pool_stats.peak_pinned_frames));

  if (!keep_file) std::remove(db_path.c_str());
  if (!json_path.empty() && !metrics.WriteFile(json_path)) return 1;

  if (gate_open_speedup && speedup < kRequiredSpeedup) {
    std::fprintf(stderr,
                 "storage_io: GATE FAILED: mmap open is only %.1fx faster "
                 "than rebuild (bar: %.0fx)\n",
                 speedup, kRequiredSpeedup);
    return 1;
  }
  if (gate_paged_correct && paged_mismatches > 0) {
    std::fprintf(stderr,
                 "storage_io: GATE FAILED: %zu of %zu sweep answers differ "
                 "on the capped-pool paged database\n",
                 paged_mismatches, pairs.size());
    return 1;
  }
  return 0;
}
