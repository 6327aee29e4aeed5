// tcfragd — the tcfrag daemon: a self-contained TCP server exposing a
// fragmented transitive-closure database over the tcfrag wire protocol
// (src/net/). It generates a transportation graph (Sec. 4.1 of the
// paper), fragments it, builds a MaintainedDatabase (so edge updates
// work), and serves pipelined shortest-path queries and updates through a
// QueryService behind net::Server until SIGINT/SIGTERM.
//
//   tcfragd [--port N] [--bind ADDR] [--clusters N]
//           [--nodes-per-cluster N] [--edges-per-cluster N]
//           [--fragments N] [--seed N] [--max-batch N]
//           [--flush-workers N] [--db PATH] [--memory-budget-mb N]
//
// Defaults serve the Table 1 transportation workload (4 clusters x 25
// nodes) on 127.0.0.1:7411. Talk to it with net/client.h — see
// examples/remote_queries.cc.
//
// --db PATH persists the database across restarts (docs/STORAGE.md): if
// PATH exists it is opened — adopting the stored graph, fragmentation and
// complementary info, so restart cost is file-read cost, not cubic
// refragmentation — and updates resume at the stored epoch + 1; otherwise
// the daemon builds from the generator flags as usual and saves to PATH
// before serving.
//
// --memory-budget-mb N (requires --db) opens the database paged: shortcut
// relations stay on disk and queries stream them through a buffer pool of
// at most N MiB, so the daemon can serve a database larger than RAM. Pool
// hit/miss/eviction counters are printed with the shutdown stats.
//
// Every numeric flag must be a whole base-10 value inside its range (see
// ParseFlags); anything else prints the flag and the accepted range and
// exits 2, before a thread is spawned or a port is bound.
//
// Shutdown ordering matters and is deliberate: the server stops FIRST
// (drains every in-flight reply onto the wire), the service second — the
// order the shutdown-drain contract in net/server.h prescribes.
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>

#include "dsa/maintenance.h"
#include "dsa/service.h"
#include "fragment/linear.h"
#include "graph/generator.h"
#include "net/server.h"
#include "storage/database_io.h"
#include "util/rng.h"

using namespace tcf;

namespace {

struct Flags {
  uint16_t port = 7411;
  std::string bind = "127.0.0.1";
  size_t clusters = 4;
  size_t nodes_per_cluster = 25;
  double edges_per_cluster = 100.0;
  size_t fragments = 4;
  uint64_t seed = 7;
  size_t max_batch = 64;
  size_t flush_workers = 0;  // 0 = one per hardware thread
  std::string db_path;       // empty = in-memory only
  size_t memory_budget_mb = 0;  // 0 = resident open; >0 = paged open
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--bind ADDR] [--clusters N]\n"
      "          [--nodes-per-cluster N] [--edges-per-cluster N]\n"
      "          [--fragments N] [--seed N] [--max-batch N]\n"
      "          [--flush-workers N] [--db PATH] [--memory-budget-mb N]\n",
      argv0);
}

template <typename T>
std::string Show(T value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

// Parses all of `text` as a base-10 number in [lo, hi]. Empty text, a
// sign on an unsigned flag, trailing bytes, overflow, NaN and values out
// of range are all rejected with the flag name and the accepted range.
template <typename T>
bool ParseInRange(const std::string& flag, const char* text, T lo, T hi,
                  T* out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !(lo <= value && value <= hi)) {
    std::fprintf(stderr, "tcfragd: %s must be %s in [%s, %s], got '%s'\n",
                 flag.c_str(),
                 std::is_integral_v<T> ? "an integer" : "a number",
                 Show(lo).c_str(), Show(hi).c_str(), text);
    return false;
  }
  *out = value;
  return true;
}

// The ranges keep every value inside what the library accepts: the
// generator needs a cluster and two nodes per cluster, the fragmenter and
// the service at least one fragment and one query per batch, and a
// budget must survive the MiB-to-bytes shift. The upper bounds keep a
// typo from asking for more nodes or fragment threads than a daemon can
// hold.
bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 == argc) {  // every flag takes a value
      Usage(argv[0]);
      return false;
    }
    const char* v = argv[++i];
    bool ok = true;
    if (arg == "--port") {
      ok = ParseInRange<uint16_t>(arg, v, 0, 65535, &flags->port);
    } else if (arg == "--bind") {
      flags->bind = v;
    } else if (arg == "--clusters") {
      ok = ParseInRange<size_t>(arg, v, 1, 1024, &flags->clusters);
    } else if (arg == "--nodes-per-cluster") {
      ok = ParseInRange<size_t>(arg, v, 2, 4096, &flags->nodes_per_cluster);
    } else if (arg == "--edges-per-cluster") {
      ok = ParseInRange<double>(arg, v, 0.0, 1e8, &flags->edges_per_cluster);
    } else if (arg == "--fragments") {
      ok = ParseInRange<size_t>(arg, v, 1, 1024, &flags->fragments);
    } else if (arg == "--seed") {
      ok = ParseInRange<uint64_t>(arg, v, 0, UINT64_MAX, &flags->seed);
    } else if (arg == "--max-batch") {
      ok = ParseInRange<size_t>(arg, v, 1, 65536, &flags->max_batch);
    } else if (arg == "--flush-workers") {
      ok = ParseInRange<size_t>(arg, v, 0, 64, &flags->flush_workers);
    } else if (arg == "--db") {
      flags->db_path = v;
    } else if (arg == "--memory-budget-mb") {
      ok = ParseInRange<size_t>(arg, v, 0, SIZE_MAX >> 20,
                                &flags->memory_budget_mb);
    } else {
      std::fprintf(stderr, "tcfragd: unknown flag '%s'\n", arg.c_str());
      Usage(argv[0]);
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  // Block the termination signals BEFORE any thread spawns, so every
  // thread inherits the mask and sigwait below is the only consumer.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  if (flags.memory_budget_mb > 0 && flags.db_path.empty()) {
    std::fprintf(stderr,
                 "tcfragd: --memory-budget-mb requires --db (the budget "
                 "bounds the buffer pool of a paged-open database)\n");
    return 2;
  }

  std::unique_ptr<MaintainedDatabase> mdb_storage;
  std::shared_ptr<PagedFile> paged_file;
  if (!flags.db_path.empty()) {
    OpenOptions open_opts;
    if (flags.memory_budget_mb > 0) {
      open_opts.mode = OpenMode::kPaged;
      open_opts.memory_budget_bytes = flags.memory_budget_mb << 20;
    }
    Result<std::unique_ptr<MaintainedDatabase>> opened =
        OpenMaintainedDatabase(flags.db_path, open_opts, &paged_file);
    if (opened.ok()) {
      mdb_storage = std::move(opened).value();
      std::printf(
          "tcfragd: opened database %s (%zu nodes, %zu edges, %zu "
          "fragments, epoch %llu)\n",
          flags.db_path.c_str(), mdb_storage->graph().NumNodes(),
          mdb_storage->graph().NumEdges(),
          mdb_storage->fragmentation().NumFragments(),
          static_cast<unsigned long long>(mdb_storage->epoch()));
      if (paged_file != nullptr) {
        std::printf(
            "tcfragd: paged mode: %zu MiB budget -> %zu pool frames of "
            "%zu bytes\n",
            flags.memory_budget_mb, paged_file->pool().num_frames(),
            paged_file->page_size());
      }
    } else if (opened.status().code() != StatusCode::kNotFound) {
      // A present-but-unreadable file is an error, not a rebuild trigger:
      // silently regenerating would shadow the operator's data.
      std::fprintf(stderr, "tcfragd: open %s: %s\n", flags.db_path.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
  }
  if (mdb_storage == nullptr) {
    Rng rng(flags.seed);
    TransportationGraphOptions gen;
    gen.num_clusters = flags.clusters;
    gen.nodes_per_cluster = flags.nodes_per_cluster;
    gen.target_edges_per_cluster = flags.edges_per_cluster;
    TransportationGraph t = GenerateTransportationGraph(gen, &rng);
    LinearOptions lopts;
    lopts.num_fragments = flags.fragments;
    const Fragmentation frag =
        LinearFragmentation(t.graph, lopts).fragmentation;
    // MaintainedDatabase is pinned in place (mutexes), so build it in the
    // unique_ptr directly from a copy of the graph (the primary ctor form
    // of FromFragmentation).
    Graph graph_copy = t.graph;
    mdb_storage = std::make_unique<MaintainedDatabase>(
        std::move(graph_copy), frag.fragment_of_edge(), frag.NumFragments());
    std::printf(
        "tcfragd: %zu nodes, %zu edges, %zu fragments (seed %llu)\n",
        t.graph.NumNodes(), t.graph.NumEdges(), frag.NumFragments(),
        static_cast<unsigned long long>(flags.seed));
    if (!flags.db_path.empty()) {
      const Status saved = SaveDatabase(*mdb_storage, flags.db_path);
      if (!saved.ok()) {
        std::fprintf(stderr, "tcfragd: save %s: %s\n",
                     flags.db_path.c_str(), saved.ToString().c_str());
        return 1;
      }
      std::printf("tcfragd: saved database %s\n", flags.db_path.c_str());
    }
  }
  MaintainedDatabase& mdb = *mdb_storage;

  ServiceOptions sopts;
  sopts.max_batch = flags.max_batch;
  sopts.flush_workers = flags.flush_workers;
  QueryService service(&mdb, sopts);

  ServerOptions server_opts;
  server_opts.bind_address = flags.bind;
  server_opts.port = flags.port;
  Server server(&service, server_opts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "tcfragd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("tcfragd listening on %s:%u\n", flags.bind.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&stop_signals, &signal_number);
  std::printf("tcfragd: caught %s, draining\n",
              signal_number == SIGINT ? "SIGINT" : "SIGTERM");

  // Server first (drain in-flight replies onto the wire), service second.
  server.Stop();
  service.Shutdown();

  const ServerStats stats = server.stats();
  std::printf(
      "tcfragd: served %llu requests (%llu ok, %llu error) over %llu "
      "connections (%llu dropped)\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.replies_ok),
      static_cast<unsigned long long>(stats.replies_error),
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.connections_dropped));
  if (paged_file != nullptr) {
    const BufferPoolStats pool = paged_file->pool().stats();
    std::printf(
        "tcfragd: buffer pool: %llu hits, %llu misses (%.1f%% hit rate), "
        "%llu evictions, %llu pin failures, peak %llu pinned frames\n",
        static_cast<unsigned long long>(pool.hits),
        static_cast<unsigned long long>(pool.misses),
        100.0 * pool.HitRate(),
        static_cast<unsigned long long>(pool.evictions),
        static_cast<unsigned long long>(pool.pin_failures),
        static_cast<unsigned long long>(pool.peak_pinned_frames));
  }
  return 0;
}
