// perfbench_driver: builds one workload's database, starts perfbench_server
// in its own process (many times: every third start serves one round of
// the read phases), drives it over loopback from this one process,
// checks the answers, and writes the raw measurements as JSON for
// perfbench/run.py to turn into metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --server PATH --workdir DIR --out RAW.json
//
// Every input (graph, query pairs, update script, check sample) is made
// here from --seed and reaches the server only as wire requests. All load
// loops are closed: a pipelined connection keeps a fixed number of
// requests in flight, a blocking caller waits for each reply, the updater
// waits for each epoch ack and then pauses. Connections never exceed four
// and each has exactly one generator thread.
//
// --trace 0 measures the end-to-end phases with tracing off. --trace 1
// replays the same operations with the server behind
// perfbench::TracingBackend (bulk windows switch tracing off and on, to
// measure its overhead and to take per-layer counters from untraced
// windows), then repeats the interactive loop in-process against a
// QueryService over the same backend, for the wire overhead and the
// admission wait.
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dsa/maintenance.h"
#include "dsa/service.h"
#include "dsa/workload.h"
#include "fragment/center_based.h"
#include "fragment/linear.h"
#include "fragment/metrics.h"
#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/generator.h"
#include "net/client.h"
#include "storage/database_io.h"
#include "storage/page.h"
#include "trace.h"

extern char** environ;

using namespace tcf;
using perfbench::NowNs;
using perfbench::Span;
using perfbench::SpanLog;

namespace {

// ---------------------------------------------------------------------------
// Workloads. See README.md for why each one exists.

struct Workload {
  const char* name;
  size_t clusters;
  size_t nodes_per_cluster;
  double edges_per_cluster;
  size_t link_edges;  // undirected edges per ring link; 0 = generator default
  bool center_based;  // distributed-centers center-based, else linear
  size_t fragments;
  bool paged;
  WorkloadMix mix;
  bool updates_during_reads;
};

// The graph is the dataset, fixed per workload: it always comes from
// generator seed 7 (tcfragd's default). --seed draws the operations. The
// center-based fragmenter's disconnection sets depend strongly on the
// graph draw on this shape (see README.md), so a graph per seed would
// measure the fragmenter's luck rather than the serving stack.
constexpr uint64_t kGraphSeed = 7;

constexpr Workload kWorkloads[] = {
    {"uniform-resident", 8, 300, 1200.0, 2, true, 8, false,
     WorkloadMix::kUniform, false},
    {"hot-readwrite", 4, 25, 100.0, 0, false, 4, false, WorkloadMix::kHotPair,
     true},
    {"paged-wide-ds", 8, 300, 1200.0, 16, true, 8, true, WorkloadMix::kUniform,
     false},
};

// Loop shapes and input sizes (printed with every result).
constexpr size_t kBulkConnections = 2;
constexpr size_t kBulkDepth = 64;  // per connection; >= max_batch
constexpr size_t kCallers = 2;
constexpr int64_t kUpdatePauseNs = 2'000'000;
constexpr int64_t kMaxThinkNs = 2'000'000;  // = max_wait
constexpr size_t kHotPairs = 64;
constexpr double kHotFraction = 0.9;
constexpr double kHotReverseFraction = 0.5;
constexpr double kDeleteReinsertShare = 0.05;
constexpr size_t kWarmupPairs = 512;
constexpr size_t kUpdateWarmupPairs = 128;  // update servers: a small plan cache
constexpr size_t kMeasuredPairs = 1 << 17;
constexpr size_t kScriptLength = 1 << 15;
constexpr size_t kCheckPairs = 64;  // per update slice or round
constexpr size_t kSetupStarts = 15;
constexpr size_t kRounds = 5;  // measured rounds per untraced run; divides kSetupStarts
constexpr int64_t kBuildNsPerStart = 70'000'000;  // repeated builds, ~1 s in all
// Traced bulk windows: tracing off, on, on, off. The symmetric order
// cancels a linear drift of throughput over the phase (hot-readwrite slows
// as epochs accumulate) out of the on/off comparison.
constexpr bool kTracedWindows[] = {false, true, true, false};

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string workdir;
  std::string out;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string v = argv[i + 1];
    if (arg == "--workload") {
      flags->workload = v;
    } else if (arg == "--seed") {
      flags->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      flags->seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      flags->trace = v == "1";
    } else if (arg == "--server") {
      flags->server = v;
    } else if (arg == "--workdir") {
      flags->workdir = v;
    } else if (arg == "--out") {
      flags->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !flags->workload.empty() &&
         !flags->server.empty() && !flags->workdir.empty() &&
         !flags->out.empty() && flags->seconds > 0.0;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Inputs.

TransportationGraph MakeGraph(const Workload& w) {
  Rng rng(kGraphSeed);
  TransportationGraphOptions gen;
  gen.num_clusters = w.clusters;
  gen.nodes_per_cluster = w.nodes_per_cluster;
  gen.target_edges_per_cluster = w.edges_per_cluster;
  if (w.link_edges > 0) {
    for (size_t c = 0; c < w.clusters; ++c) {
      gen.links.push_back(
          InterClusterLink{c, (c + 1) % w.clusters, w.link_edges});
    }
  }
  return GenerateTransportationGraph(gen, &rng);
}

Fragmentation Fragment(const Workload& w, const Graph& g) {
  if (w.center_based) {
    CenterBasedOptions options;
    options.num_fragments = w.fragments;
    options.distributed_centers = true;
    return CenterBasedFragmentation(g, options);
  }
  LinearOptions options;
  options.num_fragments = w.fragments;
  return LinearFragmentation(g, options).fragmentation;
}

/// The update script: absolute reweights of edges to a multiple of their
/// INITIAL weight, plus a small share of delete-then-reinsert pairs on one
/// edge. Any prefix leaves the graph within a bounded distance of the
/// original, so the graph does not drift over a run. Only edges whose
/// (src, dst) pair occurs once are used, so a reinsert restores exactly
/// the deleted tuple.
std::vector<EdgeUpdate> MakeScript(const Fragmentation& frag, uint64_t seed) {
  const Graph& g = frag.graph();
  std::map<std::pair<NodeId, NodeId>, size_t> multiplicity;
  for (const Edge& e : g.edges()) ++multiplicity[{e.src, e.dst}];
  std::vector<EdgeId> candidates;
  for (EdgeId id = 0; id < g.NumEdges(); ++id) {
    const Edge& e = g.edge(id);
    if (multiplicity[{e.src, e.dst}] == 1) candidates.push_back(id);
  }
  if (candidates.empty()) Die("graph has no edge usable by the script");
  Rng rng(seed ^ 0x5c415eedULL);
  std::vector<EdgeUpdate> script;
  script.reserve(kScriptLength + 1);
  while (script.size() < kScriptLength) {
    const EdgeId id = candidates[rng.NextBounded(candidates.size())];
    const Edge& e = g.edge(id);
    if (rng.NextBool(kDeleteReinsertShare)) {
      script.push_back(EdgeUpdate::Delete(e.src, e.dst));
      script.push_back(EdgeUpdate::Insert(e.src, e.dst, e.weight,
                                          frag.fragment_of_edge()[id]));
    } else {
      script.push_back(
          EdgeUpdate::Reweight(e.src, e.dst, e.weight * rng.NextDouble(0.5, 2.0)));
    }
  }
  return script;
}

/// The benchmark's own copy of the graph after the first `count` script
/// operations.
Graph ApplyScript(const Graph& g, const std::vector<EdgeUpdate>& script,
                  size_t count) {
  std::map<std::pair<NodeId, NodeId>, size_t> index;
  for (EdgeId id = 0; id < g.NumEdges(); ++id) {
    index[{g.edge(id).src, g.edge(id).dst}] = id;
  }
  std::vector<Edge> edges = g.edges();
  std::vector<char> present(edges.size(), 1);
  for (size_t k = 0; k < count; ++k) {
    const EdgeUpdate& u = script[k];
    const size_t id = index.at({u.src, u.dst});
    switch (u.kind) {
      case EdgeUpdate::Kind::kReweight:
      case EdgeUpdate::Kind::kInsert:
        edges[id].weight = u.weight;
        present[id] = 1;
        break;
      case EdgeUpdate::Kind::kDelete:
        present[id] = 0;
        break;
    }
  }
  GraphBuilder builder(g.NumNodes());
  for (size_t id = 0; id < edges.size(); ++id) {
    if (present[id]) builder.AddEdge(edges[id].src, edges[id].dst, edges[id].weight);
  }
  return builder.Build();
}

/// Whole-graph Dijkstra answers for `pairs`, one search per distinct
/// source, spread over the machine's cores.
std::vector<Weight> Oracle(const Graph& g, const std::vector<Query>& pairs) {
  std::map<NodeId, std::vector<size_t>> by_source;
  for (size_t i = 0; i < pairs.size(); ++i) by_source[pairs[i].from].push_back(i);
  std::vector<std::pair<NodeId, const std::vector<size_t>*>> work;
  for (const auto& [source, indices] : by_source) work.emplace_back(source, &indices);
  std::vector<Weight> expected(pairs.size(), kInfinity);
  std::atomic<size_t> next{0};
  auto run = [&] {
    for (size_t k; (k = next.fetch_add(1)) < work.size();) {
      const ShortestPaths sp = Dijkstra(g, work[k].first);
      for (size_t i : *work[k].second) expected[i] = sp.distance[pairs[i].to];
    }
  };
  std::vector<std::thread> threads;
  const size_t n = std::max(1u, std::thread::hardware_concurrency());
  for (size_t t = 0; t < n; ++t) threads.emplace_back(run);
  for (std::thread& t : threads) t.join();
  return expected;
}

bool SameCost(Weight got, Weight want) {
  if (got == want) return true;
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

// ---------------------------------------------------------------------------
// Operation accounting: every read and update counts as attempted; a
// reply carrying an error is failed (or refused, when the server turned it
// away as shutting down); a value that differs from the oracle is wrong.

struct Accounting {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<uint64_t> wrong{0};

  void Error(const Status& status) {
    if (status.code() == StatusCode::kFailedPrecondition) {
      refused.fetch_add(1);
    } else {
      failed.fetch_add(1);
    }
    if (failed.load() + refused.load() <= 5) {
      std::fprintf(stderr, "perfbench_driver: request failed: %s\n",
                   status.ToString().c_str());
    }
  }
  void Read(const Result<Weight>& r, const Weight* want, const Query& q) {
    attempted.fetch_add(1);
    if (!r.ok()) return Error(r.status());
    if (want != nullptr && !SameCost(r.value(), *want)) {
      if (wrong.fetch_add(1) < 5) {
        std::fprintf(stderr,
                     "perfbench_driver: WRONG answer %u -> %u: got %.17g, "
                     "oracle %.17g\n",
                     q.from, q.to, r.value(), *want);
      }
    }
  }
};

/// A shared, wrapping cursor over a pre-generated pair list; `expected`
/// (parallel to `pairs`) is null when answers are not checked.
struct Feed {
  const std::vector<Query>* pairs = nullptr;
  const std::vector<Weight>* expected = nullptr;
  std::atomic<size_t> next{0};

  size_t Take() { return next.fetch_add(1) % pairs->size(); }
  const Query& pair(size_t i) const { return (*pairs)[i]; }
  const Weight* want(size_t i) const {
    return expected != nullptr ? &(*expected)[i] : nullptr;
  }
};

// ---------------------------------------------------------------------------
// The server process and its control channel.

class ServerProcess {
 public:
  static std::unique_ptr<ServerProcess> Start(
      const std::vector<std::string>& args) {
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0) {
      Die("pipe failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    if (rc != 0) Die("cannot start " + args[0] + ": " + std::strerror(rc));
    std::unique_ptr<ServerProcess> p(new ServerProcess(
        pid, fdopen(to_child[1], "w"), fdopen(from_child[0], "r")));
    const std::string ready = p->ReadLine();
    unsigned port = 0;
    double open_ms = 0.0;
    if (std::sscanf(ready.c_str(), "ready port=%u open_ms=%lf", &port,
                    &open_ms) != 2) {
      Die("server did not start: '" + ready + "'");
    }
    p->port_ = static_cast<uint16_t>(port);
    p->open_ms_ = open_ms;
    return p;
  }

  ~ServerProcess() {
    if (to_ != nullptr) std::fclose(to_);
    if (from_ != nullptr) std::fclose(from_);
    Reap();
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  double open_ms() const { return open_ms_; }

  /// Sends one command and returns the one-line reply.
  std::string Command(const std::string& command) {
    std::fprintf(to_, "%s\n", command.c_str());
    std::fflush(to_);
    return ReadLine();
  }

  /// Stops the stack and returns its final counters (JSON).
  std::string Quit() {
    const std::string bye = Command("quit");
    std::fclose(to_);
    to_ = nullptr;
    Reap();
    if (bye.rfind("bye ", 0) != 0) Die("server did not stop cleanly: '" + bye + "'");
    if (!WIFEXITED(status_) || WEXITSTATUS(status_) != 0) {
      Die("server exited with status " + std::to_string(status_));
    }
    return bye.substr(4);
  }

 private:
  ServerProcess(pid_t pid, FILE* to, FILE* from)
      : pid_(pid), to_(to), from_(from) {}

  std::string ReadLine() {
    char* line = nullptr;
    size_t cap = 0;
    const ssize_t n = getline(&line, &cap, from_);
    std::string out = n > 0 ? std::string(line, static_cast<size_t>(n)) : "";
    std::free(line);
    while (!out.empty() && out.back() == '\n') out.pop_back();
    return out;
  }

  /// Waits for the process, killing it if it has not exited in 20 s.
  void Reap() {
    if (pid_ <= 0) return;
    for (int i = 0; i < 2000; ++i) {
      if (waitpid(pid_, &status_, WNOHANG) == pid_) {
        pid_ = 0;
        return;
      }
      usleep(10'000);
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status_, 0);
    pid_ = 0;
  }

  pid_t pid_ = 0;
  FILE* to_ = nullptr;
  FILE* from_ = nullptr;
  int status_ = 0;
  uint16_t port_ = 0;
  double open_ms_ = 0.0;
};

std::unique_ptr<Client> Connect(uint16_t port) {
  Result<std::unique_ptr<Client>> c = Client::Connect("127.0.0.1", port);
  if (!c.ok()) Die("connect: " + c.status().ToString());
  return std::move(c).value();
}

// ---------------------------------------------------------------------------
// Load loops. Each runs on its own thread with its own connection.

/// Pipelined closed loop: keeps kBulkDepth requests in flight until `end`,
/// recording when each answer arrived (ns after `start`).
void BulkLoop(Client* client, Feed* feed, Accounting* acct, int64_t start,
              int64_t end, std::vector<int64_t>* done_ns) {
  std::deque<std::pair<size_t, std::future<Result<Weight>>>> inflight;
  auto submit = [&] {
    const size_t i = feed->Take();
    inflight.emplace_back(
        i, client->SubmitShortestPath(feed->pair(i).from, feed->pair(i).to));
  };
  for (size_t d = 0; d < kBulkDepth; ++d) submit();
  while (!inflight.empty()) {
    const size_t i = inflight.front().first;
    const Result<Weight> r = inflight.front().second.get();
    inflight.pop_front();
    const int64_t now = NowNs();
    acct->Read(r, feed->want(i), feed->pair(i));
    if (now < end) {
      if (now >= start) done_ns->push_back(now - start);
      submit();
    }
  }
}

/// Interactive closed loop: one blocking call at a time until `end`, each
/// followed by a seeded random pause of up to one coalescing window, so
/// that the callers do not phase-lock against the service's flush timer
/// (two lock-stepped callers settle into either of two latency modes).
/// Records (start, latency) per call.
template <typename CallFn>
void CallerLoop(CallFn call, const char* span_name, Feed* feed,
                Accounting* acct, int64_t end, uint64_t seed,
                std::vector<std::pair<int64_t, int64_t>>* latency_ns,
                std::vector<Span>* spans, std::atomic<uint64_t>* request_ids) {
  Rng rng(seed);
  while (NowNs() < end) {
    const size_t i = feed->Take();
    const Query& q = feed->pair(i);
    const int64_t t0 = NowNs();
    const Result<Weight> r = call(q);
    const int64_t t1 = NowNs();
    latency_ns->emplace_back(t0, t1 - t0);
    acct->Read(r, feed->want(i), q);
    if (spans != nullptr) {
      Span s;
      s.name = span_name;
      s.request = request_ids->fetch_add(1);
      s.id = s.request;
      s.start_ns = t0;
      s.end_ns = t1;
      s.attrs = "pair=" + std::to_string(q.from) + ":" + std::to_string(q.to);
      spans->push_back(std::move(s));
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        static_cast<int64_t>(rng.NextDouble() * kMaxThinkNs)));
  }
}

/// The updater: sends script operations one at a time, waiting for each
/// epoch ack, then pausing. Stops at `stop` or at the first failure.
struct UpdaterResult {
  std::vector<int64_t> latency_ns;
  size_t acked = 0;
  bool epochs_monotonic = true;
  uint64_t last_epoch = 0;
};

template <typename SubmitFn>
void RunScript(SubmitFn submit, const std::vector<EdgeUpdate>& script,
               const std::atomic<bool>* stop, Accounting* acct,
               UpdaterResult* out) {
  for (size_t k = 0; k < script.size() && !stop->load(); ++k) {
    const int64_t t0 = NowNs();
    const Result<uint64_t> r = submit(script[k]);
    const int64_t t1 = NowNs();
    acct->attempted.fetch_add(1);
    if (!r.ok()) {
      acct->Error(r.status());
      return;
    }
    out->latency_ns.push_back(t1 - t0);
    if (r.value() < out->last_epoch) out->epochs_monotonic = false;
    out->last_epoch = r.value();
    out->acked = k + 1;
    std::this_thread::sleep_for(std::chrono::nanoseconds(kUpdatePauseNs));
  }
}

void UpdaterLoop(Client* client, const std::vector<EdgeUpdate>* script,
                 const std::atomic<bool>* stop, Accounting* acct,
                 UpdaterResult* out) {
  RunScript([&](const EdgeUpdate& u) { return client->SubmitUpdate(u).get(); },
            *script, stop, acct, out);
}

/// Pipelined, count-bounded: answers the feed's first `count` pairs
/// (shared with the other warm-up connections), so every run starts its
/// measured phases from the same cache population.
void WarmLoop(Client* client, Feed* feed, size_t count, Accounting* acct) {
  std::deque<std::pair<size_t, std::future<Result<Weight>>>> inflight;
  auto submit = [&] {
    const size_t i = feed->next.fetch_add(1);
    if (i >= count) return false;
    inflight.emplace_back(
        i, client->SubmitShortestPath(feed->pair(i).from, feed->pair(i).to));
    return true;
  };
  for (size_t d = 0; d < kBulkDepth && submit(); ++d) {
  }
  while (!inflight.empty()) {
    const size_t i = inflight.front().first;
    acct->Read(inflight.front().second.get(), feed->want(i), feed->pair(i));
    inflight.pop_front();
    submit();
  }
}

/// After the script's last ack: applies the acked prefix to the
/// benchmark's own copy of the graph and asks `check_pairs` over the wire.
/// Returns the number of wrong answers (also counted in `acct`).
size_t CheckScript(Client* client, const Graph& graph,
                   const std::vector<EdgeUpdate>& script, size_t acked,
                   const std::vector<Query>& check_pairs, Accounting* acct) {
  const Graph final_graph = ApplyScript(graph, script, acked);
  const std::vector<Weight> expected = Oracle(final_graph, check_pairs);
  std::vector<std::future<Result<Weight>>> futures;
  for (const Query& q : check_pairs) {
    futures.push_back(client->SubmitShortestPath(q.from, q.to));
  }
  const uint64_t wrong_before = acct->wrong.load();
  for (size_t i = 0; i < futures.size(); ++i) {
    acct->Read(futures[i].get(), &expected[i], check_pairs[i]);
  }
  return acct->wrong.load() - wrong_before;
}

/// The callers' latencies merged into the order the calls started.
std::vector<int64_t> InTimeOrder(
    const std::vector<std::vector<std::pair<int64_t, int64_t>>>& per_caller) {
  std::vector<std::pair<int64_t, int64_t>> all;
  for (const auto& v : per_caller) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  std::vector<int64_t> latency;
  for (const auto& [start, ns] : all) latency.push_back(ns);
  return latency;
}

void SleepUntil(int64_t t) {
  const int64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

// ---------------------------------------------------------------------------
// Raw-output JSON.

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T>
std::string List(const std::vector<T>& values, double scale = 1.0) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += Num(static_cast<double>(values[i]) * scale);
  }
  return out + "]";
}

template <typename T>
std::string Lists(const std::vector<std::vector<T>>& lists, double scale = 1.0) {
  std::string out = "[";
  for (size_t i = 0; i < lists.size(); ++i) {
    out += (i > 0 ? ", " : "") + List(lists[i], scale);
  }
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + json;
    return *this;
  }
  JsonObject& Set(const std::string& key, double v) { return Raw(key, Num(v)); }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) out += (i > 0 ? ", " : "") + items[i];
  return out;
}

std::string Phase(int64_t start, int64_t end) {
  return JsonObject().Set("start_ns", start).Set("end_ns", end).str();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--server PATH --workdir DIR --out RAW.json\n",
                 argv[0]);
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (flags.workload == w.name) found = &w;
  }
  if (found == nullptr) Die("unknown workload '" + flags.workload + "'");
  const Workload& w = *found;
  const double S = flags.seconds;
  const std::string db_path = flags.workdir + "/db.tcfdb";

  // --- Build: fragment + complementary precompute + save. The first build
  // makes the database and the fragmentation the inputs are drawn from;
  // it is repeated before every server start below (each time rewriting
  // the same file while no server runs), so that the reported build time
  // is a median over builds spread across the run.
  const TransportationGraph tg = MakeGraph(w);
  const Graph& graph = tg.graph;
  std::vector<double> fragment_s, complementary_s, save_s;
  size_t comp_searches = 0;
  size_t comp_tuples = 0;
  std::vector<size_t> shortcut_tuples;
  auto build = [&] {
    const int64_t t0 = NowNs();
    auto f = std::make_unique<Fragmentation>(Fragment(w, graph));
    const int64_t t1 = NowNs();
    const DsaDatabase db(f.get());
    const int64_t t2 = NowNs();
    const Status saved = SaveDatabase(db, db_path);
    const int64_t t3 = NowNs();
    if (!saved.ok()) Die("save: " + saved.ToString());
    fragment_s.push_back((t1 - t0) / 1e9);
    complementary_s.push_back((t2 - t1) / 1e9);
    save_s.push_back((t3 - t2) / 1e9);
    comp_searches = db.complementary().searches;
    comp_tuples = db.complementary().total_tuples;
    shortcut_tuples.clear();
    for (const Relation& r : db.complementary().shortcuts) {
      shortcut_tuples.push_back(r.size());
    }
    return f;
  };
  const std::unique_ptr<Fragmentation> frag = build();
  struct stat st{};
  if (stat(db_path.c_str(), &st) != 0) Die("stat " + db_path);
  const FragmentationCharacteristics chars = ComputeCharacteristics(*frag);
  // Each fragment's shortcut blob (u64 count + 16 bytes per tuple) starts
  // on its own page (docs/STORAGE.md).
  const size_t payload = PagePayloadCapacity(kDefaultPageSize);
  size_t shortcut_pages = 0;
  for (size_t t : shortcut_tuples) shortcut_pages += (8 + 16 * t + payload - 1) / payload;
  // paged-wide-ds: the pool holds at most a quarter of the shortcut pages.
  const size_t budget_bytes =
      w.paged ? std::max<size_t>(2, shortcut_pages / 4) * kDefaultPageSize : 0;

  // --- Operations, all from the seed.
  WorkloadSpec spec;
  spec.mix = w.mix;
  spec.num_queries = kWarmupPairs + kMeasuredPairs;
  spec.num_hot_pairs = kHotPairs;
  spec.hot_fraction = kHotFraction;
  spec.hot_reverse_fraction = kHotReverseFraction;
  Rng pair_rng(flags.seed * 0x9e3779b97f4a7c15ULL + 1);
  const std::vector<Query> all_pairs = GenerateWorkload(*frag, spec, &pair_rng);
  const std::vector<Query> warm_pairs(all_pairs.begin(),
                                      all_pairs.begin() + kWarmupPairs);
  const std::vector<Query> pairs(all_pairs.begin() + kWarmupPairs,
                                 all_pairs.end());
  const std::vector<EdgeUpdate> script = MakeScript(*frag, flags.seed);
  std::vector<Query> check_pairs;
  Rng check_rng(flags.seed * 0x9e3779b97f4a7c15ULL + 2);
  for (size_t i = 0; i < kCheckPairs; ++i) {
    check_pairs.push_back(Query{
        static_cast<NodeId>(check_rng.NextBounded(graph.NumNodes())),
        static_cast<NodeId>(check_rng.NextBounded(graph.NumNodes()))});
  }
  // Oracle answers, outside every timed phase. Reads racing the update
  // script (hot-readwrite) may answer from any epoch current during their
  // window, so only their failures are counted; the script's effect is
  // checked on the check sample after the last ack.
  const std::vector<Weight> warm_expected = Oracle(graph, warm_pairs);
  // The query that times each server start is the same in every run, so
  // that setup_s does not depend on how costly a seed's first pair is
  // (on paged-wide-ds a cold query alone ranges over 5-35 ms).
  const Query setup_query{0, 1};
  const Weight setup_expected = Oracle(graph, {setup_query})[0];
  std::vector<Weight> expected;
  if (!w.updates_during_reads) expected = Oracle(graph, pairs);

  Accounting acct;
  Feed warm_feed;
  warm_feed.pairs = &warm_pairs;
  warm_feed.expected = &warm_expected;
  Feed feed;
  feed.pairs = &pairs;
  feed.expected = w.updates_during_reads ? nullptr : &expected;

  std::vector<std::string> base_args = {flags.server, "--db", db_path};
  if (w.paged) {
    base_args.push_back("--budget-bytes");
    base_args.push_back(std::to_string(budget_bytes));
  }
  auto server_args = [&](const std::string& spans) {
    std::vector<std::string> args = base_args;
    if (flags.trace) args.insert(args.end(), {"--spans", spans});
    return args;
  };
  const std::string server_spans = flags.workdir + "/server_spans.tsv";
  const std::string update_spans = flags.workdir + "/update_spans.tsv";
  auto warm_up = [&](uint16_t port, size_t count) {
    warm_feed.next = 0;
    std::vector<std::unique_ptr<Client>> warm_clients;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kBulkConnections; ++c) {
      warm_clients.push_back(Connect(port));
      threads.emplace_back(WarmLoop, warm_clients.back().get(), &warm_feed,
                           count, &acct);
    }
    for (std::thread& t : threads) t.join();
  };

  const double bulk_s = (w.updates_during_reads ? 0.5 : 0.3) * S;
  const double inter_s = (w.updates_during_reads ? 0.5 : 0.35) * S;
  const double update_s = w.updates_during_reads ? 0.0 : 0.35 * S;
  const size_t rounds = flags.trace ? 1 : kRounds;
  // Untraced runs precede every server start with an update slice. The
  // traced run has one slice, before its round: a server writes its span
  // file when it exits, one server per file.
  const size_t starts_per_slice = flags.trace ? kSetupStarts : 1;
  const size_t update_slices = kSetupStarts / starts_per_slice;
  std::vector<std::vector<int64_t>> update_ns;  // per round
  size_t check_wrong = 0;
  bool epochs_monotonic = true;
  size_t script_acked = 0;
  std::vector<std::string> update_counters;

  // Streams the script from its start while `until_done` runs, then checks
  // its effect on the acked prefix (each server opens the original
  // database, since epochs never write the file back) and keeps the
  // round's latencies.
  auto stream_script = [&](uint16_t port, auto&& until_done) {
    UpdaterResult round_updates;
    std::atomic<bool> stop{false};
    std::unique_ptr<Client> client = Connect(port);
    std::thread updater(UpdaterLoop, client.get(), &script, &stop, &acct,
                        &round_updates);
    until_done();
    stop = true;
    updater.join();
    check_wrong += CheckScript(client.get(), graph, script,
                               round_updates.acked, check_pairs, &acct);
    update_ns.push_back(std::move(round_updates.latency_ns));
    epochs_monotonic = epochs_monotonic && round_updates.epochs_monotonic;
    script_acked += round_updates.acked;
  };

  // One update slice of the read-only workloads: the updater alone, on a
  // fresh server of its own with a warm, small plan cache. The slices are
  // spread over the run, so the update latencies come from many processes
  // and many stretches of the shared machine's time: an epoch's cost is
  // bimodal (about 3 and 4 ms on uniform-resident), its mix varies between
  // processes and with outside load, and the p50 lies between the modes.
  auto update_slice = [&] {
    std::unique_ptr<ServerProcess> server =
        ServerProcess::Start(server_args(update_spans));
    warm_up(server->port(), kUpdateWarmupPairs);
    if (flags.trace) server->Command("trace on");
    const int64_t slice_end =
        NowNs() + static_cast<int64_t>(update_s * 1e9 / update_slices);
    stream_script(server->port(), [&] { SleepUntil(slice_end); });
    update_counters.push_back(server->Quit());
  };

  // --- Set-up and the measured rounds. Every server start is timed from
  // process start to the first answer over the wire, after a few repeated
  // builds and, on the read-only workloads, an update slice; every third
  // server then serves one round of the read phases (warm-up, bulk,
  // interactive). Builds, update slices, starts and rounds are thus spread
  // over the whole run, so a stretch of outside load on the shared machine
  // sets a few of each, not all of them, and one server process that
  // happens to schedule badly sets one round. The traced run uses one
  // round (the last start), split into the traced and untraced bulk
  // windows.
  const size_t windows = flags.trace ? std::size(kTracedWindows) : 1;
  const int64_t window_ns =
      static_cast<int64_t>(bulk_s * 1e9 / static_cast<double>(rounds * windows));
  const int64_t inter_ns = static_cast<int64_t>(inter_s * 1e9 / rounds);
  std::vector<double> setup_s, open_ms;
  std::vector<std::string> server_counters;
  std::vector<std::vector<int64_t>> bulk_done;  // per round, ns after its start
  std::vector<std::vector<int64_t>> rpc_ns;  // per round, in start order
  std::vector<std::vector<Span>> rpc_spans(kCallers);
  std::vector<std::string> snapshots;  // server counters at window edges
  std::atomic<uint64_t> request_ids{1};
  int64_t bulk_start = 0;
  int64_t inter_start = 0;
  int64_t inter_end = 0;
  const size_t starts_per_round = kSetupStarts / rounds;
  for (size_t k = 0; k < kSetupStarts; ++k) {
    const int64_t builds_end = NowNs() + kBuildNsPerStart;
    while (NowNs() < builds_end) build();
    const bool serves = (k + 1) % starts_per_round == 0;
    if (!w.updates_during_reads && (k + 1) % starts_per_slice == 0) {
      update_slice();
    }
    const int64_t t0 = NowNs();
    std::unique_ptr<ServerProcess> server =
        ServerProcess::Start(server_args(server_spans));
    {
      std::unique_ptr<Client> client = Connect(server->port());
      const Result<Weight> first =
          client->ShortestPathCost(setup_query.from, setup_query.to);
      const int64_t t1 = NowNs();
      acct.Read(first, &setup_expected, setup_query);
      setup_s.push_back((t1 - t0) / 1e9);
      open_ms.push_back(server->open_ms());
    }
    if (!serves) {
      server->Quit();
      continue;
    }
    const uint16_t port = server->port();

    // Warm-up (untimed): caches, lazy indexes and the pool fill.
    warm_up(port, kWarmupPairs);

    auto snapshot = [&] {
      const std::string line = server->Command("stats");
      if (line.rfind("stats ", 0) != 0) Die("bad stats reply: " + line);
      snapshots.push_back(line.substr(6));
    };
    auto read_phases = [&] {
      // Bulk: kBulkConnections pipelined connections.
      bulk_start = NowNs();
      const int64_t bulk_end =
          bulk_start + window_ns * static_cast<int64_t>(windows);
      std::vector<std::vector<int64_t>> done(kBulkConnections);
      {
        std::vector<std::unique_ptr<Client>> clients;
        std::vector<std::thread> threads;
        for (size_t c = 0; c < kBulkConnections; ++c) {
          clients.push_back(Connect(port));
          threads.emplace_back(BulkLoop, clients.back().get(), &feed, &acct,
                               bulk_start, bulk_end, &done[c]);
        }
        if (flags.trace) {
          for (size_t win = 0; win < windows; ++win) {
            SleepUntil(bulk_start + window_ns * static_cast<int64_t>(win));
            snapshot();
            server->Command(kTracedWindows[win] ? "trace on" : "trace off");
          }
          SleepUntil(bulk_end);
          snapshot();
          server->Command("trace on");
        }
        for (std::thread& t : threads) t.join();
      }
      std::vector<int64_t> round_done;
      for (const auto& v : done) {
        round_done.insert(round_done.end(), v.begin(), v.end());
      }
      std::sort(round_done.begin(), round_done.end());
      bulk_done.push_back(std::move(round_done));

      // Interactive: kCallers blocking callers.
      inter_start = NowNs();
      inter_end = inter_start + inter_ns;
      std::vector<std::vector<std::pair<int64_t, int64_t>>> round_rpc(kCallers);
      std::vector<std::unique_ptr<Client>> clients;
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kCallers; ++c) {
        clients.push_back(Connect(port));
        Client* client = clients.back().get();
        threads.emplace_back([&, c, client] {
          CallerLoop(
              [client](const Query& q) {
                return client->ShortestPathCost(q.from, q.to);
              },
              "net.rpc", &feed, &acct, inter_end,
              flags.seed * 1000 + k * kCallers + c, &round_rpc[c],
              flags.trace ? &rpc_spans[c] : nullptr, &request_ids);
        });
      }
      for (std::thread& t : threads) t.join();
      rpc_ns.push_back(InTimeOrder(round_rpc));
    };

    // hot-readwrite: the updater streams the script from its start through
    // both read phases of the round.
    if (w.updates_during_reads) {
      stream_script(port, read_phases);
    } else {
      read_phases();
    }
    server_counters.push_back(server->Quit());
  }

  // --- In-process repeat of the interactive loop (traced run only):
  // QueryService::SubmitShortestPath -> future, same callers, same backend.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> inproc_ns(kCallers);
  const std::string inproc_spans = flags.workdir + "/inproc_spans.tsv";
  const std::string driver_spans = flags.workdir + "/driver_spans.tsv";
  int64_t inproc_start = 0;
  int64_t inproc_end = 0;
  uint64_t inproc_mismatches = 0;
  if (flags.trace) {
    OpenOptions open_options;
    if (w.paged) {
      open_options.mode = OpenMode::kPaged;
      open_options.memory_budget_bytes = budget_bytes;
    }
    Result<std::unique_ptr<MaintainedDatabase>> opened =
        OpenMaintainedDatabase(db_path, open_options);
    if (!opened.ok()) Die("in-process open: " + opened.status().ToString());
    std::unique_ptr<MaintainedDatabase> mdb = std::move(opened).value();
    SpanLog log;
    perfbench::TracingBackend tracer(mdb.get(), &log);
    QueryService service(&tracer, perfbench::TcfragdServiceOptions());
    const std::vector<Query> warm_batch(warm_pairs.begin(),
                                        warm_pairs.begin() + kBulkDepth);
    for (auto& f : service.SubmitBatch(warm_batch)) f.get();
    tracer.set_enabled(true);

    std::vector<std::vector<Span>> call_spans(kCallers);
    std::atomic<bool> stop{false};
    UpdaterResult inproc_updates;
    std::thread inproc_updater;
    if (w.updates_during_reads) {
      inproc_updater = std::thread([&] {
        RunScript(
            [&](const EdgeUpdate& u) -> Result<uint64_t> {
              try {
                return service.SubmitUpdate(u).get();
              } catch (const std::exception& e) {
                return Status::Internal(e.what());
              }
            },
            script, &stop, &acct, &inproc_updates);
      });
    }
    inproc_start = NowNs();
    inproc_end = inproc_start + static_cast<int64_t>(0.5 * inter_s * 1e9);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kCallers; ++c) {
      threads.emplace_back([&, c] {
        CallerLoop(
            [&service](const Query& q) -> Result<Weight> {
              try {
                return service.SubmitShortestPath(q.from, q.to).get();
              } catch (const std::exception& e) {
                return Status::Internal(e.what());
              }
            },
            "service.call", &feed, &acct, inproc_end, flags.seed * 1000 + 999 - c,
            &inproc_ns[c], &call_spans[c], &request_ids);
      });
    }
    for (std::thread& t : threads) t.join();
    stop.store(true);
    if (inproc_updater.joinable()) inproc_updater.join();
    service.Shutdown();
    inproc_mismatches = tracer.replay_mismatches();
    if (!log.WriteTsv(inproc_spans)) Die("cannot write " + inproc_spans);
    SpanLog client_log;
    for (auto& spans : rpc_spans) client_log.AddAll(std::move(spans));
    for (auto& spans : call_spans) client_log.AddAll(std::move(spans));
    if (!client_log.WriteTsv(driver_spans)) Die("cannot write " + driver_spans);
  }

  // --- Raw results.
  const std::vector<int64_t> inproc_all = InTimeOrder(inproc_ns);
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const ServiceOptions service_options = perfbench::TcfragdServiceOptions();

  JsonObject config;
  config.Str("workload", w.name)
      .Set("seed", static_cast<double>(flags.seed))
      .Set("graph_seed", static_cast<double>(kGraphSeed))
      .Set("seconds", S)
      .Set("nodes", static_cast<double>(graph.NumNodes()))
      .Set("edges", static_cast<double>(graph.NumEdges()))
      .Set("clusters", static_cast<double>(w.clusters))
      .Set("link_edges", static_cast<double>(w.link_edges > 0 ? w.link_edges : 2))
      .Str("fragmenter", w.center_based ? "center-based, distributed centers"
                                        : "linear")
      .Set("fragments", static_cast<double>(frag->NumFragments()))
      .Set("disconnection_sets", static_cast<double>(chars.num_disconnection_sets))
      .Set("avg_ds_nodes", chars.avg_ds_nodes)
      .Set("border_nodes", static_cast<double>(chars.total_border_nodes))
      .Set("shortcut_tuples", static_cast<double>(comp_tuples))
      .Set("shortcut_pages", static_cast<double>(shortcut_pages))
      .Set("page_size", static_cast<double>(kDefaultPageSize))
      .Str("open_mode", w.paged ? "paged" : "resident")
      .Set("pool_frames", static_cast<double>(w.paged ? budget_bytes / kDefaultPageSize : 0))
      .Set("pool_budget_bytes", static_cast<double>(budget_bytes))
      .Str("mix", WorkloadMixName(w.mix))
      .Set("hot_pairs", w.mix == WorkloadMix::kHotPair ? kHotPairs : 0)
      .Set("max_batch", static_cast<double>(service_options.max_batch))
      .Set("max_wait_ms", service_options.max_wait.count() / 1e3)
      .Set("flush_workers", static_cast<double>(nproc))
      .Set("admission_shards",
           static_cast<double>(service_options.admission_shards))
      .Set("queue_capacity", static_cast<double>(service_options.queue_capacity))
      .Set("bulk_connections", static_cast<double>(kBulkConnections))
      .Set("bulk_depth", static_cast<double>(kBulkDepth))
      .Set("callers", static_cast<double>(kCallers))
      .Set("max_think_ms", kMaxThinkNs / 1e6)
      .Set("update_pause_ms", kUpdatePauseNs / 1e6)
      .Str("updates", w.updates_during_reads
                          ? "during both read phases"
                          : "alone, in " + std::to_string(update_slices) +
                                " slices, each on a fresh server of its own "
                                "before a server start")
      .Set("bulk_s", bulk_s)
      .Set("interactive_s", inter_s)
      .Set("update_s", update_s)
      .Set("builds", static_cast<double>(fragment_s.size()))
      .Set("setup_starts", static_cast<double>(kSetupStarts))
      .Set("rounds", static_cast<double>(rounds))
      .Set("replay_every", static_cast<double>(perfbench::kReplayEvery))
      .Set("nproc", static_cast<double>(nproc));

  std::string window_flags = "[";
  for (size_t k = 0; k < windows; ++k) {
    window_flags += (k > 0 ? ", " : "");
    window_flags += (flags.trace && kTracedWindows[k]) ? "true" : "false";
  }
  window_flags += "]";

  JsonObject raw;
  raw.Raw("config", config.str())
      .Raw("build", JsonObject()
                        .Raw("fragment_s", List(fragment_s))
                        .Raw("complementary_s", List(complementary_s))
                        .Raw("save_s", List(save_s))
                        .Set("searches", static_cast<double>(comp_searches))
                        .Set("tuples", static_cast<double>(comp_tuples))
                        .str())
      .Set("db_bytes", static_cast<double>(st.st_size))
      .Raw("setup_s", List(setup_s))
      .Raw("open_ms", List(open_ms))
      .Raw("bulk", JsonObject()
                       .Set("start_ns", bulk_start)
                       .Set("window_s", window_ns / 1e9)
                       .Raw("done_s", Lists(bulk_done, 1e-9))
                       .Raw("traced", window_flags)
                       .str())
      .Raw("interactive", Phase(inter_start, inter_end))

      .Raw("rpc_s", Lists(rpc_ns, 1e-9))
      .Raw("update_s", Lists(update_ns, 1e-9))
      .Raw("ops", JsonObject()
                      .Set("attempted", acct.attempted.load())
                      .Set("failed", acct.failed.load())
                      .Set("refused", acct.refused.load())
                      .Set("wrong", acct.wrong.load())
                      .str())
      .Raw("checks", JsonObject()
                         .Set("script_acked", script_acked)
                         .Set("check_pairs", check_pairs.size())
                         .Set("check_wrong", check_wrong)
                         .Raw("epochs_monotonic",
                              epochs_monotonic ? "true" : "false")
                         .Set("inproc_replay_mismatches", inproc_mismatches)
                         .str())
      .Raw("servers_final", "[" + Join(server_counters) + "]")
      .Raw("update_servers_final", "[" + Join(update_counters) + "]");
  if (flags.trace) {
    raw.Raw("snapshots", "[" + Join(snapshots) + "]")
        .Raw("inproc", Phase(inproc_start, inproc_end))
        .Raw("inproc_s", List(inproc_all, 1e-9))
        .Str("server_spans", server_spans)
        .Str("update_spans", w.updates_during_reads ? "" : update_spans)
        .Str("inproc_spans", inproc_spans)
        .Str("driver_spans", driver_spans);
  }
  std::FILE* out = std::fopen(flags.out.c_str(), "w");
  if (out == nullptr) Die("cannot write " + flags.out);
  std::fprintf(out, "%s\n", raw.str().c_str());
  if (std::fclose(out) != 0) Die("cannot write " + flags.out);
  return 0;
}
