// perfbench_server: the serving stack under test, in its own process.
// It opens a saved database with OpenMaintainedDatabase and serves it
// through a QueryService with tcfragd's service settings
// (perfbench::TcfragdServiceOptions) behind a net::Server on an ephemeral
// loopback port.
//
//   perfbench_server --db PATH [--budget-bytes N] [--spans PATH]
//
// --budget-bytes N (N > 0) opens the database paged with a buffer pool of
// N bytes, which may be below tcfragd's whole-MiB --memory-budget-mb.
// --spans PATH serves through perfbench::TracingBackend (tracing starts
// off) and writes its spans to PATH at exit.
//
// Control channel: after the stack is up it prints
//   ready port=P open_ms=X
// and then answers one line per stdin command:
//   trace on | trace off  -> ok
//   stats                 -> stats {counters as JSON}
//   quit (or end of input) -> bye {counters} after Server::Stop() and
//                            QueryService::Shutdown(), then exits 0.
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "dsa/service.h"
#include "net/server.h"
#include "storage/database_io.h"
#include "trace.h"

using namespace tcf;

namespace {

struct Flags {
  std::string db_path;
  size_t budget_bytes = 0;
  std::string spans_path;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* v = argv[i + 1];
    if (arg == "--db") {
      flags->db_path = v;
    } else if (arg == "--budget-bytes") {
      flags->budget_bytes = std::strtoull(v, nullptr, 10);
    } else if (arg == "--spans") {
      flags->spans_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !flags->db_path.empty();
}

std::string CountersJson(const QueryService& service, const Server& server,
                         const MaintainedDatabase& mdb, PagedFile* paged,
                         const perfbench::TracingBackend* tracer) {
  const ServiceStats s = service.Stats();
  const ServerStats n = server.stats();
  BatchStats b;
  if (tracer != nullptr) b = tracer->cumulative_stats();
  BufferPoolStats p;
  if (paged != nullptr) p = paged->stats();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"service\": {\"submitted\": %zu, \"completed\": %zu, \"rejected\": "
      "%zu, \"batches\": %zu, \"updates\": %zu, \"update_epochs\": %zu}, "
      "\"server\": {\"requests\": %llu, \"replies_ok\": %llu, "
      "\"replies_error\": %llu, \"connections\": %llu, \"dropped\": %llu}, "
      "\"batch\": {\"num_queries\": %zu, \"subqueries_requested\": %zu, "
      "\"subqueries_executed\": %zu, \"plan_cache_hits\": %zu, "
      "\"plan_cache_misses\": %zu, \"plan_memo_hits\": %zu, "
      "\"plan_memo_misses\": %zu, \"interned_plan_hits\": %zu, "
      "\"interned_plan_misses\": %zu, \"plan_seconds\": %.9f, "
      "\"phase1_seconds\": %.9f, \"assemble_seconds\": %.9f}, "
      "\"pool\": {\"hits\": %llu, \"misses\": %llu, \"evictions\": %llu, "
      "\"pin_failures\": %llu}, \"maxrss_kb\": %ld, \"epoch\": %llu, "
      "\"replay_mismatches\": %llu}",
      s.submitted, s.completed, s.rejected, s.batches, s.updates,
      s.update_epochs, static_cast<unsigned long long>(n.requests),
      static_cast<unsigned long long>(n.replies_ok),
      static_cast<unsigned long long>(n.replies_error),
      static_cast<unsigned long long>(n.connections_accepted),
      static_cast<unsigned long long>(n.connections_dropped), b.num_queries,
      b.subqueries_requested, b.subqueries_executed, b.plan_cache_hits,
      b.plan_cache_misses, b.plan_memo_hits, b.plan_memo_misses,
      b.interned_plan_hits, b.interned_plan_misses, b.plan_seconds,
      b.phase1_seconds, b.assemble_seconds,
      static_cast<unsigned long long>(p.hits),
      static_cast<unsigned long long>(p.misses),
      static_cast<unsigned long long>(p.evictions),
      static_cast<unsigned long long>(p.pin_failures), usage.ru_maxrss,
      static_cast<unsigned long long>(mdb.epoch()),
      static_cast<unsigned long long>(
          tracer != nullptr ? tracer->replay_mismatches() : 0));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: %s --db PATH [--budget-bytes N] [--spans PATH]\n",
                 argv[0]);
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);

  OpenOptions open_options;
  if (flags.budget_bytes > 0) {
    open_options.mode = OpenMode::kPaged;
    open_options.memory_budget_bytes = flags.budget_bytes;
  }
  std::shared_ptr<PagedFile> paged;
  const int64_t open_start = perfbench::NowNs();
  Result<std::unique_ptr<MaintainedDatabase>> opened =
      OpenMaintainedDatabase(flags.db_path, open_options, &paged);
  const double open_ms = (perfbench::NowNs() - open_start) / 1e6;
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench_server: open %s: %s\n",
                 flags.db_path.c_str(), opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<MaintainedDatabase> mdb = std::move(opened).value();

  const ServiceOptions service_options = perfbench::TcfragdServiceOptions();

  perfbench::SpanLog spans;
  std::unique_ptr<perfbench::TracingBackend> tracer;
  std::unique_ptr<QueryService> service;
  if (flags.spans_path.empty()) {
    service = std::make_unique<QueryService>(mdb.get(), service_options);
  } else {
    tracer = std::make_unique<perfbench::TracingBackend>(mdb.get(), &spans);
    service = std::make_unique<QueryService>(tracer.get(), service_options);
  }
  Server server(service.get(), ServerOptions{});
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench_server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("ready port=%u open_ms=%.6f\n",
              static_cast<unsigned>(server.port()), open_ms);
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line) && line != "quit") {
    if (line == "trace on" || line == "trace off") {
      if (tracer != nullptr) tracer->set_enabled(line == "trace on");
      std::printf("ok\n");
    } else if (line == "stats") {
      std::printf("stats %s\n", CountersJson(*service, server, *mdb,
                                             paged.get(), tracer.get())
                                    .c_str());
    } else {
      std::printf("error unknown command\n");
    }
    std::fflush(stdout);
  }

  server.Stop();
  service->Shutdown();
  std::printf("bye %s\n",
              CountersJson(*service, server, *mdb, paged.get(), tracer.get())
                  .c_str());
  std::fflush(stdout);
  if (tracer != nullptr && !spans.WriteTsv(flags.spans_path)) {
    std::fprintf(stderr, "perfbench_server: cannot write %s\n",
                 flags.spans_path.c_str());
    return 1;
  }
  return 0;
}
