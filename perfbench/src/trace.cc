#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "dsa/executor.h"

namespace perfbench {

using namespace tcf;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void SpanLog::AddAll(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Span& span : spans) spans_.push_back(std::move(span));
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%lld\t%lld\t%s\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.attrs.c_str());
  }
  return std::fclose(f) == 0;
}

namespace {

bool SameAnswer(const Result<Weight>& a, bool b_ok, Weight b) {
  if (a.ok() != b_ok) return false;
  if (!b_ok) return true;
  const Weight x = a.value();
  if (x == b) return true;  // also covers both infinite
  // Reverse-instantiated interned plans may sum a chain in the other
  // order, so allow for rounding.
  return std::abs(x - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

}  // namespace

ServiceOptions TcfragdServiceOptions() {
  ServiceOptions options;
  options.max_batch = 64;
  options.flush_workers = 0;
  options.admission_shards = 4;
  return options;
}

TracingBackend::TracingBackend(MaintainedDatabase* mdb, SpanLog* log)
    : inner_(mdb), mdb_(mdb), log_(log) {}

std::vector<Result<Weight>> TracingBackend::ExecuteBatch(
    const std::vector<Query>& queries) {
  if (!enabled_.load(std::memory_order_acquire)) {
    return inner_.ExecuteBatch(queries);
  }
  const uint64_t n = traced_batches_.fetch_add(1, std::memory_order_relaxed);
  const bool sample = n % kReplayEvery == 0;
  // Every other sample replays before the forwarded call, so neither side
  // of the replay-versus-direct comparison always runs on warmer caches.
  const bool replay_first = sample && (n / kReplayEvery) % 2 == 1;
  DsaSnapshot snap;
  if (sample) snap = mdb_->Snapshot();

  Span span;
  span.name = "batch.execute";
  span.id = log_->NextId();
  ReplayAnswers replayed;
  if (replay_first) replayed = Replay(queries, snap, span.id);
  span.start_ns = NowNs();
  std::vector<Result<Weight>> answers = inner_.ExecuteBatch(queries);
  span.end_ns = NowNs();
  if (sample && !replay_first) replayed = Replay(queries, snap, span.id);
  span.attrs = "n=" + std::to_string(queries.size()) + " pairs=";
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) span.attrs += ',';
    span.attrs += std::to_string(queries[i].from);
    span.attrs += ':';
    span.attrs += std::to_string(queries[i].to);
  }
  log_->Add(std::move(span));

  // With no epoch published since the pin, the forwarded call ran on the
  // replay's snapshot, so their answers must agree.
  if (sample && mdb_->epoch() == snap.epoch) {
    uint64_t mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!SameAnswer(answers[i], replayed.ok[i] != 0, replayed.costs[i])) {
        ++mismatches;
      }
    }
    replay_mismatches_.fetch_add(mismatches, std::memory_order_relaxed);
  }
  return answers;
}

TracingBackend::ReplayAnswers TracingBackend::Replay(
    const std::vector<Query>& queries, const DsaSnapshot& snap,
    uint64_t batch_span) {
  const DsaDatabase& db = *snap.db;
  const Fragmentation& frag = db.fragmentation();
  const DsaOptions& options = db.options();
  ThreadPool* pool = db.pool();
  std::vector<Span> spans;
  Span root;
  root.name = "batch.replay";
  root.id = log_->NextId();
  root.start_ns = NowNs();

  // Stage 1: planning. The database's own plan cache: DsaDatabase keeps
  // it as a mutable member and ChainPlanCache is internally synchronized,
  // so the cast only restores the access BatchExecutor has as a friend.
  std::vector<std::pair<NodeId, NodeId>> endpoints;
  endpoints.reserve(queries.size());
  for (const Query& q : queries) endpoints.emplace_back(q.from, q.to);
  ChainPlanCache* cache = const_cast<ChainPlanCache*>(db.plan_cache());
  Span plan_span;
  plan_span.name = "chains.plan";
  plan_span.id = log_->NextId();
  plan_span.parent = root.id;
  plan_span.start_ns = NowNs();
  ParallelPlanResult planned = PlanBatchInParallel(
      frag, endpoints, options.max_chains, cache, pool);
  plan_span.end_ns = NowNs();
  size_t chains = 0;
  size_t planned_queries = 0;
  for (const QueryPlan* plan : planned.plans) {
    if (plan == nullptr) continue;
    chains += plan->chains.size();
    ++planned_queries;
  }
  const std::vector<LocalQuerySpec>& specs = planned.flat.specs;
  plan_span.attrs = "queries=" + std::to_string(planned_queries) +
                    " chains=" + std::to_string(chains) +
                    " specs=" + std::to_string(specs.size());

  // Stage 2: phase 1, one span per keyhole subquery.
  const ComplementaryInfo* comp =
      options.use_complementary ? &db.complementary() : nullptr;
  std::vector<LocalQueryResult> results(specs.size());
  std::vector<int64_t> sub_start(specs.size(), 0);
  std::vector<int64_t> sub_end(specs.size(), 0);
  auto run_one = [&](size_t i) {
    sub_start[i] = NowNs();
    results[i] = RunLocalQuery(frag, comp, specs[i], options.engine);
    sub_end[i] = NowNs();
  };
  Span phase1;
  phase1.name = "local_query.phase1";
  phase1.id = log_->NextId();
  phase1.parent = root.id;
  phase1.start_ns = NowNs();
  if (pool != nullptr) {
    pool->ParallelFor(specs.size(), run_one);
  } else {
    for (size_t i = 0; i < specs.size(); ++i) run_one(i);
  }
  phase1.end_ns = NowNs();
  for (size_t i = 0; i < specs.size(); ++i) {
    Span sub;
    sub.name = "local_query.subquery";
    sub.id = log_->NextId();
    sub.parent = phase1.id;
    sub.start_ns = sub_start[i];
    sub.end_ns = sub_end[i];
    sub.attrs = "frag=" + std::to_string(specs[i].fragment) +
                " settled=" + std::to_string(results[i].stats.iterations);
    spans.push_back(std::move(sub));
  }

  // Stage 3: phase-2 assembly.
  ReplayAnswers out;
  out.costs.assign(queries.size(), 0.0);
  out.ok.assign(queries.size(), 1);
  std::vector<ExecutionReport> reports(queries.size());
  auto assemble_one = [&](size_t i) {
    const Query& q = queries[i];
    if (q.from == q.to) return;
    const QueryAnswer answer =
        AssembleCostAnswer(frag, *planned.plans[i], specs, q.from, q.to,
                           results, &reports[i]);
    out.ok[i] = answer.status.ok() ? 1 : 0;
    out.costs[i] = answer.cost;
  };
  Span assemble;
  assemble.name = "executor.assemble";
  assemble.id = log_->NextId();
  assemble.parent = root.id;
  assemble.start_ns = NowNs();
  if (pool != nullptr) {
    pool->ParallelFor(queries.size(), assemble_one);
  } else {
    for (size_t i = 0; i < queries.size(); ++i) assemble_one(i);
  }
  assemble.end_ns = NowNs();
  size_t join_tuples = 0;
  for (const ExecutionReport& r : reports) join_tuples += r.assembly_join_tuples;
  assemble.attrs = "queries=" + std::to_string(planned_queries) +
                   " join_tuples=" + std::to_string(join_tuples);
  root.end_ns = NowNs();

  root.attrs = "of=" + std::to_string(batch_span) +
               " n=" + std::to_string(queries.size());
  spans.push_back(std::move(root));
  spans.push_back(std::move(plan_span));
  spans.push_back(std::move(phase1));
  spans.push_back(std::move(assemble));
  log_->AddAll(std::move(spans));
  return out;
}

uint64_t TracingBackend::ApplyUpdates(const std::vector<EdgeUpdate>& updates) {
  if (!enabled_.load(std::memory_order_acquire)) {
    return inner_.ApplyUpdates(updates);
  }
  // MaintainedBackend::ApplyUpdates is MaintainedDatabase::ApplyEpoch(..)
  // .epoch; calling ApplyEpoch directly keeps the EpochStats it drops.
  Span span;
  span.name = "maintenance.epoch";
  span.id = log_->NextId();
  span.start_ns = NowNs();
  const EpochStats stats = mdb_->ApplyEpoch(updates);
  span.end_ns = NowNs();
  span.attrs = "updates=" + std::to_string(updates.size()) +
               " published=" + std::to_string(stats.published ? 1 : 0) +
               " structural=" + std::to_string(stats.structural ? 1 : 0) +
               " caches_reset=" + std::to_string(stats.caches_reset ? 1 : 0) +
               " dirty_borders=" + std::to_string(stats.dirty_border_nodes) +
               " reused_borders=" + std::to_string(stats.reused_border_nodes) +
               " plans_kept=" + std::to_string(stats.plans_kept) +
               " plans_dropped=" + std::to_string(stats.plans_dropped);
  log_->Add(std::move(span));
  return stats.epoch;
}

}  // namespace perfbench
