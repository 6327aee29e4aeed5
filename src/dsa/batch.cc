#include "dsa/batch.h"

#include <utility>

#include "util/timer.h"

namespace tcf {

BatchExecutor::BatchExecutor(const DsaDatabase* db) : db_(db) {
  TCF_CHECK(db != nullptr);
}

BatchResult BatchExecutor::Execute(const std::vector<Query>& queries) const {
  const Fragmentation& frag = db_->fragmentation();
  const DsaOptions& options = db_->options();
  const size_t num_nodes = frag.graph().NumNodes();
  ThreadPool* pool = db_->pool();

  BatchResult result;
  result.answers.resize(queries.size());
  result.stats.num_queries = queries.size();
  result.epoch = db_->epoch();
  WallTimer batch_timer;

  // Validate up front (cheap next to planning), then plan the whole batch
  // through the one planner the SiteNetwork coordinator also uses.
  WallTimer plan_timer;
  std::vector<std::pair<NodeId, NodeId>> endpoints;
  endpoints.reserve(queries.size());
  for (const Query& q : queries) {
    TCF_CHECK(q.from < num_nodes && q.to < num_nodes);
    TCF_CHECK_MSG(q.kind != QueryKind::kRoute || options.use_complementary,
                  "route queries require complementary information");
    endpoints.emplace_back(q.from, q.to);
  }
  ParallelPlanResult planned = PlanBatchInParallel(
      frag, endpoints, options.max_chains, nullptr, pool);
  const std::vector<LocalQuerySpec>& flat_specs = planned.flat.specs;

  for (const QueryPlan* plan : planned.plans) {
    if (plan == nullptr) continue;  // trivial query
    result.stats.subqueries_requested +=
        (plan->from_hop != QueryPlan::kNoSpec) +
        (plan->to_hop != QueryPlan::kNoSpec) + plan->rows.size();
  }
  result.stats.plan_memo_hits = planned.memo_hits;
  result.stats.plan_memo_misses = planned.distinct.size();
  result.stats.interned_plan_misses = planned.distinct.size();
  result.stats.subqueries_executed = flat_specs.size();
  result.stats.plan_seconds = plan_timer.ElapsedSeconds();

  // Phase 1, once for the whole batch: the deduplicated subqueries run on
  // the database's shared pool in fragment-grouped tasks.
  WallTimer phase1_timer;
  const ComplementaryInfo* comp =
      options.use_complementary ? &db_->complementary() : nullptr;
  std::vector<LocalQueryResult> site_results = RunSites(
      frag, comp, flat_specs, options.engine, pool, &result.report);
  result.stats.phase1_seconds = phase1_timer.ElapsedSeconds();

  // Assemble every query in parallel. Assembly only *reads* the shared
  // site results (each search works in per-thread scratch), so queries
  // are independent again; each fills its own answer
  // slot and report. A query assembles in microseconds, so tasks take
  // contiguous ranges of queries, as planning does.
  WallTimer assemble_timer;
  std::vector<ExecutionReport> reports(queries.size());
  auto assemble_one = [&](size_t i) {
    const Query& q = queries[i];
    RouteAnswer& out = result.answers[i];
    if (q.from == q.to) {
      out.answer.connected = true;
      out.answer.cost = 0.0;
      if (q.kind == QueryKind::kRoute) out.route = {q.from};
      return;
    }
    const QueryPlan& plan = *planned.plans[i];
    switch (q.kind) {
      case QueryKind::kCost:
      case QueryKind::kReachability:
        out.answer = AssembleCostAnswer(frag, plan, flat_specs, q.from, q.to,
                                        site_results, &reports[i]);
        break;
      case QueryKind::kRoute:
        out = AssembleRouteAnswer(frag, db_->complementary(), plan,
                                  flat_specs, q.from, q.to, site_results,
                                  &reports[i]);
        break;
    }
  };
  if (pool != nullptr) {
    pool->ParallelForRanges(queries.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) assemble_one(i);
    });
  } else {
    for (size_t i = 0; i < queries.size(); ++i) assemble_one(i);
  }
  for (const ExecutionReport& r : reports) result.report.Merge(r);
  result.stats.assemble_seconds = assemble_timer.ElapsedSeconds();
  result.stats.wall_seconds = batch_timer.ElapsedSeconds();
  return result;
}

}  // namespace tcf
