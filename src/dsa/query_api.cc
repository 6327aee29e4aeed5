#include "dsa/query_api.h"

#include "dsa/batch.h"

namespace tcf {

namespace {

// A fresh database starts as an epoch-0 successor of nothing: freshly
// precomputed complementary info, and no pool or plan cache to adopt.
EpochCarryover FreshCarryover(const Fragmentation* frag,
                              const DsaOptions& options) {
  TCF_CHECK(frag != nullptr);
  EpochCarryover carry;
  if (options.use_complementary) {
    carry.complementary = PrecomputeComplementary(*frag);
  }
  return carry;
}

}  // namespace

DsaDatabase::DsaDatabase(const Fragmentation* frag, DsaOptions options)
    : DsaDatabase(frag, options, FreshCarryover(frag, options)) {}

DsaDatabase::DsaDatabase(const Fragmentation* frag, DsaOptions options,
                         EpochCarryover carry)
    : frag_(frag), options_(options), epoch_(carry.epoch) {
  TCF_CHECK(frag != nullptr);
  if (options_.use_complementary) {
    complementary_ = std::move(carry.complementary);
    TCF_CHECK_MSG(complementary_.shortcuts.size() == frag_->NumFragments(),
                  "epoch carryover does not match the fragmentation");
  } else {
    complementary_.shortcuts.resize(frag_->NumFragments());
  }
  if (carry.pool != nullptr) {
    pool_ = std::move(carry.pool);
  } else {
    const size_t threads = options_.num_threads > 0 ? options_.num_threads
                                                    : frag_->NumFragments();
    pool_ = std::make_shared<ThreadPool>(threads);
  }
  if (carry.plan_cache != nullptr) {
    plan_cache_ = std::move(carry.plan_cache);
  } else {
    plan_cache_ = std::make_unique<ChainPlanCache>();
  }
}

namespace {

// A single query is a batch of one: the same planner, phase-1 fan-out and
// assembly as any batch, with the batch's breakdown merged into the
// caller's report.
RouteAnswer AnswerOne(const DsaDatabase* db, NodeId from, NodeId to,
                      QueryKind kind, ExecutionReport* report) {
  BatchResult result = BatchExecutor(db).Execute({Query{from, to, kind}});
  if (report != nullptr) report->Merge(result.report);
  return std::move(result.answers.front());
}

}  // namespace

QueryAnswer DsaDatabase::ShortestPath(NodeId from, NodeId to,
                                      ExecutionReport* report) const {
  return AnswerOne(this, from, to, QueryKind::kCost, report).answer;
}

RouteAnswer DsaDatabase::ShortestRoute(NodeId from, NodeId to,
                                       ExecutionReport* report) const {
  return AnswerOne(this, from, to, QueryKind::kRoute, report);
}

bool DsaDatabase::IsConnected(NodeId from, NodeId to,
                              ExecutionReport* report) const {
  return ShortestPath(from, to, report).connected;
}

}  // namespace tcf
