#include "dsa/sites.h"

#include <utility>

#include "dsa/executor.h"
#include "util/thread_pool.h"

namespace tcf {

SiteNetwork::SiteNetwork(const Fragmentation* frag, LocalEngine engine,
                         SiteTransportKind transport)
    : frag_(frag), engine_(engine) {
  TCF_CHECK(frag != nullptr);
  complementary_ = PrecomputeComplementary(*frag_);
  if (transport == SiteTransportKind::kSocket) {
    Result<std::unique_ptr<SiteTransport>> made =
        MakeSocketSiteTransport(frag_->NumFragments());
    TCF_CHECK_MSG(made.ok(), made.status().ToString());
    transport_ = std::move(made).value();
  } else {
    transport_ = MakeInProcessSiteTransport(frag_->NumFragments());
  }
  sites_.reserve(frag_->NumFragments());
  for (FragmentId f = 0; f < frag_->NumFragments(); ++f) {
    sites_.emplace_back([this, f]() { SiteLoop(f); });
  }
  planner_pool_ = std::make_unique<ThreadPool>();
  plan_cache_ = std::make_unique<ChainPlanCache>();
}

SiteNetwork::~SiteNetwork() {
  transport_->Shutdown();
  for (auto& site : sites_) site.join();
}

void SiteNetwork::SiteLoop(FragmentId fragment) {
  while (true) {
    std::optional<SiteWireSubquery> message =
        transport_->ReceiveSubquery(fragment);
    if (!message.has_value()) return;  // transport shut down
    // Phase 1: purely local work — the site touches only its own fragment
    // and its own complementary relation; no other site is contacted.
    LocalQueryResult local =
        RunLocalQuery(*frag_, &complementary_, message->spec, engine_);
    SiteWireResult result;
    result.request_id = message->request_id;
    result.fragment = fragment;
    result.paths = std::move(local.paths);
    transport_->SendResult(fragment, std::move(result));
  }
}

Weight SiteNetwork::ShortestPathCost(NodeId from, NodeId to,
                                     SiteTraffic* traffic) {
  return BatchShortestPathCosts({{from, to}}, traffic).front();
}

std::vector<Weight> SiteNetwork::BatchShortestPathCosts(
    const std::vector<std::pair<NodeId, NodeId>>& queries,
    SiteTraffic* traffic) {
  // One protocol round at a time: request ids and the coordinator inbox
  // are shared, so concurrent callers queue up here.
  std::lock_guard<std::mutex> coordinator_lock(coordinator_mutex_);

  SiteTraffic local_traffic;
  if (traffic == nullptr) traffic = &local_traffic;
  *traffic = SiteTraffic{};
  std::vector<Weight> answers(queries.size(), kInfinity);
  const size_t num_nodes = frag_->graph().NumNodes();

  // Plan every query on the coordinator's planner pool through the
  // planner of the in-process batch executor (PlanBatchInParallel) — one
  // message per distinct (fragment, selection) no matter how many queries
  // or chains need it.
  for (const auto& [from, to] : queries) {
    TCF_CHECK(from < num_nodes);
    TCF_CHECK(to < num_nodes);
  }
  ParallelPlanResult planned = PlanBatchInParallel(
      *frag_, queries, kDefaultMaxChains, plan_cache_.get(),
      planner_pool_.get());
  const std::vector<LocalQuerySpec>& flat_specs = planned.flat.specs;

  // Phase 0: all subquery messages are sent before any result is awaited;
  // request ids are spec indices offset by this round's base.
  const uint64_t base_request_id = next_request_id_;
  next_request_id_ += flat_specs.size();
  for (size_t s = 0; s < flat_specs.size(); ++s) {
    SiteWireSubquery message;
    message.request_id = base_request_id + s;
    message.spec = flat_specs[s];
    transport_->SendSubquery(flat_specs[s].fragment, std::move(message));
    ++traffic->subquery_messages;
  }

  // Phase 2: collect the (small) result relations of the whole batch,
  // back into spec order.
  std::vector<LocalQueryResult> results(flat_specs.size());
  size_t outstanding = flat_specs.size();
  while (outstanding > 0) {
    std::optional<SiteWireResult> result = transport_->ReceiveResult();
    TCF_CHECK(result.has_value());
    ++traffic->result_messages;
    traffic->result_tuples += result->paths.size();
    results[result->request_id - base_request_id].paths =
        std::move(result->paths);
    --outstanding;
  }

  // Final joins at the coordinator, query by query over the shared
  // results — the same assembly as the in-process executor (the site
  // result codec keeps RunLocalQuery's canonical tuple order, which the
  // assembly's binary searches rely on).
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto [from, to] = queries[qi];
    if (from == to) {
      answers[qi] = 0.0;
      continue;
    }
    answers[qi] = AssembleCostAnswer(*frag_, *planned.plans[qi], flat_specs,
                                     from, to, results, nullptr)
                      .cost;
  }
  return answers;
}

}  // namespace tcf
