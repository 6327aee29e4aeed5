#include "dsa/service.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "dsa/sites.h"

namespace tcf {

namespace {

void AccumulateBatchStats(BatchStats* into, const BatchStats& stats) {
  into->num_queries += stats.num_queries;
  into->subqueries_requested += stats.subqueries_requested;
  into->subqueries_executed += stats.subqueries_executed;
  into->plan_cache_hits += stats.plan_cache_hits;
  into->plan_cache_misses += stats.plan_cache_misses;
  into->plan_memo_hits += stats.plan_memo_hits;
  into->plan_memo_misses += stats.plan_memo_misses;
  into->interned_plan_hits += stats.interned_plan_hits;
  into->interned_plan_misses += stats.interned_plan_misses;
  into->plan_seconds += stats.plan_seconds;
  into->phase1_seconds += stats.phase1_seconds;
  into->assemble_seconds += stats.assemble_seconds;
  into->wall_seconds += stats.wall_seconds;
}

std::vector<Result<Weight>> CostsOf(const BatchResult& result) {
  std::vector<Result<Weight>> costs;
  costs.reserve(result.answers.size());
  for (const RouteAnswer& answer : result.answers) {
    if (answer.answer.status.ok()) {
      costs.push_back(answer.answer.cost);
    } else {
      // A query that could not read its (paged) storage fails with its
      // Status; the flush worker turns it into a StatusError on just that
      // query's future.
      costs.push_back(answer.answer.status);
    }
  }
  return costs;
}

}  // namespace

Status ServiceBackend::CheckUpdate(const EdgeUpdate&) const {
  return Status::OK();
}

uint64_t ServiceBackend::ApplyUpdates(const std::vector<EdgeUpdate>&) {
  TCF_CHECK_MSG(false, "backend does not support updates");
  return 0;
}

std::vector<Result<Weight>> DatabaseBackend::ExecuteBatch(
    const std::vector<Query>& queries) {
  BatchResult result = executor_.Execute(queries);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    AccumulateBatchStats(&cumulative_, result.stats);
  }
  return CostsOf(result);
}

BatchStats DatabaseBackend::cumulative_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return cumulative_;
}

std::vector<Result<Weight>> MaintainedBackend::ExecuteBatch(
    const std::vector<Query>& queries) {
  // Pin the epoch for the whole micro-batch: a concurrent ApplyEpoch
  // publishes a successor, but this batch keeps the snapshot (and its
  // plan caches, pool, complementary info) it started with. Concurrent
  // flush workers each pin independently — this is the per-batch epoch
  // barrier: a worker picks up a published epoch at its next batch
  // boundary, never mid-batch.
  const DsaSnapshot snap = mdb_->Snapshot();
  BatchExecutor executor(snap.db.get());
  BatchResult result = executor.Execute(queries);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    AccumulateBatchStats(&cumulative_, result.stats);
  }
  last_batch_epoch_.store(result.epoch, std::memory_order_relaxed);
  return CostsOf(result);
}

BatchStats MaintainedBackend::cumulative_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return cumulative_;
}

Status MaintainedBackend::CheckUpdate(const EdgeUpdate& update) const {
  if (update.kind != EdgeUpdate::Kind::kInsert || !update.target) {
    return Status::OK();
  }
  const size_t num_fragments = mdb_->Snapshot().frag->NumFragments();
  if (*update.target < num_fragments) return Status::OK();
  return Status::OutOfRange("insert target fragment " +
                            std::to_string(*update.target) + " out of range (" +
                            std::to_string(num_fragments) + " fragments)");
}

uint64_t MaintainedBackend::ApplyUpdates(
    const std::vector<EdgeUpdate>& updates) {
  return mdb_->ApplyEpoch(updates).epoch;
}

std::vector<Result<Weight>> SiteNetworkBackend::ExecuteBatch(
    const std::vector<Query>& queries) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(queries.size());
  for (const Query& q : queries) pairs.emplace_back(q.from, q.to);
  const std::vector<Weight> costs = net_->BatchShortestPathCosts(pairs);
  return std::vector<Result<Weight>>(costs.begin(), costs.end());
}

namespace {

size_t ClampFlushWorkers(size_t requested) {
  if (requested == 0) {
    requested = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::clamp<size_t>(requested, 1, 64);
}

}  // namespace

QueryService::QueryService(const DsaDatabase* db, ServiceOptions options)
    : options_(options),
      owned_backend_(std::make_unique<DatabaseBackend>(db)),
      backend_(owned_backend_.get()),
      validate_num_nodes_(db->fragmentation().graph().NumNodes()),
      routes_supported_(db->options().use_complementary) {
  Start();
}

QueryService::QueryService(MaintainedDatabase* mdb, ServiceOptions options)
    : options_(options),
      owned_backend_(std::make_unique<MaintainedBackend>(mdb)),
      backend_(owned_backend_.get()) {
  const DsaSnapshot snap = mdb->Snapshot();
  validate_num_nodes_ = snap.graph->NumNodes();
  routes_supported_ = snap.db->options().use_complementary;
  Start();
}

QueryService::QueryService(ServiceBackend* backend, ServiceOptions options)
    : options_(options), backend_(backend) {
  TCF_CHECK(backend != nullptr);
  Start();
}

void QueryService::Start() {
  TCF_CHECK(options_.max_batch > 0);
  TCF_CHECK(options_.queue_capacity > 0);
  options_.flush_workers = ClampFlushWorkers(options_.flush_workers);

  stats_.latency_seconds = Accumulator(kServiceSampleCap);
  stats_.update_latency_seconds = Accumulator(kServiceSampleCap);
  stats_.batch_fill = Accumulator(kServiceSampleCap);
  start_time_ = std::chrono::steady_clock::now();

  flush_threads_.reserve(options_.flush_workers);
  for (size_t w = 0; w < options_.flush_workers; ++w) {
    flush_threads_.emplace_back([this]() { FlushWorkerLoop(); });
  }
  if (backend_->SupportsUpdates()) {
    update_thread_ = std::thread([this]() { UpdateLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

std::optional<std::future<Weight>> QueryService::Admit(Query query,
                                                       bool blocking) {
  Pending pending;
  pending.query = query;
  pending.submit_time = std::chrono::steady_clock::now();
  std::future<Weight> future = pending.promise.get_future();

  // Validate at admission when the domain is known: one bad query must
  // fail its own future, not trip the backend's TCF_CHECK on a flush
  // worker and take the whole service down.
  if (validate_num_nodes_ > 0) {
    if (query.from >= validate_num_nodes_ || query.to >= validate_num_nodes_) {
      pending.promise.set_exception(std::make_exception_ptr(
          std::out_of_range("query endpoint out of range")));
      return future;
    }
    if (query.kind == QueryKind::kRoute && !routes_supported_) {
      pending.promise.set_exception(std::make_exception_ptr(std::out_of_range(
          "route queries require complementary information")));
      return future;
    }
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (blocking) {
      space_cv_.wait(lock, [this]() {
        return queue_.size() < options_.queue_capacity || stopping_;
      });
      if (stopping_) {
        pending.promise.set_exception(std::make_exception_ptr(
            std::runtime_error("QueryService is shut down")));
        return future;
      }
    } else {
      if (stopping_) return std::nullopt;
      if (queue_.size() >= options_.queue_capacity) {
        ++rejected_;
        return std::nullopt;
      }
    }
    queue_.push_back(std::move(pending));
    ++submitted_;
  }
  work_cv_.notify_one();
  return future;
}

std::future<Weight> QueryService::SubmitShortestPath(NodeId from, NodeId to) {
  return *Admit(Query{from, to, QueryKind::kCost}, /*blocking=*/true);
}

std::optional<std::future<Weight>> QueryService::TrySubmit(NodeId from,
                                                           NodeId to) {
  return Admit(Query{from, to, QueryKind::kCost}, /*blocking=*/false);
}

std::vector<std::future<Weight>> QueryService::SubmitBatch(
    const std::vector<Query>& queries) {
  std::vector<std::future<Weight>> futures;
  futures.reserve(queries.size());
  for (const Query& q : queries) {
    futures.push_back(*Admit(q, /*blocking=*/true));
  }
  return futures;
}

std::future<uint64_t> QueryService::SubmitUpdate(EdgeUpdate update) {
  PendingUpdate pending;
  pending.update = update;
  pending.submit_time = std::chrono::steady_clock::now();
  std::future<uint64_t> future = pending.promise.get_future();

  if (!backend_->SupportsUpdates()) {
    pending.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("backend does not support updates")));
    return future;
  }
  if (validate_num_nodes_ > 0 && (update.src >= validate_num_nodes_ ||
                                  update.dst >= validate_num_nodes_)) {
    pending.promise.set_exception(std::make_exception_ptr(
        std::out_of_range("update endpoint out of range")));
    return future;
  }
  if (!update.HasValidWeight()) {
    pending.promise.set_exception(std::make_exception_ptr(
        std::invalid_argument(
            "update weight must be finite and non-negative")));
    return future;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      pending.promise.set_exception(std::make_exception_ptr(
          std::runtime_error("QueryService is shut down")));
      return future;
    }
    update_queue_.push_back(std::move(pending));
  }
  update_cv_.notify_one();
  return future;
}

void QueryService::Shutdown() {
  // Set under the admission lock: a query or update admitted under
  // `stopping_ == false` is ordered before this flip, so the final drains
  // see it. Submitters blocked on a full queue are woken and rejected
  // instead of deadlocking.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  space_cv_.notify_all();
  work_cv_.notify_all();
  update_cv_.notify_all();
  // join() exactly once even when Shutdown races itself (it is documented
  // thread-safe like every other public method); a racing caller returns
  // only after the joins, with the clock frozen.
  std::call_once(join_once_, [this]() {
    for (std::thread& t : flush_threads_) t.join();
    if (update_thread_.joinable()) update_thread_.join();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stop_time_ = std::chrono::steady_clock::now();
  });
}

ServiceStats QueryService::Stats() const {
  ServiceStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
    const auto end = stop_time_.value_or(std::chrono::steady_clock::now());
    snapshot.elapsed_seconds =
        std::chrono::duration<double>(end - start_time_).count();
  }
  // Read after the answered counts, so that no snapshot shows more
  // queries answered than admitted.
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.submitted = submitted_;
  snapshot.rejected = rejected_;
  return snapshot;
}

void QueryService::UpdateLoop() {
  for (;;) {
    std::vector<PendingUpdate> pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      update_cv_.wait(lock, [this]() {
        return stopping_ || !update_queue_.empty();
      });
      if (update_queue_.empty()) break;  // stopping, and fully drained
      pending.swap(update_queue_);
    }

    // An update the current epoch rejects fails its own future alone.
    std::erase_if(pending, [this](PendingUpdate& p) {
      const Status valid = backend_->CheckUpdate(p.update);
      if (valid.ok()) return false;
      p.promise.set_exception(
          std::make_exception_ptr(std::out_of_range(valid.message())));
      return true;
    });
    if (pending.empty()) continue;

    // All pending updates become ONE maintenance epoch. The snapshot swap
    // inside ApplyUpdates is the epoch barrier: flush workers executing
    // concurrently keep their pinned snapshots, and every batch collected
    // afterwards pins the new epoch (or a later one).
    std::vector<EdgeUpdate> ops;
    ops.reserve(pending.size());
    for (const PendingUpdate& p : pending) ops.push_back(p.update);
    const uint64_t epoch = backend_->ApplyUpdates(ops);

    // Record stats BEFORE fulfilling the promises, for the same
    // wake-then-snapshot consistency the query path guarantees.
    const auto done = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.update_epochs;
      stats_.updates += pending.size();
      for (const PendingUpdate& p : pending) {
        stats_.update_latency_seconds.Add(
            std::chrono::duration<double>(done - p.submit_time).count());
      }
    }
    for (PendingUpdate& p : pending) p.promise.set_value(epoch);
  }
}

void QueryService::FlushWorkerLoop() {
  for (;;) {
    std::vector<Pending> admitted;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping, and fully drained
      const auto end =
          queue_.begin() + static_cast<std::ptrdiff_t>(
                               std::min(queue_.size(), options_.max_batch));
      admitted.assign(std::make_move_iterator(queue_.begin()),
                      std::make_move_iterator(end));
      queue_.erase(queue_.begin(), end);
    }
    space_cv_.notify_all();

    std::vector<Query> batch;
    batch.reserve(admitted.size());
    for (const Pending& p : admitted) batch.push_back(p.query);
    const std::vector<Result<Weight>> costs = backend_->ExecuteBatch(batch);
    TCF_CHECK(costs.size() == admitted.size());

    // Record stats BEFORE fulfilling the promises: a client that wakes
    // from future.get() and immediately snapshots Stats() must already
    // see its own query counted. Only answered queries are completed and
    // timed; a failed one is counted apart.
    const auto done = std::chrono::steady_clock::now();
    std::vector<double> latencies;
    latencies.reserve(admitted.size());
    for (size_t i = 0; i < admitted.size(); ++i) {
      if (!costs[i].ok()) continue;
      latencies.push_back(
          std::chrono::duration<double>(done - admitted[i].submit_time)
              .count());
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.batches;
      stats_.completed += latencies.size();
      stats_.failed += admitted.size() - latencies.size();
      stats_.batch_fill.Add(static_cast<double>(admitted.size()));
      stats_.latency_seconds.AddAll(latencies);
    }

    for (size_t i = 0; i < admitted.size(); ++i) {
      if (costs[i].ok()) {
        admitted[i].promise.set_value(costs[i].value());
      } else {
        // One failed query fails its own future; the rest of the batch
        // (and the daemon) are unaffected. The network edge's WriterLoop
        // turns the StatusError into an error frame with the same code.
        admitted[i].promise.set_exception(
            std::make_exception_ptr(StatusError(costs[i].status())));
      }
    }
  }
}

}  // namespace tcf
