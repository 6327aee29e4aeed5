#include "dsa/service.h"

#include <algorithm>
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

size_t ClampShards(size_t requested) {
  return std::clamp<size_t>(requested, 1, 256);
}

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
  options_.admission_shards = ClampShards(options_.admission_shards);
  options_.flush_workers = ClampFlushWorkers(options_.flush_workers);
  shards_.resize(options_.admission_shards);
  for (auto& shard : shards_) shard = std::make_unique<Shard>();

  stats_.latency_seconds = Accumulator(options_.latency_sample_cap);
  stats_.update_latency_seconds = Accumulator(options_.latency_sample_cap);
  stats_.batch_fill = Accumulator(options_.latency_sample_cap);
  start_time_ = std::chrono::steady_clock::now();

  const size_t workers = options_.flush_workers;
  const bool updates = backend_->SupportsUpdates();
  live_flushers_.store(static_cast<int>(workers) + (updates ? 1 : 0),
                       std::memory_order_relaxed);
  flush_threads_.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    flush_threads_.emplace_back([this]() { FlushWorkerLoop(); });
  }
  if (updates) {
    update_thread_ = std::thread([this]() { UpdateLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

QueryService::Shard& QueryService::ShardForThisThread() {
  // Per-client (thread) affinity: one client's queries stay FIFO within
  // its stripe and two clients contend only on a hash collision. Thread
  // ids hash poorly on common standard libraries (they are pointers or
  // small integers), so finish with a full-avalanche mix.
  const size_t raw = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return *shards_[PairKeyHash{}(static_cast<uint64_t>(raw)) % shards_.size()];
}

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

  Shard& shard = ShardForThisThread();
  bool ring = false;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (blocking) {
      shard.space_cv.wait(lock, [&]() {
        return shard.queue.size() < options_.queue_capacity || shard.stopping;
      });
      if (shard.stopping) {
        pending.promise.set_exception(std::make_exception_ptr(
            std::runtime_error("QueryService is shut down")));
        return future;
      }
    } else {
      if (shard.stopping) return std::nullopt;
      if (shard.queue.size() >= options_.queue_capacity) {
        ++shard.rejected;
        return std::nullopt;
      }
    }
    shard.queue.push_back(std::move(pending));
    ++shard.submitted;
    ring = pending_.fetch_add(1, std::memory_order_relaxed) == 0;
  }
  if (ring) RingDoorbell();
  return future;
}

void QueryService::RingDoorbell() {
  // The empty critical section is what makes the notify reliable: flush
  // workers evaluate their sleep predicate while holding flush_mutex_, so
  // the notify cannot land inside a check-then-sleep window. Only the
  // submitter whose push made the total pending count non-empty rings: a
  // worker sleeps only after reading the count as zero, and a busy worker
  // reads it again before sleeping, so every other submit touches no
  // global state beyond one atomic increment. notify_all, not notify_one:
  // the count may be far past one by the time a worker pops, and every
  // idle worker may take a share of that burst; a worker that wakes to
  // an empty backlog goes back to sleep on the predicate.
  { std::lock_guard<std::mutex> doorbell(flush_mutex_); }
  flush_cv_.notify_all();
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
    std::lock_guard<std::mutex> lock(update_mutex_);
    if (updates_stopping_) {
      pending.promise.set_exception(std::make_exception_ptr(
          std::runtime_error("QueryService is shut down")));
      return future;
    }
    update_queue_.push_back(std::move(pending));
  }
  // Updates wake their own applier thread and never ring the query
  // doorbell; workers pick up the published epoch at their next batch
  // boundary.
  update_cv_.notify_one();
  return future;
}

void QueryService::Shutdown() {
  // Stop the update lane first (mirroring the shard-flag protocol below):
  // an update admitted under `updates_stopping_ == false` is ordered
  // before this flag flip by update_mutex_, so the applier's final drain
  // sees it before exiting.
  {
    std::lock_guard<std::mutex> lock(update_mutex_);
    updates_stopping_ = true;
  }
  update_cv_.notify_all();
  // Flag every shard under its own lock FIRST: a submitter that pushed
  // after reading `stopping == false` is ordered before this sweep by the
  // shard mutex, and the sweep is ordered before the release-store of
  // stop_requested_ — so when a flush worker acquires the flag and
  // drains, every admitted entry is visible to it. Submitters blocked on
  // a full shard are woken here and rejected instead of deadlocking.
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stopping = true;
    }
    shard->space_cv.notify_all();
  }
  stop_requested_.store(true, std::memory_order_release);
  { std::lock_guard<std::mutex> doorbell(flush_mutex_); }
  flush_cv_.notify_all();
  // join() exactly once even when Shutdown races itself (it is documented
  // thread-safe like every other public method).
  std::call_once(join_once_, [this]() {
    for (std::thread& t : flush_threads_) t.join();
    if (update_thread_.joinable()) update_thread_.join();
  });
}

ServiceStats QueryService::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ServiceStats snapshot = stats_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mutex);
    snapshot.submitted += shard->submitted;
    snapshot.rejected += shard->rejected;
  }
  const auto end = stopped_ ? stop_time_ : std::chrono::steady_clock::now();
  snapshot.elapsed_seconds =
      std::chrono::duration<double>(end - start_time_).count();
  return snapshot;
}

std::vector<QueryService::Pending> QueryService::PopOldest() {
  std::vector<Pending> admitted;

  // Hold every shard lock for the merge, acquired in ascending shard-index
  // order (see the Shard lock-order comment for why concurrent sweeps
  // cannot deadlock): entries are popped oldest-first across all shards,
  // which is the single-queue admission order, so no stripe can starve
  // under overload.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mutex);

  std::vector<bool> popped(shards_.size(), false);
  while (admitted.size() < options_.max_batch) {
    size_t best = shards_.size();
    auto best_time = std::chrono::steady_clock::time_point::max();
    for (size_t s = 0; s < shards_.size(); ++s) {
      const auto& queue = shards_[s]->queue;
      if (!queue.empty() && queue.front().submit_time < best_time) {
        best_time = queue.front().submit_time;
        best = s;
      }
    }
    if (best == shards_.size()) break;  // every shard empty
    auto& queue = shards_[best]->queue;
    admitted.push_back(std::move(queue.front()));
    queue.pop_front();
    popped[best] = true;
  }
  pending_.fetch_sub(admitted.size(), std::memory_order_relaxed);

  for (size_t s = 0; s < shards_.size(); ++s) {
    locks[s].unlock();
    if (popped[s]) shards_[s]->space_cv.notify_all();
  }
  return admitted;
}

void QueryService::UpdateLoop() {
  for (;;) {
    std::vector<PendingUpdate> pending;
    {
      std::unique_lock<std::mutex> lock(update_mutex_);
      update_cv_.wait(lock, [this]() {
        return updates_stopping_ || !update_queue_.empty();
      });
      if (update_queue_.empty()) break;  // stopping, and fully drained
      pending.swap(update_queue_);
    }

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
  if (live_flushers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stopped_ = true;
    stop_time_ = std::chrono::steady_clock::now();
  }
}

void QueryService::FlushWorkerLoop() {
  for (;;) {
    bool stopping = false;
    {
      std::unique_lock<std::mutex> lock(flush_mutex_);
      flush_cv_.wait(lock, [this]() {
        return stop_requested_.load(std::memory_order_acquire) ||
               pending_.load(std::memory_order_relaxed) > 0;
      });
      stopping = stop_requested_.load(std::memory_order_acquire);
    }

    // The stop flag is read BEFORE the sweep: once it reads true,
    // Shutdown() has flagged every shard, so no admission can land after
    // this sweep and an empty one means the drain is complete. (Read after
    // an empty sweep, the flag could cover a query admitted in between.)
    std::vector<Pending> admitted = PopOldest();
    if (admitted.empty()) {
      if (stopping) break;
      continue;  // another worker popped first
    }

    std::vector<Query> batch;
    batch.reserve(admitted.size());
    for (const Pending& p : admitted) batch.push_back(p.query);
    const std::vector<Result<Weight>> costs = backend_->ExecuteBatch(batch);
    TCF_CHECK(costs.size() == admitted.size());

    // Record stats BEFORE fulfilling the promises: a client that wakes
    // from future.get() and immediately snapshots Stats() must already
    // see its own query counted.
    const auto done = std::chrono::steady_clock::now();
    std::vector<double> latencies;
    latencies.reserve(admitted.size());
    for (const Pending& p : admitted) {
      latencies.push_back(
          std::chrono::duration<double>(done - p.submit_time).count());
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.batches;
      stats_.completed += admitted.size();
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
  // The LAST flush-role thread out (worker or update applier) freezes the
  // service clock, so post-Shutdown Stats() reads one stable
  // elapsed_seconds regardless of which worker drained the final batch.
  if (live_flushers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stopped_ = true;
    stop_time_ = std::chrono::steady_clock::now();
  }
}

}  // namespace tcf
