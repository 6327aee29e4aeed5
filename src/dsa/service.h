// Streaming query admission: the layer between "heavy traffic from many
// clients" and the batch core. The paper's phase-1 independence makes
// *batches* profitable (dsa/batch.h), but real traffic arrives as a stream
// of single queries from concurrent clients. A QueryService coalesces those
// arrivals into micro-batches and runs each micro-batch through a
// pluggable backend, so streaming traffic inherits the cross-query
// subquery deduplication, the one plan per distinct pair, and the skeleton
// cache of the batch executor without any client knowing about batching.
//
// Admission is one bounded FIFO behind one mutex: submitters push at the
// back and a flush worker pops up to `max_batch` queries from the front,
// so every micro-batch is oldest-first by construction.
//
// Flushing is *work-conserving* (the group-commit rule): `flush_workers`
// worker threads (default: one per hardware thread) sleep only while the
// queue is empty, and each push wakes one of them. A worker that wakes,
// or that finishes a batch while queries are queued, pops up to
// `max_batch` of them and executes them at once. An idle service
// therefore runs a lone query immediately, and queries coalesce exactly
// while every worker is busy: what arrives during one batch's execution
// is the next batch. No timer holds a query back, so batch fill follows
// the load (about 1 under a trickle, up to max_batch under saturation).
//
// Admission policy (ServiceOptions):
//   - max_batch:      the most queries one micro-batch takes,
//   - queue_capacity: bound on the whole admitted backlog. Submit* blocks
//                     while the queue is full (closed-loop backpressure);
//                     TrySubmit rejects and the rejection is counted in
//                     ServiceStats.
//   - flush_workers:  number of concurrent flush workers (0 = one per
//                     hardware thread).
//
// Shutdown() drains: every query admitted before the shutdown flag is
// set is executed and its future fulfilled; submissions arriving after
// that get a future carrying std::runtime_error instead of a value.
// Submitters blocked on a full queue are woken by Shutdown() and rejected
// the same way — backpressure never deadlocks a shutdown. Shutdown()
// freezes the service clock once every flush worker and the update
// applier have exited, so post-shutdown Stats() is stable.
//
// A query the backend answers with a Status (a paged page that fails to
// read, say) fails its own future with a StatusError carrying that Status,
// so the network edge can report its code; the rest of the batch is
// answered normally.
//
// The backend seam (ServiceBackend) is what makes the flush workers
// deployment-agnostic: DatabaseBackend drives the in-process DsaDatabase
// via BatchExecutor; MaintainedBackend drives a MaintainedDatabase, pinning
// the current epoch snapshot per micro-batch; SiteNetworkBackend drives a
// message-passing SiteNetwork coordinator — the protocol seed for the
// multi-process direction in ROADMAP.md.
//
// Update lane. Services over an updatable backend additionally accept
// SubmitUpdate(EdgeUpdate): updates queue beside the query stream and a
// dedicated *update-applier thread* applies ALL pending updates as ONE
// maintenance epoch per wake, concurrently with query execution — a slow
// structural epoch no longer stalls admitted reads, because flush workers
// keep executing on the previous snapshot and pick up the new epoch at
// their next batch boundary (the snapshot swap inside ApplyUpdates is the
// epoch barrier). The returned future yields the published epoch id, with
// the ordering guarantee that matters to clients: once the future resolves
// with epoch E, every query submitted afterwards executes against a
// snapshot of epoch >= E. That holds under any number of flush workers
// because a micro-batch pins its snapshot only AFTER popping its queries:
// publish(E) happens-before set_value(E) happens-before the client's
// admission happens-before the pop happens-before the snapshot pin.
// Queries already in flight keep their pinned snapshot — an overlapping
// query may legitimately answer from any epoch that was current at some
// instant of its admission-to-answer window.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dsa/batch.h"
#include "dsa/maintenance.h"
#include "util/stats.h"

namespace tcf {

class SiteNetwork;

/// The exception a query's future carries when the backend answered that
/// query with a Status: the Status travels intact, so a caller (the
/// network edge) can tell a storage failure from a shutdown by its code.
/// A std::runtime_error, like the service's other future errors.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}

  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Where admitted micro-batches execute. ExecuteBatch may be called
/// CONCURRENTLY from the service's flush workers, so implementations must
/// be re-entrant or serialize internally (BatchExecutor is re-entrant;
/// SiteNetwork serializes its coordinator internally). ApplyUpdates is
/// called only from the service's single update-applier thread, one epoch
/// at a time, but concurrently with ExecuteBatch calls.
class ServiceBackend {
 public:
  virtual ~ServiceBackend() = default;

  /// Answers `queries` element-wise: a cost (kInfinity when unconnected),
  /// or a Status when that query could not be evaluated (e.g. a paged
  /// database whose pages failed to read). The service fulfills each
  /// query's future from its element, so one failed query fails its own
  /// future — never the batch, never the process.
  virtual std::vector<Result<Weight>> ExecuteBatch(
      const std::vector<Query>& queries) = 0;

  /// True when ApplyUpdates is legal; SubmitUpdate on a service over a
  /// backend without update support fails the future instead of calling
  /// it.
  virtual bool SupportsUpdates() const { return false; }

  /// Checks what only the current epoch can judge: a kOutOfRange Status
  /// rejects the update without applying it. Called only from the
  /// update-applier thread, right before the ApplyUpdates that would
  /// stage it, so no epoch can intervene between the check and the apply.
  virtual Status CheckUpdate(const EdgeUpdate& update) const;

  /// Applies `updates` in order as ONE maintenance epoch and returns the
  /// epoch id readers see afterwards (the pre-existing epoch when every op
  /// was a no-op). Called only from the update-applier thread.
  virtual uint64_t ApplyUpdates(const std::vector<EdgeUpdate>& updates);
};

/// In-process backend: one BatchExecutor::Execute per micro-batch, sharing
/// the database's pool, skeleton cache, and cross-query dedup. Re-entrant:
/// concurrent micro-batches share the executor (itself re-entrant) and the
/// cumulative accounting is mutex-guarded.
class DatabaseBackend : public ServiceBackend {
 public:
  /// `db` must outlive the backend.
  explicit DatabaseBackend(const DsaDatabase* db) : executor_(db) {}

  std::vector<Result<Weight>> ExecuteBatch(
      const std::vector<Query>& queries) override;

  /// Batch-core accounting summed over all micro-batches this backend ran
  /// (dedup savings, repeated-pair skips, skeleton-cache hits, ...).
  /// Returned by value: the sums keep moving under concurrent flushes.
  BatchStats cumulative_stats() const;

 private:
  BatchExecutor executor_;
  mutable std::mutex stats_mutex_;
  BatchStats cumulative_;
};

/// Epoch-aware backend over a MaintainedDatabase: every micro-batch pins
/// the current snapshot (so an in-flight batch is never torn by a
/// concurrent epoch) and updates flow through as maintenance epochs.
/// Re-entrant: each micro-batch gets its own executor over its own pinned
/// snapshot; the cumulative accounting is mutex-guarded.
class MaintainedBackend : public ServiceBackend {
 public:
  /// `mdb` must outlive the backend.
  explicit MaintainedBackend(MaintainedDatabase* mdb) : mdb_(mdb) {
    TCF_CHECK(mdb != nullptr);
  }

  std::vector<Result<Weight>> ExecuteBatch(
      const std::vector<Query>& queries) override;
  bool SupportsUpdates() const override { return true; }
  /// An insert's fragment override must name a fragment of the current
  /// epoch, the one the insert will be staged against.
  Status CheckUpdate(const EdgeUpdate& update) const override;
  uint64_t ApplyUpdates(const std::vector<EdgeUpdate>& updates) override;

  const MaintainedDatabase& maintained() const { return *mdb_; }
  /// Batch-core accounting summed over all micro-batches this backend ran.
  /// Returned by value (see DatabaseBackend::cumulative_stats).
  BatchStats cumulative_stats() const;
  /// Epoch of the snapshot a recently executed micro-batch ran on (with
  /// concurrent workers, "most recent" is whichever batch stored last).
  uint64_t last_batch_epoch() const {
    return last_batch_epoch_.load(std::memory_order_relaxed);
  }

 private:
  MaintainedDatabase* mdb_;
  mutable std::mutex stats_mutex_;
  BatchStats cumulative_;
  std::atomic<uint64_t> last_batch_epoch_{0};
};

/// Message-passing backend: micro-batches go through the SiteNetwork
/// coordinator's batched fan-out protocol (serialized by the coordinator's
/// own mutex, so concurrent flush workers are safe, just not parallel).
/// `net` must outlive the backend.
class SiteNetworkBackend : public ServiceBackend {
 public:
  explicit SiteNetworkBackend(SiteNetwork* net) : net_(net) {}

  std::vector<Result<Weight>> ExecuteBatch(
      const std::vector<Query>& queries) override;

 private:
  SiteNetwork* net_;
};

/// Micro-batching policy of the admission loop; see the header comment.
struct ServiceOptions {
  /// The most queries one micro-batch takes from the backlog.
  size_t max_batch = 64;
  /// Bound on the whole admitted backlog: the queries admitted but not yet
  /// popped by a flush worker.
  size_t queue_capacity = 4096;
  /// Concurrent flush workers, all popping from the one queue. 0 (the
  /// default) means one worker per hardware thread (min 1); clamped to
  /// [1, 64]. With 1, batch shapes are deterministic for a given arrival
  /// order.
  size_t flush_workers = 0;

  /// Read nowhere. Kept declared only because the serving benchmark
  /// (perfbench/) sets `admission_shards` and prints both in its run
  /// header; they go with those lines when the benchmark next changes. A
  /// flush worker never waits for more queries (`max_wait`), and
  /// admission has one queue (`admission_shards`).
  std::chrono::microseconds max_wait{2000};
  size_t admission_shards = 4;
};

/// The most samples each ServiceStats accumulator stores: a uniform
/// reservoir over the whole stream (see util/stats.h), so a long-running
/// service does not grow memory without bound. Counts, sums, min and max
/// still cover every sample.
inline constexpr size_t kServiceSampleCap = 1 << 16;

/// Service-level accounting, snapshot via QueryService::Stats().
struct ServiceStats {
  size_t submitted = 0;  // admitted into the queue
  size_t completed = 0;  // futures fulfilled with an answer
  size_t failed = 0;     // futures failed with a backend StatusError
  size_t rejected = 0;   // TrySubmit refusals on a full queue
  size_t batches = 0;    // micro-batches executed

  size_t updates = 0;        // edge updates applied through the service
  size_t update_epochs = 0;  // maintenance epochs the applier thread ran

  /// Per-query admission-to-answer latency of completed queries, in
  /// seconds (sample storage capped at kServiceSampleCap).
  Accumulator latency_seconds;
  /// Per-update submit-to-publish latency, in seconds (same sample cap).
  Accumulator update_latency_seconds;
  /// Queries per executed micro-batch (the fill distribution: ≈max_batch
  /// under load, ≈1 under trickle traffic; same sample cap as latency).
  Accumulator batch_fill;

  /// Wall time from service start to this snapshot (frozen by Shutdown()
  /// once every flush worker and the update applier have exited, so
  /// post-shutdown snapshots are identical).
  double elapsed_seconds = 0.0;

  /// Sustained QUERY rate: completed (answered) queries per elapsed
  /// second; failed queries are not throughput. Updates are deliberately
  /// excluded — they are a different operation with a
  /// different cost; see SustainedUpdatesPerSec / SustainedOpsPerSec for
  /// mixed workloads.
  double SustainedQps() const {
    return elapsed_seconds == 0.0
               ? 0.0
               : static_cast<double>(completed) / elapsed_seconds;
  }
  /// Sustained UPDATE rate: edge updates applied per elapsed second.
  double SustainedUpdatesPerSec() const {
    return elapsed_seconds == 0.0
               ? 0.0
               : static_cast<double>(updates) / elapsed_seconds;
  }
  /// Sustained combined operation rate (queries + updates per second) —
  /// the number a mixed-workload bench should report as "throughput" so
  /// update work is not silently dropped from the headline.
  double SustainedOpsPerSec() const {
    return elapsed_seconds == 0.0
               ? 0.0
               : static_cast<double>(completed + updates) / elapsed_seconds;
  }
  /// Latency percentile in milliseconds (0 when nothing completed yet).
  double LatencyPercentileMs(double p) const {
    return latency_seconds.empty() ? 0.0
                                   : latency_seconds.Percentile(p) * 1e3;
  }
  double MeanBatchFill() const {
    return batch_fill.empty() ? 0.0 : batch_fill.Mean();
  }
};

/// The admission service: any number of client threads submit single
/// queries and receive futures; flush workers coalesce them into
/// micro-batches and execute them on the backend.
/// All public methods are thread-safe.
class QueryService {
 public:
  /// Serve `db` through an internally owned DatabaseBackend. `db` must
  /// outlive the service.
  explicit QueryService(const DsaDatabase* db, ServiceOptions options = {});
  /// Serve `mdb` through an internally owned MaintainedBackend: queries
  /// pin epoch snapshots and SubmitUpdate works. `mdb` must outlive the
  /// service.
  explicit QueryService(MaintainedDatabase* mdb, ServiceOptions options = {});
  /// Serve an external backend (e.g. SiteNetworkBackend). `backend` must
  /// outlive the service.
  explicit QueryService(ServiceBackend* backend, ServiceOptions options = {});
  /// Shuts down (draining) if Shutdown() was not called explicitly.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submit one shortest-path cost query. Blocks while the queue is full;
  /// the future carries the cost (kInfinity when unconnected), or
  /// std::runtime_error if the service was already shut down, or
  /// std::out_of_range for an invalid query (database-backed
  /// services validate at admission, so one bad query fails its own
  /// future instead of reaching a flush worker), or a StatusError when
  /// the backend could not evaluate it.
  std::future<Weight> SubmitShortestPath(NodeId from, NodeId to);

  /// Non-blocking submit: nullopt when the queue is full (counted as a
  /// rejection) or the service is shut down. An invalid query returns a
  /// future carrying std::out_of_range (it was not rejected for space).
  std::optional<std::future<Weight>> TrySubmit(NodeId from, NodeId to);

  /// Submit a pre-formed batch, keeping one future per query (in query
  /// order). Blocks element-wise when the queue fills; the flush workers
  /// may split or merge the batch with concurrent submissions.
  std::vector<std::future<Weight>> SubmitBatch(
      const std::vector<Query>& queries);

  /// Submit one edge update. The future yields the maintenance-epoch id
  /// that includes the update; once it resolves, every query submitted
  /// afterwards executes on that epoch or later (see the header comment
  /// for why this holds under concurrent flush workers). Carries
  /// std::runtime_error if the backend has no update support or the
  /// service is shut down, std::out_of_range for unknown node ids or an
  /// insert target that names no fragment of the epoch it would join
  /// (checked by the applier; the epoch's other updates still apply), and
  /// std::invalid_argument for an insert or reweight whose weight is
  /// negative or not finite (the epoch does not advance). The
  /// update queue is unbounded — updates are expected to be orders of
  /// magnitude rarer than queries (the paper's amortization premise).
  std::future<uint64_t> SubmitUpdate(EdgeUpdate update);

  /// Stops admission and drains: blocks until every admitted query's
  /// future is fulfilled and every flush worker has exited. Idempotent.
  void Shutdown();

  /// True once Shutdown() has begun (admission may already be rejecting).
  /// The network edge (net/server.h) checks this to answer requests that
  /// race a shutdown with a clean error frame instead of letting them hit
  /// the admission path's exception; queries admitted before the flag
  /// flipped are still drained and answered normally — that split is the
  /// daemon's shutdown-drain contract.
  bool IsShuttingDown() const {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Snapshot of the accounting so far.
  ServiceStats Stats() const;

  const ServiceOptions& options() const { return options_; }
  /// The clamped flush-worker count actually in use (the resolved value
  /// when flush_workers was 0 = auto).
  size_t num_flush_workers() const { return flush_threads_.size(); }

 private:
  struct Pending {
    Query query;
    std::promise<Weight> promise;
    std::chrono::steady_clock::time_point submit_time;
  };

  struct PendingUpdate {
    EdgeUpdate update;
    std::promise<uint64_t> promise;
    std::chrono::steady_clock::time_point submit_time;
  };

  /// Shared constructor tail: validates options and sizes the
  /// accumulators, then starts the flush workers (and the update applier
  /// when the backend supports updates).
  void Start();
  /// The one admission path behind every Submit*: validates (when a
  /// database is known), then pushes onto the queue. Blocking admission
  /// always returns a future (possibly carrying the shutdown or validation
  /// error); non-blocking returns nullopt on a full queue (counted as a
  /// rejection) or after shutdown.
  std::optional<std::future<Weight>> Admit(Query query, bool blocking);
  /// One flush worker: sleep while the queue is empty, pop up to
  /// max_batch queries from its front, execute, fulfill; exit once
  /// stopping with the queue drained.
  void FlushWorkerLoop();
  /// The update applier: drains all pending updates as one maintenance
  /// epoch per wake, concurrently with the flush workers.
  void UpdateLoop();

  ServiceOptions options_;
  std::unique_ptr<ServiceBackend> owned_backend_;
  ServiceBackend* backend_;  // owned_backend_.get() or external
  /// Admission-time validation domain: node-id bound (0 disables
  /// validation — external backends define their own domain) and whether
  /// route queries are answerable. Captured at construction; the node-id
  /// space of a MaintainedDatabase is stable across epochs.
  size_t validate_num_nodes_ = 0;
  bool routes_supported_ = true;

  /// The one admission lock: it guards both queues, the admission
  /// counters and every write of `stopping_`. A thread never holds it
  /// together with stats_mutex_, so there is no lock order to keep.
  /// Shutdown() sets `stopping_` under it, so an admission that read
  /// `stopping_` false is ordered before the flag flip, and the final
  /// drain sees it.
  mutable std::mutex mutex_;
  std::condition_variable space_cv_;   // submitters blocked on a full queue
  std::condition_variable work_cv_;    // flush workers waiting for queries
  std::condition_variable update_cv_;  // the applier waiting for updates
  std::deque<Pending> queue_;
  /// Unbounded: updates are orders of magnitude rarer than queries.
  std::vector<PendingUpdate> update_queue_;
  size_t submitted_ = 0;  // queries admitted
  size_t rejected_ = 0;   // TrySubmit refusals on a full queue
  /// Written only under mutex_; IsShuttingDown() reads it without a lock.
  std::atomic<bool> stopping_{false};

  /// Guards the aggregate accounting and the stop timestamp.
  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
  std::chrono::steady_clock::time_point start_time_;
  /// Set once by Shutdown(), after every flush thread has exited.
  std::optional<std::chrono::steady_clock::time_point> stop_time_;

  std::once_flag join_once_;
  std::vector<std::thread> flush_threads_;
  std::thread update_thread_;
};

}  // namespace tcf
