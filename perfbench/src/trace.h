// Span recording for the traced benchmark run, kept entirely outside the
// library: spans are taken around calls into each layer's public entry
// points, held in memory, and written out once at exit.
//
// A span is (name, id, parent, request, start, end, attrs). Times are
// CLOCK_MONOTONIC nanoseconds (std::chrono::steady_clock on Linux), which
// is system-wide, so spans written by the server process and by the load
// generator share one time base and can be matched after the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dsa/service.h"

namespace perfbench {

/// Monotonic nanoseconds, comparable across processes on one host.
int64_t NowNs();

struct Span {
  const char* name = "";  // static string: "<layer>.<what>"
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // 0 = not tied to one request (e.g. a batch)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string attrs;  // space-separated key=value pairs
};

/// Thread-safe, append-only, in-memory span store.
class SpanLog {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(Span span);
  void AddAll(std::vector<Span> spans);
  /// One tab-separated line per span:
  /// name id parent request start_ns end_ns attrs.
  bool WriteTsv(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// tcfragd's service settings, used by every stack the benchmark builds:
/// max_batch 64, the default 2 ms max_wait, one flush worker per core, 4
/// admission shards.
tcf::ServiceOptions TcfragdServiceOptions();

/// Every how many traced micro-batches one is replayed stage by stage.
inline constexpr size_t kReplayEvery = 8;

/// The service->batch and service->maintenance boundary, traced: a
/// ServiceBackend that wraps a MaintainedBackend. While disabled it only
/// forwards. While enabled it records
///   - one `batch.execute` span per micro-batch (its size and endpoint
///     pairs, so requests can be matched to the batch that answered them),
///   - one `maintenance.epoch` span per update epoch with its EpochStats,
///   - for every kReplayEvery-th micro-batch, a replay of the same batch
///     through the public stage calls PlanBatchInParallel -> RunLocalQuery
///     (one span per keyhole subquery) -> AssembleCostAnswer on the same
///     pinned snapshot, alternately just before and just after the
///     forwarded call, whose answers the service returns. Replayed answers
///     must equal them.
class TracingBackend : public tcf::ServiceBackend {
 public:
  /// `mdb` and `log` must outlive the backend.
  TracingBackend(tcf::MaintainedDatabase* mdb, SpanLog* log);

  std::vector<tcf::Result<tcf::Weight>> ExecuteBatch(
      const std::vector<tcf::Query>& queries) override;
  bool SupportsUpdates() const override { return true; }
  uint64_t ApplyUpdates(const std::vector<tcf::EdgeUpdate>& updates) override;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_release);
  }
  /// Batch-core accounting of every forwarded micro-batch (replays are
  /// not counted).
  tcf::BatchStats cumulative_stats() const {
    return inner_.cumulative_stats();
  }
  /// Replayed answers that differed from the forwarded ones.
  uint64_t replay_mismatches() const {
    return replay_mismatches_.load(std::memory_order_relaxed);
  }

 private:
  struct ReplayAnswers {
    std::vector<tcf::Weight> costs;
    std::vector<char> ok;  // 0 where the query failed
  };
  /// Runs the batch stage by stage, recording a `batch.replay` span tree
  /// linked to the forwarded call's span `batch_span`.
  ReplayAnswers Replay(const std::vector<tcf::Query>& queries,
                       const tcf::DsaSnapshot& snap, uint64_t batch_span);

  tcf::MaintainedBackend inner_;
  tcf::MaintainedDatabase* mdb_;
  SpanLog* log_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> traced_batches_{0};
  std::atomic<uint64_t> replay_mismatches_{0};
};

}  // namespace perfbench
