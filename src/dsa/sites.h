// Message-passing simulation of the distributed deployment the paper
// targets (the PRISMA multiprocessor of Sec. 5): each fragment R_i is
// "stored at a different computer or processor" — here, a Site thread
// owning its fragment and complementary information, reachable only
// through its mailbox. A coordinator executes queries strictly via
// messages, which lets tests *verify* rather than assume the paper's
// phase-1 property: "neither communication nor synchronization is
// required during the first phase of the computation; ... Only at the end
// of the computation, communication is required for computing the final
// joins."
#pragma once

#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "dsa/chains.h"
#include "dsa/local_query.h"
#include "net/site_transport.h"

namespace tcf {

class ThreadPool;

/// Which fabric carries the coordinator/site messages (the protocol on
/// top is identical — see net/site_transport.h).
enum class SiteTransportKind {
  kInProcess,  // per-site Channel mailboxes (simulation default)
  kSocket,     // one loopback TCP connection per site, real wire frames
};

/// Communication accounting for one query, by protocol phase.
struct SiteTraffic {
  size_t subquery_messages = 0;       // coordinator -> sites (phase 0)
  size_t result_messages = 0;         // sites -> coordinator (phase 2)
  size_t result_tuples = 0;           // tuple volume of phase 2
  size_t inter_site_messages = 0;     // site <-> site (must stay 0!)
};

/// A network of per-fragment site threads plus a coordinator-side API.
/// Queries may be issued from any number of threads: the coordinator side
/// is serialized internally by a mutex (one query or batch protocol round
/// in flight at a time — the single coordinator of the paper's deployment).
/// Coordinator-side *planning* runs on an internal planner pool through
/// the same planner as the in-process batch executor (one plan per
/// distinct pair, per-fragment subquery dedup, skeleton cache), so large
/// batches do not serialize on plan construction.
class SiteNetwork {
 public:
  /// Spawns one thread per fragment. `frag` must outlive the network; the
  /// complementary information is precomputed here (one copy per site in
  /// a real deployment; shared read-only storage in the simulation).
  /// `transport` picks the message fabric; kSocket runs every subquery
  /// and result through the tcfrag wire codec over loopback TCP.
  explicit SiteNetwork(const Fragmentation* frag,
                       LocalEngine engine = LocalEngine::kDijkstra,
                       SiteTransportKind transport =
                           SiteTransportKind::kInProcess);
  ~SiteNetwork();

  SiteNetwork(const SiteNetwork&) = delete;
  SiteNetwork& operator=(const SiteNetwork&) = delete;

  size_t NumSites() const { return sites_.size(); }

  /// Shortest-path cost via the full message protocol: plan chains, send
  /// one subquery message per (fragment, selection), await result
  /// messages, assemble locally. Exact (uses complementary information).
  Weight ShortestPathCost(NodeId from, NodeId to,
                          SiteTraffic* traffic = nullptr);

  /// A whole batch through the same protocol as one fan-out: every query
  /// is planned up front, subqueries are deduplicated *across queries*
  /// (one message per distinct (fragment, selection) no matter how many
  /// queries need it), all messages are sent before any result is awaited,
  /// and every answer is assembled at the coordinator. The phase-1
  /// property is preserved batch-wide: sites still never talk to each
  /// other. `traffic`, if non-null, receives the whole batch's counters.
  std::vector<Weight> BatchShortestPathCosts(
      const std::vector<std::pair<NodeId, NodeId>>& queries,
      SiteTraffic* traffic = nullptr);

 private:
  void SiteLoop(FragmentId fragment);

  const Fragmentation* frag_;
  LocalEngine engine_;
  ComplementaryInfo complementary_;
  /// The message fabric (mailboxes or loopback sockets); every subquery
  /// and result crosses it — SiteNetwork itself never hands a site a
  /// pointer.
  std::unique_ptr<SiteTransport> transport_;
  std::vector<std::thread> sites_;

  /// Serializes the coordinator protocol (mailbox fan-out + inbox drain):
  /// request ids and the shared inbox admit one protocol round at a time.
  std::mutex coordinator_mutex_;
  /// Parallel planning on the coordinator (guarded by coordinator_mutex_).
  std::unique_ptr<ThreadPool> planner_pool_;
  std::unique_ptr<ChainPlanCache> plan_cache_;
  uint64_t next_request_id_ = 1;
};

}  // namespace tcf
