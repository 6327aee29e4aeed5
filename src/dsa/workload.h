// Standardized multi-query workload generation for the batch layer, in the
// style of workload suites like SMOL: a WorkloadSpec names a query mix and
// a size, and GenerateWorkload materializes a deterministic query vector
// for a concrete fragmentation. The mixes stress different parts of the
// execution pipeline:
//
//   kUniform         — endpoints uniform over all nodes: baseline, little
//                      sharing beyond chance collisions.
//   kHotPair         — a Zipf-like skew: most queries repeat a small set of
//                      hot endpoint pairs. The best case for the chain-plan
//                      cache and cross-query subquery deduplication.
//   kWithinFragment  — both endpoints in one fragment: single-site queries
//                      that never touch a disconnection set.
//   kCrossChain      — endpoints in fragments far apart in the
//                      fragmentation graph: maximum-length chains, the
//                      worst case for phase-2 assembly.
#pragma once

#include <vector>

#include "dsa/batch.h"
#include "dsa/maintenance.h"
#include "util/rng.h"

namespace tcf {

enum class WorkloadMix { kUniform, kHotPair, kWithinFragment, kCrossChain };

const char* WorkloadMixName(WorkloadMix mix);

/// How a streaming workload's queries arrive in time (the admission
/// layer's load shape, see dsa/service.h):
///
///   kUniform — a steady trickle: arrivals evenly spaced at the mean rate
///              with bounded jitter. Micro-batches fill by rate alone.
///   kBursty  — on/off traffic: bursts of back-to-back arrivals much
///              faster than the mean rate, separated by idle gaps that
///              restore the mean. The stress case for flush-on-size vs
///              flush-on-time and for queue backpressure.
enum class ArrivalProcess { kUniform, kBursty };

const char* ArrivalProcessName(ArrivalProcess process);

struct WorkloadSpec {
  WorkloadMix mix = WorkloadMix::kUniform;
  size_t num_queries = 1000;
  /// Kind stamped on every generated query.
  QueryKind kind = QueryKind::kCost;
  /// kHotPair: fraction of queries drawn from the hot set and its size.
  double hot_fraction = 0.9;
  size_t num_hot_pairs = 8;
  /// kHotPair: fraction of hot-set draws emitted REVERSED — (to, from)
  /// instead of (from, to). 0.0 keeps every draw forward (the historical
  /// shape); 0.5 models symmetric traffic (A→B commutes paired with
  /// B→A).
  double hot_reverse_fraction = 0.0;

  /// Streaming arrivals (GenerateArrivalTimes): process shape and mean
  /// offered rate.
  ArrivalProcess arrivals = ArrivalProcess::kUniform;
  double arrival_rate_qps = 50000.0;
  /// kBursty: bursts hold about this many back-to-back queries...
  size_t burst_size = 32;
  /// ...arriving this many times faster than the mean rate (the idle gap
  /// after each burst restores the mean).
  double burst_speedup = 10.0;

  /// GenerateMixedWorkload: fraction of operations that are edge updates
  /// (reweight / insert / delete of random edges) instead of queries.
  /// 0.0 reproduces GenerateWorkload's pure-query stream.
  double write_fraction = 0.0;
};

/// Generates `spec.num_queries` queries over `frag`'s graph, deterministic
/// in `rng`'s state. Mixes that need structure the fragmentation cannot
/// offer (e.g. kCrossChain on a single-fragment database) degrade to the
/// nearest simpler mix rather than failing.
std::vector<Query> GenerateWorkload(const Fragmentation& frag,
                                    const WorkloadSpec& spec, Rng* rng);

/// One operation of a read/write mixed stream: a query or an edge update.
struct MixedOp {
  bool is_update = false;
  Query query;        // valid when !is_update
  EdgeUpdate update;  // valid when is_update
};

/// Generates `spec.num_queries` operations over `frag`, deterministic in
/// `rng`'s state: each op is an update with probability
/// `spec.write_fraction`, else a query drawn exactly as GenerateWorkload
/// draws them. Updates are sampled uniformly over {reweight a random
/// existing edge to a fresh weight, insert an edge between random nodes,
/// delete a random existing edge} against the INITIAL edge list — a
/// replayable script, so the same (spec, seed) always yields the same op
/// stream regardless of how it is applied.
std::vector<MixedOp> GenerateMixedWorkload(const Fragmentation& frag,
                                           const WorkloadSpec& spec,
                                           Rng* rng);

/// Arrival offsets in seconds for `spec.num_queries` queries —
/// nondecreasing, starting at 0, deterministic in `rng`'s state, with mean
/// rate `spec.arrival_rate_qps`. An open-loop load driver sleeps until
/// each offset before submitting the matching query of GenerateWorkload.
std::vector<double> GenerateArrivalTimes(const WorkloadSpec& spec, Rng* rng);

}  // namespace tcf
