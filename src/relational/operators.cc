#include "relational/operators.h"

#include <unordered_map>

namespace tcf {

// Every operator consumes its inputs through the cursor API (ForEach), so
// a paged relation streams out of pinned buffer-pool pages tuple run by
// tuple run — the operators never require a resident copy of their inputs,
// only of their (small) outputs.

Relation SelectBySrc(const Relation& r, const NodeSet& set) {
  Relation out;
  r.ForEach([&](const PathTuple& t) {
    if (set.count(t.src)) out.Add(t);
  });
  return out;
}

Relation SelectByDst(const Relation& r, const NodeSet& set) {
  Relation out;
  r.ForEach([&](const PathTuple& t) {
    if (set.count(t.dst)) out.Add(t);
  });
  return out;
}

Relation Select(const Relation& r,
                const std::function<bool(const PathTuple&)>& pred) {
  Relation out;
  r.ForEach([&](const PathTuple& t) {
    if (pred(t)) out.Add(t);
  });
  return out;
}

Relation JoinMinPlus(const Relation& left, const Relation& right,
                     size_t* join_tuples_out) {
  // Hash the smaller-by-convention right side on src. Tuples are stored by
  // value: a paged right side only lends its blocks for the duration of
  // the scan.
  std::unordered_map<NodeId, std::vector<PathTuple>> index;
  index.reserve(right.size());
  right.ForEach([&](const PathTuple& t) { index[t.src].push_back(t); });
  size_t join_tuples = 0;
  std::unordered_map<uint64_t, Weight> best;
  left.ForEach([&](const PathTuple& l) {
    auto it = index.find(l.dst);
    if (it == index.end()) return;
    for (const PathTuple& r : it->second) {
      ++join_tuples;
      const uint64_t key = PairKey(l.src, r.dst);
      const Weight cost = l.cost + r.cost;
      auto [slot, inserted] = best.emplace(key, cost);
      if (!inserted && cost < slot->second) slot->second = cost;
    }
  });
  if (join_tuples_out != nullptr) *join_tuples_out = join_tuples;
  Relation out;
  out.mutable_tuples().reserve(best.size());
  for (const auto& [key, cost] : best) {
    out.Add(static_cast<NodeId>(key >> 32),
            static_cast<NodeId>(key & 0xffffffffu), cost);
  }
  return out;
}

Relation JoinMaxMin(const Relation& left, const Relation& right,
                    size_t* join_tuples_out) {
  std::unordered_map<NodeId, std::vector<PathTuple>> index;
  index.reserve(right.size());
  right.ForEach([&](const PathTuple& t) { index[t.src].push_back(t); });
  size_t join_tuples = 0;
  std::unordered_map<uint64_t, Weight> best;
  left.ForEach([&](const PathTuple& l) {
    auto it = index.find(l.dst);
    if (it == index.end()) return;
    for (const PathTuple& r : it->second) {
      ++join_tuples;
      const uint64_t key = PairKey(l.src, r.dst);
      const Weight capacity = std::min(l.cost, r.cost);
      auto [slot, inserted] = best.emplace(key, capacity);
      if (!inserted && capacity > slot->second) slot->second = capacity;
    }
  });
  if (join_tuples_out != nullptr) *join_tuples_out = join_tuples;
  Relation out;
  for (const auto& [key, capacity] : best) {
    out.Add(static_cast<NodeId>(key >> 32),
            static_cast<NodeId>(key & 0xffffffffu), capacity);
  }
  return out;
}

Relation UnionMin(const Relation& a, const Relation& b) {
  Relation out = a;
  out.Append(b);
  out.AggregateMin();
  return out;
}

Relation UnionMax(const Relation& a, const Relation& b) {
  Relation out = a;
  out.Append(b);
  out.AggregateMax();
  return out;
}

namespace {

// `best` read once into its cost per (src, dst), keeping the cost that
// `better` prefers when a pair occurs twice. A lookup has no error channel,
// so a paged `best` that cannot be read is fatal, as Relation::BestCost is.
template <typename Better>
std::unordered_map<uint64_t, Weight> CostByPair(const Relation& best,
                                                Better better) {
  std::unordered_map<uint64_t, Weight> costs;
  costs.reserve(best.size());
  const Status scan = best.ForEach([&](const PathTuple& t) {
    auto [it, inserted] = costs.emplace(PairKey(t.src, t.dst), t.cost);
    if (!inserted && better(t.cost, it->second)) it->second = t.cost;
  });
  TCF_CHECK_MSG(scan.ok(), "ImprovingTuples: cannot read paged best: " +
                               scan.ToString());
  return costs;
}

}  // namespace

Relation ImprovingTuples(const Relation& candidate, const Relation& best,
                         bool min_plus) {
  const std::unordered_map<uint64_t, Weight> costs =
      CostByPair(best, std::less<Weight>());
  Relation out;
  candidate.ForEach([&](const PathTuple& t) {
    auto it = costs.find(PairKey(t.src, t.dst));
    const Weight current = it == costs.end() ? kInfinity : it->second;
    const bool improves =
        min_plus ? (t.cost < current) : (current == kInfinity);
    if (improves) out.Add(t);
  });
  // The candidate may itself contain several tuples per pair; keep the best.
  out.AggregateMin();
  return out;
}

Relation ImprovingTuplesMax(const Relation& candidate, const Relation& best) {
  const std::unordered_map<uint64_t, Weight> costs =
      CostByPair(best, std::greater<Weight>());
  Relation out;
  candidate.ForEach([&](const PathTuple& t) {
    auto it = costs.find(PairKey(t.src, t.dst));
    const Weight current = it == costs.end() ? 0.0 : it->second;
    if (t.cost > current) out.Add(t);
  });
  out.AggregateMax();
  return out;
}

}  // namespace tcf
