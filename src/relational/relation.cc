#include "relational/relation.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace tcf {

Relation Relation::FromGraph(const Graph& g) {
  Relation r;
  r.tuples_.reserve(g.NumEdges());
  for (const Edge& e : g.edges()) r.Add(e.src, e.dst, e.weight);
  return r;
}

Relation Relation::FromEdgeSubset(const Graph& g,
                                  const std::vector<EdgeId>& edge_ids) {
  Relation r;
  r.tuples_.reserve(edge_ids.size());
  for (EdgeId id : edge_ids) {
    const Edge& e = g.edge(id);
    r.Add(e.src, e.dst, e.weight);
  }
  return r;
}

Status Relation::Materialize() {
  if (store_ == nullptr) return Status::OK();
  // Copy into a local vector first and commit only on a clean scan: a
  // failed read leaves the relation exactly as it was (still paged, still
  // readable if the fault was transient).
  std::vector<PathTuple> resident;
  resident.reserve(store_->size());
  std::unique_ptr<TupleStore::Cursor> cursor = store_->NewCursor();
  for (std::span<const PathTuple> block = cursor->NextBlock(); !block.empty();
       block = cursor->NextBlock()) {
    resident.insert(resident.end(), block.begin(), block.end());
  }
  TCF_RETURN_NOT_OK(cursor->status());
  tuples_ = std::move(resident);
  store_.reset();
  return Status::OK();
}

Status Relation::Append(const Relation& other) {
  TCF_RETURN_NOT_OK(Materialize());
  tuples_.reserve(tuples_.size() + other.size());
  // Streams `other` through its cursor, so appending a paged relation
  // copies tuples out of pinned pages without materializing `other`.
  return other.ForEach([this](const PathTuple& t) { tuples_.push_back(t); });
}

void Relation::AggregateMin() {
  MaterializeOrDie();
  std::unordered_map<uint64_t, Weight> best;
  best.reserve(tuples_.size());
  for (const PathTuple& t : tuples_) {
    auto [it, inserted] = best.emplace(PairKey(t.src, t.dst), t.cost);
    if (!inserted && t.cost < it->second) it->second = t.cost;
  }
  tuples_.clear();
  tuples_.reserve(best.size());
  for (const auto& [key, cost] : best) {
    tuples_.push_back(PathTuple{static_cast<NodeId>(key >> 32),
                                static_cast<NodeId>(key & 0xffffffffu),
                                cost});
  }
}

void Relation::AggregateMax() {
  MaterializeOrDie();
  std::unordered_map<uint64_t, Weight> best;
  best.reserve(tuples_.size());
  for (const PathTuple& t : tuples_) {
    auto [it, inserted] = best.emplace(PairKey(t.src, t.dst), t.cost);
    if (!inserted && t.cost > it->second) it->second = t.cost;
  }
  tuples_.clear();
  tuples_.reserve(best.size());
  for (const auto& [key, cost] : best) {
    tuples_.push_back(PathTuple{static_cast<NodeId>(key >> 32),
                                static_cast<NodeId>(key & 0xffffffffu),
                                cost});
  }
}

void Relation::SortCanonical() {
  MaterializeOrDie();
  std::sort(tuples_.begin(), tuples_.end(),
            [](const PathTuple& a, const PathTuple& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.cost < b.cost;
            });
}

Weight Relation::BestCost(NodeId src, NodeId dst) const {
  Weight best = kInfinity;
  const Status scan = ForEach([&](const PathTuple& t) {
    if (t.src == src && t.dst == dst && t.cost < best) best = t.cost;
  });
  TCF_CHECK_MSG(scan.ok(), "Relation::BestCost: cannot read paged store: " +
                               scan.ToString());
  return best;
}

Weight Relation::MaxCost(NodeId src, NodeId dst) const {
  bool found = false;
  Weight best = 0.0;
  const Status scan = ForEach([&](const PathTuple& t) {
    if (t.src == src && t.dst == dst && (!found || t.cost > best)) {
      found = true;
      best = t.cost;
    }
  });
  TCF_CHECK_MSG(scan.ok(), "Relation::MaxCost: cannot read paged store: " +
                               scan.ToString());
  return best;
}

std::string Relation::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << "Relation(" << size() << " tuples";
  if (is_paged()) os << ", paged";
  os << ")";
  size_t shown = 0;
  Cursor cursor = Scan();
  for (std::span<const PathTuple> block = cursor.NextBlock(); !block.empty();
       block = cursor.NextBlock()) {
    for (const PathTuple& t : block) {
      if (shown++ == max_rows) {
        os << "\n  ...";
        return os.str();
      }
      os << "\n  (" << t.src << " -> " << t.dst << ", " << t.cost << ")";
    }
  }
  if (!cursor.status().ok()) {
    os << "\n  <scan error: " << cursor.status().ToString() << ">";
  }
  return os.str();
}

}  // namespace tcf
