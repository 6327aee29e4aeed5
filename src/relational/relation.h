// The relational view of the problem: the connection network is a relation
// R(src, dst, cost); transitive closure queries are evaluated by iterated
// relational joins (Sec. 2.1 "a relational join between intermediate result
// and the relation modeling the graph").
//
// A Relation is the *logical* bag of tuples; the bytes live either in a
// resident std::vector (the common case — operators build results here) or
// behind an immutable TupleStore (a paged store iterating buffer-pool
// pinned pages of a database file). Reads that must work in both modes go
// through Scan()/ForEach(); tuples() is the resident-only fast path. Any
// mutation of a paged relation first materializes the tuples into the
// resident vector — paged stores themselves are immutable, so copies of a
// paged Relation share the store (cheap epoch carry-over) and the mutated
// copy becomes memory-resident (copy-on-write).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "relational/tuple_store.h"
#include "util/status.h"

namespace tcf {

/// A bag of path tuples with helpers for the aggregation the transitive
/// closure engine needs (keep the cheapest tuple per (src, dst) pair). A
/// plain value: it holds no cache and no lock, so a const Relation may be
/// read from any number of threads at once while nothing mutates it.
class Relation {
 public:
  Relation() = default;
  explicit Relation(std::vector<PathTuple> tuples)
      : tuples_(std::move(tuples)) {}
  /// A relation whose tuples live in an immutable store (e.g. a paged
  /// store over buffer-pool pinned pages). Reads stream through Scan();
  /// the first mutation materializes the tuples into resident memory.
  explicit Relation(std::shared_ptr<const TupleStore> store)
      : store_(std::move(store)) {}

  /// Base relation of a whole graph: one tuple per edge.
  static Relation FromGraph(const Graph& g);
  /// Base relation of an edge subset (a fragment R_i).
  static Relation FromEdgeSubset(const Graph& g,
                                 const std::vector<EdgeId>& edge_ids);

  size_t size() const {
    return store_ != nullptr ? store_->size() : tuples_.size();
  }
  bool empty() const { return size() == 0; }
  /// True when the tuples live behind a TupleStore (not resident memory).
  bool is_paged() const { return store_ != nullptr; }

  /// Resident-only direct access. A paged relation has no resident vector
  /// to expose — stream it with Scan()/ForEach() instead, or Materialize()
  /// first if a vector is genuinely required.
  const std::vector<PathTuple>& tuples() const {
    TCF_CHECK_MSG(store_ == nullptr,
                  "Relation::tuples() on a paged relation; use Scan()");
    return tuples_;
  }
  std::vector<PathTuple>& mutable_tuples() {
    MaterializeOrDie();
    return tuples_;
  }

  /// A scan over all tuples, resident or paged. Value type: destroying it
  /// releases whatever the scan holds (for paged relations, the buffer-pool
  /// pin). Blocks are valid until the next NextBlock() call. A paged scan
  /// that cannot read its pages ends early with a non-OK status() — check
  /// it after the loop (resident scans cannot fail).
  class Cursor {
   public:
    std::span<const PathTuple> NextBlock() {
      if (impl_ != nullptr) return impl_->NextBlock();
      return std::exchange(resident_, {});
    }

    Status status() const {
      return impl_ != nullptr ? impl_->status() : Status::OK();
    }

   private:
    friend class Relation;
    explicit Cursor(std::span<const PathTuple> resident)
        : resident_(resident) {}
    explicit Cursor(std::unique_ptr<TupleStore::Cursor> impl)
        : impl_(std::move(impl)) {}

    std::span<const PathTuple> resident_;
    std::unique_ptr<TupleStore::Cursor> impl_;
  };

  Cursor Scan() const {
    if (store_ != nullptr) return Cursor(store_->NewCursor());
    return Cursor(std::span<const PathTuple>(tuples_));
  }

  /// Visit every tuple: `fn(const PathTuple&)`. The pin-lifetime rule in
  /// one helper — any page pinned for the scan is released on return.
  /// Returns the scan's final status: always OK for resident relations; a
  /// paged relation whose pages cannot be read stops the visit early and
  /// reports why. Callers on a query path must propagate the failure (a
  /// partial visit must never pass as a complete one).
  template <typename Fn>
  Status ForEach(Fn&& fn) const {
    Cursor cursor = Scan();
    for (std::span<const PathTuple> block = cursor.NextBlock();
         !block.empty(); block = cursor.NextBlock()) {
      for (const PathTuple& t : block) fn(t);
    }
    return cursor.status();
  }

  /// Pull the tuples of a paged relation into resident memory and drop the
  /// store reference. No-op for resident relations. On failure the
  /// relation is unchanged (still paged, still readable if the fault was
  /// transient).
  Status Materialize();

  void Add(PathTuple t) {
    MaterializeOrDie();
    tuples_.push_back(t);
  }
  void Add(NodeId src, NodeId dst, Weight cost) {
    Add(PathTuple{src, dst, cost});
  }
  /// Appends `other`'s tuples, streaming a paged `other` through its
  /// cursor. Returns the stream's status — on failure `*this` holds the
  /// tuples appended so far and the caller must not treat the result as
  /// complete.
  Status Append(const Relation& other);
  void Clear() {
    tuples_.clear();
    store_.reset();
  }

  /// Collapse duplicates: keep the minimum cost per (src, dst).
  void AggregateMin();
  /// Collapse duplicates: keep the maximum cost per (src, dst) — the
  /// aggregation of the bottleneck (max-min capacity) semiring.
  void AggregateMax();

  /// Deterministic order (src, dst, cost) — used by tests and printers.
  void SortCanonical();

  /// The best (minimum) cost for (src, dst); kInfinity if absent. One
  /// scan of the relation per call: for tests and single probes. A caller
  /// that probes many pairs reads the relation once into a map of its own
  /// (ImprovingTuples, RefreshComplementary). A lookup has no error
  /// channel, so a paged relation whose pages cannot be read is fatal
  /// here (TCF_CHECK); code that must survive storage faults scans with
  /// ForEach and handles its Status.
  Weight BestCost(NodeId src, NodeId dst) const;
  /// The best (maximum) capacity for (src, dst); 0 if absent. One scan
  /// per call, failing as BestCost does.
  Weight MaxCost(NodeId src, NodeId dst) const;
  bool Contains(NodeId src, NodeId dst) const {
    return BestCost(src, dst) != kInfinity;
  }

  std::string ToString(size_t max_rows = 32) const;

 private:
  // Mutation prelude: a paged relation must be resident before its tuple
  // vector can change. Mutators have no error channel, so a store that
  // cannot be read here is fatal — mutation of paged relations happens on
  // maintenance paths that read or materialize them with Status-checked
  // calls first; the query path never mutates.
  void MaterializeOrDie() {
    const Status st = Materialize();
    TCF_CHECK_MSG(st.ok(), "Relation: cannot materialize paged store: " +
                               st.ToString());
  }

  std::vector<PathTuple> tuples_;
  std::shared_ptr<const TupleStore> store_;
};

}  // namespace tcf
