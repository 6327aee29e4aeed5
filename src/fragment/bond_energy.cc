#include "fragment/bond_energy.h"

#include <algorithm>

#include "fragment/node_partition.h"
#include "util/logging.h"
#include "util/status.h"

namespace tcf {

namespace {

/// Bond cache: inner products between columns, computed on demand.
class BondCache {
 public:
  explicit BondCache(const BitMatrix& m)
      : m_(m), cache_(m.size() * m.size(), -1) {}

  double Bond(size_t a, size_t b) {
    int& slot = cache_[a * m_.size() + b];
    if (slot < 0) {
      slot = static_cast<int>(m_.ColumnInnerProduct(a, b));
      cache_[b * m_.size() + a] = slot;
    }
    return static_cast<double>(slot);
  }

 private:
  const BitMatrix& m_;
  std::vector<int> cache_;
};

/// Greedy BEA placement starting from `seed`. Returns the ordering and its
/// total energy.
BondEnergyOrdering PlaceFromSeed(const BitMatrix& m, BondCache* bonds,
                                 size_t seed) {
  const size_t n = m.size();
  BondEnergyOrdering result;
  std::vector<size_t> placed = {seed};
  std::vector<char> is_placed(n, 0);
  is_placed[seed] = 1;

  for (size_t step = 1; step < n; ++step) {
    double best_gain = -1.0;
    size_t best_col = 0, best_pos = 0;
    for (size_t col = 0; col < n; ++col) {
      if (is_placed[col]) continue;
      // Position p means: insert before placed[p]; p == placed.size()
      // appends at the right end.
      for (size_t p = 0; p <= placed.size(); ++p) {
        double gain;
        if (p == 0) {
          gain = bonds->Bond(col, placed.front());
        } else if (p == placed.size()) {
          gain = bonds->Bond(placed.back(), col);
        } else {
          gain = bonds->Bond(placed[p - 1], col) +
                 bonds->Bond(col, placed[p]) -
                 bonds->Bond(placed[p - 1], placed[p]);
        }
        if (gain > best_gain) {
          best_gain = gain;
          best_col = col;
          best_pos = p;
        }
      }
    }
    placed.insert(placed.begin() + static_cast<ptrdiff_t>(best_pos),
                  best_col);
    is_placed[best_col] = 1;
  }

  // Iterative refinement: repeatedly pull one column out and re-insert it
  // at its best position. Fixes the stray columns a single greedy pass
  // tends to leave at the ends of the ordering.
  auto energy_of = [&](const std::vector<size_t>& ord) {
    double e = 0.0;
    for (size_t i = 0; i + 1 < ord.size(); ++i) {
      e += bonds->Bond(ord[i], ord[i + 1]);
    }
    return e;
  };
  // A single column has no other position to move to, and re-inserting it
  // would read the front of an empty ordering.
  bool improved = placed.size() >= 2;
  for (int pass = 0; pass < 8 && improved; ++pass) {
    improved = false;
    // 2-opt segment reversals. Maximizing the sum of adjacent bonds is a
    // max-TSP path problem; since bonds are symmetric a reversal only
    // changes the two boundary bonds, so the delta is O(1). This merges
    // cluster runs that the greedy insertion left separated.
    for (size_t i = 0; i + 1 < placed.size(); ++i) {
      for (size_t j = i + 1; j < placed.size(); ++j) {
        const double before =
            (i > 0 ? bonds->Bond(placed[i - 1], placed[i]) : 0.0) +
            (j + 1 < placed.size() ? bonds->Bond(placed[j], placed[j + 1])
                                   : 0.0);
        const double after =
            (i > 0 ? bonds->Bond(placed[i - 1], placed[j]) : 0.0) +
            (j + 1 < placed.size() ? bonds->Bond(placed[i], placed[j + 1])
                                   : 0.0);
        if (after > before + 1e-9) {
          std::reverse(placed.begin() + static_cast<ptrdiff_t>(i),
                       placed.begin() + static_cast<ptrdiff_t>(j) + 1);
          improved = true;
        }
      }
    }
    // Single-column re-insertion (Or-opt of size 1).
    for (size_t i = 0; i < placed.size(); ++i) {
      const size_t col = placed[i];
      // Gain lost by removing col from position i.
      const double left = i > 0 ? bonds->Bond(placed[i - 1], col) : 0.0;
      const double right =
          i + 1 < placed.size() ? bonds->Bond(col, placed[i + 1]) : 0.0;
      const double rejoin = (i > 0 && i + 1 < placed.size())
                                ? bonds->Bond(placed[i - 1], placed[i + 1])
                                : 0.0;
      const double removal_loss = left + right - rejoin;
      // Best alternative position.
      std::vector<size_t> without = placed;
      without.erase(without.begin() + static_cast<ptrdiff_t>(i));
      double best_gain = removal_loss;
      size_t best_pos = i;
      for (size_t p = 0; p <= without.size(); ++p) {
        double gain;
        if (p == 0) {
          gain = bonds->Bond(col, without.front());
        } else if (p == without.size()) {
          gain = bonds->Bond(without.back(), col);
        } else {
          gain = bonds->Bond(without[p - 1], col) +
                 bonds->Bond(col, without[p]) -
                 bonds->Bond(without[p - 1], without[p]);
        }
        if (gain > best_gain + 1e-9) {
          best_gain = gain;
          best_pos = p;
        }
      }
      if (best_pos != i || best_gain > removal_loss + 1e-9) {
        without.insert(without.begin() + static_cast<ptrdiff_t>(best_pos),
                       col);
        placed = std::move(without);
        improved = true;
      }
    }
  }

  result.column_order.assign(placed.begin(), placed.end());
  result.energy = energy_of(placed);
  return result;
}

/// Out-of-block connection counts for every prefix cut of the ordering:
/// cut[p] = # of undirected adjacencies between order[0..p] and
/// order[p+1..n-1] (diagonal entries never cross).
std::vector<size_t> PrefixCuts(const Graph& g,
                               const std::vector<NodeId>& order) {
  const size_t n = order.size();
  std::vector<size_t> position(n);
  for (size_t i = 0; i < n; ++i) position[order[i]] = i;
  std::vector<size_t> cut(n, 0);
  size_t current = 0;
  for (size_t p = 0; p < n; ++p) {
    const NodeId v = order[p];
    // Adding v to the block: adjacencies to the right side increase the
    // cut; adjacencies to the already-scanned side decrease it.
    for (NodeId w : g.UndirectedNeighbors(v)) {
      if (position[w] > p) {
        ++current;
      } else if (position[w] < p) {
        --current;
      }
    }
    cut[p] = current;
  }
  return cut;
}

}  // namespace

BitMatrix AdjacencyMatrix(const Graph& g) {
  BitMatrix m(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    m.Set(v, v, true);
    for (NodeId w : g.UndirectedNeighbors(v)) {
      m.Set(v, w, true);
      m.Set(w, v, true);
    }
  }
  return m;
}

BondEnergyOrdering ComputeBondEnergyOrdering(
    const Graph& g, const BondEnergyOptions& options) {
  const size_t n = g.NumNodes();
  TCF_CHECK(n >= 1);
  BitMatrix m = AdjacencyMatrix(g);
  BondCache bonds(m);

  size_t num_seeds =
      options.try_all_seed_columns ? n : std::min(n, options.max_seed_columns);
  BondEnergyOrdering best;
  best.energy = -1.0;
  // Deterministic seed choice: spread over the id space.
  for (size_t s = 0; s < num_seeds; ++s) {
    const size_t seed = (s * n) / num_seeds;
    BondEnergyOrdering cand = PlaceFromSeed(m, &bonds, seed);
    if (cand.energy > best.energy) best = std::move(cand);
  }
  return best;
}

Fragmentation BondEnergyFragmentation(const Graph& g,
                                      const BondEnergyOptions& options) {
  TCF_CHECK(options.num_fragments >= 1);
  const size_t n = g.NumNodes();
  BondEnergyOrdering ordering = ComputeBondEnergyOrdering(g, options);
  const std::vector<NodeId>& order = ordering.column_order;
  const std::vector<size_t> cut = PrefixCuts(g, order);

  // Undirected edge count inside a growing block, to enforce the minimum
  // block size in *edges* (the paper's fragment sizes are edge counts).
  std::vector<size_t> position(n);
  for (size_t i = 0; i < n; ++i) position[order[i]] = i;

  const size_t min_edges =
      options.min_fragment_edges > 0
          ? options.min_fragment_edges
          : g.NumEdges() / (4 * options.num_fragments) + 1;

  // suffix_intra[p]: tuples with both endpoints strictly right of p — the
  // edges the remaining blocks could still own. A split that would leave
  // less than a minimum-size fragment's worth of them is pointless (it
  // produces the "too small" fragments the paper's finetuning avoids).
  std::vector<size_t> suffix_intra(n + 1, 0);
  {
    std::vector<size_t> minpos_hist(n + 1, 0);
    for (const Edge& e : g.edges()) {
      ++minpos_hist[std::min(position[e.src], position[e.dst])];
    }
    // suffix_intra[p] = #tuples with min position > p.
    size_t acc = 0;
    for (size_t p = n; p-- > 0;) {
      suffix_intra[p] = acc;          // tuples with minpos >= p+1
      acc += minpos_hist[p];
    }
  }

  // One scan of the ordered columns with a given threshold. Returns the
  // node blocks (paper: "the columns of the matrix are scanned only once,
  // from left to right; local conditions are used to determine if a good
  // place to split the matrix has been encountered").
  const size_t f = options.num_fragments;
  auto scan = [&](double threshold) {
    std::vector<int> block_of_node(n, -1);
    int block = 0;
    size_t block_edges = 0;
    for (size_t p = 0; p < n; ++p) {
      const NodeId v = order[p];
      block_of_node[v] = block;
      // Edges (tuples) fully inside the current block once v joins: count
      // tuples between v and already-in-block nodes.
      for (const OutEdge& oe : g.OutEdges(v)) {
        if (block_of_node[oe.dst] == block) ++block_edges;
      }
      for (const InEdge& ie : g.InEdges(v)) {
        if (ie.src != v && block_of_node[ie.src] == block) ++block_edges;
      }
      const bool last_column = (p + 1 == n);
      if (last_column) break;
      bool do_split = false;
      if (options.split_rule == BondEnergyOptions::SplitRule::kThreshold) {
        do_split = static_cast<double>(cut[p]) <= threshold;
      } else {
        // Local minimum: split as soon as the cut is about to increase.
        do_split = cut[p + 1] > cut[p];
      }
      // The block-size guards are the paper's finetuning ("taking into
      // account the number of edges in the current block ... avoids
      // generating fragments that are 'too small'"), applied to both the
      // closing block and the remainder; the 2f cap keeps an over-relaxed
      // threshold from shredding the matrix.
      if (do_split && block_edges >= min_edges &&
          suffix_intra[p] >= min_edges &&
          static_cast<size_t>(block) + 1 < 2 * f) {
        ++block;
        block_edges = 0;
      }
    }
    return block_of_node;
  };

  if (options.split_rule == BondEnergyOptions::SplitRule::kLocalMinimum) {
    std::vector<int> blocks = scan(0.0);
    const size_t made =
        static_cast<size_t>(*std::max_element(blocks.begin(), blocks.end())) +
        1;
    return FragmentationFromNodePartition(g, blocks, made);
  }

  // Threshold rule: start strict (small disconnection sets) and relax the
  // threshold until the scan yields about the requested number of blocks;
  // keep the attempt whose block count lands closest to f, preferring
  // stricter thresholds on ties.
  std::vector<int> best_blocks(n, 0);
  size_t best_made = 1;
  auto badness = [&](size_t count) {
    return count >= f ? count - f : (f - count);
  };
  auto consider = [&](double threshold) {
    std::vector<int> blocks = scan(threshold);
    const size_t made =
        static_cast<size_t>(*std::max_element(blocks.begin(), blocks.end())) +
        1;
    if (made > 1 && (best_made <= 1 || badness(made) < badness(best_made))) {
      best_blocks = std::move(blocks);
      best_made = made;
    }
    return made;
  };

  double lo = options.threshold.value_or(3.0);
  double hi = lo;
  size_t made = consider(lo);
  for (int attempt = 0; attempt < 16 && made < f; ++attempt) {
    hi = std::max(hi * 2.0, 1.0);
    made = consider(hi);
    if (made < f) lo = hi;
    TCF_LOG(Debug) << "bond-energy: relaxed threshold to " << hi;
  }
  // The doubling may overshoot f; bisect between the last under-shooting
  // and the first over-shooting threshold for the closest block count.
  for (int step = 0; step < 10 && best_made != f && hi - lo > 0.5; ++step) {
    const double mid = 0.5 * (lo + hi);
    if (consider(mid) < f) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return FragmentationFromNodePartition(g, best_blocks, best_made);
}

}  // namespace tcf
