/// \file vp_tree.hpp
/// \brief Vantage-point tree over stored graphs, with the invariant GED
/// lower bound as its metric.
///
/// `InvariantLowerBound` is a genuine pseudo-metric on invariants — each
/// ingredient obeys the triangle inequality and those properties survive
/// the combinators used to assemble it:
///   * the label-multiset bound max(|A\B|, |B\A|) is a multiset distance
///     (an element of A\C is missing from B or surplus in B, so
///     |A\C| <= |A\B| + |B\C| with multiplicity);
///   * | |E1| - |E2| | and the degree-sequence bound ceil(L1/2) are
///     metrics (descending degree sequences zero-padded to a common
///     length embed into l1, and ceil(x/2) is subadditive);
///   * sums and maxima of metrics are metrics.
/// It is also admissible (<= the true GED), so triangle-inequality
/// pruning over this metric can dismiss a stored graph only when its
/// lower bound provably exceeds the query threshold — the candidate set
/// always contains every true hit.
///
/// Nodes store two radii (max distance inside the inner child, min
/// distance inside the outer child), so search correctness never depends
/// on how the builder split a node: the builder always halves the
/// subtree, keeping the tree balanced even on tie-heavy metrics.
///
/// The tree is immutable after Build; views layer recent inserts (a
/// linear delta list) and erases (a dead-id set) on top and rebuild when
/// the overlay grows past a configured fraction.
#ifndef OTGED_SEARCH_INDEX_VP_TREE_HPP_
#define OTGED_SEARCH_INDEX_VP_TREE_HPP_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "search/graph_store.hpp"

namespace otged {

/// One VP-tree node in preorder layout: the node at position `p` with
/// subtree size `s` stores entries_[p] as its vantage, its inner child
/// at [p+1, p+1+inner] and its outer child at [p+1+inner, p+s).
struct VpTreeNode {
  int32_t r_in_max = -1;  ///< max metric(vantage, x) over the inner child
  int32_t r_out_min = -1;  ///< min metric(vantage, x) over the outer child
  int32_t inner = 0;  ///< node count of the inner child
};

class VpTree {
 public:
  /// Builds deterministically from entries sorted ascending by id: the
  /// vantage of every subtree is its smallest id, the rest are sorted by
  /// (distance, id) and halved. O(n log^2 n) metric evaluations.
  static std::shared_ptr<const VpTree> Build(
      std::vector<std::shared_ptr<const StoreEntry>> entries);

  int Size() const { return static_cast<int>(nodes_.size()); }

  /// Appends (id, distance) for every live entry with
  /// metric(query, entry) <= tau; ids in `dead` (sorted ascending) still
  /// serve as vantage points but are never emitted. `visited` counts
  /// metric evaluations.
  void Range(const GraphInvariants& query, int tau,
             const std::vector<int>& dead,
             std::vector<std::pair<int, int>>* out, long* visited) const;

  /// Folds the k lexicographically smallest (distance, id) pairs over
  /// live entries into `best` (which may be pre-seeded with outside
  /// candidates, e.g. a delta list); `best` comes back sorted ascending,
  /// at most k long. Deterministic: the result is the set of k smallest
  /// pairs, independent of traversal order.
  void Knn(const GraphInvariants& query, size_t k,
           const std::vector<int>& dead,
           std::vector<std::pair<int, int>>* best, long* visited) const;

  /// All contained ids, ascending (for overlay membership tests).
  const std::vector<int>& sorted_ids() const { return sorted_ids_; }

 private:
  VpTree() = default;
  void BuildRange(
      std::vector<std::shared_ptr<const StoreEntry>>* scratch, int lo,
      int hi);
  void RangeImpl(const GraphInvariants& query, int tau,
                 const std::vector<int>& dead, int pos, int size,
                 std::vector<std::pair<int, int>>* out, long* visited) const;
  void KnnImpl(const GraphInvariants& query, size_t k,
               const std::vector<int>& dead, int pos, int size,
               std::vector<std::pair<int, int>>* heap, long* visited) const;

  std::vector<VpTreeNode> nodes_;
  std::vector<std::shared_ptr<const StoreEntry>> entries_;
  std::vector<int> sorted_ids_;
};

}  // namespace otged

#endif  // OTGED_SEARCH_INDEX_VP_TREE_HPP_
