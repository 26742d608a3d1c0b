/// \file graph_index.hpp
/// \brief Snapshot-consistent multi-level candidate-generation index.
///
/// Sits between GraphStore and FilterCascade: given a pinned snapshot,
/// the engine asks the index for a candidate id list instead of scanning
/// every stored graph. Three levels over one partition table
/// (partition_table.hpp), all pruning strictly via admissible lower
/// bounds (so indexed results are byte-identical to a linear scan):
///
///   level 1  partition screen   max(|dn| + |dm|, degree envelope gap)
///                               prunes whole (n, m) partitions without
///                               opening them
///   level 2  label postings     inverted label index inside a
///                               partition; members pass on their
///                               label-count bound (at tau == 0 a WL-hash
///                               prefix table is used instead)
///   level 3  exact bound cut    InvariantLowerBound evaluated only for
///                               members that levels 1 + 2 cannot rule
///                               out; serves top-k seeding (partitions
///                               visited in ascending bound order until
///                               the k-th best is out of reach) and the
///                               final LB-range cut
///
/// Consistency model: an IndexView is immutable and tied to one store
/// epoch. GraphIndex caches the view for the most recent snapshot it
/// served and advances it by diffing snapshot entry vectors (both are
/// ascending by stable id, so the diff is a linear merge walk); touched
/// partitions are rebuilt copy-on-write and the rest are shared.
/// Concurrent queries that pinned older views keep using them untouched.
#ifndef OTGED_SEARCH_INDEX_GRAPH_INDEX_HPP_
#define OTGED_SEARCH_INDEX_GRAPH_INDEX_HPP_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"
#include "search/graph_store.hpp"
#include "search/index/index_stats.hpp"
#include "search/index/partition_table.hpp"

namespace otged {

struct IndexOptions {
  /// Width of the tau == 0 WL-hash prefix tables (1..64). Wider prefixes
  /// mean smaller buckets; candidates are always confirmed against the
  /// full hash, so this only trades space for bucket selectivity.
  int wl_prefix_bits = 16;
};

/// The index at one store epoch. Immutable; safe to share across
/// threads; valid for as long as the shared_ptr is held.
class IndexView {
 public:
  uint64_t epoch() const { return epoch_; }
  int Size() const { return size_; }

  /// Range candidate generation (levels 1 + 2): appends ascending stable
  /// ids of every graph whose partition/label lower bounds are <= tau.
  /// Superset of the true hit set; the cascade re-checks the full tier-0
  /// bound per candidate.
  void RangeCandidates(const GraphInvariants& qi, int tau,
                       std::vector<int>* out_ids, IndexStats* stats) const;

  /// Top-k seeding (level 3): the k lexicographically smallest
  /// (InvariantLowerBound, id) pairs, ascending — identical to what a
  /// full scan's nth_element by (bound, slot) would select. All of them
  /// when k >= Size().
  void TopKSeeds(const GraphInvariants& qi, size_t k,
                 std::vector<std::pair<int, int>>* out, IndexStats* stats)
      const;

  /// Exact LB-range cut (level 3): ascending ids of every graph with
  /// InvariantLowerBound(query, g) <= tau — not a superset, the precise
  /// set, as required for top-k exactness.
  void LbRangeCandidates(const GraphInvariants& qi, int tau,
                         std::vector<int>* out_ids, IndexStats* stats) const;

 private:
  friend class GraphIndex;

  uint64_t epoch_ = 0;
  int size_ = 0;
  int wl_prefix_bits_ = 16;
  PartitionMap partitions_;
};

/// Maintains the current IndexView for a store. Thread-safe; queries in
/// flight keep whatever view they pinned.
class GraphIndex {
 public:
  explicit GraphIndex(const IndexOptions& opt = IndexOptions());

  /// The view for `snap`, building or incrementally advancing the cached
  /// view as needed.
  std::shared_ptr<const IndexView> ViewFor(
      const std::shared_ptr<const StoreSnapshot>& snap) EXCLUDES(mu_);

 private:
  std::shared_ptr<const IndexView> BuildFull(
      const std::shared_ptr<const StoreSnapshot>& snap) REQUIRES(mu_);
  std::shared_ptr<const IndexView> Advance(
      const std::shared_ptr<const StoreSnapshot>& snap) REQUIRES(mu_);
  void Install(const std::shared_ptr<const StoreSnapshot>& snap,
               std::shared_ptr<const IndexView> view) REQUIRES(mu_);

  const IndexOptions opt_;
  Mutex mu_;
  std::shared_ptr<const StoreSnapshot> base_ GUARDED_BY(mu_);
  std::shared_ptr<const IndexView> view_ GUARDED_BY(mu_);
};

}  // namespace otged

#endif  // OTGED_SEARCH_INDEX_GRAPH_INDEX_HPP_
