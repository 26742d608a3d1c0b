/// \file partition_table.hpp
/// \brief Signature partitions with inverted label postings — the
/// structure every level of the candidate-generation index walks.
///
/// Graphs are partitioned by their exact (num_nodes, num_edges)
/// signature. Two admissible bounds are read off the table, both never
/// above any member's InvariantLowerBound:
///
///   partition bound   max(|dn| + |dm|, envelope gap). A node edit
///                     moves num_nodes by at most one and an edge edit
///                     moves num_edges by at most one, so
///                     GED >= |dn| + |dm|. Every member's ascending
///                     degree sequence lies inside the partition's
///                     positional min/max envelope, so the query's L1
///                     gap to the envelope (halved, rounded up) never
///                     exceeds a member's degree-sequence bound;
///   label bound       max(n_q, n_g) - common + |m_q - m_g|, per member
///                     (common = sum of min label counts), filled by one
///                     walk over the inverted index that maps each node
///                     label to the members containing it.
///
/// A range query screens partitions on the partition bound and opens
/// only the survivors, where members pass on the label bound; at
/// tau == 0 a WL-hash prefix table replaces the walk (WL equality is
/// necessary for GED == 0, so only the query's hash bucket is opened).
/// Top-k seeding and the exact LB-range cut (graph_index.hpp) skip
/// partitions on the same bounds and evaluate InvariantLowerBound only
/// for members whose label bound can still matter.
#ifndef OTGED_SEARCH_INDEX_PARTITION_TABLE_HPP_
#define OTGED_SEARCH_INDEX_PARTITION_TABLE_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "search/graph_store.hpp"
#include "search/index/index_stats.hpp"

namespace otged {

/// One (num_nodes, num_edges) partition; immutable once built, shared
/// between index views (copy-on-write at the partition level).
struct IndexPartition {
  int num_nodes = 0;
  int num_edges = 0;
  /// Members ascending by stable id.
  std::vector<std::shared_ptr<const StoreEntry>> members;

  /// Inverted index: for each label present in some member, the members
  /// containing it with their multiplicity. Ascending by label; inner
  /// lists ascending by member slot.
  struct Posting {
    Label label = 0;
    std::vector<std::pair<int32_t, int32_t>> counts;  ///< (member slot, count)
  };
  std::vector<Posting> postings;

  /// Positional min/max over members' ascending degree sequences (all
  /// members share num_nodes, so the sequences align index-by-index).
  std::vector<int> degree_min;
  std::vector<int> degree_max;

  /// (wl_hash >> (64 - prefix_bits), member slot) ascending — the
  /// tau == 0 prefix table. Candidate buckets are confirmed against the
  /// full hash before emitting.
  std::vector<std::pair<uint64_t, int32_t>> wl_prefixes;
};

/// Map key for a partition; iteration order is (num_nodes, num_edges).
uint64_t PartitionKey(int num_nodes, int num_edges);

std::shared_ptr<const IndexPartition> BuildPartition(
    int num_nodes, int num_edges,
    std::vector<std::shared_ptr<const StoreEntry>> members,
    int wl_prefix_bits);

using PartitionMap =
    std::map<uint64_t, std::shared_ptr<const IndexPartition>>;

/// Groups a snapshot's entries (ascending by id) into partitions.
PartitionMap BuildPartitionMap(
    const std::vector<std::shared_ptr<const StoreEntry>>& entries,
    int wl_prefix_bits);

/// Copy-on-write update: untouched partitions are shared with `base`,
/// touched ones are rebuilt from their surviving + added members.
PartitionMap ApplyPartitionDiff(
    const PartitionMap& base,
    const std::vector<std::shared_ptr<const StoreEntry>>& added,
    const std::vector<std::shared_ptr<const StoreEntry>>& removed,
    int wl_prefix_bits);

/// |dn| + |dm|, a lower bound on the GED to every member of `part`.
int PartitionSizeBound(const IndexPartition& part, const GraphInvariants& qi);

/// Lower bound on InvariantLowerBound(qi, g) for every member g of
/// `part`: max(PartitionSizeBound, degree envelope gap). Once the size
/// bound alone exceeds `cap`, it is returned without computing the
/// envelope gap.
int PartitionLowerBound(const IndexPartition& part,
                        const GraphInvariants& qi, int cap);

/// Level 1: appends partitions whose PartitionLowerBound is <= tau to
/// `opened`; accounts pruned members in `stats`.
void ScreenPartitions(const PartitionMap& parts, const GraphInvariants& qi,
                      int tau,
                      std::vector<const IndexPartition*>* opened,
                      IndexStats* stats);

/// Fills `bounds` (resized to the member count, indexed by member slot)
/// with each member's label-count bound
/// max(n_q, n_g) - common + |m_q - m_g|, which never exceeds
/// InvariantLowerBound. Run-length encoded query labels in `query_rle`
/// (ascending by label).
void PartitionLabelBounds(const IndexPartition& part,
                          const GraphInvariants& qi,
                          const std::vector<std::pair<Label, int>>& query_rle,
                          std::vector<int32_t>* bounds);

/// Level 2: appends the ids of members of `part` whose label bound is
/// <= tau (at tau == 0: whose WL hash matches), ascending.
void PartitionLabelCandidates(
    const IndexPartition& part, const GraphInvariants& qi,
    const std::vector<std::pair<Label, int>>& query_rle, int tau,
    int wl_prefix_bits, std::vector<int>* out_ids, IndexStats* stats);

}  // namespace otged

#endif  // OTGED_SEARCH_INDEX_PARTITION_TABLE_HPP_
