#include "search/index/graph_index.hpp"

#include <algorithm>
#include <limits>

#include "telemetry/metrics.hpp"

namespace otged {

namespace {

/// Run-length encodes an ascending label multiset.
std::vector<std::pair<Label, int>> RleLabels(
    const std::vector<Label>& sorted_labels) {
  std::vector<std::pair<Label, int>> rle;
  for (size_t i = 0; i < sorted_labels.size();) {
    size_t j = i;
    while (j < sorted_labels.size() && sorted_labels[j] == sorted_labels[i])
      ++j;
    rle.emplace_back(sorted_labels[i], static_cast<int>(j - i));
    i = j;
  }
  return rle;
}

}  // namespace

void IndexView::RangeCandidates(const GraphInvariants& qi, int tau,
                                std::vector<int>* out_ids,
                                IndexStats* stats) const {
  const size_t first = out_ids->size();
  const double t0 = telemetry::NowUs();
  std::vector<const IndexPartition*> opened;
  ScreenPartitions(partitions_, qi, tau, &opened, stats);
  const double t1 = telemetry::NowUs();
  const auto query_rle = RleLabels(qi.sorted_labels);
  for (const IndexPartition* part : opened)
    PartitionLabelCandidates(*part, qi, query_rle, tau, wl_prefix_bits_,
                             out_ids, stats);
  // Partitions iterate by (n, m); interleave back to ascending id.
  std::sort(out_ids->begin() + static_cast<long>(first), out_ids->end());
  const double t2 = telemetry::NowUs();
  stats->partition_us += t1 - t0;
  stats->label_us += t2 - t1;
}

void IndexView::TopKSeeds(const GraphInvariants& qi, size_t k,
                          std::vector<std::pair<int, int>>* out,
                          IndexStats* stats) const {
  const double t0 = telemetry::NowUs();
  long evaluated = 0;
  out->clear();
  // Partitions in ascending size-bound order (ties keep (n, m) order).
  std::vector<std::pair<int, const IndexPartition*>> order;
  order.reserve(partitions_.size());
  for (const auto& [key, part] : partitions_)
    order.emplace_back(PartitionSizeBound(*part, qi), part.get());
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const auto query_rle = RleLabels(qi.sorted_labels);
  std::vector<int32_t> label_bounds;
  // `out` is a max-heap on (bound, id): its front is the k-th best so
  // far. A member can only enter with a pair below the front, and its
  // pair is never below (max(partition bound, label bound), id). A
  // bound above `worst` can enter nowhere; at equality a member with a
  // smaller id still may.
  auto worst = [&] {
    if (out->size() < k) return std::numeric_limits<int>::max();
    return k == 0 ? -1 : out->front().first;
  };
  for (const auto& [size_bound, part] : order) {
    // Every later partition's size bound is >= this one.
    if (size_bound > worst()) break;
    const int part_bound = PartitionLowerBound(*part, qi, worst());
    if (part_bound > worst()) continue;
    PartitionLabelBounds(*part, qi, query_rle, &label_bounds);
    for (size_t slot = 0; slot < part->members.size(); ++slot) {
      const StoreEntry& e = *part->members[slot];
      const bool full = out->size() == k;
      if (full && std::make_pair(std::max(part_bound, label_bounds[slot]),
                                 e.id) >= out->front())
        continue;
      ++evaluated;
      const std::pair<int, int> cand(InvariantLowerBound(qi, e.invariants),
                                     e.id);
      if (!full) {
        out->push_back(cand);
        std::push_heap(out->begin(), out->end());
      } else if (cand < out->front()) {
        std::pop_heap(out->begin(), out->end());
        out->back() = cand;
        std::push_heap(out->begin(), out->end());
      }
    }
  }
  std::sort_heap(out->begin(), out->end());
  const double t1 = telemetry::NowUs();
  stats->vp_nodes_visited += evaluated;
  stats->vptree_us += t1 - t0;
}

void IndexView::LbRangeCandidates(const GraphInvariants& qi, int tau,
                                  std::vector<int>* out_ids,
                                  IndexStats* stats) const {
  // No WL table at tau == 0: a zero bound does not imply equal hashes.
  const double t0 = telemetry::NowUs();
  const size_t first = out_ids->size();
  long evaluated = 0;
  const auto query_rle = RleLabels(qi.sorted_labels);
  std::vector<int32_t> label_bounds;
  for (const auto& [key, part] : partitions_) {
    if (PartitionLowerBound(*part, qi, tau) > tau) continue;
    PartitionLabelBounds(*part, qi, query_rle, &label_bounds);
    for (size_t slot = 0; slot < part->members.size(); ++slot) {
      if (label_bounds[slot] > tau) continue;
      const StoreEntry& e = *part->members[slot];
      ++evaluated;
      if (InvariantLowerBound(qi, e.invariants) <= tau)
        out_ids->push_back(e.id);
    }
  }
  std::sort(out_ids->begin() + static_cast<long>(first), out_ids->end());
  const double t1 = telemetry::NowUs();
  const long emitted = static_cast<long>(out_ids->size() - first);
  stats->scanned += size_;
  stats->candidates += emitted;
  stats->vptree_pruned += static_cast<long>(size_) - emitted;
  stats->vp_nodes_visited += evaluated;
  stats->vptree_us += t1 - t0;
}

GraphIndex::GraphIndex(const IndexOptions& opt) : opt_(opt) {}

std::shared_ptr<const IndexView> GraphIndex::ViewFor(
    const std::shared_ptr<const StoreSnapshot>& snap) {
  MutexLock lock(mu_);
  if (view_ != nullptr && base_ != nullptr &&
      base_->epoch() == snap->epoch())
    return view_;
  std::shared_ptr<const IndexView> view =
      (view_ == nullptr) ? BuildFull(snap) : Advance(snap);
  Install(snap, view);
  return view;
}

std::shared_ptr<const IndexView> GraphIndex::BuildFull(
    const std::shared_ptr<const StoreSnapshot>& snap) {
  auto view = std::shared_ptr<IndexView>(new IndexView);
  view->epoch_ = snap->epoch();
  view->size_ = snap->Size();
  view->wl_prefix_bits_ = opt_.wl_prefix_bits;
  view->partitions_ =
      BuildPartitionMap(snap->entry_ptrs(), opt_.wl_prefix_bits);
  OTGED_COUNT("otged_index_rebuilds_total",
              "full index builds (the first view of a GraphIndex)");
  return view;
}

std::shared_ptr<const IndexView> GraphIndex::Advance(
    const std::shared_ptr<const StoreSnapshot>& snap) {
  // Both entry vectors ascend by stable id; ids are never reused, but a
  // Restore may rebind an id to a fresh entry object, so pointer
  // inequality at an equal id counts as remove + add.
  const auto& olds = base_->entry_ptrs();
  const auto& news = snap->entry_ptrs();
  std::vector<std::shared_ptr<const StoreEntry>> added, removed;
  size_t i = 0, j = 0;
  while (i < olds.size() || j < news.size()) {
    if (j == news.size() ||
        (i < olds.size() && olds[i]->id < news[j]->id)) {
      removed.push_back(olds[i++]);
    } else if (i == olds.size() || news[j]->id < olds[i]->id) {
      added.push_back(news[j++]);
    } else {
      if (olds[i] != news[j]) {
        removed.push_back(olds[i]);
        added.push_back(news[j]);
      }
      ++i;
      ++j;
    }
  }
  auto view = std::shared_ptr<IndexView>(new IndexView);
  view->epoch_ = snap->epoch();
  view->size_ = snap->Size();
  view->wl_prefix_bits_ = opt_.wl_prefix_bits;
  view->partitions_ = ApplyPartitionDiff(view_->partitions_, added, removed,
                                         opt_.wl_prefix_bits);
  // An epoch can move without a content change (erase of a missing id).
  if (!added.empty() || !removed.empty())
    OTGED_COUNT("otged_index_applies_total",
                "incremental snapshot diffs applied to the cached view");
  return view;
}

void GraphIndex::Install(const std::shared_ptr<const StoreSnapshot>& snap,
                         std::shared_ptr<const IndexView> view) {
  base_ = snap;
  view_ = std::move(view);
  OTGED_GAUGE_SET("otged_index_size", "graphs in the current view",
                  view_->size_);
  OTGED_GAUGE_SET("otged_index_partitions", "partitions in the current view",
                  static_cast<long>(view_->partitions_.size()));
}

}  // namespace otged
