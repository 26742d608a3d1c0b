#include "search/index/graph_index.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace otged {

namespace {

constexpr const char* kRebuildsName = "otged_index_rebuilds_total";
constexpr const char* kRebuildsHelp =
    "full VP-tree builds (initial or overlay overflow)";

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
  long visited = 0;
  out->clear();
  out->reserve(delta_.size() + k);
  for (const auto& e : delta_) {
    ++visited;
    out->emplace_back(InvariantLowerBound(qi, e->invariants), e->id);
  }
  vp_->Knn(qi, k, dead_, out, &visited);
  const double t1 = telemetry::NowUs();
  stats->vp_nodes_visited += visited;
  stats->vptree_us += t1 - t0;
}

void IndexView::LbRangeCandidates(const GraphInvariants& qi, int tau,
                                  std::vector<int>* out_ids,
                                  IndexStats* stats) const {
  const double t0 = telemetry::NowUs();
  long visited = 0;
  std::vector<std::pair<int, int>> hits;  // (id, lb)
  vp_->Range(qi, tau, dead_, &hits, &visited);
  for (const auto& e : delta_) {
    ++visited;
    if (InvariantLowerBound(qi, e->invariants) <= tau)
      hits.emplace_back(e->id, 0);
  }
  const size_t first = out_ids->size();
  for (const auto& h : hits) out_ids->push_back(h.first);
  std::sort(out_ids->begin() + static_cast<long>(first), out_ids->end());
  const double t1 = telemetry::NowUs();
  const long emitted = static_cast<long>(hits.size());
  stats->scanned += size_;
  stats->candidates += emitted;
  stats->vptree_pruned += static_cast<long>(size_) - emitted;
  stats->vp_nodes_visited += visited;
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
  view->vp_ = VpTree::Build(snap->entry_ptrs());
  OTGED_COUNT(kRebuildsName, kRebuildsHelp);
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
  if (added.empty() && removed.empty() && view_->size_ == snap->Size()) {
    // Epoch moved without content change (e.g. erase of a missing id).
    auto view = std::shared_ptr<IndexView>(new IndexView(*view_));
    view->epoch_ = snap->epoch();
    return view;
  }

  auto view = std::shared_ptr<IndexView>(new IndexView);
  view->epoch_ = snap->epoch();
  view->size_ = snap->Size();
  view->wl_prefix_bits_ = opt_.wl_prefix_bits;
  view->partitions_ = ApplyPartitionDiff(view_->partitions_, added, removed,
                                         opt_.wl_prefix_bits);

  // VP-tree overlay: erases of tree residents become dead ids, erases of
  // delta entries drop out of the delta, inserts append to the delta.
  // An id can be in BOTH places at once — a Restore rebind of a tree
  // resident marks the stale tree entry dead and serves the fresh entry
  // from the delta — so a removal must always clear the delta entry, and
  // the dead list must stay duplicate-free.
  view->vp_ = view_->vp_;
  view->dead_ = view_->dead_;
  view->delta_ = view_->delta_;
  for (const auto& e : removed) {
    auto it = std::lower_bound(
        view->delta_.begin(), view->delta_.end(), e->id,
        [](const auto& d, int id) { return d->id < id; });
    if (it != view->delta_.end() && (*it)->id == e->id)
      view->delta_.erase(it);
    if (std::binary_search(view->vp_->sorted_ids().begin(),
                           view->vp_->sorted_ids().end(), e->id)) {
      auto dit =
          std::lower_bound(view->dead_.begin(), view->dead_.end(), e->id);
      if (dit == view->dead_.end() || *dit != e->id)
        view->dead_.insert(dit, e->id);
    }
  }
  for (const auto& e : added)
    view->delta_.insert(
        std::lower_bound(view->delta_.begin(), view->delta_.end(), e->id,
                         [](const auto& d, int id) { return d->id < id; }),
        e);

  const size_t overlay = view->delta_.size() + view->dead_.size();
  const size_t limit = std::max(
      static_cast<size_t>(opt_.vp_rebuild_min),
      static_cast<size_t>(opt_.vp_rebuild_fraction *
                          static_cast<double>(snap->Size())));
  if (overlay > limit) {
    view->vp_ = VpTree::Build(snap->entry_ptrs());
    view->delta_.clear();
    view->dead_.clear();
    OTGED_COUNT(kRebuildsName, kRebuildsHelp);
  }
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
  OTGED_GAUGE_SET(
      "otged_index_vp_overlay",
      "VP-tree overlay entries (delta inserts + dead ids)",
      static_cast<long>(view_->delta_.size() + view_->dead_.size()));
}

}  // namespace otged
