#include "search/index/vp_tree.hpp"

#include <algorithm>
#include <limits>

namespace otged {

namespace {

bool IdIsDead(const std::vector<int>& dead, int id) {
  return std::binary_search(dead.begin(), dead.end(), id);
}

}  // namespace

std::shared_ptr<const VpTree> VpTree::Build(
    std::vector<std::shared_ptr<const StoreEntry>> entries) {
  auto tree = std::shared_ptr<VpTree>(new VpTree);
  const int n = static_cast<int>(entries.size());
  tree->nodes_.reserve(entries.size());
  tree->entries_.reserve(entries.size());
  tree->BuildRange(&entries, 0, n);
  tree->sorted_ids_.reserve(entries.size());
  for (const auto& e : tree->entries_) tree->sorted_ids_.push_back(e->id);
  std::sort(tree->sorted_ids_.begin(), tree->sorted_ids_.end());
  return tree;
}

void VpTree::BuildRange(
    std::vector<std::shared_ptr<const StoreEntry>>* scratch, int lo,
    int hi) {
  const int size = hi - lo;
  if (size <= 0) return;
  auto begin = scratch->begin() + lo;
  auto end = scratch->begin() + hi;
  // Deterministic vantage: the smallest id in the subtree.
  auto vp_it = std::min_element(
      begin, end, [](const auto& a, const auto& b) { return a->id < b->id; });
  std::iter_swap(begin, vp_it);
  const GraphInvariants& vi = (*begin)->invariants;

  const size_t my = nodes_.size();
  nodes_.emplace_back();
  entries_.push_back(*begin);

  const int rest = size - 1;
  if (rest == 0) return;
  std::vector<std::pair<int, std::shared_ptr<const StoreEntry>>> by_dist;
  by_dist.reserve(static_cast<size_t>(rest));
  for (auto it = begin + 1; it != end; ++it)
    by_dist.emplace_back(InvariantLowerBound(vi, (*it)->invariants), *it);
  std::sort(by_dist.begin(), by_dist.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second->id < b.second->id;
            });
  for (int i = 0; i < rest; ++i)
    (*scratch)[static_cast<size_t>(lo + 1 + i)] =
        by_dist[static_cast<size_t>(i)].second;

  // Halving split: balanced depth regardless of distance ties; the two
  // stored radii keep search exact even when inner and outer overlap.
  const int inner = rest / 2;
  VpTreeNode& node = nodes_[my];
  node.inner = inner;
  node.r_in_max = inner > 0 ? by_dist[static_cast<size_t>(inner - 1)].first
                            : -1;
  node.r_out_min =
      rest > inner ? by_dist[static_cast<size_t>(inner)].first : -1;
  BuildRange(scratch, lo + 1, lo + 1 + inner);
  BuildRange(scratch, lo + 1 + inner, hi);
}

void VpTree::Range(const GraphInvariants& query, int tau,
                   const std::vector<int>& dead,
                   std::vector<std::pair<int, int>>* out,
                   long* visited) const {
  RangeImpl(query, tau, dead, 0, Size(), out, visited);
}

void VpTree::RangeImpl(const GraphInvariants& query, int tau,
                       const std::vector<int>& dead, int pos, int size,
                       std::vector<std::pair<int, int>>* out,
                       long* visited) const {
  if (size <= 0) return;
  const std::shared_ptr<const StoreEntry>& e =
      entries_[static_cast<size_t>(pos)];
  ++*visited;
  const int d = InvariantLowerBound(query, e->invariants);
  if (d <= tau && !IdIsDead(dead, e->id)) out->emplace_back(e->id, d);
  const VpTreeNode& node = nodes_[static_cast<size_t>(pos)];
  const int outer = size - 1 - node.inner;
  // Triangle inequality: for x in the inner child,
  // d(q, x) >= d(q, v) - d(v, x) >= d - r_in_max; for x in the outer
  // child, d(q, x) >= d(v, x) - d(q, v) >= r_out_min - d. A child whose
  // bound exceeds tau cannot contain a hit.
  if (node.inner > 0 && d - node.r_in_max <= tau)
    RangeImpl(query, tau, dead, pos + 1, node.inner, out, visited);
  if (outer > 0 && node.r_out_min - d <= tau)
    RangeImpl(query, tau, dead, pos + 1 + node.inner, outer, out, visited);
}

void VpTree::Knn(const GraphInvariants& query, size_t k,
                 const std::vector<int>& dead,
                 std::vector<std::pair<int, int>>* best,
                 long* visited) const {
  if (k == 0) {
    best->clear();
    return;
  }
  // Max-heap on (distance, id); the root is the current worst keeper.
  std::make_heap(best->begin(), best->end());
  while (best->size() > k) {
    std::pop_heap(best->begin(), best->end());
    best->pop_back();
  }
  KnnImpl(query, k, dead, 0, Size(), best, visited);
  std::sort_heap(best->begin(), best->end());
}

void VpTree::KnnImpl(const GraphInvariants& query, size_t k,
                     const std::vector<int>& dead, int pos, int size,
                     std::vector<std::pair<int, int>>* heap,
                     long* visited) const {
  if (size <= 0) return;
  const std::shared_ptr<const StoreEntry>& e =
      entries_[static_cast<size_t>(pos)];
  ++*visited;
  const int d = InvariantLowerBound(query, e->invariants);
  if (!IdIsDead(dead, e->id)) {
    const std::pair<int, int> cand(d, e->id);
    if (heap->size() < k) {
      heap->push_back(cand);
      std::push_heap(heap->begin(), heap->end());
    } else if (cand < heap->front()) {
      std::pop_heap(heap->begin(), heap->end());
      heap->back() = cand;
      std::push_heap(heap->begin(), heap->end());
    }
  }
  const VpTreeNode& node = nodes_[static_cast<size_t>(pos)];
  const int outer = size - 1 - node.inner;
  const int lb_in = node.inner > 0 ? std::max(0, d - node.r_in_max) : -1;
  const int lb_out = outer > 0 ? std::max(0, node.r_out_min - d) : -1;
  // Visit the nearer child first so the heap tightens before the other
  // child's bound is tested. Prune only on a strictly larger bound: at
  // equality a child may still hold an equal-distance, smaller-id pair.
  auto worst = [&]() {
    return heap->size() < k ? std::numeric_limits<int>::max()
                            : heap->front().first;
  };
  const bool inner_first = node.inner > 0 && (outer == 0 || lb_in <= lb_out);
  for (int leg = 0; leg < 2; ++leg) {
    const bool take_inner = (leg == 0) == inner_first;
    if (take_inner) {
      if (node.inner > 0 && lb_in <= worst())
        KnnImpl(query, k, dead, pos + 1, node.inner, heap, visited);
    } else {
      if (outer > 0 && lb_out <= worst())
        KnnImpl(query, k, dead, pos + 1 + node.inner, outer, heap, visited);
    }
  }
}

}  // namespace otged
