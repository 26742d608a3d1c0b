#include "exact/branch_and_bound.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "exact/search_common.hpp"

namespace otged {

using internal::DfsState;
using internal::Searcher;

namespace {

/// Sequential DFS on the do/undo scratch state. The budget counts node
/// *expansions* (internal nodes whose children are generated), the same
/// accounting AstarGed uses for popped non-goal states; a search that
/// exhausts its tree with exactly `budget` expansions is complete. The
/// check runs before an expansion, so at most `budget` expansions ever
/// happen — the old driver's post-increment admitted budget + 1 visits
/// and then mislabeled exactly-exhausted searches as incomplete.
struct SeqDriver {
  const Searcher& searcher;
  long budget;
  long expansions = 0;
  int best_ged;  ///< prune bound; seeded ub + 1, strict improvements only
  NodeMatching best_matching;
  bool complete = true;  ///< search space exhausted within budget

  /// Per-depth child rankings, reused across sibling subtrees so the hot
  /// loop never allocates after warmup.
  std::vector<std::vector<std::pair<int, int>>> ranked;

  // otged-lint: hot-path
  void Dfs(DfsState& s) {
    const int n1 = searcher.ctx().n1, n2 = searcher.ctx().n2;
    if (s.depth == n1) {
      // Leaves cost g + h exactly (HeuristicOf degenerates to the
      // completion cost once every G1 node is mapped).
      const int total = s.g + searcher.HeuristicOf(s);
      if (total < best_ged) {
        best_ged = total;
        best_matching = searcher.ExtractMatching(s);
      }
      return;
    }
    if (expansions >= budget) {
      complete = false;
      return;
    }
    ++expansions;
    // Order children by true cost delta to find good bounds early.
    auto& kids = ranked[s.depth];
    kids.clear();
    for (int v = 0; v < n2; ++v) {
      if (s.used >> v & 1) continue;
      kids.emplace_back(searcher.DeltaFast(s, v), v);
    }
    std::sort(kids.begin(), kids.end());
    for (auto [delta, v] : kids) {
      if (s.g + delta >= best_ged) continue;  // cheap pre-prune
      searcher.Push(&s, v, delta);
      if (s.g + searcher.HeuristicOf(s) >= best_ged) {  // admissible prune
        searcher.Pop(&s);
        continue;
      }
      Dfs(s);
      searcher.Pop(&s);
      if (!complete) return;
    }
  }
};

}  // namespace

GedSearchResult BranchAndBoundGed(const Graph& g1, const Graph& g2,
                                  const BnbOptions& opt) {
  OTGED_CHECK(g1.NumNodes() <= g2.NumNodes());

  // Initial upper bound: identity-order greedy matching (always feasible).
  int ub = opt.initial_upper_bound;
  NodeMatching greedy(static_cast<size_t>(g1.NumNodes()));
  for (int i = 0; i < g1.NumNodes(); ++i) greedy[i] = i;
  int greedy_cost = EditCostFromMatching(g1, g2, greedy);
  if (g2.NumNodes() > internal::kMaxExactNodes) {
    // Beyond the bitset search state: report the feasible witness,
    // unproven, like a search that ran out of budget before its root.
    GedSearchResult res;
    res.ged = greedy_cost;
    res.matching = std::move(greedy);
    res.exact = false;
    res.expansions = 0;
    return res;
  }
  if (ub < 0 || greedy_cost < ub) ub = greedy_cost;
  Searcher searcher(g1, g2);

  // Seed: best_ged = ub + 1 so a path matching ub is still explored; the
  // greedy matching backs the result if nothing better is found.
  SeqDriver driver{searcher, opt.max_visits, 0, ub + 1, greedy, true, {}};
  driver.ranked.resize(static_cast<size_t>(std::max(g1.NumNodes(), 1)));
  DfsState root = searcher.MakeDfs();
  driver.Dfs(root);

  GedSearchResult res;
  if (driver.best_ged <= ub) {
    res.ged = driver.best_ged;
    res.matching = driver.best_matching;
  } else {
    res.ged = greedy_cost;
    res.matching = greedy;
  }
  // A completed search proves optimality only if it found a path within
  // the seed bound; an infeasible hint (below the true GED) leaves
  // nothing found and the greedy fallback unproven.
  res.exact = driver.complete && driver.best_ged <= ub;
  res.expansions = driver.expansions;
  return res;
}

}  // namespace otged
