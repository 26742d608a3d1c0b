#include "exact/branch_and_bound.hpp"

#include <algorithm>
#include <climits>
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
  int best_ged;  ///< prune bound; seeded ub + 1, strict improvements only
  NodeMatching best_matching;
  /// Also prune with Searcher::MappingBound. Only the decision search
  /// sets it: its O(n^2) cost per child pays off under a tight tau + 1 cap,
  /// but makes the optimisation search slower than it saves.
  bool mapping_bound = false;
  long expansions = 0;
  bool complete = true;  ///< search space exhausted within budget

  /// Per-depth child rankings, reused across sibling subtrees so the hot
  /// loop never allocates after warmup.
  std::vector<std::vector<std::pair<int, int>>> ranked = {};

  void Run() {
    ranked.resize(static_cast<size_t>(std::max(searcher.ctx().n1, 1)));
    DfsState root = searcher.MakeDfs();
    Dfs(root);
  }

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
      if (s.g + searcher.HeuristicOf(s) >= best_ged ||  // admissible prune
          (mapping_bound &&
           s.g + searcher.MappingBound(s, best_ged - s.g) >= best_ged)) {
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
  SeqDriver driver{.searcher = searcher,
                   .budget = opt.max_visits,
                   .best_ged = ub + 1,
                   .best_matching = greedy};
  driver.Run();

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

GedDecisionResult DecideGedWithin(const Graph& g1, const Graph& g2, int tau,
                                  long max_visits) {
  OTGED_CHECK(g1.NumNodes() <= g2.NumNodes());
  GedDecisionResult res;
  // Beyond the bitset search state nothing is decided: kUnknown, like a
  // search that ran out of budget before its root.
  if (g2.NumNodes() > internal::kMaxExactNodes) return res;
  Searcher searcher(g1, g2);
  SeqDriver driver{.searcher = searcher,
                   .budget = max_visits,
                   .best_ged = std::min(tau, INT_MAX - 1) + 1,
                   .best_matching = {},
                   .mapping_bound = true};
  driver.Run();

  res.expansions = driver.expansions;
  if (driver.best_ged <= tau) {
    res.decision = GedDecision::kWithin;
    res.ged = driver.best_ged;
    res.matching = std::move(driver.best_matching);
    res.exact = driver.complete;
  } else if (driver.complete) {
    res.decision = GedDecision::kBeyond;
  }
  return res;
}

}  // namespace otged
