/// \file branch_and_bound.hpp
/// \brief Depth-first branch-and-bound exact GED verifier.
///
/// This is the repository's stand-in for the exact graph-similarity
/// engines the paper compares against in Fig. 15 (Nass [21] and
/// AStar-BMao [8]): a memory-light exponential-time exact solver whose
/// running time is highly sensitive to graph size and GED — exactly the
/// property the figure measures. It is also used to exactify small
/// dataset pairs when A*'s memory profile is unfavourable.
#ifndef OTGED_EXACT_BRANCH_AND_BOUND_HPP_
#define OTGED_EXACT_BRANCH_AND_BOUND_HPP_

#include <optional>

#include "exact/astar.hpp"

namespace otged {

struct BnbOptions {
  /// Node-expansion budget: internal search-tree nodes whose children are
  /// generated, the same accounting AstarGed reports in `expansions`. A
  /// search whose tree takes exactly this many expansions is complete
  /// (`exact == true`); one more node needed means incomplete.
  long max_visits = 5'000'000;
  int initial_upper_bound = -1; ///< -1 = derive one greedily
};

/// Exact GED by DFS branch and bound with the same admissible heuristic
/// as AstarGed. Returns the best result found; `exact` is true iff the
/// search space was exhausted within budget and a path within the seed
/// bound was found (result proven optimal) — a hint below the true GED
/// leaves the greedy witness unproven. Graphs beyond the exact search's
/// node limit (64) get the greedy witness with `exact == false` and no
/// expansions instead of a search.
/// Runs on the do/undo structure-of-arrays scratch state, exploring the
/// identical tree in the identical order as the historical copy-based
/// driver — only cheaper per node.
GedSearchResult BranchAndBoundGed(const Graph& g1, const Graph& g2,
                                  const BnbOptions& opt = {});

/// Three-way answer to "GED <= tau?".
enum class GedDecision {
  kWithin,   ///< proven: a witness of cost <= tau was found
  kBeyond,   ///< proven: the search completed and no path costs <= tau
  kUnknown,  ///< budget exhausted (or graph too large) before either
};

/// Result of DecideGedWithin. `ged`, `matching` and `exact` are set only
/// for kWithin.
struct GedDecisionResult {
  GedDecision decision = GedDecision::kUnknown;
  int ged = -1;           ///< witness cost, <= tau
  NodeMatching matching;  ///< G1 node -> G2 node realizing `ged`
  bool exact = false;     ///< the search completed: `ged` is the GED
  long expansions = 0;    ///< same accounting as BranchAndBoundGed
};

/// Decides GED(g1, g2) <= tau by the same depth-first search as
/// BranchAndBoundGed, pruned at tau + 1 instead of at an upper bound on
/// the optimum, and with the partial-mapping bound (label mismatch plus
/// mismatched edges to the mapped nodes, per unmapped node) on top of
/// the label/edge-count heuristic. After a witness is found the search
/// keeps lowering the cap, so a completed search also proves the
/// witness optimal. `max_visits` is the expansion budget (BnbOptions
/// semantics). Requires n1 <= n2. Graphs beyond the exact search's node
/// limit (64) return kUnknown with no expansions.
GedDecisionResult DecideGedWithin(const Graph& g1, const Graph& g2, int tau,
                                  long max_visits);

}  // namespace otged

#endif  // OTGED_EXACT_BRANCH_AND_BOUND_HPP_
