#include "exact/astar.hpp"
#include "exact/branch_and_bound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <utility>
#include <vector>

#include "exact/search_common.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"

namespace otged {
namespace {

/// One graph drawn from a family indexed in [0, 4): labeled ER,
/// unlabeled ER, sparse power-law, AIDS-like molecules.
Graph SampleGraph(int family, Rng* rng) {
  switch (family) {
    case 0:
      return RandomConnectedGraph(rng->UniformInt(3, 8),
                                  rng->UniformInt(0, 3), 5, rng);
    case 1:
      return RandomConnectedGraph(rng->UniformInt(3, 8),
                                  rng->UniformInt(0, 3), 1, rng);
    case 2:
      return PowerLawGraph(rng->UniformInt(4, 8), 1, rng);
    default:
      return AidsLikeGraph(rng, 4, 8);
  }
}

/// Per G1 node, the G2 images of its mapped neighbours, recomputed from
/// scratch (the reference for DfsState::img).
std::vector<uint64_t> NeighbourImages(const Graph& g1,
                                      const std::vector<int>& map1to2) {
  std::vector<uint64_t> img(static_cast<size_t>(g1.NumNodes()), 0);
  for (int u = 0; u < g1.NumNodes(); ++u)
    for (int w : g1.Neighbors(u))
      if (map1to2[w] >= 0) img[u] |= 1ull << map1to2[w];
  return img;
}

/// A pair ordered so n1 <= n2, as every exact search requires.
std::pair<Graph, Graph> SamplePair(int trial, Rng* rng) {
  Graph a = SampleGraph(trial % 4, rng);
  Graph b = SampleGraph((trial + 1 + trial / 4) % 4, rng);
  if (a.NumNodes() > b.NumNodes()) std::swap(a, b);
  return {std::move(a), std::move(b)};
}

TEST(AstarTest, IdenticalGraphsGiveZero) {
  Rng rng(1);
  Graph g = AidsLikeGraph(&rng, 4, 8);
  auto res = AstarGed(g, g);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->ged, 0);
  EXPECT_TRUE(res->exact);
}

TEST(AstarTest, SingleRelabel) {
  Graph g1(3, 0);
  g1.AddEdge(0, 1);
  g1.AddEdge(1, 2);
  Graph g2 = g1;
  g2.set_label(2, 5);
  auto res = AstarGed(g1, g2);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->ged, 1);
}

TEST(AstarTest, NodeInsertionCountsEdgeToo) {
  Graph g1(2, 0);
  g1.AddEdge(0, 1);
  Graph g2(3, 0);
  g2.AddEdge(0, 1);
  g2.AddEdge(1, 2);
  auto res = AstarGed(g1, g2);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->ged, 2);  // insert node + insert edge
}

TEST(AstarTest, MatchingRealizesReportedGed) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 3, 6);
    Graph g2 = AidsLikeGraph(&rng, 6, 8);
    auto res = AstarGed(g1, g2);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(EditCostFromMatching(g1, g2, res->matching), res->ged);
  }
}

TEST(AstarTest, NeverExceedsSyntheticDelta) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = AidsLikeGraph(&rng, 4, 7);
    SyntheticEditOptions opt;
    opt.num_edits = rng.UniformInt(1, 4);
    opt.num_labels = 29;
    GedPair pair = SyntheticEditPair(g, opt, &rng);
    if (pair.g2.NumNodes() > 8) continue;
    auto res = AstarGed(pair.g1, pair.g2);
    ASSERT_TRUE(res.has_value());
    EXPECT_LE(res->ged, pair.ged);     // Δ is an upper bound
    EXPECT_GE(res->ged,
              LabelSetLowerBound(pair.g1, pair.g2));  // admissible LB
  }
}

TEST(AstarTest, RespectsExpansionBudget) {
  Rng rng(4);
  Graph g1 = ImdbLikeGraph(&rng, 9, 10);
  Graph g2 = ImdbLikeGraph(&rng, 10, 12);
  if (g1.NumNodes() > g2.NumNodes()) std::swap(g1, g2);
  AstarOptions opt;
  opt.max_expansions = 3;
  auto res = AstarGed(g1, g2, opt);
  // With such a tiny budget the search gives up (unless trivially done).
  if (res.has_value()) {
    EXPECT_LE(res->expansions, 4);
  }
}

TEST(BeamTest, IsFeasibleUpperBound) {
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 3, 6);
    Graph g2 = AidsLikeGraph(&rng, 6, 8);
    auto exact = AstarGed(g1, g2);
    ASSERT_TRUE(exact.has_value());
    GedSearchResult beam = BeamGed(g1, g2, 5);
    EXPECT_GE(beam.ged, exact->ged);
    EXPECT_EQ(EditCostFromMatching(g1, g2, beam.matching), beam.ged);
  }
}

TEST(BeamTest, HugeBeamIsExhaustiveAndExact) {
  // Beam quality is not monotone in the width (a wider beam can displace
  // good states with optimistic dead-ends), but an exhaustive beam must
  // recover the exact GED.
  Rng rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 3, 5);
    Graph g2 = AidsLikeGraph(&rng, 5, 7);
    auto exact = AstarGed(g1, g2);
    ASSERT_TRUE(exact.has_value());
    GedSearchResult beam = BeamGed(g1, g2, 1 << 20);
    EXPECT_TRUE(beam.exact);
    EXPECT_EQ(beam.ged, exact->ged);
  }
}

TEST(BnbTest, AgreesWithAstar) {
  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 3, 6);
    Graph g2 = AidsLikeGraph(&rng, 6, 8);
    auto astar = AstarGed(g1, g2);
    ASSERT_TRUE(astar.has_value());
    GedSearchResult bnb = BranchAndBoundGed(g1, g2);
    EXPECT_TRUE(bnb.exact);
    EXPECT_EQ(bnb.ged, astar->ged) << "trial " << trial;
  }
}

TEST(BnbTest, UpperBoundHintSpeedsSearch) {
  Rng rng(8);
  Graph g1 = LinuxLikeGraph(&rng, 7, 9);
  Graph g2 = LinuxLikeGraph(&rng, 9, 10);
  if (g1.NumNodes() > g2.NumNodes()) std::swap(g1, g2);
  GedSearchResult base = BranchAndBoundGed(g1, g2);
  BnbOptions opt;
  opt.initial_upper_bound = base.ged;
  GedSearchResult hinted = BranchAndBoundGed(g1, g2, opt);
  EXPECT_EQ(hinted.ged, base.ged);
  EXPECT_LE(hinted.expansions, base.expansions);
}

TEST(BnbTest, BudgetBoundaryIsInclusive) {
  // The budget counts node expansions the same way AstarGed does, and it
  // is inclusive: a search whose tree takes exactly `max_visits`
  // expansions completes with exact == true. (The old driver burned one
  // budget unit per *visit* including the root, so a budget equal to the
  // tree size came up one short.)
  Rng rng(11);
  int boundary_cases = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 4, 7);
    Graph g2 = AidsLikeGraph(&rng, 7, 9);
    if (g1.NumNodes() > g2.NumNodes()) std::swap(g1, g2);
    GedSearchResult full = BranchAndBoundGed(g1, g2);
    ASSERT_TRUE(full.exact);
    if (full.expansions < 2) continue;  // need room below the boundary
    ++boundary_cases;
    BnbOptions opt;
    opt.max_visits = full.expansions;  // tree is exactly this large
    GedSearchResult at = BranchAndBoundGed(g1, g2, opt);
    EXPECT_TRUE(at.exact) << "trial " << trial;
    EXPECT_EQ(at.ged, full.ged) << "trial " << trial;
    EXPECT_EQ(at.expansions, full.expansions) << "trial " << trial;
    opt.max_visits = full.expansions - 1;
    GedSearchResult under = BranchAndBoundGed(g1, g2, opt);
    EXPECT_FALSE(under.exact) << "trial " << trial;
    EXPECT_EQ(under.expansions, full.expansions - 1) << "trial " << trial;
    // Even a truncated search returns a feasible witness.
    EXPECT_EQ(EditCostFromMatching(g1, g2, under.matching), under.ged)
        << "trial " << trial;
  }
  EXPECT_GT(boundary_cases, 0);
}

TEST(BnbTest, InfeasibleHintIsNotExact) {
  // A hint below the true GED leaves the seeded search nothing to find:
  // it completes, but the greedy witness it falls back to is unproven.
  Rng rng(12);
  int probed = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 4, 7);
    Graph g2 = AidsLikeGraph(&rng, 6, 9);
    if (g1.NumNodes() > g2.NumNodes()) std::swap(g1, g2);
    const GedSearchResult full = BranchAndBoundGed(g1, g2);
    ASSERT_TRUE(full.exact);
    if (full.ged == 0) continue;
    ++probed;
    BnbOptions opt;
    opt.initial_upper_bound = full.ged - 1;
    const GedSearchResult hinted = BranchAndBoundGed(g1, g2, opt);
    EXPECT_FALSE(hinted.exact) << "trial " << trial;
    EXPECT_GE(hinted.ged, full.ged) << "trial " << trial;
    EXPECT_EQ(EditCostFromMatching(g1, g2, hinted.matching), hinted.ged)
        << "trial " << trial;
    // A feasible hint (the true GED) still proves the optimum.
    opt.initial_upper_bound = full.ged;
    const GedSearchResult tight = BranchAndBoundGed(g1, g2, opt);
    EXPECT_TRUE(tight.exact) << "trial " << trial;
    EXPECT_EQ(tight.ged, full.ged) << "trial " << trial;
  }
  EXPECT_GT(probed, 0);
}

// The SoA do/undo scratch must agree with the recompute-from-scratch
// reference at every step: DeltaFast vs Delta, the incremental O(1)
// heuristic vs the O(n + m) recompute, the neighbour-image bitsets vs a
// recompute after every Push and Pop, and Push/Pop as exact inverses.
TEST(SearchScratchTest, MatchesRecomputeReferenceOnRandomWalks) {
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    auto [g1, g2] = SamplePair(trial, &rng);
    internal::Searcher searcher(g1, g2);
    const int n1 = searcher.ctx().n1, n2 = searcher.ctx().n2;
    internal::SearchState s = searcher.Root();
    internal::DfsState d = searcher.MakeDfs();
    const internal::DfsState fresh = searcher.MakeDfs();
    EXPECT_EQ(searcher.HeuristicOf(d), s.h) << "trial " << trial;
    for (int depth = 0; depth < n1; ++depth) {
      std::vector<int> free_v;
      for (int v = 0; v < n2; ++v)
        if (!(s.used >> v & 1)) free_v.push_back(v);
      for (int v : free_v)
        ASSERT_EQ(searcher.DeltaFast(d, v), searcher.Delta(s, v))
            << "trial " << trial << " depth " << depth << " v " << v;
      const int v = free_v[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(free_v.size()) - 1))];
      searcher.Push(&d, v, searcher.DeltaFast(d, v));
      s = searcher.Child(s, v);
      ASSERT_EQ(d.g, s.g);
      ASSERT_EQ(d.used, s.used);
      ASSERT_EQ(searcher.HeuristicOf(d), s.h)
          << "trial " << trial << " depth " << depth;
      ASSERT_EQ(d.img, NeighbourImages(g1, d.map1to2))
          << "trial " << trial << " push depth " << depth;
    }
    if (n1 > 0) {
      // Leaves: the O(1) heuristic degenerates to the completion cost.
      ASSERT_EQ(searcher.HeuristicOf(d), searcher.CompletionCost(s));
      ASSERT_EQ(searcher.ExtractMatching(d), searcher.ExtractMatching(s));
    }
    for (int depth = 0; depth < n1; ++depth) {
      searcher.Pop(&d);
      ASSERT_EQ(d.img, NeighbourImages(g1, d.map1to2))
          << "trial " << trial << " pop depth " << d.depth;
    }
    // Pop is an exact inverse of Push: the state returns to the root.
    EXPECT_EQ(d.g, 0);
    EXPECT_EQ(d.used, 0u);
    EXPECT_EQ(d.depth, 0);
    EXPECT_EQ(d.surplus, fresh.surplus);
    EXPECT_EQ(d.m1_rem, fresh.m1_rem);
    EXPECT_EQ(d.m2_rem, fresh.m2_rem);
    EXPECT_EQ(d.map1to2, fresh.map1to2);
    EXPECT_EQ(d.map2to1, fresh.map2to1);
    EXPECT_EQ(d.c1_rem, fresh.c1_rem);
    EXPECT_EQ(d.c2_rem, fresh.c2_rem);
    EXPECT_EQ(d.img, fresh.img);
  }
}

/// Cheapest total cost over every completion of `d` (brute force), and
/// checks on the way that the partial-mapping bound never overestimates
/// the remaining cost at any state of the full search tree.
int CheapestCompletion(const internal::Searcher& searcher,
                       internal::DfsState* d, int* states) {
  ++*states;
  const int rest_bound = searcher.MappingBound(*d, INT_MAX);
  int best;
  if (d->depth == searcher.ctx().n1) {
    best = d->g + searcher.HeuristicOf(*d);  // exact at a leaf
  } else {
    best = INT_MAX;
    for (int v = 0; v < searcher.ctx().n2; ++v) {
      if (d->used >> v & 1) continue;
      searcher.Push(d, v, searcher.DeltaFast(*d, v));
      best = std::min(best, CheapestCompletion(searcher, d, states));
      searcher.Pop(d);
    }
  }
  EXPECT_LE(d->g + rest_bound, best) << "depth " << d->depth;
  return best;
}

TEST(SearchScratchTest, MappingBoundIsAdmissibleAtEveryState) {
  Rng rng(778);
  for (int trial = 0; trial < 60; ++trial) {
    Graph g1, g2;
    switch (trial % 3) {
      case 0:  // unlabeled power-law
        g1 = PowerLawGraph(rng.UniformInt(2, 6), 1, &rng);
        g2 = PowerLawGraph(rng.UniformInt(3, 7), rng.UniformInt(1, 2), &rng);
        break;
      case 1:
        g1 = LinuxLikeGraph(&rng, 4, 6);
        g2 = LinuxLikeGraph(&rng, 4, 7);
        break;
      default:  // labeled, with edge labels
        g1 = AidsLikeGraph(&rng, 3, 6);
        g2 = AidsLikeGraph(&rng, 4, 7);
        AssignRandomEdgeLabels(&g1, 3, &rng);
        AssignRandomEdgeLabels(&g2, 3, &rng);
        break;
    }
    if (g1.NumNodes() > g2.NumNodes()) std::swap(g1, g2);
    internal::Searcher searcher(g1, g2);
    internal::DfsState d = searcher.MakeDfs();
    int states = 0;
    const int cheapest = CheapestCompletion(searcher, &d, &states);
    auto astar = AstarGed(g1, g2);
    ASSERT_TRUE(astar.has_value());
    EXPECT_EQ(cheapest, astar->ged) << "trial " << trial;
    EXPECT_GT(states, g1.NumNodes()) << "trial " << trial;
  }
}

/// One pair from the decision test's three families, with g2 either an
/// edited copy of g1 (GED near the taus probed) or drawn independently.
std::pair<Graph, Graph> DecisionPair(int trial, Rng* rng) {
  Graph g1;
  SyntheticEditOptions eopt;
  eopt.num_edits = rng->UniformInt(0, 6);
  switch (trial % 3) {
    case 0:  // unlabeled power-law
      g1 = PowerLawGraph(rng->UniformInt(3, 8), rng->UniformInt(1, 2), rng);
      break;
    case 1:  // Linux-like: unlabeled
      g1 = LinuxLikeGraph(rng, 4, 8);
      break;
    default:  // AIDS-like with edge labels
      g1 = AidsLikeGraph(rng, 3, 8);
      AssignRandomEdgeLabels(&g1, 3, rng);
      eopt.num_labels = 29;
      eopt.num_edge_labels = 3;
      break;
  }
  Graph g2;
  if (trial % 4 == 3) {
    g2 = trial % 3 == 0   ? PowerLawGraph(rng->UniformInt(3, 8), 1, rng)
         : trial % 3 == 1 ? LinuxLikeGraph(rng, 4, 8)
                          : AidsLikeGraph(rng, 3, 8);
  } else {
    g2 = SyntheticEditPair(g1, eopt, rng).g2;
  }
  if (g1.NumNodes() > g2.NumNodes()) std::swap(g1, g2);
  return {std::move(g1), std::move(g2)};
}

TEST(DecisionTest, AgreesWithAstar) {
  Rng rng(4242);
  int pairs = 0, within = 0, beyond = 0, starved_unknown = 0,
      unproven_witness = 0;
  for (int trial = 0; pairs < 2000; ++trial) {
    auto [g1, g2] = DecisionPair(trial, &rng);
    if (g2.NumNodes() > 9) continue;  // keeps A* fast
    auto astar = AstarGed(g1, g2);
    ASSERT_TRUE(astar.has_value()) << "trial " << trial;
    ++pairs;
    for (int tau = 0; tau <= 6; ++tau) {
      const GedDecisionResult d = DecideGedWithin(g1, g2, tau, 5'000'000);
      if (astar->ged <= tau) {
        ++within;
        ASSERT_EQ(d.decision, GedDecision::kWithin)
            << "trial " << trial << " tau " << tau;
        EXPECT_LE(d.ged, tau);
        EXPECT_EQ(EditCostFromMatching(g1, g2, d.matching), d.ged)
            << "trial " << trial << " tau " << tau;
        // The budget sufficed, so the search completed and the witness
        // is the optimum.
        EXPECT_TRUE(d.exact) << "trial " << trial << " tau " << tau;
        EXPECT_EQ(d.ged, astar->ged) << "trial " << trial << " tau " << tau;
      } else {
        ++beyond;
        ASSERT_EQ(d.decision, GedDecision::kBeyond)
            << "trial " << trial << " tau " << tau;
      }
      // A starved search may give up, but never answers wrongly, and a
      // witness found before the budget ran out is not claimed optimal.
      for (long budget : {1L, 4L, 16L}) {
        const GedDecisionResult s = DecideGedWithin(g1, g2, tau, budget);
        EXPECT_LE(s.expansions, budget);
        switch (s.decision) {
          case GedDecision::kUnknown:
            ++starved_unknown;
            break;
          case GedDecision::kWithin:
            EXPECT_LE(astar->ged, s.ged) << "trial " << trial;
            EXPECT_LE(s.ged, tau) << "trial " << trial;
            EXPECT_EQ(EditCostFromMatching(g1, g2, s.matching), s.ged);
            if (s.exact) {
              EXPECT_EQ(s.ged, astar->ged) << "trial " << trial;
            } else {
              ++unproven_witness;
            }
            break;
          case GedDecision::kBeyond:
            EXPECT_GT(astar->ged, tau) << "trial " << trial;
            break;
        }
      }
    }
  }
  // Both answers, a starved give-up and a starved witness all occurred.
  EXPECT_GT(within, 0);
  EXPECT_GT(beyond, 0);
  EXPECT_GT(starved_unknown, 0);
  EXPECT_GT(unproven_witness, 0);
}

TEST(DecisionTest, GraphBeyondExactLimitIsUnknown) {
  Rng rng(65);
  const Graph big = PowerLawGraph(70, 2, &rng);
  const Graph small = PowerLawGraph(60, 2, &rng);
  const GedDecisionResult d = DecideGedWithin(small, big, 4, 1'000);
  EXPECT_EQ(d.decision, GedDecision::kUnknown);
  EXPECT_EQ(d.expansions, 0);
}

TEST(ExactPropertyTest, GedIsSymmetricUnderPairSwap) {
  // GED(g1, g2) == GED(g2, g1); our API requires n1 <= n2 so we compare
  // same-size pairs directly.
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g1 = RandomConnectedGraph(6, 2, 4, &rng);
    Graph g2 = RandomConnectedGraph(6, 3, 4, &rng);
    auto a = AstarGed(g1, g2);
    auto b = AstarGed(g2, g1);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(a->ged, b->ged);
  }
}

TEST(ExactPropertyTest, PermutationInvariance) {
  // GED(g, permute(g)) == 0.
  Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = AidsLikeGraph(&rng, 4, 8);
    std::vector<int> perm(g.NumNodes());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
    rng.Shuffle(&perm);
    auto res = AstarGed(g, PermuteGraph(g, perm));
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->ged, 0);
  }
}

}  // namespace
}  // namespace otged
