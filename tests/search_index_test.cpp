/// \file search_index_test.cpp
/// \brief Consistency suite for the multi-level candidate index: the
/// pseudo-metric property the VP-tree's pruning rests on, VP-tree
/// range/knn vs brute force, candidate-set guarantees (superset for the
/// partition/label screen, exact for the LB-range cut, identical seeds
/// for top-k), metamorphic identities (permuted queries see identical
/// candidates), erases after a Restore rebind dropping out of every
/// candidate set, and indexed vs unindexed engine answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/generator.hpp"
#include "search/index/graph_index.hpp"
#include "search/index/vp_tree.hpp"
#include "search/query_engine.hpp"

namespace otged {
namespace {

std::vector<Graph> RandomCorpus(int n, Rng* rng) {
  std::vector<Graph> corpus;
  for (int i = 0; i < n; ++i) corpus.push_back(AidsLikeGraph(rng, 3, 10));
  return corpus;
}

/// Brute { (lb, id) } over a snapshot, for comparisons.
std::vector<std::pair<int, int>> BruteBounds(const StoreSnapshot& snap,
                                             const GraphInvariants& qi) {
  std::vector<std::pair<int, int>> out;
  for (int slot = 0; slot < snap.Size(); ++slot)
    out.emplace_back(InvariantLowerBound(qi, snap.invariants(slot)),
                     snap.id(slot));
  return out;
}

TEST(IndexMetricTest, InvariantLowerBoundIsAPseudoMetric) {
  Rng rng(101);
  std::vector<GraphInvariants> invs;
  for (int i = 0; i < 40; ++i)
    invs.push_back(ComputeInvariants(AidsLikeGraph(&rng, 2, 12)));
  for (const GraphInvariants& a : invs) {
    EXPECT_EQ(InvariantLowerBound(a, a), 0);
    for (const GraphInvariants& b : invs) {
      EXPECT_EQ(InvariantLowerBound(a, b), InvariantLowerBound(b, a));
      EXPECT_GE(InvariantLowerBound(a, b), 0);
      for (const GraphInvariants& c : invs) {
        // The triangle inequality is exactly what licenses VP-tree
        // pruning; a single violation would make pruning lossy.
        EXPECT_LE(InvariantLowerBound(a, c),
                  InvariantLowerBound(a, b) + InvariantLowerBound(b, c));
      }
    }
  }
}

TEST(VpTreeTest, RangeAndKnnMatchBruteForce) {
  Rng rng(7);
  GraphStore store;
  store.AddAll(RandomCorpus(120, &rng));
  auto snap = store.Snapshot();
  auto tree = VpTree::Build(snap->entry_ptrs());
  ASSERT_EQ(tree->Size(), snap->Size());

  for (int q = 0; q < 20; ++q) {
    const GraphInvariants qi =
        ComputeInvariants(AidsLikeGraph(&rng, 3, 10));
    const auto brute = BruteBounds(*snap, qi);
    for (int tau : {0, 1, 2, 4}) {
      std::vector<std::pair<int, int>> got;  // (id, distance)
      long visited = 0;
      tree->Range(qi, tau, {}, &got, &visited);
      std::sort(got.begin(), got.end());
      std::vector<std::pair<int, int>> expected;
      for (const auto& [lb, id] : brute)
        if (lb <= tau) expected.emplace_back(id, lb);
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(got, expected) << "tau=" << tau;
      EXPECT_LE(visited, snap->Size());
    }
    for (size_t k : {1u, 5u, 17u}) {
      std::vector<std::pair<int, int>> best;  // (distance, id)
      long visited = 0;
      tree->Knn(qi, k, {}, &best, &visited);
      std::vector<std::pair<int, int>> expected = brute;
      std::sort(expected.begin(), expected.end());
      expected.resize(std::min(expected.size(), k));
      EXPECT_EQ(best, expected) << "k=" << k;
    }
  }
}

TEST(VpTreeTest, DeadIdsServeAsVantagesButAreNeverEmitted) {
  Rng rng(13);
  GraphStore store;
  store.AddAll(RandomCorpus(60, &rng));
  auto snap = store.Snapshot();
  auto tree = VpTree::Build(snap->entry_ptrs());
  std::vector<int> dead = {0, 7, 31, 59};  // ascending
  const GraphInvariants qi = ComputeInvariants(AidsLikeGraph(&rng, 3, 10));

  std::vector<std::pair<int, int>> got;
  long visited = 0;
  tree->Range(qi, 3, dead, &got, &visited);
  for (const auto& [id, d] : got)
    EXPECT_FALSE(std::binary_search(dead.begin(), dead.end(), id)) << id;
  std::vector<std::pair<int, int>> live;
  tree->Range(qi, 3, {}, &live, &visited);
  std::vector<std::pair<int, int>> expected;
  for (const auto& [id, d] : live)
    if (!std::binary_search(dead.begin(), dead.end(), id))
      expected.emplace_back(id, d);
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);

  std::vector<std::pair<int, int>> best;
  tree->Knn(qi, 10, dead, &best, &visited);
  for (const auto& [d, id] : best)
    EXPECT_FALSE(std::binary_search(dead.begin(), dead.end(), id)) << id;
}

TEST(GraphIndexTest, RangeCandidatesAreASupersetAndLbRangeIsExact) {
  Rng rng(29);
  GraphStore store;
  store.AddAll(RandomCorpus(150, &rng));
  GraphIndex index;
  auto snap = store.Snapshot();
  auto view = index.ViewFor(snap);
  ASSERT_EQ(view->epoch(), snap->epoch());

  for (int q = 0; q < 15; ++q) {
    const GraphInvariants qi =
        ComputeInvariants(AidsLikeGraph(&rng, 3, 10));
    const auto brute = BruteBounds(*snap, qi);
    for (int tau : {0, 1, 3}) {
      std::vector<int> cand;
      IndexStats stats;
      view->RangeCandidates(qi, tau, &cand, &stats);
      EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
      EXPECT_EQ(stats.scanned, snap->Size());
      EXPECT_EQ(stats.scanned, stats.candidates + stats.PrunedTotal());
      // Levels 1+2 prune via bounds that never exceed the full
      // invariant bound, so every id with lb <= tau must survive.
      for (const auto& [lb, id] : brute) {
        if (lb <= tau) {
          EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(), id))
              << "tau=" << tau << " id=" << id;
        }
      }

      std::vector<int> lb_cand;
      IndexStats lb_stats;
      view->LbRangeCandidates(qi, tau, &lb_cand, &lb_stats);
      std::vector<int> expected;
      for (const auto& [lb, id] : brute)
        if (lb <= tau) expected.push_back(id);
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(lb_cand, expected) << "tau=" << tau;
    }
  }
}

TEST(GraphIndexTest, TopKSeedsMatchBruteSelection) {
  Rng rng(41);
  GraphStore store;
  store.AddAll(RandomCorpus(90, &rng));
  GraphIndex index;
  auto view = index.ViewFor(store.Snapshot());
  auto snap = store.Snapshot();

  for (int q = 0; q < 10; ++q) {
    const GraphInvariants qi =
        ComputeInvariants(AidsLikeGraph(&rng, 3, 10));
    auto brute = BruteBounds(*snap, qi);
    std::sort(brute.begin(), brute.end());
    for (size_t k : {1u, 8u, 25u}) {
      std::vector<std::pair<int, int>> seeds;
      IndexStats stats;
      view->TopKSeeds(qi, k, &seeds, &stats);
      std::vector<std::pair<int, int>> expected = brute;
      expected.resize(std::min(expected.size(), k));
      EXPECT_EQ(seeds, expected) << "k=" << k;
    }
  }
}

TEST(GraphIndexTest, IncrementalAdvanceMatchesFreshRebuild) {
  Rng rng(59);
  GraphStore store;
  store.AddAll(RandomCorpus(80, &rng));
  GraphIndex incremental;
  (void)incremental.ViewFor(store.Snapshot());  // prime the cached view

  // Random churn: the incremental index advances by diffing snapshots;
  // after every mutation its candidate sets must equal a from-scratch
  // index built on the same snapshot.
  std::vector<Graph> extras = RandomCorpus(30, &rng);
  for (int round = 0; round < 30; ++round) {
    if (round % 3 != 0) {
      store.Insert(extras[static_cast<size_t>(round) % extras.size()]);
    } else {
      (void)store.Erase(rng.UniformInt(0, store.NextId() - 1));
    }
    auto snap = store.Snapshot();
    auto view = incremental.ViewFor(snap);
    GraphIndex fresh;
    auto fresh_view = fresh.ViewFor(snap);
    const GraphInvariants qi =
        ComputeInvariants(AidsLikeGraph(&rng, 3, 10));
    for (int tau : {0, 2}) {
      std::vector<int> a, b;
      IndexStats sa, sb;
      view->RangeCandidates(qi, tau, &a, &sa);
      fresh_view->RangeCandidates(qi, tau, &b, &sb);
      EXPECT_EQ(a, b) << "round " << round << " tau " << tau;
      a.clear();
      b.clear();
      view->LbRangeCandidates(qi, tau, &a, &sa);
      fresh_view->LbRangeCandidates(qi, tau, &b, &sb);
      EXPECT_EQ(a, b) << "round " << round << " tau " << tau;
    }
  }
}

TEST(GraphIndexTest, PermutedQueriesSeeIdenticalCandidates) {
  Rng rng(83);
  GraphStore store;
  store.AddAll(RandomCorpus(100, &rng));
  GraphIndex index;
  auto view = index.ViewFor(store.Snapshot());

  for (int q = 0; q < 10; ++q) {
    const Graph query = AidsLikeGraph(&rng, 4, 10);
    std::vector<int> perm(static_cast<size_t>(query.NumNodes()));
    std::iota(perm.begin(), perm.end(), 0);
    for (size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1],
                perm[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int>(i) - 1))]);
    const Graph permuted = PermuteGraph(query, perm);

    const GraphInvariants qi = ComputeInvariants(query);
    const GraphInvariants pi = ComputeInvariants(permuted);
    for (int tau : {0, 1, 3}) {
      std::vector<int> a, b;
      IndexStats sa, sb;
      view->RangeCandidates(qi, tau, &a, &sa);
      view->RangeCandidates(pi, tau, &b, &sb);
      EXPECT_EQ(a, b) << "tau=" << tau;
    }
    std::vector<std::pair<int, int>> seeds_a, seeds_b;
    IndexStats sa, sb;
    view->TopKSeeds(qi, 7, &seeds_a, &sa);
    view->TopKSeeds(pi, 7, &seeds_b, &sb);
    EXPECT_EQ(seeds_a, seeds_b);
  }
}

TEST(GraphIndexTest, RestoreReboundIdsAreFullyForgottenOnErase) {
  // Regression: a Restore rebinds ids to fresh entry objects, which the
  // incremental diff records as remove + add — the stale tree resident
  // goes dead while the fresh entry lands in the delta, so the id sits
  // in both overlay halves at once. A later Erase must then clear the
  // delta entry too; marking the resident dead again is not enough, or
  // the erased id keeps being served from the delta.
  Rng rng(127);
  GraphStore store;
  store.AddAll(RandomCorpus(20, &rng));
  GraphIndex index;
  (void)index.ViewFor(store.Snapshot());

  std::vector<std::pair<int, Graph>> entries;
  {
    auto snap = store.Snapshot();
    for (int slot = 0; slot < snap->Size(); ++slot)
      entries.emplace_back(snap->id(slot), snap->graph(slot));
  }
  ASSERT_TRUE(store.Restore(std::move(entries), store.NextId()));
  (void)index.ViewFor(store.Snapshot());  // absorb the rebind as overlay

  const int victim = 5;
  ASSERT_TRUE(store.Erase(victim));
  auto post = store.Snapshot();
  auto view = index.ViewFor(post);
  // The overlay stayed under the rebuild threshold — the buggy path.
  ASSERT_FALSE(view->OverlayEmpty());

  const GraphInvariants qi = ComputeInvariants(AidsLikeGraph(&rng, 3, 10));
  std::vector<int> ids;
  IndexStats stats;
  view->LbRangeCandidates(qi, 1 << 20, &ids, &stats);  // tau covers all
  EXPECT_FALSE(std::binary_search(ids.begin(), ids.end(), victim));
  EXPECT_EQ(ids.size(), static_cast<size_t>(post->Size()));

  std::vector<std::pair<int, int>> seeds;
  view->TopKSeeds(qi, static_cast<size_t>(post->Size()) + 5, &seeds,
                  &stats);
  EXPECT_EQ(seeds.size(), static_cast<size_t>(post->Size()));
  for (const auto& [lb, id] : seeds) EXPECT_NE(id, victim);

  std::vector<int> range_ids;
  view->RangeCandidates(qi, 1 << 20, &range_ids, &stats);
  EXPECT_FALSE(
      std::binary_search(range_ids.begin(), range_ids.end(), victim));
}

TEST(GraphIndexTest, EngineAnswersAreByteIdenticalWithAndWithoutIndex) {
  Rng rng(113);
  GraphStore store;
  store.AddAll(RandomCorpus(120, &rng));
  EngineOptions with;
  with.num_threads = 2;
  EngineOptions without = with;
  without.use_index = false;
  QueryEngine indexed(&store, with);
  QueryEngine brute(&store, without);

  for (int q = 0; q < 6; ++q) {
    const Graph query = AidsLikeGraph(&rng, 3, 10);
    for (int tau : {0, 2}) {
      RangeResult a = indexed.Range(query, tau);
      RangeResult b = brute.Range(query, tau);
      ASSERT_EQ(a.hits.size(), b.hits.size());
      for (size_t i = 0; i < a.hits.size(); ++i) {
        EXPECT_EQ(a.hits[i].id, b.hits[i].id);
        EXPECT_EQ(a.hits[i].ged, b.hits[i].ged);
        EXPECT_EQ(a.hits[i].exact_distance, b.hits[i].exact_distance);
      }
      // The fold keeps candidates == corpus size on both paths.
      EXPECT_EQ(a.stats.cascade.candidates, b.stats.cascade.candidates);
      EXPECT_EQ(a.stats.index.scanned,
                a.stats.index.candidates + a.stats.index.PrunedTotal());
    }
    TopKResult ta = indexed.TopK(query, 9);
    TopKResult tb = brute.TopK(query, 9);
    ASSERT_EQ(ta.hits.size(), tb.hits.size());
    for (size_t i = 0; i < ta.hits.size(); ++i) {
      EXPECT_EQ(ta.hits[i].id, tb.hits[i].id);
      EXPECT_EQ(ta.hits[i].ged, tb.hits[i].ged);
      EXPECT_EQ(ta.hits[i].exact_distance, tb.hits[i].exact_distance);
    }
  }
}

}  // namespace
}  // namespace otged
