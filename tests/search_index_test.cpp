/// \file search_index_test.cpp
/// \brief Consistency suite for the multi-level candidate index: the
/// pseudo-metric property of the invariant bound, candidate-set
/// guarantees (superset for the partition/label screen, exact for the
/// LB-range cut, identical seeds for top-k) against a full scan on views
/// advanced through Insert, Erase and Restore, ties at the k-th bound,
/// metamorphic identities (permuted queries see identical candidates),
/// erases after a Restore rebind dropping out of every candidate set,
/// and indexed vs unindexed engine answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/generator.hpp"
#include "search/index/graph_index.hpp"
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
        EXPECT_LE(InvariantLowerBound(a, c),
                  InvariantLowerBound(a, b) + InvariantLowerBound(b, c));
      }
    }
  }
}

/// Top-k seeds and the LB-range cut must equal a full scan by
/// (InvariantLowerBound, id) at every k and tau, including k = 0,
/// k > Size() and a tau that covers everything.
void ExpectSeedsAndLbRangeMatchFullScan(const IndexView& view,
                                        const StoreSnapshot& snap,
                                        const GraphInvariants& qi,
                                        const std::string& where) {
  auto brute = BruteBounds(snap, qi);
  std::sort(brute.begin(), brute.end());
  for (size_t k : {size_t{0}, size_t{1}, size_t{7}, brute.size(),
                   brute.size() + 3}) {
    std::vector<std::pair<int, int>> seeds;
    IndexStats stats;
    view.TopKSeeds(qi, k, &seeds, &stats);
    std::vector<std::pair<int, int>> expected(
        brute.begin(), brute.begin() + static_cast<long>(
                                           std::min(k, brute.size())));
    EXPECT_EQ(seeds, expected) << where << " k=" << k;
    EXPECT_LE(stats.vp_nodes_visited, snap.Size());
  }
  for (int tau : {0, 1, 2, 4, 1 << 20}) {
    std::vector<int> ids;
    IndexStats stats;
    view.LbRangeCandidates(qi, tau, &ids, &stats);
    std::vector<int> expected;
    for (const auto& [lb, id] : brute)
      if (lb <= tau) expected.push_back(id);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ids, expected) << where << " tau=" << tau;
    EXPECT_EQ(stats.scanned, snap.Size());
    EXPECT_EQ(stats.scanned, stats.candidates + stats.PrunedTotal());
  }
}

TEST(GraphIndexTest, SeedsAndLbRangeMatchAFullScanUnderChurn) {
  Rng rng(7);
  GraphStore store;
  store.AddAll(RandomCorpus(120, &rng));
  GraphIndex index;
  std::vector<Graph> extras = RandomCorpus(20, &rng);
  for (int round = 0; round < 24; ++round) {
    if (round % 8 == 7) {
      // Restore rebinds every id to a fresh entry object.
      auto snap = store.Snapshot();
      std::vector<std::pair<int, Graph>> entries;
      for (int slot = 0; slot < snap->Size(); ++slot)
        entries.emplace_back(snap->id(slot), snap->graph(slot));
      ASSERT_TRUE(store.Restore(std::move(entries), store.NextId()));
    } else if (round % 3 == 2) {
      (void)store.Erase(rng.UniformInt(0, store.NextId() - 1));
    } else if (round > 0) {
      store.Insert(extras[static_cast<size_t>(round) % extras.size()]);
    }
    auto snap = store.Snapshot();
    auto view = index.ViewFor(snap);
    for (int q = 0; q < 3; ++q)
      ExpectSeedsAndLbRangeMatchFullScan(
          *view, *snap, ComputeInvariants(AidsLikeGraph(&rng, 3, 10)),
          "round " + std::to_string(round) + " q " + std::to_string(q));
    // A stored graph as the query puts bound-0 members in play.
    ExpectSeedsAndLbRangeMatchFullScan(*view, *snap, snap->invariants(0),
                                       "round " + std::to_string(round));
  }
}

TEST(GraphIndexTest, TopKSeedsBreakTiesAtTheKthBoundById) {
  // Query: path 0-1-2, all labels 0. A (labels {0, 0, 1}, same shape)
  // and B (all-0 triangle) both sit at bound 1, but A's partition bound
  // is 0 and B's is 1, so A's partition is visited first. B's copies
  // have the smaller ids, so they must still displace A's at the k-th
  // bound.
  Graph q(3);
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  Graph a = q;
  a.set_label(2, 1);
  Graph b = q;
  b.AddEdge(0, 2);
  const GraphInvariants qi = ComputeInvariants(q);
  ASSERT_EQ(InvariantLowerBound(qi, ComputeInvariants(a)), 1);
  ASSERT_EQ(InvariantLowerBound(qi, ComputeInvariants(b)), 1);

  GraphStore store;
  store.AddAll({b, b, b, a, a, a});  // ids 0-2 are B, 3-5 are A
  GraphIndex index;
  auto snap = store.Snapshot();
  auto view = index.ViewFor(snap);
  for (size_t k = 0; k <= 7; ++k) {
    std::vector<std::pair<int, int>> seeds;
    IndexStats stats;
    view->TopKSeeds(qi, k, &seeds, &stats);
    std::vector<std::pair<int, int>> expected;
    for (int id = 0; id < std::min<int>(static_cast<int>(k), 6); ++id)
      expected.emplace_back(1, id);
    EXPECT_EQ(seeds, expected) << "k=" << k;
  }
}

TEST(GraphIndexTest, TopKSeedsSkipAPartitionOutOfReachButNotTheRest) {
  // Query: path 0-1-2-3-4 (n = 5, m = 4). Partitions (5, 3) and (5, 5)
  // both have size bound 1 and are visited in that order, after the
  // query's own (5, 4). The star in (5, 3) is out of reach (degree
  // envelope gap 2), but the 5-cycle behind it ties the k-th bound with
  // a smaller id, so the walk must skip (5, 3) and still open (5, 5).
  Graph q(5);
  for (int v = 0; v < 4; ++v) q.AddEdge(v, v + 1);
  Graph relabeled = q;  // (5, 4), bound 1
  relabeled.set_label(0, 1);
  Graph star(5);  // (5, 3), bound 2
  for (int v = 1; v <= 3; ++v) star.AddEdge(0, v);
  Graph cycle = q;  // (5, 5), bound 1
  cycle.AddEdge(4, 0);
  const GraphInvariants qi = ComputeInvariants(q);
  ASSERT_EQ(InvariantLowerBound(qi, ComputeInvariants(relabeled)), 1);
  ASSERT_EQ(InvariantLowerBound(qi, ComputeInvariants(star)), 2);
  ASSERT_EQ(InvariantLowerBound(qi, ComputeInvariants(cycle)), 1);

  GraphStore store;
  store.AddAll({cycle, relabeled, star});  // ids 0, 1, 2
  GraphIndex index;
  auto view = index.ViewFor(store.Snapshot());
  std::vector<std::pair<int, int>> seeds;
  IndexStats stats;
  view->TopKSeeds(qi, 1, &seeds, &stats);
  EXPECT_EQ(seeds, (std::vector<std::pair<int, int>>{{1, 0}}));
  view->TopKSeeds(qi, 3, &seeds, &stats);
  EXPECT_EQ(seeds,
            (std::vector<std::pair<int, int>>{{1, 0}, {1, 1}, {2, 2}}));
}

TEST(GraphIndexTest, LbRangeAtTauZeroKeepsBoundZeroGraphsWithOtherWlHashes) {
  // Same label multiset, degree sequence and (n, m) as the query, so the
  // invariant bound is 0, but the label-1 node moves from an end of the
  // path to its center: the WL hashes differ and GED > 0. The LB-range
  // cut is the exact { bound <= tau } set, so it must keep the graph;
  // the range screen may drop it on the WL table.
  Graph q(3);
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.set_label(0, 1);
  Graph g = q;
  g.set_label(0, 0);
  g.set_label(1, 1);
  const GraphInvariants qi = ComputeInvariants(q);
  const GraphInvariants gi = ComputeInvariants(g);
  ASSERT_NE(qi.wl_hash, gi.wl_hash);
  ASSERT_EQ(InvariantLowerBound(qi, gi), 0);

  GraphStore store;
  store.AddAll({g, q});  // ids 0, 1
  GraphIndex index;
  auto view = index.ViewFor(store.Snapshot());
  std::vector<int> ids;
  IndexStats stats;
  view->LbRangeCandidates(qi, 0, &ids, &stats);
  EXPECT_EQ(ids, (std::vector<int>{0, 1}));
  std::vector<int> range_ids;
  view->RangeCandidates(qi, 0, &range_ids, &stats);
  EXPECT_EQ(range_ids, (std::vector<int>{1}));
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
  // incremental diff records as remove + add. A later Erase of a rebound
  // id must drop it from every candidate set, or the erased id keeps
  // being served.
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
  (void)index.ViewFor(store.Snapshot());  // absorb the rebind as a diff

  const int victim = 5;
  ASSERT_TRUE(store.Erase(victim));
  auto post = store.Snapshot();
  auto view = index.ViewFor(post);

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
