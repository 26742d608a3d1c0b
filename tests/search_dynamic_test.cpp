/// \file search_dynamic_test.cpp
/// \brief Dynamic GraphStore semantics: stable ids, snapshot isolation,
/// the erase log, Restore validation, the bound cache — and a
/// linearizability-style hammer test interleaving insert/erase with
/// range queries, asserting every result is exact for the consistent
/// corpus its reported epoch names. The hammer test is written to be
/// clean under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "exact/branch_and_bound.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"
#include "search/bound_cache.hpp"
#include "search/query_engine.hpp"

namespace otged {
namespace {

int ExactGed(const Graph& a, const Graph& b) {
  auto [g1, g2] = OrderBySize(a, b);
  BnbOptions opt;
  opt.initial_upper_bound = ClassicGed(*g1, *g2).ged;
  GedSearchResult res = BranchAndBoundGed(*g1, *g2, opt);
  EXPECT_TRUE(res.exact);
  return res.ged;
}

TEST(DynamicGraphStoreTest, StableIdsAcrossErase) {
  Rng rng(5);
  GraphStore store;
  std::vector<Graph> graphs;
  for (int i = 0; i < 5; ++i) {
    graphs.push_back(AidsLikeGraph(&rng, 3, 6));
    EXPECT_EQ(store.Insert(graphs.back()), i);
  }
  EXPECT_TRUE(store.Erase(2));
  EXPECT_FALSE(store.Erase(2));  // already gone
  EXPECT_FALSE(store.Erase(99));
  EXPECT_EQ(store.Size(), 4);
  EXPECT_FALSE(store.Contains(2));
  for (int id : {0, 1, 3, 4}) {
    EXPECT_TRUE(store.Contains(id));
    EXPECT_TRUE(store.graph(id) == graphs[id]);  // survivors keep their id
  }
  // The next insert gets a fresh id, not the recycled one.
  EXPECT_EQ(store.Insert(AidsLikeGraph(&rng, 3, 6)), 5);

  auto snap = store.Snapshot();
  EXPECT_EQ(snap->SlotOf(2), -1);
  EXPECT_EQ(snap->SlotOf(3), 2);  // slots stay dense and id-ascending
  EXPECT_EQ(snap->id(snap->SlotOf(4)), 4);
}

TEST(DynamicGraphStoreTest, AddAllIsOneMutation) {
  Rng rng(19);
  std::vector<Graph> graphs;
  for (int i = 0; i < 8; ++i) graphs.push_back(AidsLikeGraph(&rng, 3, 6));
  GraphStore store;
  store.Insert(graphs[0]);
  const uint64_t before = store.Epoch();
  store.AddAll(graphs);
  EXPECT_EQ(store.Epoch(), before + 1);  // one snapshot for the batch
  EXPECT_EQ(store.Size(), 9);
  EXPECT_EQ(store.NextId(), 9);  // ids still consecutive, in order
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(store.graph(1 + i) == graphs[i]) << i;
  }
}

TEST(DynamicGraphStoreTest, SnapshotIsolation) {
  Rng rng(11);
  GraphStore store;
  for (int i = 0; i < 4; ++i) store.Insert(AidsLikeGraph(&rng, 3, 6));
  auto pinned = store.Snapshot();
  const uint64_t pinned_epoch = pinned->epoch();

  EXPECT_TRUE(store.Erase(1));
  store.Insert(AidsLikeGraph(&rng, 3, 6));

  // The pinned snapshot still sees the pre-mutation corpus.
  EXPECT_EQ(pinned->Size(), 4);
  EXPECT_EQ(pinned->epoch(), pinned_epoch);
  EXPECT_GE(pinned->SlotOf(1), 0);
  // The store has moved on.
  EXPECT_EQ(store.Size(), 4);
  EXPECT_EQ(store.Epoch(), pinned_epoch + 2);
  EXPECT_FALSE(store.Contains(1));
}

TEST(DynamicGraphStoreTest, SnapshotAndErasedReplaysTheLog) {
  Rng rng(13);
  GraphStore store;
  for (int i = 0; i < 6; ++i) store.Insert(AidsLikeGraph(&rng, 3, 6));
  size_t cursor = 0;
  std::vector<int> erased = {99};  // stale contents are cleared
  auto snap = store.SnapshotAndErased(&cursor, &erased);
  EXPECT_TRUE(erased.empty());
  EXPECT_EQ(snap->Size(), 6);

  store.Erase(3);
  store.Erase(0);
  snap = store.SnapshotAndErased(&cursor, &erased);
  EXPECT_EQ(erased, (std::vector<int>{3, 0}));
  EXPECT_EQ(snap->epoch(), store.Epoch());  // pinned with the drain
  EXPECT_EQ(snap->Size(), 4);
  store.SnapshotAndErased(&cursor, &erased);
  EXPECT_TRUE(erased.empty());  // cursor advanced
  store.Erase(5);
  store.SnapshotAndErased(&cursor, &erased);
  EXPECT_EQ(erased, (std::vector<int>{5}));

  size_t fresh_cursor = 0;  // independent consumers replay from zero
  store.SnapshotAndErased(&fresh_cursor, &erased);
  EXPECT_EQ(erased, (std::vector<int>{3, 0, 5}));
  EXPECT_EQ(fresh_cursor, cursor);

  // Restore retires every id present before it, even ids it rebinds.
  std::vector<std::pair<int, Graph>> entries;
  entries.emplace_back(2, AidsLikeGraph(&rng, 3, 6));
  entries.emplace_back(8, AidsLikeGraph(&rng, 3, 6));
  ASSERT_TRUE(store.Restore(std::move(entries), 9));
  snap = store.SnapshotAndErased(&cursor, &erased);
  EXPECT_EQ(erased, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(snap->Size(), 2);
}

TEST(DynamicGraphStoreTest, RestoreRejectsNonIncreasingIds) {
  Rng rng(17);
  GraphStore store;
  store.Insert(AidsLikeGraph(&rng, 3, 6));
  Graph a = AidsLikeGraph(&rng, 3, 6), b = AidsLikeGraph(&rng, 3, 6);
  std::vector<std::pair<int, Graph>> bad;
  bad.emplace_back(7, a);
  bad.emplace_back(7, b);
  EXPECT_FALSE(store.Restore(std::move(bad), 10));
  EXPECT_EQ(store.Size(), 1);  // untouched

  std::vector<std::pair<int, Graph>> good;
  good.emplace_back(3, a);
  good.emplace_back(9, b);
  EXPECT_TRUE(store.Restore(std::move(good), 5));
  EXPECT_EQ(store.Size(), 2);
  EXPECT_TRUE(store.Contains(3));
  EXPECT_TRUE(store.Contains(9));
  EXPECT_EQ(store.NextId(), 10);  // max(old counter, given, max id + 1)
  // The old corpus' ids were logged so caches can drop them; the
  // rejected Restore retired nothing.
  size_t cursor = 0;
  std::vector<int> erased;
  store.SnapshotAndErased(&cursor, &erased);
  EXPECT_EQ(erased, (std::vector<int>{0}));
}

TEST(BoundCacheTest, InsertLookupEraseAndEvict) {
  BoundCache cache(/*capacity=*/16);  // 1 entry per shard
  EXPECT_FALSE(cache.Lookup(42, 0).has_value());
  cache.Insert(42, 0, 3);
  cache.Insert(42, 1, 5);
  ASSERT_TRUE(cache.Lookup(42, 0).has_value());
  EXPECT_EQ(*cache.Lookup(42, 0), 3);
  EXPECT_EQ(*cache.Lookup(42, 1), 5);
  EXPECT_EQ(cache.Size(), 2u);

  cache.EraseGraph(0);
  EXPECT_FALSE(cache.Lookup(42, 0).has_value());
  EXPECT_TRUE(cache.Lookup(42, 1).has_value());

  // Re-insert updates in place; distinct fingerprints are distinct keys.
  cache.Insert(42, 1, 4);
  EXPECT_EQ(*cache.Lookup(42, 1), 4);
  cache.Insert(43, 1, 9);
  EXPECT_EQ(*cache.Lookup(43, 1), 9);

  // Hammering one shard's capacity evicts the least recently used.
  for (int i = 0; i < 64; ++i) cache.Insert(1000 + i, 7, i);
  EXPECT_LE(cache.Size(), 16u);

  cache.Clear();
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_FALSE(cache.Lookup(43, 1).has_value());
}

/// Serving keeps caching across mutations: a pair proven exact before an
/// unrelated erase is still answered from the cache afterwards, while the
/// erased graph's entries are dropped at the next query.
TEST(DynamicQueryTest, CacheSurvivesUnrelatedMutations) {
  Rng rng(23);
  GraphStore store;
  for (int i = 0; i < 12; ++i)
    store.Insert(RandomConnectedGraph(4, 1, 2, &rng));
  EngineOptions opt;
  opt.num_threads = 2;
  QueryEngine engine(&store, opt);
  Graph query = RandomConnectedGraph(4, 1, 2, &rng);

  RangeResult cold = engine.Range(query, 2);
  EXPECT_EQ(cold.stats.cascade.cache_hits, 0);
  const size_t cached = engine.CacheSize();
  EXPECT_GT(cached, 0u);

  EXPECT_TRUE(store.Erase(7));
  RangeResult warm = engine.Range(query, 2);
  EXPECT_GT(warm.stats.cascade.cache_hits, 0);
  EXPECT_LE(engine.CacheSize(), cached);  // id 7's entries were dropped
  // Same answer minus any id-7 hit.
  std::vector<int> expected;
  for (const RangeHit& h : cold.hits)
    if (h.id != 7) expected.push_back(h.id);
  std::vector<int> got;
  for (const RangeHit& h : warm.hits) got.push_back(h.id);
  EXPECT_EQ(got, expected);
}

/// The hammer: one mutator thread inserts and erases graphs while two
/// query threads serve range queries. Every result must be the exact
/// brute-force answer for the corpus at its reported epoch — a torn read
/// (mixing two epochs) or a stale index entry would break the equality.
TEST(DynamicQueryTest, ConcurrentMutationsSeeConsistentEpochs) {
  constexpr int kBase = 15, kExtras = 20, kQueries = 8, kRounds = 5;
  constexpr int kTau = 2;
  Rng rng(31);

  // Universe: base graphs get ids 0..kBase-1, the i-th extra gets id
  // kBase+i (one mutator, ids are assigned monotonically), so universe
  // index == stable id throughout.
  std::vector<Graph> universe;
  for (int i = 0; i < kBase + kExtras; ++i)
    universe.push_back(RandomConnectedGraph(rng.UniformInt(3, 5), 1, 2,
                                            &rng));
  std::vector<Graph> queries;
  for (int q = 0; q < kQueries; ++q)
    queries.push_back(RandomConnectedGraph(4, 1, 2, &rng));

  // Brute-force ground truth for every (query, universe graph) pair,
  // computed up front so verification is a pure lookup.
  std::vector<std::vector<int>> exact(kQueries);
  for (int q = 0; q < kQueries; ++q)
    for (const Graph& g : universe)
      exact[q].push_back(ExactGed(queries[q], g));

  GraphStore store;
  for (int i = 0; i < kBase; ++i) store.Insert(universe[i]);

  // Epoch -> sorted ids present. The mutator records the set after every
  // mutation; with a single mutator, Epoch() right after an op is that
  // op's epoch.
  std::mutex epochs_mu;
  std::map<uint64_t, std::vector<int>> epoch_sets;
  std::vector<int> base_ids(kBase);
  for (int i = 0; i < kBase; ++i) base_ids[i] = i;
  epoch_sets[store.Epoch()] = base_ids;

  EngineOptions opt;
  opt.num_threads = 2;
  QueryEngine engine(&store, opt);

  std::thread mutator([&] {
    for (int i = 0; i < kExtras; ++i) {
      const int id = store.Insert(universe[kBase + i]);
      ASSERT_EQ(id, kBase + i);
      {
        std::lock_guard<std::mutex> lock(epochs_mu);
        std::vector<int> present = base_ids;
        present.push_back(id);
        epoch_sets[store.Epoch()] = std::move(present);
      }
      ASSERT_TRUE(store.Erase(id));
      {
        std::lock_guard<std::mutex> lock(epochs_mu);
        epoch_sets[store.Epoch()] = base_ids;
      }
    }
  });

  struct Observation {
    int query;
    uint64_t epoch;
    std::vector<int> hit_ids;
  };
  std::vector<std::vector<Observation>> observed(2);
  auto serve = [&](int worker) {
    for (int round = 0; round < kRounds; ++round) {
      for (int q = 0; q < kQueries; ++q) {
        RangeResult res = engine.Range(queries[q], kTau);
        Observation obs{q, res.stats.epoch, {}};
        for (const RangeHit& h : res.hits) obs.hit_ids.push_back(h.id);
        observed[worker].push_back(std::move(obs));
      }
    }
  };
  std::thread querier0([&] { serve(0); });
  std::thread querier1([&] { serve(1); });
  mutator.join();
  querier0.join();
  querier1.join();

  for (const auto& worker_obs : observed) {
    for (const Observation& obs : worker_obs) {
      auto it = epoch_sets.find(obs.epoch);
      ASSERT_NE(it, epoch_sets.end())
          << "served epoch " << obs.epoch << " was never a corpus state";
      std::vector<int> expected;
      for (int id : it->second)
        if (exact[obs.query][id] <= kTau) expected.push_back(id);
      EXPECT_EQ(obs.hit_ids, expected)
          << "query " << obs.query << " at epoch " << obs.epoch;
    }
  }
}

}  // namespace
}  // namespace otged
