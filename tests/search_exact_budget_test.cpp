/// \file search_exact_budget_test.cpp
/// \brief Exact-tier budget exhaustion semantics: a starved tier-4 budget
/// must keep candidates conservatively (no false dismissals, ever), must
/// never claim an unproven distance as exact, and must be visible in both
/// CascadeStats::exact_incomplete and the global
/// otged_cascade_exact_incomplete_total counter. A graph too large for the
/// exact search is kept the same way instead of aborting the process.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "exact/astar.hpp"
#include "graph/generator.hpp"
#include "search/query_engine.hpp"
#include "telemetry/metrics.hpp"

namespace otged {
namespace {

/// A pair that usually needs the exact tier: a near-miss whose invariant
/// and heuristic bounds disagree around small taus.
GedPair HardPair(Rng* rng) {
  Graph base = AidsLikeGraph(rng, 6, 9);
  SyntheticEditOptions opt;
  opt.num_edits = rng->UniformInt(2, 4);
  opt.num_labels = 29;
  return SyntheticEditPair(base, opt, rng);
}

TEST(ExactBudgetTest, StarvedVerdictsAreConservativeNeverExact) {
  CascadeOptions starved_opt;
  starved_opt.use_ot_verify = false;  // force bound gaps into tier 4
  starved_opt.exact_budget = 1;
  FilterCascade starved(starved_opt);
  CascadeOptions full_opt;
  full_opt.use_ot_verify = false;
  FilterCascade full(full_opt);

  Rng rng(31);
  int starved_runs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    GedPair pair = HardPair(&rng);
    const GraphInvariants qi = ComputeInvariants(pair.g1);
    const GraphInvariants gi = ComputeInvariants(pair.g2);
    for (int tau = 2; tau <= 3; ++tau) {
      CascadeStats ss, fs;
      const CascadeVerdict sv = starved.BoundedDistance(
          pair.g1, qi, pair.g2, gi, tau, /*need_distance=*/true, &ss);
      const CascadeVerdict fv = full.BoundedDistance(
          pair.g1, qi, pair.g2, gi, tau, /*need_distance=*/true, &fs);
      ASSERT_EQ(fs.exact_incomplete, 0) << "full budget starved?!";
      EXPECT_EQ(ss.SettledTotal(), ss.candidates);
      if (ss.exact_incomplete > 0) {
        ++starved_runs;
        // The starved run reached tier 4, so its LB was <= tau; the
        // unlimited cascade then escalates past every LB tier too and
        // must prove the distance.
        ASSERT_TRUE(fv.exact_distance) << "trial " << trial;
        EXPECT_EQ(ss.exact_incomplete, 1);
        EXPECT_EQ(ss.exact_calls, 1);
        // The three guarantees of an exhausted exact tier: the candidate
        // is kept, the distance is flagged unproven, and the reported
        // value is still a feasible upper bound on the true GED.
        EXPECT_TRUE(sv.within) << "trial " << trial << " tau " << tau;
        EXPECT_FALSE(sv.exact_distance) << "trial " << trial;
        EXPECT_GE(sv.ged, fv.ged) << "trial " << trial;
      } else {
        // Not starved means decided, and every decision is proof-backed:
        // the starved cascade must agree with the unlimited one.
        EXPECT_EQ(sv.within, fv.within) << "trial " << trial;
        if (sv.exact_distance) {
          ASSERT_TRUE(fv.exact_distance);
          EXPECT_EQ(sv.ged, fv.ged);
        }
      }
    }
  }
  EXPECT_GT(starved_runs, 0) << "fixture never reached a starved tier 4";
}

TEST(ExactBudgetTest, StarvedRangeVerdictsAreConservativeNeverExact) {
  // Range mode (need_distance == false) runs the tier-4 decision search.
  // Starved, it may answer "unknown" and then keeps the pair unproven;
  // any answer it does give must agree with the exact distance. Budgets
  // above 1 also stop searches after a witness but before its optimality
  // is proven.
  CascadeOptions full_opt;
  full_opt.use_ot_verify = false;  // force bound gaps into tier 4
  FilterCascade full(full_opt);

  Rng rng(31);
  int starved_runs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    GedPair pair = HardPair(&rng);
    const GraphInvariants qi = ComputeInvariants(pair.g1);
    const GraphInvariants gi = ComputeInvariants(pair.g2);
    for (int tau = 2; tau <= 3; ++tau) {
      for (long budget : {1L, 2L, 4L, 8L}) {
        CascadeOptions starved_opt = full_opt;
        starved_opt.exact_budget = budget;
        const FilterCascade starved(starved_opt);
        CascadeStats ss, fs;
        const CascadeVerdict sv = starved.BoundedDistance(
            pair.g1, qi, pair.g2, gi, tau, /*need_distance=*/false, &ss);
        // The oracle: the exact distance from the top-k path.
        const CascadeVerdict fv = full.BoundedDistance(
            pair.g1, qi, pair.g2, gi, tau, /*need_distance=*/true, &fs);
        ASSERT_EQ(fs.exact_incomplete, 0) << "full budget starved?!";
        EXPECT_EQ(ss.SettledTotal(), ss.candidates);
        if (ss.exact_incomplete > 0) {
          ++starved_runs;
          // Its LB was <= tau, so the oracle escalated past every LB tier
          // too and proved the distance.
          ASSERT_TRUE(fv.exact_distance) << "trial " << trial;
          EXPECT_EQ(ss.exact_incomplete, 1);
          EXPECT_EQ(ss.exact_calls, 1);
          // Kept, flagged unproven, and the distance is the feasible upper
          // bound above tau that sent the pair to tier 4.
          EXPECT_TRUE(sv.within) << "trial " << trial << " tau " << tau;
          EXPECT_FALSE(sv.exact_distance) << "trial " << trial;
          EXPECT_GT(sv.ged, tau) << "trial " << trial;
          EXPECT_GE(sv.ged, fv.ged) << "trial " << trial;
        } else {
          // Decided means proven: a hit carries a witness within tau (or
          // an exact distance), and membership matches the oracle.
          EXPECT_EQ(sv.within, fv.within) << "trial " << trial;
          if (sv.within) {
            EXPECT_TRUE(sv.ged <= tau || sv.exact_distance)
                << "trial " << trial;
          }
          if (sv.exact_distance) {
            ASSERT_TRUE(fv.exact_distance);
            EXPECT_EQ(sv.ged, fv.ged);
          }
        }
      }
    }
  }
  EXPECT_GT(starved_runs, 0) << "fixture never reached a starved tier 4";
}

TEST(ExactBudgetTest, PowerLawRangeDecisionsMatchAstar) {
  // Unlabeled power-law graphs: the label and edge-count bounds are
  // weak and the Classic upper bound loose, so range pairs reach tier 4,
  // where the decision search must settle them exactly.
  Rng rng(404);
  const Graph query = PowerLawGraph(8, 2, &rng);
  std::vector<Graph> corpus;
  for (int i = 0; i < 24; ++i) {
    SyntheticEditOptions eopt;
    eopt.num_edits = rng.UniformInt(1, 7);
    eopt.allow_relabel = false;
    Graph g = SyntheticEditPair(query, eopt, &rng).g2;
    if (g.NumNodes() <= 9) corpus.push_back(std::move(g));
  }
  for (int i = 0; i < 16; ++i)
    corpus.push_back(PowerLawGraph(rng.UniformInt(6, 9), 2, &rng));
  GraphStore store;
  store.AddAll(corpus);

  constexpr int kTau = 4;
  std::set<int> truth;
  std::vector<int> ged(static_cast<size_t>(store.Size()));
  for (int id = 0; id < store.Size(); ++id) {
    auto [g1, g2] = OrderBySize(query, store.graph(id));
    const auto astar = AstarGed(*g1, *g2);
    ASSERT_TRUE(astar.has_value()) << "id " << id;
    ged[static_cast<size_t>(id)] = astar->ged;
    if (astar->ged <= kTau) truth.insert(id);
  }
  ASSERT_FALSE(truth.empty());
  ASSERT_LT(truth.size(), static_cast<size_t>(store.Size()));

  EngineOptions opt;
  opt.num_threads = 2;
  const RangeResult got = QueryEngine(&store, opt).Range(query, kTau);
  EXPECT_GT(got.stats.cascade.decided_exact, 0) << "no pair reached tier 4";
  EXPECT_EQ(got.stats.cascade.exact_incomplete, 0);
  EXPECT_EQ(got.stats.cascade.SettledTotal(), got.stats.cascade.candidates);
  std::set<int> ids;
  for (const RangeHit& h : got.hits) {
    ids.insert(h.id);
    // With nothing left undecided, every hit is proven.
    EXPECT_TRUE(h.ged <= kTau || h.exact_distance) << "id " << h.id;
    if (h.exact_distance) {
      EXPECT_EQ(h.ged, ged[h.id]) << "id " << h.id;
    }
  }
  EXPECT_EQ(ids, truth);

  // Starved: nothing true is dropped, every unproven keep is counted,
  // and a search stopped after its witness does not claim it exact.
  for (long budget : {1L, 2L, 4L, 8L, 16L}) {
    EngineOptions starved_opt = opt;
    starved_opt.cascade.exact_budget = budget;
    const RangeResult starved =
        QueryEngine(&store, starved_opt).Range(query, kTau);
    EXPECT_EQ(starved.stats.cascade.SettledTotal(),
              starved.stats.cascade.candidates);
    std::set<int> starved_ids;
    long unproven = 0;
    for (const RangeHit& h : starved.hits) {
      starved_ids.insert(h.id);
      if (h.ged > kTau && !h.exact_distance) ++unproven;
      EXPECT_GE(h.ged, ged[h.id]) << "budget " << budget << " id " << h.id;
      if (h.exact_distance) {
        EXPECT_EQ(h.ged, ged[h.id]) << "budget " << budget << " id " << h.id;
      }
    }
    for (int id : truth) {
      EXPECT_TRUE(starved_ids.count(id))
          << "budget " << budget << " dropped true hit id " << id;
    }
    EXPECT_EQ(unproven, starved.stats.cascade.exact_incomplete)
        << "budget " << budget;
  }
}

TEST(ExactBudgetTest, StarvedEngineKeepsEveryTrueHitAndReconciles) {
  // Unlabeled graphs keep the invariant/label lower bounds weak and the
  // heuristic upper bound loose, so bound gaps actually reach tier 4.
  Rng rng(91);
  Graph query = LinuxLikeGraph(&rng, 8, 10);
  std::vector<Graph> corpus;
  for (int i = 0; i < 10; ++i) {
    SyntheticEditOptions eopt;
    eopt.num_edits = rng.UniformInt(1, 4);
    eopt.num_labels = 1;
    corpus.push_back(SyntheticEditPair(query, eopt, &rng).g2);
  }
  for (int i = 0; i < 30; ++i) corpus.push_back(LinuxLikeGraph(&rng, 6, 10));
  GraphStore store;
  store.AddAll(corpus);

  EngineOptions truth_opt;
  truth_opt.num_threads = 2;
  truth_opt.cascade.use_ot_verify = false;
  QueryEngine truth_engine(&store, truth_opt);
  EngineOptions starved_opt = truth_opt;
  starved_opt.cascade.exact_budget = 1;
  QueryEngine starved_engine(&store, starved_opt);

  constexpr int kTau = 4;
  const RangeResult truth = truth_engine.Range(query, kTau);
  ASSERT_EQ(truth.stats.cascade.exact_incomplete, 0);

  const telemetry::MetricsSnapshot before =
      telemetry::Registry().Snapshot();
  const RangeResult got = starved_engine.Range(query, kTau);
  const TopKResult topk = starved_engine.TopK(query, 5);
  CascadeStats total;
  total.Merge(got.stats.cascade);
  total.Merge(topk.stats.cascade);
  const telemetry::MetricsSnapshot after = telemetry::Registry().Snapshot();

  // A starved exact tier must actually have happened for this test to
  // mean anything; top-k forces need_distance, so bound gaps cannot be
  // settled short of tier 4.
  EXPECT_GT(total.exact_incomplete, 0);
  EXPECT_GE(total.exact_calls, total.exact_incomplete);

  // No false dismissals: every proven hit survives starvation.
  std::set<int> starved_ids;
  for (const RangeHit& h : got.hits) starved_ids.insert(h.id);
  for (const RangeHit& h : truth.hits)
    EXPECT_TRUE(starved_ids.count(h.id)) << "dropped true hit id " << h.id;
  // Conservative keeps are flagged unproven, never exact: any starved
  // hit claiming an exact distance must be a true hit.
  std::set<int> truth_ids;
  for (const RangeHit& h : truth.hits) truth_ids.insert(h.id);
  for (const RangeHit& h : got.hits) {
    if (h.exact_distance) {
      EXPECT_TRUE(truth_ids.count(h.id)) << "false exact hit id " << h.id;
    }
  }
  // Top-k under starvation: order still (ged, id), unproven entries
  // flagged.
  for (size_t i = 1; i < topk.hits.size(); ++i) {
    const TopKHit& a = topk.hits[i - 1];
    const TopKHit& b = topk.hits[i];
    EXPECT_TRUE(a.ged < b.ged || (a.ged == b.ged && a.id < b.id));
  }

  // The registry counters agree with the summed QueryStats.
  EXPECT_EQ(after.CounterValue("otged_cascade_exact_incomplete_total") -
                before.CounterValue("otged_cascade_exact_incomplete_total"),
            total.exact_incomplete);
  EXPECT_EQ(after.CounterValue("otged_cascade_exact_calls_total") -
                before.CounterValue("otged_cascade_exact_calls_total"),
            total.exact_calls);
}

TEST(ExactBudgetTest, GraphBeyondExactLimitIsKeptUnproven) {
  // The exact search tracks at most 64 nodes. A larger stored graph must
  // not abort serving: its tier-4 run reports the greedy witness,
  // unproven, and the pair is kept and counted like a starved search.
  Rng rng(70);
  const Graph big = PowerLawGraph(70, 2, &rng);
  SyntheticEditOptions eopt;
  eopt.num_edits = 3;
  const Graph query = SyntheticEditPair(big, eopt, &rng).g2;
  GraphStore store;
  const int big_id = store.Insert(big);
  for (int i = 0; i < 6; ++i) store.Insert(LinuxLikeGraph(&rng, 6, 10));

  EngineOptions opt;
  opt.num_threads = 2;
  opt.cascade.use_ot_verify = false;  // leave the bound gap to tier 4
  QueryEngine engine(&store, opt);

  // GED(query, big) <= 3 by construction, so big is a true hit.
  const RangeResult range = engine.Range(query, 3);
  EXPECT_GT(range.stats.cascade.exact_incomplete, 0);
  const auto in_range =
      std::find_if(range.hits.begin(), range.hits.end(),
                   [&](const RangeHit& h) { return h.id == big_id; });
  ASSERT_NE(in_range, range.hits.end());
  EXPECT_FALSE(in_range->exact_distance);

  // k covers the whole store: the big graph's unproven (greedy) distance
  // need not rank first, but it must be there.
  const TopKResult topk = engine.TopK(query, store.Size());
  EXPECT_GT(topk.stats.cascade.exact_incomplete, 0);
  const auto in_topk =
      std::find_if(topk.hits.begin(), topk.hits.end(),
                   [&](const TopKHit& h) { return h.id == big_id; });
  ASSERT_NE(in_topk, topk.hits.end());
  EXPECT_FALSE(in_topk->exact_distance);
}

}  // namespace
}  // namespace otged
