#include "search/filter_cascade.hpp"

#include <algorithm>
#include <cmath>

#include "assignment/kbest.hpp"
#include "exact/branch_and_bound.hpp"
#include "heuristics/bipartite.hpp"
#include "heuristics/lower_bounds.hpp"
#include "models/gedgw.hpp"
#include "telemetry/metrics.hpp"

namespace otged {

void CascadeStats::Merge(const CascadeStats& o) {
  candidates += o.candidates;
  pruned_index += o.pruned_index;
  pruned_invariant += o.pruned_invariant;
  passed_invariant += o.passed_invariant;
  pruned_branch += o.pruned_branch;
  decided_heuristic += o.decided_heuristic;
  decided_ot += o.decided_ot;
  decided_exact += o.decided_exact;
  ot_calls += o.ot_calls;
  exact_calls += o.exact_calls;
  exact_incomplete += o.exact_incomplete;
  cache_hits += o.cache_hits;
}

double CascadeStats::PrunedBeforeSolvers() const {
  if (candidates == 0) return 0.0;
  return static_cast<double>(pruned_index + pruned_invariant +
                             pruned_branch) /
         static_cast<double>(candidates);
}

FilterCascade::FilterCascade(const CascadeOptions& opt) : opt_(opt) {}

CascadeVerdict FilterCascade::BoundedDistance(const Graph& query,
                                              const GraphInvariants& qi,
                                              const Graph& g,
                                              const GraphInvariants& gi,
                                              int tau, bool need_distance,
                                              CascadeStats* stats,
                                              CascadeProbe* probe) const {
  OTGED_DCHECK(stats != nullptr);
  stats->candidates++;
  if (probe != nullptr) *probe = CascadeProbe{};
  double t_prev = probe != nullptr ? telemetry::NowUs() : 0.0;
  // Charges the wall time since the previous mark to `tier`.
  auto mark = [&](CascadeTier tier) {
    if (probe == nullptr) return;
    const double now = telemetry::NowUs();
    probe->tier_us[static_cast<int>(tier)] += now - t_prev;
    t_prev = now;
  };
  CascadeVerdict v;
  int lb = InvariantLowerBound(qi, gi);
  int ub = -1;  // best feasible upper bound so far (-1: none computed)
  // Every exit goes through here: stamps the deciding tier, fills the probe.
  auto settle = [&](CascadeTier tier) {
    v.tier = tier;
    mark(tier);
    if (probe != nullptr) {
      probe->lb = lb;
      probe->ub = ub;
    }
    return v;
  };

  // --- tier 0: invariants only, no adjacency access --------------------
  if (lb > tau) {
    stats->pruned_invariant++;
    return settle(CascadeTier::kInvariant);
  }
  if (lb == 0 && qi.wl_hash == gi.wl_hash && query == g) {
    // Identity fast path (node-identity equality implies GED == 0).
    stats->passed_invariant++;
    v.within = true;
    v.ged = 0;
    v.exact_distance = true;
    ub = 0;
    return settle(CascadeTier::kInvariant);
  }
  mark(CascadeTier::kInvariant);

  auto [g1, g2] = OrderBySize(query, g);

  // --- tier 1: BRANCH bipartite lower bound ----------------------------
  lb = std::max(
      lb, static_cast<int>(std::ceil(BranchLowerBound(*g1, *g2) - 1e-9)));
  if (lb > tau) {
    stats->pruned_branch++;
    return settle(CascadeTier::kBranch);
  }
  mark(CascadeTier::kBranch);

  // --- tier 2: Classic heuristic upper bound ---------------------------
  ub = ClassicGed(*g1, *g2).ged;
  if (lb == ub) {
    // Certificate: admissible LB meets feasible UB, distance is exact.
    stats->decided_heuristic++;
    v.within = ub <= tau;
    v.ged = ub;
    v.exact_distance = true;
    return settle(CascadeTier::kHeuristic);
  }
  if (!need_distance && ub <= tau) {
    // The feasible edit path already witnesses membership.
    stats->decided_heuristic++;
    v.within = true;
    v.ged = ub;
    return settle(CascadeTier::kHeuristic);
  }
  mark(CascadeTier::kHeuristic);

  // --- tier 3: OT verify (GEDGW coupling -> k-best edit path) ----------
  if (opt_.use_ot_verify) {
    stats->ot_calls++;
    GedgwConfig gw_cfg;
    gw_cfg.cg_iters = opt_.gw_iters;
    GedgwSolver gw(gw_cfg);
    Prediction pred = gw.Predict(*g1, *g2);
    GepResult gep = KBestGepSearch(*g1, *g2, pred.coupling, opt_.kbest_k);
    ub = std::min(ub, gep.ged);
    if (lb == ub) {
      stats->decided_ot++;
      v.within = ub <= tau;
      v.ged = ub;
      v.exact_distance = true;
      return settle(CascadeTier::kOt);
    }
    if (!need_distance && ub <= tau) {
      stats->decided_ot++;
      v.within = true;
      v.ged = ub;
      return settle(CascadeTier::kOt);
    }
    mark(CascadeTier::kOt);
  }

  // --- tier 4: exact verify ---------------------------------------------
  stats->exact_calls++;
  stats->decided_exact++;
  if (!need_distance) {
    // Range mode only needs GED <= tau, and here ub > tau: decide it
    // with a search pruned at tau + 1 instead of proving the optimum.
    const GedDecisionResult d =
        DecideGedWithin(*g1, *g2, tau, opt_.exact_budget);
    if (probe != nullptr) probe->exact_expansions = d.expansions;
    switch (d.decision) {
      case GedDecision::kWithin:
        v.within = true;
        v.ged = d.ged;
        v.exact_distance = d.exact;
        ub = d.ged;
        break;
      case GedDecision::kBeyond:
        v.ged = ub;
        lb = tau + 1;  // the completed search is an admissible proof
        break;
      case GedDecision::kUnknown:
        // No proof either way: keep the candidate (no false dismissals,
        // ever) with the feasible upper bound as its unproven distance.
        stats->exact_incomplete++;
        v.within = true;
        v.ged = ub;
        break;
    }
    return settle(CascadeTier::kExact);
  }
  GedSearchResult exact = ExactSearch(*g1, *g2, opt_.exact_budget, ub, stats);
  if (probe != nullptr) probe->exact_expansions = exact.expansions;
  if (!exact.exact) stats->exact_incomplete++;
  // On budget exhaustion `exact.ged` is only a feasible upper bound; the
  // only valid dismissal evidence is an admissible LB > tau, and here
  // lb <= tau. Keep the candidate (no false dismissals, ever) and flag
  // the distance as unproven.
  v.within = exact.ged <= tau || !exact.exact;
  v.ged = exact.ged;
  v.exact_distance = exact.exact;
  ub = exact.ged;
  return settle(CascadeTier::kExact);
}

GedSearchResult FilterCascade::ExactSearch(const Graph& g1, const Graph& g2,
                                           long budget,
                                           int initial_upper_bound,
                                           CascadeStats* /*stats*/) const {
  BnbOptions bnb;
  bnb.max_visits = budget;
  bnb.initial_upper_bound = initial_upper_bound;
  return BranchAndBoundGed(g1, g2, bnb);
}

}  // namespace otged
