#include "replay.hpp"

#include <algorithm>
#include <utility>

#include "graph/graph_io.hpp"
#include "heuristics/bipartite.hpp"

namespace perfbench {

using otged::CascadeTier;
using otged::CascadeVerdict;
using otged::Graph;
using otged::SearchHit;

namespace {

const char* const kTierSpan[5] = {"cascade.invariant", "cascade.branch",
                                  "cascade.heuristic", "cascade.ot",
                                  "cascade.exact"};

}  // namespace

bool SameCascadeCounts(const otged::CascadeStats& a,
                       const otged::CascadeStats& b) {
  return a.candidates == b.candidates && a.pruned_index == b.pruned_index &&
         a.pruned_invariant == b.pruned_invariant &&
         a.passed_invariant == b.passed_invariant &&
         a.pruned_branch == b.pruned_branch &&
         a.decided_heuristic == b.decided_heuristic &&
         a.decided_ot == b.decided_ot && a.decided_exact == b.decided_exact &&
         a.ot_calls == b.ot_calls && a.exact_calls == b.exact_calls &&
         a.exact_incomplete == b.exact_incomplete &&
         a.cache_hits == b.cache_hits;
}

bool LayerCounts::operator==(const LayerCounts& o) const {
  return SameCascadeCounts(cascade, o.cascade) && range_ops == o.range_ops &&
         topk_ops == o.topk_ops && refine_calls == o.refine_calls &&
         refine_exhausted == o.refine_exhausted &&
         exact_expansions == o.exact_expansions &&
         range_scanned == o.range_scanned &&
         range_candidates == o.range_candidates &&
         cache_lookups == o.cache_lookups && cache_hits == o.cache_hits;
}

LayerReplay::LayerReplay(otged::GraphStore* store,
                         const otged::EngineOptions& opt, Tracer* tracer)
    : store_(store),
      opt_(opt),
      tracer_(tracer),
      cascade_(opt.cascade),
      index_(opt.index),
      cache_(opt.cache_capacity) {}

void LayerReplay::Prime() {
  auto snap = store_->Snapshot();
  index_.ViewFor(snap);
  index_epoch_ = snap->epoch();
}

std::shared_ptr<const otged::IndexView> LayerReplay::View(
    const std::shared_ptr<const otged::StoreSnapshot>& snap) {
  const bool moved = snap->epoch() != index_epoch_;
  index_epoch_ = snap->epoch();
  Span s(tracer_, moved ? "index.advance" : "index.view");
  return index_.ViewFor(snap);
}

std::shared_ptr<const otged::StoreSnapshot> LayerReplay::Pin() {
  std::vector<int> erased;
  std::shared_ptr<const otged::StoreSnapshot> snap;
  {
    Span s(tracer_, "store.snapshot");
    snap = store_->SnapshotAndErased(&erase_cursor_, &erased);
  }
  Span s(tracer_, "cache.invalidate");
  cache_.EraseGraphs(erased);
  return snap;
}

CascadeVerdict LayerReplay::EvalPair(const Graph& q,
                                     const otged::GraphInvariants& qi,
                                     uint64_t fp,
                                     const otged::StoreSnapshot& snap,
                                     int slot, int tau, bool need_distance) {
  const int gid = snap.id(slot);
  std::optional<int> cached;
  {
    Span s(tracer_, "cache.lookup");
    cached = cache_.Lookup(fp, gid);
  }
  counts_.cache_lookups++;
  CascadeVerdict v;
  if (cached) {
    counts_.cache_hits++;
    counts_.cascade.candidates++;
    counts_.cascade.cache_hits++;
    v.within = *cached <= tau;
    v.ged = *cached;
    v.exact_distance = true;
    v.tier = CascadeTier::kCache;
    return v;
  }
  otged::CascadeProbe probe;
  {
    Span pair(tracer_, "cascade.pair");
    const double t0 = NowUs();
    v = cascade_.BoundedDistance(q, qi, snap.graph(slot),
                                 snap.invariants(slot), tau, need_distance,
                                 &counts_.cascade, &probe);
    // The probe reports wall time per tier entered; the tiers run in
    // order, so they become consecutive children of the pair span.
    double t = t0;
    for (int tier = 0; tier < 5; ++tier) {
      if (probe.tier_us[tier] <= 0.0) continue;
      tracer_->AddChild(kTierSpan[tier], t, t + probe.tier_us[tier]);
      t += probe.tier_us[tier];
    }
  }
  counts_.exact_expansions += probe.exact_expansions;
  if (v.exact_distance) {
    Span s(tracer_, "cache.insert");
    cache_.Insert(fp, gid, v.ged);
  }
  return v;
}

std::vector<SearchHit> LayerReplay::Range(const Graph& q, int tau) {
  Span op(tracer_, "op.range");
  counts_.range_ops++;
  auto snap = Pin();
  const int n = snap->Size();
  uint64_t fp = 0;
  otged::GraphInvariants qi;
  {
    Span s(tracer_, "query.prepare");
    fp = otged::GraphContentFingerprint(q);
    qi = otged::ComputeInvariants(q);
  }
  std::vector<SearchHit> hits;
  if (n == 0) return hits;
  std::shared_ptr<const otged::IndexView> view = View(snap);
  std::vector<int> ids;
  otged::IndexStats istats;
  {
    Span s(tracer_, "index.range_candidates");
    view->RangeCandidates(qi, tau, &ids, &istats);
  }
  counts_.range_scanned += n;
  counts_.range_candidates += static_cast<long>(ids.size());
  const long pruned = n - static_cast<long>(ids.size());
  counts_.cascade.candidates += pruned;
  counts_.cascade.pruned_index += pruned;
  for (const int id : ids) {
    const int slot = snap->SlotOf(id);
    const CascadeVerdict v = EvalPair(q, qi, fp, *snap, slot, tau, false);
    if (v.within) hits.push_back({id, v.ged, v.exact_distance});
  }
  return hits;
}

std::vector<SearchHit> LayerReplay::TopK(const Graph& q, int k) {
  Span op(tracer_, "op.topk");
  counts_.topk_ops++;
  auto snap = Pin();
  const int n = snap->Size();
  const int kk = std::min(k, n);
  std::vector<SearchHit> hits;
  if (kk <= 0) return hits;
  uint64_t fp = 0;
  otged::GraphInvariants qi;
  {
    Span s(tracer_, "query.prepare");
    fp = otged::GraphContentFingerprint(q);
    qi = otged::ComputeInvariants(q);
  }
  // Phase A: probe pool of the kp lowest (bound, id) graphs.
  const int kp = std::min(n, kk + std::max(0, opt_.topk_seed_probes));
  std::shared_ptr<const otged::IndexView> view = View(snap);
  std::vector<std::pair<int, int>> nearest;
  otged::IndexStats istats;
  {
    Span s(tracer_, "index.topk_seeds");
    view->TopKSeeds(qi, static_cast<size_t>(kp), &nearest, &istats);
  }
  // Phase B: refined upper bound per probe; the kk-th smallest caps the
  // kk-th best distance.
  std::vector<int> seed_ub;
  for (const auto& [bound, id] : nearest) {
    const int slot = snap->SlotOf(id);
    std::optional<int> cached;
    {
      Span s(tracer_, "cache.lookup");
      cached = cache_.Lookup(fp, id);
    }
    counts_.cache_lookups++;
    if (cached) {
      counts_.cache_hits++;
      seed_ub.push_back(*cached);
      continue;
    }
    auto [g1, g2] = otged::OrderBySize(q, snap->graph(slot));
    int ub = 0;
    {
      Span s(tracer_, "heuristics.classic");
      ub = otged::ClassicGed(*g1, *g2).ged;
    }
    if (opt_.topk_seed_refine_budget > 0) {
      otged::GedSearchResult r;
      {
        Span s(tracer_, "exact.refine");
        r = cascade_.ExactSearch(*g1, *g2, opt_.topk_seed_refine_budget, ub,
                                 &counts_.cascade);
      }
      counts_.refine_calls++;
      if (!r.exact) counts_.refine_exhausted++;
      counts_.exact_expansions += r.expansions;
      ub = r.ged;
      if (r.exact) {
        Span s(tracer_, "cache.insert");
        cache_.Insert(fp, id, r.ged);
      }
    }
    seed_ub.push_back(ub);
  }
  std::nth_element(seed_ub.begin(), seed_ub.begin() + (kk - 1),
                   seed_ub.end());
  const int tau0 = seed_ub[static_cast<size_t>(kk - 1)];
  // Phase C: exact distances of every graph whose bound is within tau0.
  std::vector<int> ids;
  {
    Span s(tracer_, "index.lb_range");
    view->LbRangeCandidates(qi, tau0, &ids, &istats);
  }
  const long pruned = n - static_cast<long>(ids.size());
  counts_.cascade.candidates += pruned;
  counts_.cascade.pruned_index += pruned;
  for (const int id : ids) {
    const int slot = snap->SlotOf(id);
    const CascadeVerdict v = EvalPair(q, qi, fp, *snap, slot, tau0, true);
    if (v.within) hits.push_back({id, v.ged, v.exact_distance});
  }
  std::sort(hits.begin(), hits.end(),
            [](const SearchHit& a, const SearchHit& b) {
              return a.ged != b.ged ? a.ged < b.ged : a.id < b.id;
            });
  if (static_cast<int>(hits.size()) > kk) hits.resize(static_cast<size_t>(kk));
  return hits;
}

int LayerReplay::Insert(Graph g) {
  Span s(tracer_, "store.insert");
  return store_->Insert(std::move(g));
}

bool LayerReplay::Erase(int id) {
  Span s(tracer_, "store.erase");
  return store_->Erase(id);
}

}  // namespace perfbench
