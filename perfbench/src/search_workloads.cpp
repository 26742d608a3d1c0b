// The two QueryEngine workloads: powerlaw_range (tier-4 exact verify on
// the critical path, with query repeats for the bound cache) and
// molecule_churn (store and index on the critical path: a 100k-graph
// corpus with writes between the reads).
#include <algorithm>
#include <set>
#include <string>

#include "engine_runner.hpp"
#include "exact/branch_and_bound.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"
#include "heuristics/lower_bounds.hpp"
#include "workloads.hpp"

namespace perfbench {

using otged::Graph;
using otged::Rng;
using otged::SearchHit;

namespace {

std::string OpName(long idx) { return "op " + std::to_string(idx); }

/// Hits must be ascending by id (range) or by (ged, id) (top-k), with no
/// id twice.
bool WellFormed(const Op& op, const std::vector<SearchHit>& hits) {
  std::set<int> ids;
  for (size_t i = 0; i < hits.size(); ++i) {
    if (!ids.insert(hits[i].id).second || hits[i].ged < 0) return false;
    if (i == 0) continue;
    const SearchHit& a = hits[i - 1];
    const SearchHit& b = hits[i];
    if (op.kind == Op::kRange && a.id >= b.id) return false;
    if (op.kind == Op::kTopK &&
        (a.ged > b.ged || (a.ged == b.ged && a.id > b.id)))
      return false;
  }
  return true;
}

/// Exact GED by branch and bound, seeded with the Classic upper bound.
otged::GedSearchResult Exact(const Graph& a, const Graph& b) {
  auto [g1, g2] = otged::OrderBySize(a, b);
  otged::BnbOptions opt;
  opt.max_visits = 2'000'000;
  opt.initial_upper_bound = otged::ClassicGed(*g1, *g2).ged;
  return otged::BranchAndBoundGed(*g1, *g2, opt);
}

// ------------------------------------------------------- powerlaw_range

constexpr int kPowerlawTau = 4;
/// Edits between a fresh query and its seed.
constexpr int kQueryEdits = 1;

Corpus PowerlawCorpus(uint64_t seed, bool small) {
  Rng rng(seed * 1000003 + 11);
  const int total = small ? 200 : 2000;
  const int num_seeds = small ? 8 : 48;
  const int variants = 5;
  Corpus c;
  c.background = total - num_seeds * variants;
  for (int i = 0; i < c.background; ++i)
    c.graphs.push_back(otged::PowerLawGraph(rng.UniformInt(10, 32),
                                            rng.UniformInt(1, 3), &rng));
  // Query seed sizes sweep 12..28 in shuffled blocks, so any prefix of
  // the stream sees every size about equally often.
  std::vector<int> sizes;
  while (static_cast<int>(sizes.size()) < num_seeds) {
    std::vector<int> block;
    for (int n = 12; n <= 28; ++n) block.push_back(n);
    rng.Shuffle(&block);
    sizes.insert(sizes.end(), block.begin(), block.end());
  }
  for (int s = 0; s < num_seeds; ++s) {
    c.query_seeds.push_back(otged::PowerLawGraph(sizes[s], 2, &rng));
    c.planted.emplace_back();
    for (int v = 0; v < variants; ++v) {
      otged::SyntheticEditOptions opt;
      opt.num_edits = 1 + v;
      opt.allow_relabel = false;
      c.planted.back().emplace_back(static_cast<int>(c.graphs.size()),
                                    opt.num_edits);
      c.graphs.push_back(
          otged::SyntheticEditPair(c.query_seeds.back(), opt, &rng).g2);
    }
  }
  return c;
}

/// Range stream: each query repeats an earlier one with probability 1/2;
/// otherwise it is a fresh one-edit variant of the next query seed (the
/// seeds are taken in order, cyclically).
class PowerlawOps : public OpStream {
 public:
  PowerlawOps(const Corpus& c, uint64_t seed)
      : seeds_(&c.query_seeds), rng_(seed * 7919 + 3) {}

  Op Next() override {
    Op op;
    op.kind = Op::kRange;
    op.param = kPowerlawTau;
    if (!served_.empty() && rng_.Uniform() < 0.5) {
      const Served& s = served_[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int>(served_.size()) - 1))];
      op.seed_index = s.seed;
      op.first = s.first;
      op.graph = s.query;
    } else {
      op.seed_index = static_cast<int>(fresh_ % seeds_->size());
      ++fresh_;
      otged::SyntheticEditOptions opt;
      opt.num_edits = kQueryEdits;
      opt.allow_relabel = false;
      op.graph = otged::SyntheticEditPair(
                     (*seeds_)[static_cast<size_t>(op.seed_index)], opt,
                     &rng_)
                     .g2;
      served_.push_back({op.seed_index, count_, op.graph});
    }
    ++count_;
    return op;
  }

 private:
  struct Served {
    int seed;
    long first;
    Graph query;
  };
  const std::vector<Graph>* seeds_;
  Rng rng_;
  size_t fresh_ = 0;
  long count_ = 0;
  std::vector<Served> served_;
};

void VerifyPowerlaw(const Corpus& c, const std::vector<Op>& ops,
                    const std::vector<OpResult>& res, Report* report) {
  long planted_checked = 0, dismissed_checked = 0, repeats_checked = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::vector<SearchHit>& hits = res[i].hits;
    const long idx = static_cast<long>(i);
    bool ok = WellFormed(op, hits);
    if (!ok) report->Fail(OpName(idx) + ": malformed hit list", false);
    std::set<int> ids;
    for (const SearchHit& h : hits) {
      ids.insert(h.id);
      if (h.exact_distance && h.ged > op.param) {
        report->Fail(OpName(idx) + ": hit " + std::to_string(h.id) +
                         " has proven GED " + std::to_string(h.ged) +
                         " > tau",
                     false);
        ok = false;
      }
    }
    // Planted variants are true hits when the query -> seed -> variant
    // path fits in tau: kQueryEdits + delta <= tau.
    for (const auto& [id, delta] : c.planted[static_cast<size_t>(
             op.seed_index)]) {
      if (kQueryEdits + delta > op.param) continue;
      ++planted_checked;
      if (!ids.count(id)) {
        report->Fail(OpName(idx) + ": planted variant " +
                         std::to_string(id) + " (delta " +
                         std::to_string(delta) + ") was dismissed",
                     false);
        ok = false;
      }
    }
    if (op.first >= 0) {
      ++repeats_checked;
      std::set<int> first_ids;
      for (const SearchHit& h : res[static_cast<size_t>(op.first)].hits)
        first_ids.insert(h.id);
      if (first_ids != ids) {
        report->Fail(OpName(idx) + ": repeat of op " +
                         std::to_string(op.first) +
                         " returned a different hit set",
                     false);
        ok = false;
      }
    } else if (res[i].snap != nullptr) {
      // The hardest dismissals: the non-hits with the smallest invariant
      // bound must have a Classic upper bound beyond tau (a feasible
      // path within tau would prove a false dismissal).
      const otged::StoreSnapshot& snap = *res[i].snap;
      const otged::GraphInvariants qi = otged::ComputeInvariants(op.graph);
      std::vector<std::pair<int, int>> near;  // (bound, slot)
      for (int slot = 0; slot < snap.Size(); ++slot)
        if (!ids.count(snap.id(slot)))
          near.emplace_back(
              otged::InvariantLowerBound(qi, snap.invariants(slot)), slot);
      const size_t take = std::min<size_t>(4, near.size());
      std::partial_sort(near.begin(), near.begin() + take, near.end());
      for (size_t j = 0; j < take; ++j) {
        const int slot = near[j].second;
        auto [g1, g2] = otged::OrderBySize(op.graph, snap.graph(slot));
        ++dismissed_checked;
        if (otged::ClassicGed(*g1, *g2).ged <= op.param) {
          report->Fail(OpName(idx) + ": dismissed graph " +
                           std::to_string(snap.id(slot)) +
                           " has a Classic path within tau",
                       false);
          ok = false;
        }
      }
    }
    if (!ok) ++report->failed;
  }
  std::printf("  oracle checks: %ld planted variants, %ld hardest "
              "dismissals, %ld repeats\n",
              planted_checked, dismissed_checked, repeats_checked);
}

// ------------------------------------------------------- molecule_churn

constexpr int kChurnTau = 2;
constexpr int kChurnLabels = 29;

Corpus ChurnCorpus(uint64_t seed, bool small) {
  Rng rng(seed * 1000003 + 29);
  const int background = small ? 3000 : 100000;
  const int num_seeds = small ? 40 : 400;
  Corpus c;
  c.background = background;
  c.graphs.reserve(static_cast<size_t>(background + num_seeds * 3));
  for (int i = 0; i < background; ++i)
    c.graphs.push_back(otged::AidsLikeGraph(&rng, 6, 14));
  for (int s = 0; s < num_seeds; ++s) {
    c.query_seeds.push_back(otged::AidsLikeGraph(&rng, 6, 14));
    c.planted.emplace_back();
    for (int v = 0; v < 3; ++v) {
      otged::SyntheticEditOptions opt;
      opt.num_edits = 1 + v;
      opt.num_labels = kChurnLabels;
      c.planted.back().emplace_back(static_cast<int>(c.graphs.size()),
                                    opt.num_edits);
      c.graphs.push_back(
          otged::SyntheticEditPair(c.query_seeds.back(), opt, &rng).g2);
      c.stored_queries.push_back(c.graphs.back());
    }
  }
  return c;
}

/// Operations come in shuffled blocks of 20 — 15 range (a seed with 1-2
/// fresh edits, tau 2), 1 top-1 (a stored planted variant), 2 Insert of a
/// fresh molecule, 2 Erase of a background graph (never a planted
/// variant, never twice) — so every run sees the same mix, not a binomial
/// draw of it (top-1 queries cost ~20 range queries each).
///
/// Top-1 asks for a stored molecule, not a seed: on a seed the cap from
/// the 5k refinement can stay at the Classic bound (12 for a one-edit
/// neighbour on 2 of 400 seeds), and phase C then verifies ~50k graphs,
/// minutes for one query. A stored graph caps at 0.
class ChurnOps : public OpStream {
 public:
  ChurnOps(const Corpus& c, uint64_t seed)
      : seeds_(&c.query_seeds),
        stored_(&c.stored_queries),
        rng_(seed * 7919 + 5) {
    for (int id = 0; id < c.background; ++id) erase_order_.push_back(id);
    rng_.Shuffle(&erase_order_);
  }

  Op Next() override {
    if (block_.empty()) {
      block_.assign(15, Op::kRange);
      block_.push_back(Op::kTopK);
      block_.insert(block_.end(), 2, Op::kInsert);
      block_.insert(block_.end(), 2, Op::kErase);
      rng_.Shuffle(&block_);
    }
    Op op;
    op.kind = block_.back();
    block_.pop_back();
    const int nseeds = static_cast<int>(seeds_->size());
    if (op.kind == Op::kErase && next_erase_ >= erase_order_.size())
      op.kind = Op::kInsert;
    switch (op.kind) {
      case Op::kRange: {
        op.param = kChurnTau;
        op.seed_index = rng_.UniformInt(0, nseeds - 1);
        otged::SyntheticEditOptions opt;
        opt.num_edits = rng_.UniformInt(1, 2);
        opt.num_labels = kChurnLabels;
        op.graph = otged::SyntheticEditPair(
                       (*seeds_)[static_cast<size_t>(op.seed_index)], opt,
                       &rng_)
                       .g2;
        break;
      }
      case Op::kTopK:
        op.param = 1;
        op.graph = (*stored_)[static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int>(stored_->size()) - 1))];
        break;
      case Op::kInsert:
        op.graph = otged::AidsLikeGraph(&rng_, 6, 14);
        break;
      case Op::kErase:
        op.param = erase_order_[next_erase_++];
        break;
    }
    return op;
  }

 private:
  const std::vector<Graph>* seeds_;
  const std::vector<Graph>* stored_;
  Rng rng_;
  std::vector<Op::Kind> block_;
  std::vector<int> erase_order_;
  size_t next_erase_ = 0;
};

/// About ten range and ten top-1 operations from the start of the run;
/// each pins a 100k-entry snapshot until the oracle runs, so a fixed
/// count keeps peak_rss_mb independent of how many operations a run
/// completes.
bool ChurnSample(const Op& op, long idx) {
  if (op.kind == Op::kRange) return idx % 150 == 0 && idx < 1500;
  if (op.kind == Op::kTopK) return idx % 4 == 0 && idx < 800;
  return false;
}

/// Every live graph whose admissible lower bound is <= tau is verified by
/// exact branch and bound; the engine's hit set must agree with every
/// proven distance.
void BruteRange(const Op& op, const OpResult& r, long idx, long* undecided,
                Report* report, bool* ok) {
  const otged::StoreSnapshot& snap = *r.snap;
  const otged::GraphInvariants qi = otged::ComputeInvariants(op.graph);
  std::set<int> examined;
  for (int slot = 0; slot < snap.Size(); ++slot) {
    if (otged::InvariantLowerBound(qi, snap.invariants(slot)) > op.param)
      continue;
    auto [g1, g2] = otged::OrderBySize(op.graph, snap.graph(slot));
    if (otged::BestLowerBound(*g1, *g2) > op.param) continue;
    const int id = snap.id(slot);
    examined.insert(id);
    const otged::GedSearchResult e = Exact(op.graph, snap.graph(slot));
    const auto hit = std::find_if(r.hits.begin(), r.hits.end(),
                                  [&](const SearchHit& h) {
                                    return h.id == id;
                                  });
    if (!e.exact) {
      ++*undecided;
      continue;
    }
    const bool within = e.ged <= op.param;
    std::string why;
    if (within && hit == r.hits.end())
      why = "false dismissal of graph " + std::to_string(id);
    else if (hit != r.hits.end() && hit->exact_distance && hit->ged != e.ged)
      why = "graph " + std::to_string(id) + " reported exact GED " +
            std::to_string(hit->ged) + ", oracle " + std::to_string(e.ged);
    else if (hit != r.hits.end() && !within && hit->ged <= op.param)
      why = "graph " + std::to_string(id) + " witnessed within tau, GED " +
            std::to_string(e.ged);
    if (!why.empty()) {
      report->Fail(OpName(idx) + ": " + why, false);
      *ok = false;
    }
  }
  for (const SearchHit& h : r.hits) {
    if (!examined.count(h.id)) {
      report->Fail(OpName(idx) + ": hit " + std::to_string(h.id) +
                       " has an admissible lower bound > tau",
                   false);
      *ok = false;
    }
  }
}

/// The top-1 answer must be the smallest exact distance over every live
/// graph whose lower bound does not exclude it, ties by id.
void BruteTop1(const Op& op, const OpResult& r, long idx, long* undecided,
               Report* report, bool* ok) {
  const otged::StoreSnapshot& snap = *r.snap;
  if (r.hits.size() != 1) {
    report->Fail(OpName(idx) + ": top-1 returned " +
                     std::to_string(r.hits.size()) + " hits",
                 false);
    *ok = false;
    return;
  }
  const SearchHit& got = r.hits[0];
  const otged::GraphInvariants qi = otged::ComputeInvariants(op.graph);
  int best = got.ged, best_id = got.id;
  bool complete = true;
  for (int slot = 0; slot < snap.Size(); ++slot) {
    if (otged::InvariantLowerBound(qi, snap.invariants(slot)) > got.ged)
      continue;
    auto [g1, g2] = otged::OrderBySize(op.graph, snap.graph(slot));
    if (otged::BestLowerBound(*g1, *g2) > got.ged) continue;
    const otged::GedSearchResult e = Exact(op.graph, snap.graph(slot));
    if (!e.exact) {
      complete = false;
      continue;
    }
    const int id = snap.id(slot);
    if (e.ged < best || (e.ged == best && id < best_id)) {
      best = e.ged;
      best_id = id;
    }
    if (id == got.id && got.exact_distance && e.ged != got.ged) {
      report->Fail(OpName(idx) + ": top-1 distance " +
                       std::to_string(got.ged) + " but oracle " +
                       std::to_string(e.ged),
                   false);
      *ok = false;
    }
  }
  if (!complete) ++*undecided;
  if (got.exact_distance && (best != got.ged || best_id != got.id)) {
    report->Fail(OpName(idx) + ": top-1 is (" + std::to_string(got.id) +
                     ", " + std::to_string(got.ged) + "), oracle (" +
                     std::to_string(best_id) + ", " + std::to_string(best) +
                     ")",
                 false);
    *ok = false;
  }
}

void VerifyChurn(const Corpus&, const std::vector<Op>& ops,
                 const std::vector<OpResult>& res, Report* report) {
  long brute_range = 0, brute_topk = 0, undecided = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.kind != Op::kRange && op.kind != Op::kTopK) continue;
    const long idx = static_cast<long>(i);
    bool ok = WellFormed(op, res[i].hits);
    if (!ok) report->Fail(OpName(idx) + ": malformed hit list", false);
    for (const SearchHit& h : res[i].hits) {
      if (op.kind == Op::kRange && h.exact_distance && h.ged > op.param) {
        report->Fail(OpName(idx) + ": hit with proven GED > tau", false);
        ok = false;
      }
    }
    if (res[i].snap != nullptr) {
      if (op.kind == Op::kRange) {
        ++brute_range;
        BruteRange(op, res[i], idx, &undecided, report, &ok);
      } else {
        ++brute_topk;
        BruteTop1(op, res[i], idx, &undecided, report, &ok);
      }
    }
    if (!ok) ++report->failed;
  }
  std::printf("  oracle checks: %ld range and %ld top-1 operations "
              "against exact branch and bound (%ld pairs undecided)\n",
              brute_range, brute_topk, undecided);
}

}  // namespace

Report RunPowerlawRange(const RunConfig& cfg) {
  EngineSpec spec;
  spec.engine.num_threads = 2;
  spec.engine.cascade.exact_budget = 20'000;
  spec.setup_reps = 15;
  spec.make_corpus = PowerlawCorpus;
  spec.make_ops = [](const Corpus& c, uint64_t seed) {
    return std::make_unique<PowerlawOps>(c, seed);
  };
  spec.sample = [](const Op&, long) { return true; };
  spec.verify = VerifyPowerlaw;
  return RunEngineWorkload(cfg, spec);
}

Report RunMoleculeChurn(const RunConfig& cfg) {
  EngineSpec spec;
  spec.engine.num_threads = 2;
  spec.engine.cascade.exact_budget = 50'000;
  spec.engine.topk_seed_probes = 48;
  spec.engine.topk_seed_refine_budget = 5'000;
  spec.setup_reps = 3;
  spec.make_corpus = ChurnCorpus;
  spec.make_ops = [](const Corpus& c, uint64_t seed) {
    return std::make_unique<ChurnOps>(c, seed);
  };
  spec.sample = ChurnSample;
  spec.verify = VerifyChurn;
  return RunEngineWorkload(cfg, spec);
}

}  // namespace perfbench
