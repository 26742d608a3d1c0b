// pair_estimate: the paper's own workload, no engine. Each labeled pair
// gets the BRANCH lower bound, the Classic upper bound, GEDGW (20
// conditional-gradient iterations) and k-best (k = 8) edit-path search
// from its coupling, with the cascade's tier-3 settings.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "assignment/kbest.hpp"
#include "engine_runner.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"
#include "heuristics/lower_bounds.hpp"
#include "models/gedgw.hpp"
#include "search/filter_cascade.hpp"
#include "workloads.hpp"

namespace perfbench {

using otged::Graph;

namespace {

struct PairInput {
  Graph g1, g2;  ///< ordered: g1.NumNodes() <= g2.NumNodes()
  int delta = 0;  ///< synthetic edits between them (a GED upper bound)
};

struct Estimate {
  int lb = 0;
  otged::HeuristicResult classic;
  otged::GepResult gep;

  /// FNV-1a over every output, so a run keeps 8 bytes per estimate
  /// (memory independent of the matchings) and can still compare passes.
  uint64_t Digest() const {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](int v) {
      h ^= static_cast<uint32_t>(v);
      h *= 1099511628211ull;
    };
    mix(lb);
    mix(classic.ged);
    for (const int v : classic.matching) mix(v);
    mix(gep.ged);
    for (const int v : gep.matching) mix(v);
    return h;
  }
};

std::vector<PairInput> MakePairs(uint64_t seed, bool small) {
  otged::Rng rng(seed * 1000003 + 41);
  const int count = small ? 64 : 4096;
  std::vector<PairInput> pairs;
  pairs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Graph g = otged::AidsLikeGraph(&rng, 10, 20);
    otged::SyntheticEditOptions opt;
    opt.num_edits = 1 + i % 8;
    opt.num_labels = 29;
    otged::GedPair p = otged::SyntheticEditPair(g, opt, &rng);
    auto [a, b] = otged::OrderBySize(p.g1, p.g2);
    pairs.push_back({*a, *b, opt.num_edits});
  }
  return pairs;
}

/// One estimate with the cascade's tier-3 settings; spans when traced.
Estimate EstimatePair(const PairInput& p, Tracer* tracer) {
  static const otged::CascadeOptions kTier3;
  Span op(tracer, "op.pair");
  Estimate e;
  {
    Span s(tracer, "heuristics.branch_lb");
    e.lb = otged::BestLowerBound(p.g1, p.g2);
  }
  {
    Span s(tracer, "heuristics.classic");
    e.classic = otged::ClassicGed(p.g1, p.g2);
  }
  otged::Prediction pred;
  {
    Span s(tracer, "ot.gedgw");
    otged::GedgwConfig cfg;
    cfg.cg_iters = kTier3.gw_iters;
    otged::GedgwSolver gw(cfg);
    pred = gw.Predict(p.g1, p.g2);
  }
  {
    Span s(tracer, "assignment.kbest");
    e.gep = otged::KBestGepSearch(p.g1, p.g2, pred.coupling, kTier3.kbest_k);
  }
  return e;
}

bool ValidMatching(const otged::NodeMatching& m, int n1, int n2) {
  if (static_cast<int>(m.size()) != n1) return false;
  std::set<int> seen;
  for (const int v : m)
    if (v < 0 || v >= n2 || !seen.insert(v).second) return false;
  return true;
}

/// Each estimate is a feasible edit path: at least the admissible bound
/// and exactly the cost of the matching that induced it.
bool CheckEstimate(const PairInput& p, const Estimate& e, long idx,
                   Report* report) {
  bool ok = true;
  const struct {
    const char* name;
    int ged;
    const otged::NodeMatching* m;
  } paths[2] = {{"Classic", e.classic.ged, &e.classic.matching},
                {"GEDGW+k-best", e.gep.ged, &e.gep.matching}};
  for (const auto& path : paths) {
    std::string why;
    if (!ValidMatching(*path.m, p.g1.NumNodes(), p.g2.NumNodes()))
      why = "invalid matching";
    else if (path.ged < e.lb)
      why = "estimate " + std::to_string(path.ged) + " below lower bound " +
            std::to_string(e.lb);
    else if (otged::EditCostFromMatching(p.g1, p.g2, *path.m) != path.ged)
      why = "estimate differs from the cost of its own matching";
    if (!why.empty()) {
      report->Fail("pair " + std::to_string(idx) + " " + path.name + ": " +
                       why,
                   false);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

Report RunPairEstimate(const RunConfig& cfg) {
  // Generating the pairs takes tens of milliseconds; the median of many
  // set-ups keeps setup_s steady.
  constexpr int kSetupReps = 15;
  Report report;
  std::vector<double> setup_s;
  std::vector<PairInput> pairs;
  for (int r = 0; r < kSetupReps; ++r) {
    const double t0 = NowUs();
    pairs = MakePairs(cfg.seed, cfg.small);
    setup_s.push_back((NowUs() - t0) * 1e-6);
  }
  std::printf("  setup: %d reps, median %.4f s, %zu pairs\n", kSetupReps,
              Median(setup_s), pairs.size());

  // The first pass over the pool keeps whole estimates for the oracle;
  // every operation keeps its digest.
  Tracer tracer(cfg.trace);
  std::vector<Estimate> first;
  std::vector<uint64_t> digest;
  std::vector<double> pair_ms;
  const double start = NowUs();
  const double deadline = start + cfg.seconds * 1e6;
  while (NowUs() < deadline) {
    const size_t i = digest.size();
    tracer.SetOp(static_cast<long>(i));
    const double t0 = NowUs();
    Estimate e = EstimatePair(pairs[i % pairs.size()], &tracer);
    pair_ms.push_back((NowUs() - t0) * 1e-3);
    digest.push_back(e.Digest());
    if (i < pairs.size()) first.push_back(std::move(e));
  }
  const double elapsed_s = (NowUs() - start) * 1e-6;
  const long n = static_cast<long>(digest.size());
  report.attempted = n;
  std::printf("  %ld pairs in %.3f s: %.4f pairs_per_s\n", n, elapsed_s,
              static_cast<double>(n) / elapsed_s);
  report.AddLatency("pair", "ms", pair_ms);

  // Oracle, outside the timed region. The pool cycles, so a pair seen
  // again must get the very same estimates.
  double classic_err = 0.0, gep_err = 0.0;
  for (long i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(i) % pairs.size();
    const PairInput& p = pairs[k];
    bool ok = true;
    if (k == static_cast<size_t>(i)) {
      ok = CheckEstimate(p, first[k], i, &report);
    } else if (digest[static_cast<size_t>(i)] != digest[k]) {
      report.Fail("pair " + std::to_string(i) +
                      ": estimates differ from the first pass over it",
                  false);
      ok = false;
    }
    if (!ok) ++report.failed;
    classic_err += std::abs(first[k].classic.ged - p.delta);
    gep_err += std::abs(first[k].gep.ged - p.delta);
  }
  const double classic_mae = classic_err / static_cast<double>(n);
  const double gep_mae = gep_err / static_cast<double>(n);
  std::printf("  ged_mae vs synthetic delta: Classic %.4f, GEDGW+k-best "
              "%.4f (n=%ld)\n",
              classic_mae, gep_mae, n);
  report.record["ged_mae"] = "{\"classic\": " + std::to_string(classic_mae) +
                             ", \"gedgw_kbest\": " + std::to_string(gep_mae) +
                             "}";

  if (!cfg.trace) {
    report.Add("setup_s", "s", Median(setup_s));
    report.Add("ops_per_s", "1/s", static_cast<double>(n) / elapsed_s);
    report.Add("peak_rss_mb", "MB", PeakRssMb());
    return report;
  }

  // Traced run: the same pairs again, untraced, must repeat exactly; the
  // two passes give the tracing overhead.
  double traced_us = 0.0;
  for (const double ms : pair_ms) traced_us += ms * 1e3;
  Tracer off(false);
  double untraced_us = 0.0;
  long differ = 0;
  for (long i = 0; i < n; ++i) {
    const double t0 = NowUs();
    const Estimate e =
        EstimatePair(pairs[static_cast<size_t>(i) % pairs.size()], &off);
    untraced_us += NowUs() - t0;
    if (e.Digest() != digest[static_cast<size_t>(i)]) ++differ;
  }
  if (differ > 0)
    report.Fail("determinism: " + std::to_string(differ) +
                    " estimates differ between the two passes",
                false);
  else
    std::printf("  determinism: both passes repeat exactly (%ld pairs)\n",
                n);

  std::map<std::string, double> m;
  for (const auto& [name, unit] : PerLayerMetrics()) m[name] = 0.0;
  m["heuristics.branch_lb_us_p50"] =
      Median(tracer.Durations("heuristics.branch_lb"));
  m["heuristics.classic_us_p50"] =
      Median(tracer.Durations("heuristics.classic"));
  m["ot.gedgw_us_p50"] = Median(tracer.Durations("ot.gedgw"));
  m["assignment.kbest_us_p50"] = Median(tracer.Durations("assignment.kbest"));
  m["trace.qps_traced"] = static_cast<double>(n) / (traced_us * 1e-6);
  m["trace.qps_untraced"] = static_cast<double>(n) / (untraced_us * 1e-6);
  m["trace.overhead"] = traced_us / untraced_us;
  PrintSelfTimes(tracer, cfg, &report);
  for (const auto& [name, unit] : PerLayerMetrics())
    report.Add(name, unit, m.at(name));
  return report;
}

}  // namespace perfbench
