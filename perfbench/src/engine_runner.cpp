#include "engine_runner.hpp"

#include <cstdio>
#include <map>
#include <sstream>

#include "replay.hpp"

namespace perfbench {

using otged::Graph;
using otged::SearchHit;

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return kList;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"store.ingest_s", "s"},
      {"store.insert_us_p50", "us"},
      {"store.erase_us_p50", "us"},
      {"store.snapshot_us_p50", "us"},
      {"index.build_s", "s"},
      {"index.view_us_p50", "us"},
      {"index.range_candidates_us_p50", "us"},
      {"index.topk_seeds_us_p50", "us"},
      {"index.lb_range_us_p50", "us"},
      {"index.candidate_fraction", "fraction"},
      {"index.rebuilds", "count"},
      {"cascade.pairs", "count"},
      {"cascade.invariant.self_ms_per_op", "ms"},
      {"cascade.branch.self_ms_per_op", "ms"},
      {"cascade.heuristic.self_ms_per_op", "ms"},
      {"cascade.ot.self_ms_per_op", "ms"},
      {"cascade.exact.self_ms_per_op", "ms"},
      {"cascade.settled.index", "count"},
      {"cascade.settled.invariant", "count"},
      {"cascade.settled.branch", "count"},
      {"cascade.settled.heuristic", "count"},
      {"cascade.settled.ot", "count"},
      {"cascade.settled.exact", "count"},
      {"cascade.settled.cache", "count"},
      {"exact.calls", "count"},
      {"exact.expansions", "count"},
      {"exact.exhausted_fraction", "fraction"},
      {"exact.us_per_call_p50", "us"},
      {"exact.ns_per_expansion", "ns"},
      {"heuristics.branch_lb_us_p50", "us"},
      {"heuristics.classic_us_p50", "us"},
      {"ot.gedgw_us_p50", "us"},
      {"assignment.kbest_us_p50", "us"},
      {"cache.lookups", "count"},
      {"cache.hit_rate", "fraction"},
      {"cache.entries", "count"},
      {"pool.tasks", "count"},
      {"pool.steals", "count"},
      {"pool.efficiency", "fraction"},
      {"trace.qps_traced", "1/s"},
      {"trace.qps_untraced", "1/s"},
      {"trace.overhead", "ratio"},
  };
  return kList;
}

namespace {

struct Setup {
  Corpus corpus;
  std::unique_ptr<otged::GraphStore> store;
  std::unique_ptr<otged::QueryEngine> engine;
  double gen_s = 0.0;
  double ingest_s = 0.0;
  double build_s = 0.0;
};

/// Generation, ingest and the first index build.
std::unique_ptr<Setup> DoSetup(const RunConfig& cfg, const EngineSpec& spec) {
  auto s = std::make_unique<Setup>();
  const double t0 = NowUs();
  s->corpus = spec.make_corpus(cfg.seed, cfg.small);
  const double t1 = NowUs();
  s->store = std::make_unique<otged::GraphStore>();
  s->store->AddAll(s->corpus.graphs);
  const double t2 = NowUs();
  s->engine = std::make_unique<otged::QueryEngine>(s->store.get(), spec.engine);
  s->engine->index()->ViewFor(s->store->Snapshot());
  const double t3 = NowUs();
  s->gen_s = (t1 - t0) * 1e-6;
  s->ingest_s = (t2 - t1) * 1e-6;
  s->build_s = (t3 - t2) * 1e-6;
  std::vector<Graph>().swap(s->corpus.graphs);  // the store owns them now
  return s;
}

/// Runs set-up `reps` times (keeping the last) and records the medians.
std::unique_ptr<Setup> RepeatedSetup(const RunConfig& cfg,
                                     const EngineSpec& spec,
                                     std::vector<double>* total_s,
                                     std::vector<double>* ingest_s,
                                     std::vector<double>* build_s) {
  std::unique_ptr<Setup> s;
  for (int r = 0; r < spec.setup_reps; ++r) {
    s.reset();  // one corpus in memory at a time
    s = DoSetup(cfg, spec);
    total_s->push_back(s->gen_s + s->ingest_s + s->build_s);
    ingest_s->push_back(s->ingest_s);
    build_s->push_back(s->build_s);
  }
  std::printf("  setup: %d reps, median %.4f s (generate %.4f s, ingest "
              "%.4f s, index build %.4f s in the last), corpus %d graphs\n",
              spec.setup_reps, Median(*total_s), s->gen_s, s->ingest_s,
              s->build_s, s->store->Size());
  return s;
}

bool SameHits(const std::vector<SearchHit>& a,
              const std::vector<SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].id != b[i].id || a[i].ged != b[i].ged ||
        a[i].exact_distance != b[i].exact_distance)
      return false;
  return true;
}

std::string Describe(const LayerCounts& c) {
  std::ostringstream o;
  o << "pairs=" << c.cascade.candidates << " idx=" << c.cascade.pruned_index
    << " inv=" << c.cascade.pruned_invariant + c.cascade.passed_invariant
    << " br=" << c.cascade.pruned_branch
    << " heur=" << c.cascade.decided_heuristic
    << " ot=" << c.cascade.decided_ot << " exact=" << c.cascade.decided_exact
    << " cache=" << c.cascade.cache_hits << " expansions="
    << c.exact_expansions << " refines=" << c.refine_calls
    << " lookups=" << c.cache_lookups << " range_cand="
    << c.range_candidates;
  return o.str();
}

/// Client-side tallies of one timed loop.
struct LoopTally {
  std::vector<double> range_ms, topk_ms, write_us;
  long hits = 0;
  long unproven_hits = 0;
  otged::CascadeStats engine_stats;
  // The slowest read, for the tail's anatomy.
  double max_ms = 0.0;
  std::string max_desc;
};

/// Serves `op` through the engine (reads) or the store (writes) and
/// checks what can be checked per operation.
OpResult ServeEngine(Setup* s, Op* op, long idx, const EngineSpec& spec,
                     LoopTally* tally, Report* report, double* op_us) {
  OpResult r;
  const int expect_id =
      op->kind == Op::kInsert ? s->store->NextId() : -1;
  otged::QueryStats stats;
  int written_id = -1;
  bool erased = true;
  const double t0 = NowUs();
  switch (op->kind) {
    case Op::kRange: {
      otged::RangeResult res = s->engine->Range(op->graph, op->param);
      r.hits = std::move(res.hits);
      stats = res.stats;
      break;
    }
    case Op::kTopK: {
      otged::TopKResult res = s->engine->TopK(op->graph, op->param);
      r.hits = std::move(res.hits);
      stats = res.stats;
      break;
    }
    case Op::kInsert:
      written_id = s->store->Insert(op->graph);
      break;
    case Op::kErase:
      erased = s->store->Erase(op->param);
      break;
  }
  const double t1 = NowUs();
  *op_us = t1 - t0;
  const bool read = op->kind == Op::kRange || op->kind == Op::kTopK;
  if (read) {
    (op->kind == Op::kRange ? tally->range_ms : tally->topk_ms)
        .push_back((t1 - t0) * 1e-3);
    tally->engine_stats.Merge(stats.cascade);
    if ((t1 - t0) * 1e-3 > tally->max_ms) {
      tally->max_ms = (t1 - t0) * 1e-3;
      tally->max_desc =
          std::string(op->kind == Op::kRange ? "range" : "top-k") + " op " +
          std::to_string(idx) + ", query n=" +
          std::to_string(op->graph.NumNodes()) + " m=" +
          std::to_string(op->graph.NumEdges()) + ", " +
          std::to_string(stats.cascade.candidates -
                         stats.cascade.pruned_index) +
          " pairs past the index, " +
          std::to_string(stats.cascade.exact_calls) + " exact calls (" +
          std::to_string(stats.cascade.exact_incomplete) + " exhausted)";
    }
    for (const SearchHit& h : r.hits) {
      tally->hits++;
      const bool witnessed =
          op->kind == Op::kRange && h.ged >= 0 && h.ged <= op->param;
      if (!h.exact_distance && !witnessed) tally->unproven_hits++;
    }
    if (spec.sample(*op, idx)) {
      r.snap = s->store->Snapshot();
      if (r.snap->epoch() != stats.epoch)
        report->Fail("op " + std::to_string(idx) +
                         ": snapshot epoch moved under a single client",
                     true);
    }
  } else {
    tally->write_us.push_back(t1 - t0);
    if (op->kind == Op::kInsert && written_id != expect_id)
      report->Fail("op " + std::to_string(idx) + ": Insert returned id " +
                       std::to_string(written_id) + ", expected " +
                       std::to_string(expect_id),
                   true);
    if (op->kind == Op::kErase && !erased)
      report->Fail("op " + std::to_string(idx) + ": Erase of live id " +
                       std::to_string(op->param) + " returned false",
                   true);
  }
  return r;
}

/// Serves `op` through the layer replay.
std::vector<SearchHit> ServeReplay(LayerReplay* replay, const Op& op) {
  switch (op.kind) {
    case Op::kRange:
      return replay->Range(op.graph, op.param);
    case Op::kTopK:
      return replay->TopK(op.graph, op.param);
    case Op::kInsert:
      replay->Insert(op.graph);
      return {};
    case Op::kErase:
      replay->Erase(op.param);
      return {};
  }
  return {};
}

void PrintTally(const LoopTally& t, long ops, double elapsed_s,
                Report* report) {
  std::printf("  %ld operations in %.3f s: %.4f ops/s\n", ops, elapsed_s,
              static_cast<double>(ops) / elapsed_s);
  report->AddLatency("range", "ms", t.range_ms);
  if (!t.topk_ms.empty()) report->AddLatency("topk", "ms", t.topk_ms);
  if (!t.write_us.empty()) report->AddLatency("write", "us", t.write_us);
  const double unproven =
      t.hits > 0 ? static_cast<double>(t.unproven_hits) /
                       static_cast<double>(t.hits)
                 : 0.0;
  std::printf("  slowest read: %.2f ms, %s\n", t.max_ms, t.max_desc.c_str());
  std::printf("  unproven_hit_fraction = %.4f (%ld of %ld hits)\n",
              unproven, t.unproven_hits, t.hits);
  const otged::CascadeStats& c = t.engine_stats;
  std::printf("  engine cascade: %ld pairs | index %ld, invariant %ld, "
              "branch %ld, heuristic %ld, ot %ld, exact %ld (%ld "
              "exhausted), cache %ld\n",
              c.candidates, c.pruned_index,
              c.pruned_invariant + c.passed_invariant, c.pruned_branch,
              c.decided_heuristic, c.decided_ot, c.decided_exact,
              c.exact_incomplete, c.cache_hits);
  std::ostringstream rec;
  rec.precision(9);
  rec << unproven;
  report->record["unproven_hit_fraction"] = rec.str();
  report->record["hits"] = std::to_string(t.hits);
}

const std::vector<std::string> kEngineCounters = {
    "otged_bound_cache_hits_total", "otged_bound_cache_misses_total",
    "otged_pool_tasks_total",       "otged_pool_steals_total",
    "otged_index_rebuilds_total",
};

}  // namespace

Report RunEngineWorkload(const RunConfig& cfg, const EngineSpec& spec) {
  Report report;
  std::vector<double> setup_s, ingest_s, build_s;
  std::unique_ptr<Setup> s =
      RepeatedSetup(cfg, spec, &setup_s, &ingest_s, &build_s);
  std::unique_ptr<OpStream> stream = spec.make_ops(s->corpus, cfg.seed);

  std::vector<Op> ops;
  std::vector<OpResult> results;
  LoopTally tally;
  Tracer tracer(cfg.trace);
  LayerReplay replay(s->store.get(), spec.engine, &tracer);
  if (cfg.trace) replay.Prime();
  CounterDelta deltas(kEngineCounters);
  double engine_read_us = 0.0, replay_us = 0.0;

  const double start = NowUs();
  const double deadline = start + cfg.seconds * 1e6;
  while (NowUs() < deadline) {
    const long idx = static_cast<long>(ops.size());
    ops.push_back(stream->Next());
    Op& op = ops.back();
    const bool read = op.kind == Op::kRange || op.kind == Op::kTopK;
    double op_us = 0.0;
    if (!cfg.trace) {
      results.push_back(ServeEngine(s.get(), &op, idx, spec, &tally,
                                    &report, &op_us));
      continue;
    }
    // Traced: reads go through the engine (counter deltas around it) and
    // then through the layer replay, which must answer identically;
    // writes go through the replay's store spans only.
    tracer.SetOp(idx);
    if (read) {
      deltas.Snap();
      results.push_back(ServeEngine(s.get(), &op, idx, spec, &tally,
                                    &report, &op_us));
      deltas.Accumulate();
      engine_read_us += op_us;
    }
    const double t0 = NowUs();
    std::vector<SearchHit> hits = ServeReplay(&replay, op);
    replay_us += NowUs() - t0;
    if (!read) {
      results.emplace_back();
    } else if (!SameHits(hits, results.back().hits)) {
      report.Fail("op " + std::to_string(idx) +
                      ": layer replay answer differs from the engine's",
                  true);
    }
  }
  const double elapsed_s = (NowUs() - start) * 1e-6;
  const long n_ops = static_cast<long>(ops.size());
  report.attempted = n_ops;
  PrintTally(tally, n_ops, elapsed_s, &report);

  // Oracle, outside the timed region.
  const double v0 = NowUs();
  spec.verify(s->corpus, ops, results, &report);
  std::printf("  oracle: %.2f s, %ld failed of %ld operations\n",
              (NowUs() - v0) * 1e-6, report.failed, n_ops);
  results.clear();

  if (!cfg.trace) {
    report.Add("setup_s", "s", Median(setup_s));
    report.Add("ops_per_s", "1/s", static_cast<double>(n_ops) / elapsed_s);
    report.Add("peak_rss_mb", "MB", PeakRssMb());
    return report;
  }

  // ---- traced run: per-layer metrics from the replay's spans ----------
  const LayerCounts counts1 = replay.counts();
  const size_t cache_entries = s->engine->CacheSize();
  // Cross-check the probe's tier split against the pair span around it.
  {
    const auto& spans = tracer.spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const SpanRec& sp : spans)
      if (sp.parent >= 0)
        child[static_cast<size_t>(sp.parent)] += sp.end_us - sp.start_us;
    long pairs = 0, over = 0;
    double pair_us = 0.0, tier_us = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (std::string(spans[i].name) != "cascade.pair") continue;
      const double dur = spans[i].end_us - spans[i].start_us;
      ++pairs;
      pair_us += dur;
      tier_us += child[i];
      if (child[i] > dur + 1.0) ++over;
    }
    std::printf("  probe cross-check: %ld pair spans, tiers cover %.1f%% "
                "of pair time, %ld pairs with tiers > span\n",
                pairs, pair_us > 0 ? 100.0 * tier_us / pair_us : 0.0, over);
    if (over > 0)
      report.Fail("CascadeProbe tier times exceed the pair span on " +
                      std::to_string(over) + " pairs",
                  false);
  }
  // The engine and the replay must have settled the same pairs the same
  // way and hit the bound cache equally often.
  {
    const bool same =
        SameCascadeCounts(tally.engine_stats, counts1.cascade);
    if (!same) report.Fail("engine and replay cascade counts differ", false);
    const long lookups = deltas.Get("otged_bound_cache_hits_total") +
                         deltas.Get("otged_bound_cache_misses_total");
    if (lookups != counts1.cache_lookups ||
        deltas.Get("otged_bound_cache_hits_total") != counts1.cache_hits)
      report.Fail("engine bound-cache counters (" + std::to_string(lookups) +
                      " lookups) differ from the replay (" +
                      std::to_string(counts1.cache_lookups) + ")",
                  false);
  }

  std::map<std::string, double> m;
  auto p50 = [&](std::initializer_list<const char*> names) {
    std::vector<double> d;
    for (const char* nm : names) {
      std::vector<double> x = tracer.Durations(nm);
      d.insert(d.end(), x.begin(), x.end());
    }
    return Median(d);
  };
  auto total_us = [&](std::initializer_list<const char*> names) {
    double t = 0.0;
    for (const char* nm : names)
      for (double x : tracer.Durations(nm)) t += x;
    return t;
  };
  const double per_op = n_ops > 0 ? 1.0 / static_cast<double>(n_ops) : 0.0;
  const otged::CascadeStats& c = counts1.cascade;
  m["store.ingest_s"] = Median(ingest_s);
  m["store.insert_us_p50"] = p50({"store.insert"});
  m["store.erase_us_p50"] = p50({"store.erase"});
  m["store.snapshot_us_p50"] = p50({"store.snapshot"});
  m["index.build_s"] = Median(build_s);
  m["index.view_us_p50"] = p50({"index.advance"});
  m["index.range_candidates_us_p50"] = p50({"index.range_candidates"});
  m["index.topk_seeds_us_p50"] = p50({"index.topk_seeds"});
  m["index.lb_range_us_p50"] = p50({"index.lb_range"});
  m["index.candidate_fraction"] =
      counts1.range_scanned > 0
          ? static_cast<double>(counts1.range_candidates) /
                static_cast<double>(counts1.range_scanned)
          : 0.0;
  m["index.rebuilds"] =
      static_cast<double>(deltas.Get("otged_index_rebuilds_total"));
  m["cascade.pairs"] = static_cast<double>(c.candidates - c.pruned_index -
                                           c.cache_hits);
  const char* kTiers[5] = {"invariant", "branch", "heuristic", "ot",
                           "exact"};
  for (const char* t : kTiers) {
    const std::string span = std::string("cascade.") + t;
    m[span + ".self_ms_per_op"] =
        total_us({span.c_str()}) * 1e-3 * per_op;
  }
  m["cascade.settled.index"] = static_cast<double>(c.pruned_index);
  m["cascade.settled.invariant"] =
      static_cast<double>(c.pruned_invariant + c.passed_invariant);
  m["cascade.settled.branch"] = static_cast<double>(c.pruned_branch);
  m["cascade.settled.heuristic"] = static_cast<double>(c.decided_heuristic);
  m["cascade.settled.ot"] = static_cast<double>(c.decided_ot);
  m["cascade.settled.exact"] = static_cast<double>(c.decided_exact);
  m["cascade.settled.cache"] = static_cast<double>(c.cache_hits);
  const long exact_calls = c.exact_calls + counts1.refine_calls;
  const double exact_us = total_us({"cascade.exact", "exact.refine"});
  m["exact.calls"] = static_cast<double>(exact_calls);
  m["exact.expansions"] = static_cast<double>(counts1.exact_expansions);
  m["exact.exhausted_fraction"] =
      exact_calls > 0 ? static_cast<double>(c.exact_incomplete +
                                            counts1.refine_exhausted) /
                            static_cast<double>(exact_calls)
                      : 0.0;
  m["exact.us_per_call_p50"] = p50({"cascade.exact", "exact.refine"});
  m["exact.ns_per_expansion"] =
      counts1.exact_expansions > 0
          ? exact_us * 1e3 / static_cast<double>(counts1.exact_expansions)
          : 0.0;
  m["heuristics.branch_lb_us_p50"] = p50({"cascade.branch"});
  m["heuristics.classic_us_p50"] =
      p50({"cascade.heuristic", "heuristics.classic"});
  // Tier 3 runs GEDGW and k-best inside one cascade call; its time is
  // cascade.ot.self_ms_per_op here and split on pair_estimate only.
  m["ot.gedgw_us_p50"] = 0.0;
  m["assignment.kbest_us_p50"] = 0.0;
  const long hits = deltas.Get("otged_bound_cache_hits_total");
  const long lookups = hits + deltas.Get("otged_bound_cache_misses_total");
  m["cache.lookups"] = static_cast<double>(lookups);
  m["cache.hit_rate"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  m["cache.entries"] = static_cast<double>(cache_entries);
  m["pool.tasks"] = static_cast<double>(deltas.Get("otged_pool_tasks_total"));
  m["pool.steals"] =
      static_cast<double>(deltas.Get("otged_pool_steals_total"));
  m["pool.efficiency"] =
      engine_read_us > 0
          ? total_us({"cascade.pair"}) /
                (engine_read_us * s->engine->num_threads())
          : 0.0;

  PrintSelfTimes(tracer, cfg, &report);

  // Second replay of the same operations, untraced, on a fresh set-up:
  // the counts must repeat exactly, and its speed is the untraced side of
  // the tracing overhead.
  const double replay1_us = replay_us;
  s.reset();
  EngineSpec one = spec;
  one.setup_reps = 1;
  std::vector<double> ignore1, ignore2, ignore3;
  s = RepeatedSetup(cfg, one, &ignore1, &ignore2, &ignore3);
  std::unique_ptr<OpStream> again = spec.make_ops(s->corpus, cfg.seed);
  Tracer off(false);
  LayerReplay replay2(s->store.get(), spec.engine, &off);
  replay2.Prime();
  double replay2_us = 0.0;
  for (long i = 0; i < n_ops; ++i) {
    Op op = again->Next();
    const double t0 = NowUs();
    ServeReplay(&replay2, op);
    replay2_us += NowUs() - t0;
  }
  if (!(replay2.counts() == counts1)) {
    report.Fail("determinism: counts differ between the two replays of "
                "one invocation",
                false);
    std::printf("  replay 1: %s\n  replay 2: %s\n",
                Describe(counts1).c_str(),
                Describe(replay2.counts()).c_str());
  } else {
    std::printf("  determinism: both replays repeat exactly (%s)\n",
                Describe(counts1).c_str());
  }
  m["trace.qps_traced"] = static_cast<double>(n_ops) / (replay1_us * 1e-6);
  m["trace.qps_untraced"] = static_cast<double>(n_ops) / (replay2_us * 1e-6);
  m["trace.overhead"] = replay1_us / replay2_us;
  for (const auto& [name, unit] : PerLayerMetrics())
    report.Add(name, unit, m.at(name));
  return report;
}

}  // namespace perfbench
