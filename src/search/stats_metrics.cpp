#include "search/stats_metrics.hpp"

#include <array>
#include <cmath>
#include <iterator>
#include <string>

#include "telemetry/metrics.hpp"

namespace otged {

namespace {

/// Every handle this module writes, resolved once: GetCounter takes the
/// registry mutex, so no name is looked up per query.
struct Handles {
  std::array<telemetry::Counter*, std::size(kStatsCounters)> counters;
  telemetry::Counter* index_queries[2];    ///< kind = range, topk
  telemetry::Histogram* query_latency[2];  ///< kind = range, topk
  telemetry::Histogram* level_latency[3];  ///< partition, label, vptree
  telemetry::Histogram* tier_latency[5];   ///< indexed by CascadeTier
};

const Handles& Metrics() {
  static const Handles handles = [] {
    static const char* kKind[2] = {"range", "topk"};
    static const char* kLevel[3] = {"partition", "label", "vptree"};
    static const char* kTier[5] = {"invariant", "branch", "heuristic", "ot",
                                   "exact"};
    auto& reg = telemetry::Registry();
    Handles h;
    for (size_t i = 0; i < h.counters.size(); ++i)
      h.counters[i] =
          &reg.GetCounter(kStatsCounters[i].name, kStatsCounters[i].help);
    for (int k : {0, 1}) {
      h.index_queries[k] = &reg.GetCounter(
          std::string("otged_index_queries_total{kind=\"") + kKind[k] + "\"}",
          "queries answered through the candidate-generation index");
      h.query_latency[k] = &reg.GetHistogram(
          std::string("otged_query_latency_us{kind=\"") + kKind[k] + "\"}",
          "per-query serving latency");
    }
    for (int l : {0, 1, 2})
      h.level_latency[l] = &reg.GetHistogram(
          std::string("otged_index_level_latency_us{level=\"") + kLevel[l] +
              "\"}",
          "wall time spent in this index level per query");
    for (int t = 0; t < 5; ++t)
      h.tier_latency[t] = &reg.GetHistogram(
          std::string("otged_cascade_tier_latency_us{tier=\"") + kTier[t] +
              "\"}",
          "wall time spent inside this tier per pair that entered it");
    return h;
  }();
  return handles;
}

}  // namespace

void PublishQueryStats(const QueryStats& stats, QueryKind kind,
                       bool indexed) {
  const Handles& m = Metrics();
  for (size_t i = 0; i < m.counters.size(); ++i)
    m.counters[i]->Inc(kStatsCounters[i].ValueIn(stats));
  const int k = static_cast<int>(kind);
  m.query_latency[k]->Record(std::lround(stats.wall_ms * 1000.0));
  if (!indexed) return;
  m.index_queries[k]->Inc();
  if (kind == QueryKind::kRange) {
    m.level_latency[0]->Record(std::lround(stats.index.partition_us));
    m.level_latency[1]->Record(std::lround(stats.index.label_us));
  } else {
    m.level_latency[2]->Record(std::lround(stats.index.vptree_us));
  }
}

void PublishTierLatency(const CascadeProbe& probe) {
  const Handles& m = Metrics();
  for (int t = 0; t < 5; ++t)
    if (probe.tier_us[t] > 0.0)
      m.tier_latency[t]->Record(std::lround(probe.tier_us[t]));
}

}  // namespace otged
