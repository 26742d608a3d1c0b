/// \file stats_metrics.hpp
/// \brief The one table that publishes per-query search stats to the
/// metrics registry.
///
/// The cascade and the index only fill CascadeStats / IndexStats. The
/// QueryEngine publishes each distinct query's merged QueryStats here
/// once, so every per-query counter equals the summed QueryStats by
/// construction. Direct FilterCascade / IndexView callers publish nothing.
#ifndef OTGED_SEARCH_STATS_METRICS_HPP_
#define OTGED_SEARCH_STATS_METRICS_HPP_

#include "search/query_engine.hpp"

namespace otged {

enum class QueryKind : int { kRange = 0, kTopK = 1 };

/// One per-query counter: its registry name (labels inline) and the
/// QueryStats field it sums. Exactly one of `cascade` and `index` is set.
struct StatsCounter {
  const char* name;
  const char* help;
  long CascadeStats::*cascade = nullptr;
  long IndexStats::*index = nullptr;

  long ValueIn(const QueryStats& stats) const {
    return cascade != nullptr ? stats.cascade.*cascade : stats.index.*index;
  }
};

// otged-lint: metric-table(counter)
inline constexpr StatsCounter kStatsCounters[] = {
    {.name = "otged_cascade_candidates_total",
     .help = "candidate pairs fed into the filter cascade",
     .cascade = &CascadeStats::candidates},
    {.name = "otged_cascade_pruned_total{tier=\"index\"}",
     .help = "pairs dismissed by the candidate index before the cascade",
     .cascade = &CascadeStats::pruned_index},
    {.name = "otged_cascade_pruned_total{tier=\"invariant\"}",
     .help = "pairs dismissed by an admissible lower bound at this tier",
     .cascade = &CascadeStats::pruned_invariant},
    {.name = "otged_cascade_passed_total{tier=\"invariant\"}",
     .help = "pairs settled by the tier-0 identity fast path (GED == 0)",
     .cascade = &CascadeStats::passed_invariant},
    {.name = "otged_cascade_pruned_total{tier=\"branch\"}",
     .help = "pairs dismissed by an admissible lower bound at this tier",
     .cascade = &CascadeStats::pruned_branch},
    {.name = "otged_cascade_decided_total{tier=\"heuristic\"}",
     .help = "pairs whose membership or distance this tier settled",
     .cascade = &CascadeStats::decided_heuristic},
    {.name = "otged_cascade_decided_total{tier=\"ot\"}",
     .help = "pairs whose membership or distance this tier settled",
     .cascade = &CascadeStats::decided_ot},
    {.name = "otged_cascade_decided_total{tier=\"exact\"}",
     .help = "pairs whose membership or distance this tier settled",
     .cascade = &CascadeStats::decided_exact},
    {.name = "otged_cascade_ot_calls_total",
     .help = "GEDGW solver invocations",
     .cascade = &CascadeStats::ot_calls},
    {.name = "otged_cascade_exact_calls_total",
     .help = "branch-and-bound invocations",
     .cascade = &CascadeStats::exact_calls},
    {.name = "otged_cascade_exact_incomplete_total",
     .help = "exact runs that exhausted their visit budget",
     .cascade = &CascadeStats::exact_incomplete},
    {.name = "otged_cascade_cache_hits_total",
     .help = "candidate pairs answered from the bound cache",
     .cascade = &CascadeStats::cache_hits},
    {.name = "otged_index_candidates_total",
     .help = "graphs the index handed to the filter cascade",
     .index = &IndexStats::candidates},
    {.name = "otged_index_pruned_total{level=\"partition\"}",
     .help = "graphs dismissed by this index level's admissible bound",
     .index = &IndexStats::partition_pruned},
    {.name = "otged_index_pruned_total{level=\"label\"}",
     .help = "graphs dismissed by this index level's admissible bound",
     .index = &IndexStats::label_pruned},
    {.name = "otged_index_pruned_total{level=\"vptree\"}",
     .help = "graphs dismissed by this index level's admissible bound",
     .index = &IndexStats::vptree_pruned},
    {.name = "otged_index_partitions_opened_total",
     .help = "partitions that survived the signature screen",
     .index = &IndexStats::partitions_opened},
    {.name = "otged_index_vp_nodes_visited_total",
     .help = "level 3: exact invariant-bound cut (bound evaluations)",
     .index = &IndexStats::vp_nodes_visited},
};

/// Publishes one distinct query's stats: every kStatsCounters row and
/// `otged_query_latency_us{kind}` from `wall_ms`. When the index
/// generated the candidates (`indexed`), also
/// `otged_index_queries_total{kind}` and one
/// `otged_index_level_latency_us` sample per level the query ran:
/// partition and label for range, vptree (level 3, the exact
/// invariant-bound cut) for top-k.
void PublishQueryStats(const QueryStats& stats, QueryKind kind,
                       bool indexed);

/// Records `otged_cascade_tier_latency_us{tier}` once for each tier the
/// probed pair entered.
void PublishTierLatency(const CascadeProbe& probe);

}  // namespace otged

#endif  // OTGED_SEARCH_STATS_METRICS_HPP_
