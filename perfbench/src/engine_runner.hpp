// Closed-loop, single-client runner for the QueryEngine workloads. A
// workload supplies its corpus, its operation stream and its oracle; the
// runner owns set-up, the timed loop, the traced layer replay and the
// metrics both modes report.
#ifndef PERFBENCH_ENGINE_RUNNER_HPP_
#define PERFBENCH_ENGINE_RUNNER_HPP_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "search/query_engine.hpp"

namespace perfbench {

struct Op {
  enum Kind { kRange, kTopK, kInsert, kErase };
  Kind kind = kRange;
  otged::Graph graph;   ///< query, or the graph to insert
  int param = 0;        ///< tau, k, or the id to erase
  int seed_index = -1;  ///< planted query seed behind a fresh query
  long first = -1;      ///< index of the op that first served this query
};

/// Everything set-up generates from the seed. Graph i gets store id i.
struct Corpus {
  std::vector<otged::Graph> graphs;
  std::vector<otged::Graph> query_seeds;
  /// Per query seed: (store id, number of synthetic edits) of each
  /// planted variant.
  std::vector<std::vector<std::pair<int, int>>> planted;
  int background = 0;  ///< ids [0, background) are unplanted graphs
  /// Copies of stored graphs that serve as queries (top-k).
  std::vector<otged::Graph> stored_queries;
};

/// Deterministic operation source; two streams made from one corpus and
/// seed yield the same operations.
class OpStream {
 public:
  virtual ~OpStream() = default;
  virtual Op Next() = 0;
};

/// What the client saw for one operation.
struct OpResult {
  std::vector<otged::SearchHit> hits;
  /// The snapshot the operation ran against, pinned only for operations
  /// the oracle checks in depth.
  std::shared_ptr<const otged::StoreSnapshot> snap;
};

struct EngineSpec {
  otged::EngineOptions engine;
  int setup_reps = 3;
  /// Metadata only (graphs are moved into the store during set-up).
  std::function<Corpus(uint64_t seed, bool small)> make_corpus;
  std::function<std::unique_ptr<OpStream>(const Corpus&, uint64_t seed)>
      make_ops;
  /// Whether op `index` gets a pinned snapshot for the oracle.
  std::function<bool(const Op&, long index)> sample;
  /// Checks the served operations; runs after the timed loop. Reports
  /// every wrong answer through Report::Fail.
  std::function<void(const Corpus&, const std::vector<Op>&,
                     const std::vector<OpResult>&, Report*)>
      verify;
};

Report RunEngineWorkload(const RunConfig& cfg, const EngineSpec& spec);

/// Per-layer metric names, units and order (trace mode), shared by every
/// workload so all of them report the same set.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// End-to-end metric names and units (untraced mode).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_RUNNER_HPP_
