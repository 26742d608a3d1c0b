// Traced replay of QueryEngine operations through each layer's public
// functions, single-threaded, in the order QueryEngine calls them:
// store snapshot -> index view -> candidates -> bound cache -> cascade
// (tiers from the CascadeProbe) -> cache write-back. The replay owns its
// own index, cache and cascade over the same GraphStore, so its answers
// must equal the engine's byte for byte, and its counts are a pure
// function of the operation sequence.
#ifndef PERFBENCH_REPLAY_HPP_
#define PERFBENCH_REPLAY_HPP_

#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "search/query_engine.hpp"

namespace perfbench {

/// Whether two cascade tallies settled the same pairs the same way (the
/// deterministic fields; the parallel-run fields are not compared).
bool SameCascadeCounts(const otged::CascadeStats& a,
                       const otged::CascadeStats& b);

/// Deterministic counts of one replay; compared exactly across the two
/// replays of a traced run.
struct LayerCounts {
  otged::CascadeStats cascade;
  long range_ops = 0;
  long topk_ops = 0;
  long refine_calls = 0;       ///< top-k seed refinements (exact search)
  long refine_exhausted = 0;
  long exact_expansions = 0;   ///< tier-4 plus refinement expansions
  long range_scanned = 0;      ///< snapshot size summed over range ops
  long range_candidates = 0;   ///< index range candidates over those ops
  long cache_lookups = 0;
  long cache_hits = 0;

  bool operator==(const LayerCounts& o) const;
};

class LayerReplay {
 public:
  LayerReplay(otged::GraphStore* store, const otged::EngineOptions& opt,
              Tracer* tracer);

  /// Builds the replay's own index for the current snapshot (set-up
  /// work, kept out of the first operation's spans).
  void Prime();

  std::vector<otged::SearchHit> Range(const otged::Graph& q, int tau);
  std::vector<otged::SearchHit> TopK(const otged::Graph& q, int k);
  int Insert(otged::Graph g);
  bool Erase(int id);

  const LayerCounts& counts() const { return counts_; }

 private:
  /// Bound cache, then cascade with probe; proven distances written back.
  otged::CascadeVerdict EvalPair(const otged::Graph& q,
                                 const otged::GraphInvariants& qi,
                                 uint64_t fp,
                                 const otged::StoreSnapshot& snap, int slot,
                                 int tau, bool need_distance);
  std::shared_ptr<const otged::StoreSnapshot> Pin();
  /// GraphIndex::ViewFor under an `index.view` span, or `index.advance`
  /// when the store moved since the last view (writes in between).
  std::shared_ptr<const otged::IndexView> View(
      const std::shared_ptr<const otged::StoreSnapshot>& snap);

  otged::GraphStore* store_;
  otged::EngineOptions opt_;
  Tracer* tracer_;
  otged::FilterCascade cascade_;
  otged::GraphIndex index_;
  otged::BoundCache cache_;
  uint64_t index_epoch_ = 0;  ///< store epoch of the index's current view
  size_t erase_cursor_ = 0;
  LayerCounts counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_HPP_
