// Shared plumbing of the benchmark program: clocks, percentiles, the
// in-memory span recorder, engine counter deltas and the per-run report.
#ifndef PERFBENCH_BENCH_UTIL_HPP_
#define PERFBENCH_BENCH_UTIL_HPP_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// The run's knobs, as parsed from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;  ///< self-check scale: tiny corpora, same code paths
  std::string out_dir = ".bench_out";
  std::string git_rev = "unknown";
  std::string src_digest = "unknown";
};

/// `<out_dir>/<workload>-seed<seed><suffix>`: where a run writes its
/// record and spans.
std::string OutPath(const RunConfig& cfg, const std::string& suffix);

/// One named measurement in the final JSON line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a workload hands back to main(): the operation tally, the
/// metrics of the requested mode and the free-form record fields.
struct Report {
  long attempted = 0;
  long failed = 0;     ///< operations that errored or failed the oracle
  bool correct = true; ///< false on any FAIL line (oracle or determinism)
  std::vector<Metric> metrics;
  /// Extra record fields (already JSON-encoded values), e.g. the
  /// per-operation latency distributions with their sample counts.
  std::map<std::string, std::string> record;

  /// Prints a FAIL line and marks the run incorrect. `op_failed` also
  /// counts one failed operation.
  void Fail(const std::string& what, bool op_failed);
  void Add(const std::string& name, const std::string& unit, double value);
  /// Prints and records a latency distribution: p50 and p90 with the
  /// sample count (p90 only when >= 10 samples lie beyond it).
  void AddLatency(const std::string& stem, const std::string& unit,
                  const std::vector<double>& samples);
};

/// One span: a timed interval around a call into a layer.
struct SpanRec {
  const char* name;
  double start_us;
  double end_us;
  int parent;  ///< index of the enclosing span, -1 at the root
  long op;     ///< operation id the span belongs to
};

/// In-memory span recorder. Spans nest by a stack: Begin pushes, End
/// pops. When disabled every call is a no-op, so replays can run the
/// same code with and without tracing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  void SetOp(long op) { op_ = op; }
  int Begin(const char* name);
  void End(int idx);
  /// Adds a finished child of the current span (used for the tier
  /// intervals the cascade reports through its probe).
  void AddChild(const char* name, double start_us, double end_us);
  const std::vector<SpanRec>& spans() const { return spans_; }

  /// Durations (us) of every span with this name.
  std::vector<double> Durations(const std::string& name) const;
  /// name -> {count, total us, self us}; self = duration minus the time
  /// covered by direct children.
  struct Agg {
    long count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Agg> SelfTimes() const;
  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  bool on_;
  long op_ = -1;
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t), idx_(t->Begin(name)) {}
  ~Span() { t_->End(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

/// Prints the per-span-name self-time table, stores it in the record and
/// writes every span to `<out>.spans.jsonl`.
void PrintSelfTimes(const Tracer& tracer, const RunConfig& cfg,
                    Report* report);

/// Sums of selected otged_* counters over a set of calls: Snap() before,
/// Accumulate() after each call.
class CounterDelta {
 public:
  explicit CounterDelta(std::vector<std::string> names);
  void Snap();
  void Accumulate();
  long Get(const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::vector<long> before_;
  std::vector<long> sum_;
};

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_HPP_
