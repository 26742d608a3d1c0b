/// \file metrics.hpp
/// \brief Process-wide lock-free metrics registry for the serving tier.
///
/// Three metric kinds, all safe to update from any thread without taking
/// a lock:
///
///   Counter    monotone sum in one atomic; Inc is one relaxed fetch_add.
///   Gauge      last-written value (Set) or running signed sum (Add) in
///              one atomic, for levels like queue depth or the store epoch.
///   Histogram  log-linear bucketed distribution (8 sub-buckets per
///              power of two => <= 12.5% relative bucket width, exact
///              below 16). Record is two relaxed fetch_adds: the bucket
///              and the sum. Percentiles are estimated from the bucket
///              midpoint at read time.
///
/// Metrics are registered by name on first use and never removed, so a
/// `Counter&` obtained once (typically via a function-local static in an
/// OTGED_* macro below) stays valid for the process lifetime. Names may
/// carry Prometheus-style labels inline: `otged_foo_total{tier="exact"}`.
/// `Registry().Snapshot()` reads every metric into plain numbers without
/// stopping writers (counts are monotone, so a concurrent snapshot is
/// simply a valid slightly-earlier or slightly-later view).
#ifndef OTGED_TELEMETRY_METRICS_HPP_
#define OTGED_TELEMETRY_METRICS_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"

namespace otged {
namespace telemetry {

/// Monotonic microsecond clock for latency metrics.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotone counter; Inc is wait-free (one relaxed fetch_add).
class Counter {
 public:
  // otged-lint: hot-path
  void Inc(long n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  long Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long> value_{0};
};

/// Level metric: Set publishes an absolute value, Add adjusts it.
class Gauge {
 public:
  // otged-lint: hot-path
  void Set(long v) { value_.store(v, std::memory_order_relaxed); }
  // otged-lint: hot-path
  void Add(long n) { value_.fetch_add(n, std::memory_order_relaxed); }
  long Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<long> value_{0};
};

/// Log-linear histogram bucket geometry, shared by the live histogram and
/// its snapshots. Values are non-negative integers (latencies in us).
struct HistogramBuckets {
  static constexpr int kSubBits = 3;  ///< 8 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kLinear = 2 * kSub;  ///< exact buckets for v < 16
  static constexpr int kMaxMajor = 62;
  static constexpr int kCount =
      kLinear + (kMaxMajor - kSubBits - 1) * kSub + kSub;

  static int BucketOf(long v);
  /// Smallest value mapping to bucket `b` (inclusive).
  static long LowerBound(int b);
  /// Largest value mapping to bucket `b` (inclusive).
  static long UpperBound(int b);
  /// Representative value reported for samples in bucket `b`.
  static double Midpoint(int b);
};

/// Aggregated histogram state, detached from the atomics.
struct HistogramSnapshot {
  long count = 0;
  long sum = 0;
  std::vector<std::pair<int, long>> buckets;  ///< (bucket index, count), asc

  double Mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0;
  }
  /// Nearest-rank percentile estimate (bucket midpoint); q in [0, 1].
  double Percentile(double q) const;
  /// Upper bound of the highest non-empty bucket (0 when empty).
  long Max() const;
};

/// Distribution metric; Record is wait-free (two relaxed fetch_adds).
/// The sample count is the sum of the buckets.
class Histogram {
 public:
  void Record(long value);
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  std::atomic<long> buckets_[HistogramBuckets::kCount] = {};
  std::atomic<long> sum_{0};
};

struct MetricsSnapshot {
  struct Named {
    std::string name;  ///< full name, possibly with {labels}
    std::string help;
    long value = 0;
  };
  struct NamedHistogram {
    std::string name;
    std::string help;
    HistogramSnapshot hist;
  };
  std::vector<Named> counters;            ///< sorted by name
  std::vector<Named> gauges;              ///< sorted by name
  std::vector<NamedHistogram> histograms; ///< sorted by name

  /// Counter value by exact full name, or `fallback` when absent.
  long CounterValue(const std::string& name, long fallback = 0) const;
};

/// Name -> metric table. Registration takes a mutex (first use per call
/// site only); updates through the returned references are lock-free.
/// Returned references are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  /// Each aborts when `name` is already registered as another kind.
  Counter& GetCounter(const std::string& name, const std::string& help = "")
      EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name, const std::string& help = "")
      EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name,
                          const std::string& help = "") EXCLUDES(mu_);

  /// Aggregates every metric into plain values. Never blocks writers.
  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

  /// Zeroes every registered metric (handles stay valid). Meant for test
  /// isolation and `search_cli metrics`; concurrent updates are not lost
  /// atomically-with the reset, they simply land after it.
  void Reset() EXCLUDES(mu_);

 private:
  template <typename M>
  struct Entry {
    std::unique_ptr<M> metric;
    std::string help;
  };
  template <typename M>
  using Table = std::map<std::string, Entry<M>>;

  /// The metric `name` in `table`, created on first use.
  template <typename M>
  M& GetOrAdd(Table<M>& table, const std::string& name,
              const std::string& help) REQUIRES(mu_);

  mutable Mutex mu_;
  Table<Counter> counters_ GUARDED_BY(mu_);
  Table<Gauge> gauges_ GUARDED_BY(mu_);
  Table<Histogram> histograms_ GUARDED_BY(mu_);
};

/// The process-wide registry every OTGED_* macro records into.
MetricsRegistry& Registry();

}  // namespace telemetry
}  // namespace otged

// ---------------------------------------------------------------- macros
// The `static` reference makes the registry lookup a one-time cost per
// call site, so each site records under the one name it first saw.
#define OTGED_COUNT_N(name, help, n)                                      \
  do {                                                                    \
    static ::otged::telemetry::Counter& otged_counter_ =                  \
        ::otged::telemetry::Registry().GetCounter((name), (help));        \
    otged_counter_.Inc(n);                                                \
  } while (0)

#define OTGED_GAUGE_SET(name, help, v)                                    \
  do {                                                                    \
    static ::otged::telemetry::Gauge& otged_gauge_ =                      \
        ::otged::telemetry::Registry().GetGauge((name), (help));          \
    otged_gauge_.Set(v);                                                  \
  } while (0)

#define OTGED_GAUGE_ADD(name, help, n)                                    \
  do {                                                                    \
    static ::otged::telemetry::Gauge& otged_gauge_ =                      \
        ::otged::telemetry::Registry().GetGauge((name), (help));          \
    otged_gauge_.Add(n);                                                  \
  } while (0)

#define OTGED_HIST_RECORD(name, help, value)                              \
  do {                                                                    \
    static ::otged::telemetry::Histogram& otged_hist_ =                   \
        ::otged::telemetry::Registry().GetHistogram((name), (help));      \
    otged_hist_.Record(value);                                            \
  } while (0)

#define OTGED_COUNT(name, help) OTGED_COUNT_N(name, help, 1)

#endif  // OTGED_TELEMETRY_METRICS_HPP_
