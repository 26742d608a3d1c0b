#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/check.hpp"

namespace otged {
namespace telemetry {

// ------------------------------------------------------------- histogram

int HistogramBuckets::BucketOf(long v) {
  if (v < 0) v = 0;
  if (v < kLinear) return static_cast<int>(v);
  const int major =
      static_cast<int>(std::bit_width(static_cast<uint64_t>(v))) - 1;
  if (major > kMaxMajor) return kCount - 1;
  const int sub = static_cast<int>((v >> (major - kSubBits)) & (kSub - 1));
  return kLinear + (major - kSubBits - 1) * kSub + sub;
}

long HistogramBuckets::LowerBound(int b) {
  if (b < kLinear) return b;
  const int major = kSubBits + 1 + (b - kLinear) / kSub;
  const int sub = (b - kLinear) % kSub;
  return static_cast<long>(kSub + sub) << (major - kSubBits);
}

long HistogramBuckets::UpperBound(int b) {
  if (b < kLinear) return b;
  if (b == kCount - 1) return LowerBound(b);  // open-ended top bucket
  return LowerBound(b + 1) - 1;
}

double HistogramBuckets::Midpoint(int b) {
  if (b < kLinear) return b;
  return 0.5 * (static_cast<double>(LowerBound(b)) +
                static_cast<double>(UpperBound(b)));
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest bucket whose cumulative count covers
  // ceil(q * count) samples.
  long rank = static_cast<long>(std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  long seen = 0;
  for (const auto& [bucket, c] : buckets) {
    seen += c;
    if (seen >= rank) return HistogramBuckets::Midpoint(bucket);
  }
  return HistogramBuckets::Midpoint(buckets.back().first);
}

long HistogramSnapshot::Max() const {
  if (buckets.empty()) return 0;
  return HistogramBuckets::UpperBound(buckets.back().first);
}

// otged-lint: hot-path
void Histogram::Record(long value) {
  buckets_[HistogramBuckets::BucketOf(value)].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(value < 0 ? 0 : value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (int b = 0; b < HistogramBuckets::kCount; ++b) {
    const long c = buckets_[b].load(std::memory_order_relaxed);
    if (c != 0) {
      snap.buckets.emplace_back(b, c);
      snap.count += c;
    }
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// -------------------------------------------------------------- registry

template <typename M>
M& MetricsRegistry::GetOrAdd(Table<M>& table, const std::string& name,
                             const std::string& help) {
  // Only `table` may already hold `name`.
  OTGED_CHECK_MSG(counters_.count(name) + gauges_.count(name) +
                          histograms_.count(name) ==
                      table.count(name),
                  "metric name registered with a different kind");
  auto& entry = table[name];
  if (!entry.metric) entry.metric = std::make_unique<M>();
  if (entry.help.empty()) entry.help = help;
  return *entry.metric;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  MutexLock lock(mu_);
  return GetOrAdd(counters_, name, help);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  MutexLock lock(mu_);
  return GetOrAdd(gauges_, name, help);
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  MutexLock lock(mu_);
  return GetOrAdd(histograms_, name, help);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mu_);
  for (const auto& [name, entry] : counters_)
    snap.counters.push_back({name, entry.help, entry.metric->Value()});
  for (const auto& [name, entry] : gauges_)
    snap.gauges.push_back({name, entry.help, entry.metric->Value()});
  for (const auto& [name, entry] : histograms_)
    snap.histograms.push_back({name, entry.help, entry.metric->Snapshot()});
  return snap;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, entry] : counters_) entry.metric->Reset();
  for (auto& [name, entry] : gauges_) entry.metric->Reset();
  for (auto& [name, entry] : histograms_) entry.metric->Reset();
}

long MetricsSnapshot::CounterValue(const std::string& name,
                                   long fallback) const {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return fallback;
}

MetricsRegistry& Registry() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies
  return *registry;
}

}  // namespace telemetry
}  // namespace otged
