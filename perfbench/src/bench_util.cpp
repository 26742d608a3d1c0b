#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "telemetry/metrics.hpp"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::string OutPath(const RunConfig& cfg, const std::string& suffix) {
  return cfg.out_dir + "/" + cfg.workload + "-seed" +
         std::to_string(cfg.seed) + suffix;
}

void Report::Fail(const std::string& what, bool op_failed) {
  std::printf("FAIL: %s\n", what.c_str());
  correct = false;
  if (op_failed) ++failed;
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value) {
  metrics.push_back({name, unit, value});
}

void Report::AddLatency(const std::string& stem, const std::string& unit,
                        const std::vector<double>& samples) {
  const size_t n = samples.size();
  std::ostringstream rec;
  rec.precision(9);
  rec << "{\"n\": " << n << ", \"p50\": " << Quantile(samples, 0.5);
  std::printf("  %s_p50_%s = %.4f %s (n=%zu)\n", stem.c_str(), unit.c_str(),
              Quantile(samples, 0.5), unit.c_str(), n);
  // A p90 needs at least ten samples beyond it.
  if (n >= 100) {
    rec << ", \"p90\": " << Quantile(samples, 0.9);
    std::printf("  %s_p90_%s = %.4f %s (n=%zu)\n", stem.c_str(),
                unit.c_str(), Quantile(samples, 0.9), unit.c_str(), n);
  } else {
    std::printf("  %s_p90_%s: not reported, %zu samples < 100\n",
                stem.c_str(), unit.c_str(), n);
  }
  rec << "}";
  record[stem + "_" + unit] = rec.str();
}

int Tracer::Begin(const char* name) {
  if (!on_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, NowUs(), 0.0, parent, op_});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::End(int idx) {
  if (!on_ || idx < 0) return;
  spans_[static_cast<size_t>(idx)].end_us = NowUs();
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

void Tracer::AddChild(const char* name, double start_us, double end_us) {
  if (!on_) return;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, start_us, end_us, parent, op_});
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRec& s : spans_)
    if (name == s.name) out.push_back(s.end_us - s.start_us);
  return out;
}

std::map<std::string, Tracer::Agg> Tracer::SelfTimes() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const SpanRec& s : spans_)
    if (s.parent >= 0)
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
  std::map<std::string, Agg> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end_us - spans_[i].start_us;
    Agg& a = out[spans_[i].name];
    a.count++;
    a.total_us += dur;
    a.self_us += std::max(0.0, dur - child_us[i]);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f.precision(3);
  f << std::fixed;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    f << "{\"id\": " << i << ", \"name\": \"" << s.name
      << "\", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
      << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}\n";
  }
  return static_cast<bool>(f);
}

void PrintSelfTimes(const Tracer& tracer, const RunConfig& cfg,
                    Report* report) {
  std::printf("  per-layer self time (traced, %zu spans):\n",
              tracer.spans().size());
  std::ostringstream table;
  table << "{";
  bool first = true;
  for (const auto& [name, agg] : tracer.SelfTimes()) {
    std::printf("    %-28s %8ld spans %12.3f ms total %12.3f ms self\n",
                name.c_str(), agg.count, agg.total_us * 1e-3,
                agg.self_us * 1e-3);
    table << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
          << agg.count << ", \"total_ms\": " << agg.total_us * 1e-3
          << ", \"self_ms\": " << agg.self_us * 1e-3 << "}";
    first = false;
  }
  table << "}";
  report->record["self_time"] = table.str();
  const std::string path = OutPath(cfg, ".spans.jsonl");
  std::string quoted = "\"";
  quoted += JsonEscape(path);
  quoted += '"';
  report->record["spans_file"] = quoted;
  if (!tracer.Write(path))
    std::printf("  note: could not write %s\n", path.c_str());
}

CounterDelta::CounterDelta(std::vector<std::string> names)
    : names_(std::move(names)),
      before_(names_.size(), 0),
      sum_(names_.size(), 0) {}

void CounterDelta::Snap() {
  const auto snap = otged::telemetry::Registry().Snapshot();
  for (size_t i = 0; i < names_.size(); ++i)
    before_[i] = snap.CounterValue(names_[i]);
}

void CounterDelta::Accumulate() {
  const auto snap = otged::telemetry::Registry().Snapshot();
  for (size_t i = 0; i < names_.size(); ++i)
    sum_[i] += snap.CounterValue(names_[i]) - before_[i];
}

long CounterDelta::Get(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return sum_[i];
  return 0;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
