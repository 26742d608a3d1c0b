// perfbench: the repo benchmark program. Usage:
//
//   perfbench --workload <powerlaw_range|molecule_churn|pair_estimate>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--small] [--out-dir <dir>] [--git-rev <rev>]
//             [--src-digest <sha>]
//
// Prints the run's stamp and human-readable metrics, writes a record to
// <out-dir>/<workload>-seed<n>[.trace].json (plus the span dump in trace
// mode), and ends with one JSON line: correct, attempted, failed and the
// end-to-end (trace 0) or per-layer (trace 1) metrics. Exits 1 on any
// wrong answer or FAIL line, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "core/simd.hpp"
#include "engine_runner.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--small] [--out-dir <dir>] "
               "[--git-rev <rev>] [--src-digest <sha>]\n",
               why);
  return 2;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--small") {
      cfg.small = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = argv[++a];
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++a], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(argv[++a]);
      have_seconds = cfg.seconds > 0.0;
    } else if (arg == "--trace") {
      const std::string t = argv[++a];
      if (t != "0" && t != "1") return Usage("--trace takes 0 or 1");
      cfg.trace = t == "1";
      have_trace = true;
    } else if (arg == "--out-dir") {
      cfg.out_dir = argv[++a];
    } else if (arg == "--git-rev") {
      cfg.git_rev = argv[++a];
    } else if (arg == "--src-digest") {
      cfg.src_digest = argv[++a];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return Usage("--workload, --seed, --seconds (> 0) and --trace are "
                 "required");
  Report (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "powerlaw_range") run = RunPowerlawRange;
  if (cfg.workload == "molecule_churn") run = RunMoleculeChurn;
  if (cfg.workload == "pair_estimate") run = RunPairEstimate;
  if (run == nullptr)
    return Usage(("unknown workload " + cfg.workload).c_str());
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);

  std::ostringstream stamp;
  stamp << "{\"cpu\": \"" << JsonEscape(CpuModel())
        << "\", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"simd_isa\": \"" << otged::simd::kIsaName
        << (otged::simd::Enabled() ? "" : " (disabled)")
        << "\", \"compiler\": \"" << JsonEscape(PERFBENCH_COMPILER)
        << "\", \"flags\": \"" << JsonEscape(PERFBENCH_FLAGS)
        << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"git_rev\": \"" << JsonEscape(cfg.git_rev)
        << "\", \"src_digest\": \"" << JsonEscape(cfg.src_digest)
        << "\", \"workload\": \"" << cfg.workload
        << "\", \"seed\": " << cfg.seed << ", \"seconds\": " << cfg.seconds
        << ", \"trace\": " << (cfg.trace ? 1 : 0)
        << ", \"small\": " << (cfg.small ? "true" : "false") << "}";
  std::printf("== perfbench %s (seed %llu, %.1f s, trace %d) ==\n",
              cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  std::printf("  stamp: %s\n", stamp.str().c_str());
  std::fflush(stdout);

  Report report = run(cfg);

  // The metric set is fixed per mode; every workload reports all of it.
  const auto& expected = cfg.trace ? PerLayerMetrics() : EndToEndMetrics();
  bool shape_ok = report.metrics.size() == expected.size();
  for (size_t i = 0; shape_ok && i < expected.size(); ++i)
    shape_ok = report.metrics[i].name == expected[i].first &&
               report.metrics[i].unit == expected[i].second &&
               std::isfinite(report.metrics[i].value);
  if (!shape_ok) report.Fail("metric set does not match the contract", false);
  const double error_rate =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::printf("  error_rate = %.6f (%ld failed of %ld attempted)\n",
              error_rate, report.failed, report.attempted);
  if (report.attempted < 1) report.Fail("no operation completed", false);

  std::ostringstream metrics;
  metrics << "{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("  %s = %s %s\n", m.name.c_str(), Num(v).c_str(),
                m.unit.c_str());
    metrics << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
            << Num(v) << ", \"unit\": \"" << m.unit << "\"}";
  }
  metrics << "}";

  std::ostringstream rec;
  rec << "{\"stamp\": " << stamp.str() << ", \"correct\": "
      << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed
      << ", \"error_rate\": " << Num(error_rate)
      << ", \"metrics\": " << metrics.str();
  for (const auto& [key, value] : report.record)
    rec << ", \"" << key << "\": " << value;
  rec << "}\n";
  const std::string rec_path =
      OutPath(cfg, cfg.trace ? ".trace.json" : ".json");
  std::ofstream(rec_path) << rec.str();
  std::printf("  record: %s\n", rec_path.c_str());
  if (!report.correct) std::printf("FAIL: run is not correct\n");

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false", report.attempted,
              report.failed, metrics.str().c_str());
  return report.correct ? 0 : 1;
}
