// bench_export — the experiment harness's command line: runs one registered
// experiment (every paper figure, table and ablation, plus the subsystem
// studies), prints its points as one table and writes them as a
// machine-readable BENCH_<experiment>.json perf-trajectory file (schema
// mcrdl-bench-v1, documented in bench/experiments.h and DESIGN.md §8).
//
//   bench_export --experiment fig2 [--out DIR] [--quick] [--threads N]
//   bench_export --check BENCH_fig2.json
//   bench_export --list
//
// --list prints every registered name with its one-line description.
// --quick trims the sweep for CI smoke runs. --check parses an existing file
// with the strict JSON parser and validates it with bench::check_report (the
// schema plus each experiment's named rules).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/experiments.h"
#include "src/common/format.h"
#include "src/obs/json.h"

using namespace mcrdl;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --experiment %s [--out DIR] [--quick] [--threads N]\n"
               "       %s --check FILE\n"
               "       %s --list\n"
               "  --threads N   execution engine: 1 = serial baton (default),\n"
               "                N > 1 = ParallelShards with N worker threads\n",
               argv0, bench::experiment_names().c_str(), argv0, argv0);
  return 2;
}

int list_experiments() {
  for (const bench::Experiment& experiment : bench::experiment_registry()) {
    std::printf("%-20s %s\n", experiment.name.c_str(), experiment.description.c_str());
  }
  return 0;
}

std::string format_number(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// The one rendering every experiment shares: a row per point.
void print_report(const bench::BenchReport& report) {
  TextTable table({"series", "backend", "world", "bytes", "virtual_us", "items_per_s", "values"});
  for (const auto& s : report.series) {
    for (const auto& p : s.points) {
      std::string values;
      for (const auto& [name, value] : p.values) {
        if (!values.empty()) values += " ";
        values += name + "=" + format_number("%.6g", value);
      }
      table.add_row({s.name, s.backend, std::to_string(p.world), std::to_string(p.bytes),
                     format_number("%.3f", p.virtual_us), format_number("%.6g", p.items_per_s),
                     values});
    }
  }
  std::printf("%s", table.to_string().c_str());
}

int check_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "bench_export: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    bench::check_report(obs::parse_json(buf.str()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_export: %s failed validation: %s\n", path.c_str(), e.what());
    return 1;
  }
  std::printf("%s: valid %s file\n", path.c_str(), bench::kBenchSchema);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string experiment;
  std::string out_dir = ".";
  std::string check_path;
  bool quick = false;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--experiment" && i + 1 < argc) {
      experiment = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
      if (threads < 1) return usage(argv[0]);
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--list") {
      return list_experiments();
    } else {
      return usage(argv[0]);
    }
  }

  if (!check_path.empty()) return check_file(check_path);
  if (experiment.empty()) return usage(argv[0]);

  const bench::Experiment* entry = bench::find_experiment(experiment);
  if (entry == nullptr) {
    std::fprintf(stderr, "bench_export: unknown experiment '%s'\n", experiment.c_str());
    return usage(argv[0]);
  }

  bench::BenchReport report;
  std::string json;
  try {
    bench::ExperimentOptions options;
    options.quick = quick;
    options.threads = threads;
    report = entry->run(options);
    json = bench::to_bench_json(report);
    // The writer eats its own dog food: a file that would fail --check is
    // never written.
    bench::check_report(obs::parse_json(json));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_export: experiment failed: %s\n", e.what());
    return 1;
  }

  print_report(report);
  const std::string path = out_dir + "/BENCH_" + experiment + ".json";
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "bench_export: cannot write %s\n", path.c_str());
    return 1;
  }
  out << json << "\n";
  out.close();
  std::size_t points = 0;
  for (const auto& s : report.series) points += s.points.size();
  std::printf("wrote %s (%zu series, %zu points%s)\n", path.c_str(), report.series.size(),
              points, quick ? ", quick grid" : "");
  return 0;
}
