// perfbench — the runtime's repeatable benchmark.
//
//   perfbench --workload moe-256|grad-storm|chaos-payload|serve-chaos
//             [--seed N] [--seconds S] [--trace 0|1] [--trimmed 1] [--out-dir DIR]
//
// Prints a metadata line, then, as the last line, one JSON object
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). A failed correctness gate counts every op of the run as
// failed and makes the exit code 1.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "perfbench/workload.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
               " [--trimmed 0|1] [--out-dir DIR]\n"
               "workloads: moe-256 grad-storm chaos-payload serve-chaos\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (key == "--trimmed") {
        o.trimmed = std::stoi(value) != 0;
      } else if (key == "--out-dir") {
        o.out_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "moe-256") return make_moe_256(o);
  if (o.workload == "grad-storm") return make_grad_storm(o);
  if (o.workload == "chaos-payload") return make_chaos_payload(o);
  if (o.workload == "serve-chaos") return make_serve_chaos(o);
  return nullptr;
}

void print_meta(const Options& o, const Workload& w, const Result& r) {
  const char* describe = std::getenv("PERFBENCH_GIT_DESCRIBE");
  std::string line = "{\"meta\":{";
  auto field = [&line](const std::string& k, const std::string& v_json) {
    if (line.back() != '{') line += ",";
    line += json_string(k) + ":" + v_json;
  };
  field("workload", json_string(o.workload));
  field("seed", std::to_string(o.seed));
  field("seconds", json_number(o.seconds));
  field("trace", o.trace ? "1" : "0");
  field("trimmed", o.trimmed ? "1" : "0");
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("compiler", json_string(PERFBENCH_COMPILER));
  field("build_type", json_string(PERFBENCH_BUILD_TYPE));
  field("git_describe", json_string(describe != nullptr ? describe : "unknown"));
  field("engine", json_string(w.engine()));
  std::string sizes = "{";
  for (const auto& [k, v] : r.sizes) {
    if (sizes.size() > 1) sizes += ",";
    sizes += json_string(k) + ":" + json_string(v);
  }
  field("sizes", sizes + "}");
  std::string gates = "[";
  for (const auto& g : r.gate_failures) {
    if (gates.size() > 1) gates += ",";
    gates += json_string(g);
  }
  field("gate_failures", gates + "]");
  std::printf("%s}}\n", line.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold turns off glibc's sliding one, under which the
  // resident set of the materialised workloads depended on allocation order
  // (peak RSS varied by up to 50% between runs of one workload). Blocks of
  // 128 KiB and more are mapped and unmapped on their own.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  std::unique_ptr<Workload> w = make(o);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    usage();
    return 2;
  }
  Result r;
  try {
    r = measure(*w, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Every declared metric must be present with its declared unit.
  const auto& wanted = o.trace ? kPerLayerMetrics : kEndToEndMetrics;
  const auto& got = o.trace ? r.per_layer : r.end_to_end;
  for (const auto& [name, unit] : wanted) {
    auto it = got.find(name);
    r.gate(it != got.end() && it->second.unit == unit, "metric missing or mis-unitted: " + name);
  }
  if (!r.correct) r.failed = r.attempted;

  print_meta(o, *w, r);
  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    auto it = got.find(name);
    if (it == got.end()) continue;
    if (!metrics.empty()) metrics += ",";
    metrics += json_string(name) + ":{\"value\":" + json_number(it->second.value) +
               ",\"unit\":" + json_string(unit) + "}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  if (!r.correct) {
    for (const auto& g : r.gate_failures) std::fprintf(stderr, "perfbench: gate failed: %s\n", g.c_str());
    return 1;
  }
  return 0;
}
