// The experiment registry and its report checks: every entry's --quick run
// round-trips to_bench_json -> parse_json -> check_report, names are unique,
// and check_report rejects non-finite values and a resilience loss step
// that is no slower than the clean step before it.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "bench/experiments.h"
#include "src/common/status.h"
#include "src/obs/json.h"

namespace mcrdl::bench {
namespace {

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (const Experiment& e : experiment_registry()) names.push_back(e.name);
  return names;
}

void check_json(const std::string& json) { check_report(obs::parse_json(json)); }

BenchPoint step(int world, std::size_t index, double virtual_us) {
  BenchPoint p;
  p.world = world;
  p.bytes = index;
  p.virtual_us = virtual_us;
  return p;
}

// A resilience report with one steps/shrink series: clean steps on 8 ranks,
// then `loss_us` as the first step on 7 ranks.
BenchReport resilience_report(double clean_us, double loss_us) {
  BenchReport report;
  report.experiment = "resilience";
  report.series.push_back({"steps/shrink", "nccl",
                           {step(8, 0, clean_us), step(8, 1, clean_us), step(7, 2, loss_us),
                            step(7, 3, clean_us + 10.0)}});
  return report;
}

TEST(ExperimentRegistry, NamesAreUnique) {
  const std::vector<std::string> names = registry_names();
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(), names.size());
  EXPECT_EQ(names.size(), 19u);
  for (const std::string& name : names) EXPECT_NE(find_experiment(name), nullptr) << name;
  EXPECT_EQ(find_experiment("no-such-experiment"), nullptr);
}

class QuickRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(QuickRunTest, ExportPassesCheckReport) {
  ExperimentOptions options;
  options.quick = true;
  const BenchReport report = find_experiment(GetParam())->run(options);
  EXPECT_EQ(report.experiment, GetParam());
  ASSERT_FALSE(report.series.empty());
  EXPECT_NO_THROW(check_json(to_bench_json(report)));
}

INSTANTIATE_TEST_SUITE_P(Registry, QuickRunTest, ::testing::ValuesIn(registry_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(CheckReport, ValuesAreEmittedSortedAndOnlyWhenPresent) {
  BenchReport report;
  report.experiment = "ablation-fusion";
  BenchPoint with_values = step(16, 16384, 1.0);
  with_values.values = {{"overlap_flushes", 0.0}, {"flushes", 16.0}};
  report.series.push_back({"B=64 KiB", "nccl", {with_values, step(16, 32768, 2.0)}});
  const std::string json = to_bench_json(report);
  EXPECT_NE(json.find("\"values\":{\"flushes\":16,\"overlap_flushes\":0}"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("values"), json.rfind("values")) << json;
  EXPECT_NO_THROW(check_json(json));
}

TEST(CheckReport, RejectsNonFiniteValues) {
  const std::string doc =
      "{\"schema\":\"mcrdl-bench-v1\",\"experiment\":\"ablation-compression\",\"series\":"
      "[{\"name\":\"bits=8\",\"backend\":\"nccl\",\"points\":[{\"world\":16,\"bytes\":0,"
      "\"virtual_us\":1,\"items_per_s\":0,\"values\":{\"max_error\":VALUE}}]}]}";
  const auto with = [&](const std::string& value) {
    return std::string(doc).replace(doc.find("VALUE"), 5, value);
  };
  EXPECT_NO_THROW(check_json(with("0.5")));
  EXPECT_THROW(check_json(with("1e999")), InvalidArgument);   // parses to +inf
  EXPECT_THROW(check_json(with("-1e999")), InvalidArgument);  // -inf
  EXPECT_THROW(check_json(with("\"x\"")), InvalidArgument);

  // A NaN never reaches a file: the writer's output does not even parse.
  BenchReport report;
  report.experiment = "ablation-compression";
  BenchPoint p = step(16, 0, 1.0);
  p.values = {{"max_error", std::numeric_limits<double>::quiet_NaN()}};
  report.series.push_back({"bits=8", "nccl", {p}});
  EXPECT_THROW(check_json(to_bench_json(report)), InvalidArgument);
}

TEST(CheckReport, ResilienceLossStepMustBeSlowerThanTheCleanStep) {
  EXPECT_NO_THROW(check_json(to_bench_json(resilience_report(177.3, 300.0))));
  EXPECT_THROW(check_json(to_bench_json(resilience_report(177.3, 136.4))), InvalidArgument);
  EXPECT_THROW(check_json(to_bench_json(resilience_report(177.3, 177.3))), InvalidArgument);

  // A trajectory whose world never shrinks has no loss step to check.
  BenchReport flat = resilience_report(177.3, 300.0);
  for (BenchPoint& p : flat.series[0].points) p.world = 8;
  EXPECT_THROW(check_json(to_bench_json(flat)), InvalidArgument);
}

}  // namespace
}  // namespace mcrdl::bench
