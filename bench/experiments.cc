#include "bench/experiments.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "src/coll/spec.h"
#include "src/common/format.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/mcr_dl.h"
#include "src/tune/online_tuner.h"
#include "src/tune/tuning.h"
#include "src/models/cnn3d.h"
#include "src/models/dlrm.h"
#include "src/models/megatron.h"
#include "src/models/moe.h"
#include "src/models/resnet.h"
#include "src/models/workload.h"
#include "src/net/cost.h"
#include "src/net/topology.h"
#include "src/obs/json.h"

namespace mcrdl::bench {

const BenchSeries* BenchReport::find(const std::string& name) const {
  for (const auto& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

BenchPoint point(int world, std::size_t bytes, double virtual_us, double items_per_s = 0.0,
                 std::map<std::string, double> values = {}) {
  BenchPoint p;
  p.world = world;
  p.bytes = bytes;
  p.virtual_us = virtual_us;
  p.items_per_s = items_per_s;
  p.values = std::move(values);
  return p;
}

void append_number(std::ostringstream& out, double v) {
  std::ostringstream num;
  num.precision(12);
  num << v;
  out << num.str();
}

}  // namespace

std::string to_bench_json(const BenchReport& report) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kBenchSchema << "\",\"experiment\":\""
      << obs::json_escape(report.experiment) << "\",\"series\":[";
  bool first_series = true;
  for (const auto& s : report.series) {
    if (!first_series) out << ",";
    first_series = false;
    out << "{\"name\":\"" << obs::json_escape(s.name) << "\",\"backend\":\""
        << obs::json_escape(s.backend) << "\",\"points\":[";
    bool first_point = true;
    for (const auto& p : s.points) {
      if (!first_point) out << ",";
      first_point = false;
      out << "{\"world\":" << p.world << ",\"bytes\":" << p.bytes << ",\"virtual_us\":";
      append_number(out, p.virtual_us);
      out << ",\"items_per_s\":";
      append_number(out, p.items_per_s);
      if (!p.values.empty()) {
        out << ",\"values\":{";
        bool first_value = true;
        for (const auto& [name, value] : p.values) {
          if (!first_value) out << ",";
          first_value = false;
          out << "\"" << obs::json_escape(name) << "\":";
          append_number(out, value);
        }
        out << "}";
      }
      out << "}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

namespace {

// The resilience rule "loss step > clean step". In a steps/* series the
// first point whose world is smaller than the first point's is the step
// that absorbed the loss; it must take longer than the clean step before it.
void check_loss_step(const obs::JsonValue& series) {
  const std::string rule = "resilience rule 'loss step > clean step' fails on " +
                           series.at("name").str + ": ";
  const auto& points = series.at("points").array;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].at("world").number >= points[0].at("world").number) continue;
    const double loss_us = points[i].at("virtual_us").number;
    const double clean_us = points[i - 1].at("virtual_us").number;
    if (loss_us > clean_us) return;
    throw InvalidArgument(rule + "loss step " + std::to_string(i) + " took " +
                          std::to_string(loss_us) + " us, the clean step before it " +
                          std::to_string(clean_us) + " us");
  }
  throw InvalidArgument(rule + "no step completes on a smaller world");
}

}  // namespace

void check_report(const obs::JsonValue& doc) {
  if (doc.at("schema").str != kBenchSchema) {
    throw InvalidArgument("unexpected schema tag: " + doc.at("schema").str);
  }
  const std::string experiment = doc.at("experiment").str;
  const auto& series = doc.at("series");
  if (!series.is_array() || series.array.empty()) {
    throw InvalidArgument("bench file has no series");
  }
  bool has_increasing_bytes_sweep = false;
  bool has_hotpath_speedup = false;
  int loss_series = 0;
  for (const auto& s : series.array) {
    if (!s.at("name").is_string() || !s.at("backend").is_string()) {
      throw InvalidArgument("series needs string name and backend");
    }
    const auto& points = s.at("points");
    if (!points.is_array()) throw InvalidArgument("series.points must be an array");
    double prev_bytes = -1.0;
    bool increasing = points.array.size() >= 2;
    for (const auto& p : points.array) {
      for (const char* field : {"world", "bytes", "virtual_us", "items_per_s"}) {
        if (!p.at(field).is_number()) {
          throw InvalidArgument(std::string("point field is not a number: ") + field);
        }
      }
      if (p.at("virtual_us").number < 0.0) throw InvalidArgument("negative virtual_us");
      if (const obs::JsonValue* values = p.find("values")) {
        if (!values->is_object()) throw InvalidArgument("point values must be an object");
        for (const auto& [name, value] : values->object) {
          if (!value.is_number() || !std::isfinite(value.number)) {
            throw InvalidArgument("point value '" + name + "' is not a finite number");
          }
        }
      }
      if (p.at("bytes").number <= prev_bytes) increasing = false;
      prev_bytes = p.at("bytes").number;
      // The hotpath speedup series carries the bucketed/unbucketed
      // wall-clock throughput ratio. Committed exports show >=4x; the CI
      // gate is deliberately lenient (1.5x) so a loaded runner cannot flake
      // it, while still catching bucketing that stopped amortizing dispatch.
      if (experiment == "hotpath" && s.at("name").str == "speedup") {
        if (p.at("items_per_s").number < 1.5) {
          throw InvalidArgument("hotpath speedup dropped below 1.5x at bytes=" +
                                std::to_string(p.at("bytes").number));
        }
        has_hotpath_speedup = true;
      }
    }
    if (increasing) has_increasing_bytes_sweep = true;
    if (experiment == "resilience" && s.at("name").str.rfind("steps/", 0) == 0) {
      check_loss_step(s);
      ++loss_series;
    }
  }
  // Microbench exports must contain a real message-size sweep; a report
  // with one point per series (or shuffled sizes) is a broken export.
  if (experiment == "fig2" && !has_increasing_bytes_sweep) {
    throw InvalidArgument(
        "fig2 export has no series with >= 2 points of strictly increasing bytes");
  }
  if (experiment == "hotpath" && !has_hotpath_speedup) {
    throw InvalidArgument("hotpath export has no populated speedup series");
  }
  if (experiment == "resilience" && loss_series == 0) {
    throw InvalidArgument("resilience export has no steps/* series");
  }
  // Composite-collective contract (DESIGN.md §15). Two orderings make the
  // experiment worth exporting, checked on whatever grid the file carries
  // (full or --quick) so the CI gate and the committed export share a rule:
  //   * algorithm — at every node count >= 2, the hierarchical allreduce
  //     beats the flat single-backend choice at the largest swept message;
  //   * schedule — on the 3D-CNN plan, hier+overlap beats the identical
  //     hier plan without the overlap scheduler, at every model world.
  if (experiment == "hier") {
    auto last_virtual_us = [](const obs::JsonValue& s) {
      return s.at("points").array.back().at("virtual_us").number;
    };
    int compared_nodes = 0;
    int compared_worlds = 0;
    for (const auto& flat : series.array) {
      const std::string& name = flat.at("name").str;
      const std::string prefix = "all_reduce/flat/n";
      if (name.rfind(prefix, 0) != 0 || flat.at("points").array.empty()) continue;
      const int nodes = std::atoi(name.c_str() + prefix.size());
      if (nodes < 2) continue;
      for (const auto& hier : series.array) {
        if (hier.at("name").str != "all_reduce/hier/n" + std::to_string(nodes)) continue;
        if (hier.at("points").array.empty()) continue;
        if (last_virtual_us(hier) >= last_virtual_us(flat)) {
          throw InvalidArgument("hier allreduce does not beat flat at n=" +
                                std::to_string(nodes) + " for the largest message");
        }
        ++compared_nodes;
      }
    }
    const obs::JsonValue* cnn_hier = nullptr;
    const obs::JsonValue* cnn_overlap = nullptr;
    for (const auto& s : series.array) {
      if (s.at("name").str == "cnn3d/hier") cnn_hier = &s;
      if (s.at("name").str == "cnn3d/hier+overlap") cnn_overlap = &s;
    }
    if (cnn_hier != nullptr && cnn_overlap != nullptr) {
      for (const auto& hp : cnn_hier->at("points").array) {
        for (const auto& op : cnn_overlap->at("points").array) {
          if (op.at("world").number != hp.at("world").number) continue;
          if (op.at("virtual_us").number >= hp.at("virtual_us").number) {
            throw InvalidArgument("cnn3d hier+overlap does not beat hier at world=" +
                                  std::to_string(static_cast<int>(hp.at("world").number)));
          }
          ++compared_worlds;
        }
      }
    }
    if (compared_nodes == 0 || compared_worlds == 0) {
      throw InvalidArgument("hier export is missing its flat-vs-hier or cnn3d comparison");
    }
  }
}

// --- figure 2 ---------------------------------------------------------------

BenchReport run_fig2(const Fig2Options& options) {
  Fig2Options opts = options;
  if (opts.sizes.empty()) {
    opts.sizes = {1u << 10,   4u << 10, 16u << 10, 64u << 10, 256u << 10,
                  1u << 20, 4u << 20, 16u << 20,  64u << 20};
  }
  if (opts.backends.empty()) opts.backends = {"mv2-gdr", "ompi", "nccl", "sccl"};
  if (opts.quick) {
    // CI smoke grid: two backends, four sizes, one iteration.
    opts.backends.resize(std::min<std::size_t>(opts.backends.size(), 2));
    std::vector<std::size_t> trimmed;
    for (std::size_t i = 0; i < opts.sizes.size() && trimmed.size() < 4; i += 2) {
      trimmed.push_back(opts.sizes[i]);
    }
    opts.sizes = trimmed;
    opts.iterations = 1;
    opts.warmup = 0;
  }
  MCRDL_REQUIRE(opts.world % 4 == 0, "fig2 runs on Lassen (4 GPUs per node)");

  TuningSuite suite(net::SystemConfig::lassen(opts.world / 4));
  TuningConfig cfg;
  cfg.backends = opts.backends;
  cfg.ops = {OpType::AllReduce, OpType::AllToAllSingle};
  cfg.sizes = opts.sizes;
  cfg.world_sizes = {opts.world};
  cfg.iterations = opts.iterations;
  cfg.warmup = opts.warmup;
  (void)suite.generate(cfg);

  BenchReport report;
  report.experiment = "fig2";
  for (OpType op : cfg.ops) {
    for (const auto& backend : opts.backends) {
      BenchSeries series;
      series.name = std::string(op_name(op)) + "/" + backend;
      series.backend = backend;
      for (std::size_t bytes : opts.sizes) {
        BenchPoint p;
        p.world = opts.world;
        p.bytes = bytes;
        p.virtual_us = suite.measured(backend, op, opts.world, bytes);
        series.points.push_back(p);
      }
      report.series.push_back(std::move(series));
    }
  }
  return report;
}

// --- figures 8 and 9 --------------------------------------------------------

namespace {

// The label recorded in the `backend` field: concrete name for pure plans,
// "mixed" for coarse-grained plans, "auto" for the tuned plan.
std::string plan_backend_label(const models::CommPlan& plan) {
  if (plan.use_auto) return "auto";
  if (!plan.per_op.empty()) return "mixed";
  return plan.default_backend;
}

// One model-scaling figure: every plan at every scale, with MCR-DL-T's
// tuning table generated at each scale from `tuning` (world_sizes set per
// scale) for the ops and message range the model actually uses.
struct ScalingSweep {
  std::string experiment;
  std::vector<int> scales;  // the figure's GPU counts
  int warmup_steps;
  int measured_steps;
  int gpus_per_node;
  net::SystemConfig (*make_system)(int);
  std::vector<models::CommPlan> plans;
  TuningConfig tuning;
};

TuningConfig model_tuning(std::vector<std::string> backends, std::vector<OpType> ops,
                          std::vector<std::size_t> sizes) {
  TuningConfig cfg;
  cfg.backends = std::move(backends);
  cfg.ops = std::move(ops);
  cfg.sizes = std::move(sizes);
  cfg.iterations = 1;
  return cfg;
}

// The four plans Figures 8 and 9 compare.
std::vector<models::CommPlan> paper_plans() {
  return {models::CommPlan::pure("mv2-gdr", "Pure MVAPICH2-GDR"),
          models::CommPlan::pure("nccl", "Pure NCCL"), models::CommPlan::mcr_dl_mixed(),
          models::CommPlan::mcr_dl_tuned()};
}

template <typename MakeModel>
BenchReport run_scaling(const ScalingSweep& sweep, const ScalingOptions& options,
                        MakeModel make_model) {
  ScalingOptions opts = options;
  if (opts.scales.empty()) opts.scales = sweep.scales;
  if (opts.warmup_steps < 0) opts.warmup_steps = sweep.warmup_steps;
  if (opts.measured_steps < 0) opts.measured_steps = sweep.measured_steps;
  if (opts.quick) {
    opts.scales.resize(std::min<std::size_t>(opts.scales.size(), 2));
    opts.warmup_steps = 0;
    opts.measured_steps = 1;
  }
  const std::vector<models::CommPlan>& plans = sweep.plans;

  models::HarnessOptions hopts;
  hopts.warmup_steps = opts.warmup_steps;
  hopts.measured_steps = opts.measured_steps;
  hopts.execution = opts.execution;

  BenchReport report;
  report.experiment = sweep.experiment;
  for (const auto& plan : plans) {
    BenchSeries series;
    series.name = plan.name;
    series.backend = plan_backend_label(plan);
    report.series.push_back(std::move(series));
  }

  for (int gpus : opts.scales) {
    MCRDL_REQUIRE(gpus % sweep.gpus_per_node == 0, "scale must fill whole nodes");
    net::SystemConfig sys = sweep.make_system(gpus / sweep.gpus_per_node);
    models::TrainingHarness harness(sys);
    auto model = make_model(sys);

    TuningSuite suite(sys);
    TuningConfig tcfg = sweep.tuning;
    tcfg.world_sizes = {gpus};
    TuningTable table = suite.generate(tcfg);

    for (std::size_t i = 0; i < plans.size(); ++i) {
      const models::RunResult result = harness.run(
          model, plans[i], models::FrameworkModel::raw(), hopts,
          plans[i].use_auto ? &table : nullptr);
      BenchPoint p;
      p.world = gpus;
      p.bytes = 0;  // whole-step measurement, not a message-size sweep
      p.virtual_us = result.step_time_us;
      p.items_per_s = result.throughput;
      report.series[i].points.push_back(p);
    }
  }
  return report;
}

}  // namespace

BenchReport run_fig8(const ScalingOptions& options) {
  return run_scaling(
      {"fig8", {16, 32, 64, 128, 256}, /*warmup=*/1, /*measured=*/2, /*gpus_per_node=*/4,
       &net::SystemConfig::lassen, paper_plans(),
       model_tuning({"nccl", "mv2-gdr"},
                    {OpType::AllReduce, OpType::AllToAllSingle, OpType::Barrier},
                    {64u << 10, 1u << 20, 4u << 20, 16u << 20, 32u << 20})},
      options,
      [](const net::SystemConfig& sys) { return models::DSMoEModel(models::DSMoEConfig{}, sys); });
}

BenchReport run_fig9(const ScalingOptions& options) {
  return run_scaling(
      {"fig9", {8, 16, 32}, /*warmup=*/2, /*measured=*/6, /*gpus_per_node=*/8,
       &net::SystemConfig::theta_gpu, paper_plans(),
       model_tuning({"nccl", "mv2-gdr"},
                    {OpType::AllReduce, OpType::AllToAllSingle, OpType::Barrier},
                    {256u << 10, 1u << 20, 4u << 20, 8u << 20, 16u << 20})},
      options,
      [](const net::SystemConfig& sys) { return models::DLRMModel(models::DLRMConfig{}, sys); });
}

namespace {

// Figure 10: dense Megatron-DeepSpeed (6.7B, TP=2, ZeRO-2) on ThetaGPU. The
// tuned mix gives SCCL's synthesized schedules the huge ZeRO collectives and
// MVAPICH2-GDR the small per-layer operations.
BenchReport run_fig10(const ExperimentOptions& o) {
  models::CommPlan tuned = models::CommPlan::mcr_dl_tuned();
  tuned.name = "MCR-DL";
  ScalingOptions options;
  options.quick = o.quick;
  return run_scaling(
      {"fig10", {8, 16, 32}, /*warmup=*/1, /*measured=*/2, /*gpus_per_node=*/8,
       &net::SystemConfig::theta_gpu,
       {models::CommPlan::pure("mv2-gdr", "Pure MVAPICH2-GDR"),
        models::CommPlan::pure("sccl", "Pure SCCL"), tuned},
       model_tuning({"sccl", "mv2-gdr"},
                    {OpType::AllReduce, OpType::ReduceScatter, OpType::AllGather,
                     OpType::Barrier},
                    {32u << 10, 1u << 20, 16u << 20, 128u << 20})},
      options, [](const net::SystemConfig& sys) {
        return models::MegatronDenseModel(models::MegatronConfig{}, sys);
      });
}

// A model run as series: "<name>" carries the step time and throughput,
// "<name>/comm" and "<name>/compute" rank 0's per-step communication time
// (union of intervals) and default-stream busy time, so the comm share is
// comm / (comm + compute). With `per_op`, "<name>/<op>" carries each
// operation's per-step communication time.
void add_run(BenchReport& report, const std::string& name, const std::string& backend,
             const models::RunResult& r, bool per_op) {
  report.series.push_back({name, backend, {point(r.world, 0, r.step_time_us, r.throughput)}});
  report.series.push_back({name + "/comm", backend, {point(r.world, 0, r.comm_time_us)}});
  report.series.push_back({name + "/compute", backend, {point(r.world, 0, r.compute_time_us)}});
  if (!per_op) return;
  for (const auto& [op, us] : r.comm_by_op_us) {
    report.series.push_back({name + "/" + op, backend, {point(r.world, 0, us)}});
  }
}

// The series called `name`, appended first if the report has none yet.
BenchSeries& series_named(BenchReport& report, const std::string& name,
                          const std::string& backend) {
  for (auto& s : report.series) {
    if (s.name == name) return s;
  }
  report.series.push_back({name, backend, {}});
  return report.series.back();
}

models::HarnessOptions harness_steps(bool quick, int warmup, int measured) {
  models::HarnessOptions opts;
  opts.warmup_steps = quick ? 0 : warmup;
  opts.measured_steps = quick ? 1 : measured;
  return opts;
}

// Figure 1: (a) computation vs communication and (b) the per-operation
// communication breakdown for ResNet-50 and DS-MoE (64 V100, Lassen) and
// DLRM (32 A100, ThetaGPU), each under a monolithic NCCL framework as in
// the paper's profile.
BenchReport run_fig1(const ExperimentOptions& o) {
  const models::HarnessOptions opts = harness_steps(o.quick, 1, 3);
  const models::CommPlan nccl = models::CommPlan::pure("nccl");
  const auto run = [&](const models::Model& model, const net::SystemConfig& sys) {
    return models::TrainingHarness(sys).run(model, nccl, models::FrameworkModel::raw(), opts);
  };
  BenchReport report;
  report.experiment = "fig1";
  const net::SystemConfig lassen = net::SystemConfig::lassen(16);  // 64 GPUs
  add_run(report, "ResNet-50", "nccl",
          run(models::ResNet50Model(models::ResNet50Config{}, lassen), lassen), true);
  add_run(report, "DS-MoE", "nccl", run(models::DSMoEModel(models::DSMoEConfig{}, lassen), lassen),
          true);
  const net::SystemConfig theta = net::SystemConfig::theta_gpu(4);  // 32 GPUs
  add_run(report, "DLRM", "nccl", run(models::DLRMModel(models::DLRMConfig{}, theta), theta),
          true);
  return report;
}

// Table II: the static tuning table the tuning suite generates for
// all_gather on 64 Lassen GPUs. One series per winning backend holds the
// sizes it wins, each point that size's measured latency.
BenchReport run_table2(const ExperimentOptions& o) {
  TuningSuite suite(net::SystemConfig::lassen(16));  // 64 GPUs
  TuningConfig cfg;
  cfg.ops = {OpType::AllGather};
  cfg.sizes = {256, 512, 1024, 2048, 4096, 8192, 16384, 32768};
  if (o.quick) cfg.sizes = {256, 4096, 16384};
  cfg.world_sizes = {64};
  cfg.iterations = o.quick ? 1 : 2;
  cfg.warmup = o.quick ? 0 : 1;
  const TuningTable table = suite.generate(cfg);

  BenchReport report;
  report.experiment = "table2";
  for (const auto& entry : table.entries(OpType::AllGather, 64)) {
    series_named(report, "all_gather/lassen/" + entry.backend, entry.backend)
        .points.push_back(point(
            64, entry.max_bytes,
            suite.measured(entry.backend, OpType::AllGather, 64, entry.max_bytes)));
  }
  return report;
}

// Mean per-op Alltoall latency on 32 ThetaGPU A100s through one framework
// layer over a fixed MVAPICH2-GDR backend.
double fig7_alltoall_us(const models::FrameworkModel& fw, std::size_t bytes, int iters) {
  ClusterContext cluster(net::SystemConfig::theta_gpu(4));  // 32 GPUs
  McrDl mcr(&cluster);
  const models::CommPlan plan = models::CommPlan::pure("mv2-gdr");
  mcr.init(plan.backends_needed(available_backend_names()));
  double result = 0.0;
  const std::int64_t numel =
      ((static_cast<std::int64_t>(bytes) / 4 + 31) / 32) * 32;  // divisible by world
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    models::CommIssuer comm(api, plan, fw);
    sim::Device* dev = cluster.device(rank);
    auto one = [&] {
      Tensor in = Tensor::phantom({numel}, DType::F32, dev);
      Tensor out = Tensor::phantom({numel}, DType::F32, dev);
      comm.all_to_all_single(std::move(out), std::move(in), /*async_op=*/false);
      api.synchronize();
    };
    one();  // warmup
    const SimTime start = cluster.scheduler().now();
    for (int i = 0; i < iters; ++i) one();
    if (rank == 0) result = (cluster.scheduler().now() - start) / iters;
  });
  return result;
}

// Figure 7: framework overhead over the raw OSU-style benchmark (OMB). One
// series per framework layer; overhead is framework / OMB - 1 per size.
BenchReport run_fig7(const ExperimentOptions& o) {
  std::vector<std::size_t> sizes = {512,       1u << 10,   4u << 10, 16u << 10, 64u << 10,
                                    256u << 10, 1u << 20, 4u << 20, 16u << 20};
  if (o.quick) sizes = {512, 1u << 20};
  const int iters = o.quick ? 1 : 4;
  BenchReport report;
  report.experiment = "fig7";
  for (const models::FrameworkModel& fw :
       {models::FrameworkModel::raw(), models::FrameworkModel::mcr_dl(),
        models::FrameworkModel::pytorch_distributed("mv2-gdr")}) {
    BenchSeries series{fw.name, "mv2-gdr", {}};
    for (std::size_t bytes : sizes) {
      series.points.push_back(point(32, bytes, fig7_alltoall_us(fw, bytes, iters)));
    }
    report.series.push_back(std::move(series));
  }
  return report;
}

// Figure 11: MCR-DL against the PyTorch-compatible frameworks of Table I on
// DS-MoE at 256 Lassen V100s, tensor fusion on wherever the framework
// supports it.
BenchReport run_fig11(const ExperimentOptions& o) {
  const net::SystemConfig sys = net::SystemConfig::lassen(o.quick ? 4 : 64);  // 256 GPUs
  models::TrainingHarness harness(sys);
  const models::DSMoEModel model(models::DSMoEConfig{}, sys);
  models::HarnessOptions opts = harness_steps(o.quick, 1, 2);
  opts.mcr_options.fusion.enabled = true;  // disabled per framework when unsupported

  const std::pair<models::FrameworkModel, models::CommPlan> entries[] = {
      {models::FrameworkModel::mcr_dl(), models::CommPlan::mcr_dl_mixed()},
      {models::FrameworkModel::horovod(), models::CommPlan::pure("nccl")},
      {models::FrameworkModel::pytorch_distributed("nccl"), models::CommPlan::pure("nccl")},
      {models::FrameworkModel::mpi4py(), models::CommPlan::pure("mv2-gdr")},
  };
  BenchReport report;
  report.experiment = "fig11";
  for (const auto& [framework, plan] : entries) {
    add_run(report, framework.name, plan_backend_label(plan),
            harness.run(model, plan, framework, opts), false);
  }
  return report;
}

// Figure 12: the comm share of DS-MoE (256 V100, Lassen) and DLRM (32 A100,
// ThetaGPU) under the best single backend (NCCL) vs MCR-DL mixed backends.
BenchReport run_fig12(const ExperimentOptions& o) {
  BenchReport report;
  report.experiment = "fig12";
  const auto add_model = [&](const std::string& name, const models::Model& model,
                             const net::SystemConfig& sys, const models::HarnessOptions& opts) {
    models::TrainingHarness harness(sys);
    for (const models::CommPlan& plan :
         {models::CommPlan::pure("nccl", "Pure NCCL"), models::CommPlan::mcr_dl_mixed()}) {
      add_run(report, name + "/" + plan.name, plan_backend_label(plan),
              harness.run(model, plan, models::FrameworkModel::raw(), opts), false);
    }
  };
  const net::SystemConfig lassen = net::SystemConfig::lassen(o.quick ? 4 : 64);  // 256 GPUs
  add_model("DS-MoE", models::DSMoEModel(models::DSMoEConfig{}, lassen), lassen,
            harness_steps(o.quick, 1, 2));
  const net::SystemConfig theta = net::SystemConfig::theta_gpu(o.quick ? 1 : 4);  // 32 GPUs
  add_model("DLRM", models::DLRMModel(models::DLRMConfig{}, theta), theta,
            harness_steps(o.quick, 2, 6));
  return report;
}

// --- ablations ----------------------------------------------------------------

// Listing-3 pattern on 16 Lassen GPUs: `rounds` of {async 4 MiB allreduce,
// independent compute, dependent compute}; returns total virtual time.
// `naive` host-synchronises right after each post (paper Fig 4a) instead of
// MCR-DL's stream-level wait (Fig 4b).
double sync_overlap_us(bool naive, int rounds) {
  ClusterContext cluster(net::SystemConfig::lassen(4));  // 16 GPUs
  McrDl mcr(&cluster);
  mcr.init({"nccl"});
  double total = 0.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    for (int i = 0; i < rounds; ++i) {
      Tensor x = Tensor::phantom({1 << 20}, DType::F32, dev);  // 4 MiB
      Work h = api.all_reduce("nccl", x, ReduceOp::Sum, /*async_op=*/true);
      if (naive) h->synchronize();  // Fig 4(a): host blocks right away
      dev->compute(300.0, "independent");
      h->wait();  // Fig 4(b): stream-level dependency
      dev->compute(50.0, "dependent");
    }
    api.synchronize();
    dev->default_stream()->synchronize();
    if (rank == 0) total = cluster.scheduler().now();
  });
  return total;
}

// `ops` concurrent allreduces of `bytes`; pool=false serialises them onto
// one communication stream with explicit waits between posts.
double sync_pool_us(bool use_pool, int ops, std::size_t bytes) {
  ClusterContext cluster(net::SystemConfig::lassen(4));
  McrDl mcr(&cluster);
  mcr.init({"nccl"});
  double total = 0.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    std::vector<Work> works;
    for (int i = 0; i < ops; ++i) {
      Tensor x = Tensor::phantom({static_cast<std::int64_t>(bytes / 4)}, DType::F32, dev);
      if (!use_pool && !works.empty()) works.back()->synchronize();
      works.push_back(api.all_reduce("nccl", x, ReduceOp::Sum, true));
    }
    for (auto& w : works) w->synchronize();
    if (rank == 0) total = cluster.scheduler().now();
  });
  return total;
}

// Synchronisation ablation (paper Section V-C, Figure 4): naive host sync vs
// fine-grained events on the overlap pattern, and the communication-stream
// pool, which only helps small concurrent messages.
BenchReport run_ablation_sync(const ExperimentOptions& o) {
  const int rounds = o.quick ? 2 : 8;
  BenchReport report;
  report.experiment = "ablation-sync";
  for (bool naive : {true, false}) {
    report.series.push_back({naive ? "overlap/naive" : "overlap/events", "nccl",
                             {point(16, 4u << 20, sync_overlap_us(naive, rounds))}});
  }
  std::vector<std::size_t> sizes = {4u << 10, 64u << 10, 4u << 20};
  if (o.quick) sizes = {4u << 10, 4u << 20};
  for (bool pooled : {false, true}) {
    BenchSeries series{pooled ? "pool/pooled" : "pool/serialised", "nccl", {}};
    for (std::size_t bytes : sizes) {
      series.points.push_back(point(16, bytes, sync_pool_us(pooled, 8, bytes)));
    }
    report.series.push_back(std::move(series));
  }
  return report;
}

// `tensors` 16 KiB gradient allreduces per rank on 16 Lassen GPUs under
// `cfg`, returned as one point: total virtual time plus the collectives
// issued across ranks ("flushes"; one per tensor with fusion off) and the
// cross-backend overlap flushes. `two_backends` alternates NCCL and
// MVAPICH2-GDR for the overlap study; otherwise everything goes to NCCL,
// whose per-op launch overhead is the cost fusion amortises.
BenchPoint fusion_point(const FusionConfig& cfg, int tensors, bool two_backends) {
  constexpr std::size_t kBytes = 16 << 10;
  ClusterContext cluster(net::SystemConfig::lassen(4));  // 16 GPUs
  McrDlOptions opts;
  opts.fusion = cfg;
  McrDl mcr(&cluster, opts);
  mcr.init(two_backends ? std::vector<std::string>{"nccl", "mv2-gdr"}
                        : std::vector<std::string>{"nccl"});
  double total = 0.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    for (int i = 0; i < tensors; ++i) {
      Tensor g = Tensor::phantom({static_cast<std::int64_t>(kBytes / 4)}, DType::F32, dev);
      api.all_reduce(two_backends && i % 2 == 1 ? "mv2-gdr" : "nccl", g, ReduceOp::Sum,
                     /*async_op=*/true);
      dev->compute(2.0, "grad-producer");
    }
    api.synchronize();
    if (rank == 0) total = cluster.scheduler().now();
  });
  const int world = cluster.world_size();
  const double flushes = cfg.enabled ? mcr.fusion().flush_count() : tensors * world;
  return point(world, kBytes, total, 0.0,
               {{"flushes", flushes}, {"overlap_flushes", mcr.fusion().overlap_flush_count()}});
}

FusionConfig fusion_config(std::size_t buffer_bytes, double timeout_us, bool overlap = false) {
  FusionConfig cfg;
  cfg.enabled = true;
  cfg.buffer_bytes = buffer_bytes;
  cfg.flush_timeout_us = timeout_us;
  cfg.max_tensor_bytes = 64 << 10;
  cfg.cross_backend_overlap = overlap;
  return cfg;
}

// Tensor-fusion ablation (paper Section V-E): buffer size B at T = 100 us,
// flush timeout T at B = 1 MiB, and the cross-backend overlap flush.
BenchReport run_ablation_fusion(const ExperimentOptions& o) {
  const int tensors = o.quick ? 16 : 64;
  std::vector<std::size_t> buffers = {64u << 10, 256u << 10, 1u << 20, 4u << 20};
  std::vector<double> timeouts = {10.0, 50.0, 200.0, 1000.0};
  if (o.quick) {
    buffers = {64u << 10, 1u << 20};
    timeouts = {10.0, 200.0};
  }
  BenchReport report;
  report.experiment = "ablation-fusion";
  report.series.push_back({"fusion-off", "nccl", {fusion_point(FusionConfig{}, tensors, false)}});
  for (std::size_t b : buffers) {
    report.series.push_back({"B=" + format_bytes(b), "nccl",
                             {fusion_point(fusion_config(b, 100.0), tensors, false)}});
  }
  for (double t : timeouts) {
    report.series.push_back({"T=" + std::to_string(static_cast<int>(t)) + "us", "nccl",
                             {fusion_point(fusion_config(1u << 20, t), tensors, false)}});
  }
  for (bool overlap : {false, true}) {
    report.series.push_back({overlap ? "cross-backend/on" : "cross-backend/off", "mixed",
                             {fusion_point(fusion_config(1u << 20, 50.0, overlap), tensors,
                                           true)}});
  }
  return report;
}

// `rounds` of {64 KiB materialised broadcast, phantom 4 MiB-per-rank
// all_gather} on 16 Lassen GPUs with the zfp-style codec at `bits` per value
// (0 = off). Returns total virtual time and, in values, the broadcast's max
// reconstruction error on rank 1.
BenchPoint compression_point(int bits, int rounds) {
  CompressionConfig ccfg;
  ccfg.enabled = bits > 0;
  if (ccfg.enabled) ccfg.codec.bits_per_value = bits;
  ccfg.min_bytes = 0;
  McrDlOptions opts;
  opts.compression = ccfg;
  ClusterContext cluster(net::SystemConfig::lassen(4));  // 16 GPUs
  McrDl mcr(&cluster, opts);
  mcr.init({"nccl"});
  double total = 0.0;
  double max_error = 0.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    // A real (materialised) payload so reconstruction error is measurable.
    Rng rng(7);
    Tensor reference = Tensor::random_uniform({16384}, DType::F32, dev, rng, -1.0, 1.0);
    Tensor payload = rank == 0 ? reference.clone() : Tensor::zeros({16384}, DType::F32, dev);
    for (int i = 0; i < rounds; ++i) {
      api.broadcast("nccl", payload, 0);
      // Plus a phantom bandwidth-bound all_gather to expose the wire saving.
      Tensor in = Tensor::phantom({1 << 20}, DType::F32, dev);
      Tensor gathered = Tensor::phantom({16 << 20}, DType::F32, dev);
      api.all_gather("nccl", gathered, in);
      api.synchronize();
    }
    if (rank == 1) {
      for (int i = 0; i < 16384; ++i) {
        max_error = std::max(max_error, std::abs(payload.get(i) - reference.get(i)));
      }
    }
    if (rank == 0) total = cluster.scheduler().now();
  });
  return point(16, 0, total, 0.0, {{"max_error", max_error}});
}

// Compression ablation (paper Section V-E): codec rate vs total time vs
// reconstruction error.
BenchReport run_ablation_compression(const ExperimentOptions& o) {
  const int rounds = o.quick ? 1 : 4;
  std::vector<int> rates = {6, 8, 12, 16, 20};
  if (o.quick) rates = {8, 16};
  BenchReport report;
  report.experiment = "ablation-compression";
  report.series.push_back({"off", "nccl", {compression_point(0, rounds)}});
  for (int bits : rates) {
    report.series.push_back(
        {"bits=" + std::to_string(bits), "nccl", {compression_point(bits, rounds)}});
  }
  return report;
}

// Tuning-table transfer (paper Section V-F): the same sweep on 32 Lassen and
// 32 ThetaGPU GPUs. One series per (op, system, winning backend) holds the
// sizes that backend wins, each point its measured latency; two systems
// agree at a size when the same backend's series holds it on both.
BenchReport run_ablation_transfer(const ExperimentOptions& o) {
  std::vector<std::size_t> sizes = {1u << 10, 16u << 10, 256u << 10, 4u << 20};
  if (o.quick) sizes = {1u << 10, 4u << 20};
  constexpr int kWorld = 32;
  const std::pair<const char*, net::SystemConfig> systems[] = {
      {"lassen", net::SystemConfig::lassen(8)}, {"theta-gpu", net::SystemConfig::theta_gpu(4)}};
  BenchReport report;
  report.experiment = "ablation-transfer";
  for (const auto& [system, sys] : systems) {
    TuningSuite suite(sys);
    TuningConfig cfg;
    cfg.backends = {"mv2-gdr", "nccl", "sccl"};
    cfg.ops = {OpType::AllReduce, OpType::AllGather, OpType::AllToAllSingle};
    cfg.sizes = sizes;
    cfg.world_sizes = {kWorld};
    cfg.iterations = 1;
    const TuningTable table = suite.generate(cfg);
    for (OpType op : cfg.ops) {
      for (std::size_t bytes : sizes) {
        const std::string& winner = table.lookup(op, kWorld, bytes);
        series_named(report, std::string(op_name(op)) + "/" + system + "/" + winner, winner)
            .points.push_back(point(kWorld, bytes, suite.measured(winner, op, kWorld, bytes)));
      }
    }
  }
  return report;
}
}  // namespace

// --- execution-engine scaling -----------------------------------------------

BenchReport run_scale(const ScaleOptions& options) {
  ScaleOptions opts = options;
  if (opts.thread_counts.empty()) opts.thread_counts = {1, 2, 4};
  if (opts.scales.empty()) opts.scales = {32, 64, 128, 256};
  if (opts.quick) {
    opts.scales = {16};
    opts.warmup_steps = 0;
    opts.measured_steps = 1;
  }
  std::sort(opts.thread_counts.begin(), opts.thread_counts.end());
  MCRDL_REQUIRE(opts.thread_counts.front() <= 1,
                "scale needs the serial engine (threads<=1) as the baseline");

  // One fixed workload for every engine: the DS-MoE model under the mixed
  // plan, which exercises both backends without the (serial) tuning-suite
  // preamble the tuned plan would need.
  const models::CommPlan plan = models::CommPlan::mcr_dl_mixed();

  BenchReport report;
  report.experiment = "scale";
  for (int threads : opts.thread_counts) {
    BenchSeries series;
    series.name = threads <= 1 ? "serial" : "threads" + std::to_string(threads);
    series.backend =
        sim::execution_model_name(sim::ExecutionConfig::from_threads(threads).kind);
    report.series.push_back(std::move(series));
  }
  BenchSeries speedup;
  speedup.name = "speedup";
  speedup.backend = "derived";

  // Wall-clock numbers are only meaningful relative to the host they were
  // taken on, so the report carries the core count the OS exposed: on a
  // single-core machine the expected speedup is ~1.0 (the run degenerates
  // into an engine-overhead comparison), and the >1 readings need at least
  // as many cores as shards.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  BenchSeries host;
  host.name = "host-cores";
  host.backend = "meta";
  {
    BenchPoint p;
    p.world = 0;
    p.bytes = cores;
    p.items_per_s = static_cast<double>(cores);
    host.points.push_back(p);
  }
  report.series.push_back(std::move(host));

  for (int gpus : opts.scales) {
    MCRDL_REQUIRE(gpus % 4 == 0, "scale runs DS-MoE on Lassen (4 GPUs per node)");
    const net::SystemConfig sys = net::SystemConfig::lassen(gpus / 4);
    models::TrainingHarness harness(sys);
    const models::DSMoEModel model(models::DSMoEConfig{}, sys);

    double serial_wall_s = 0.0;
    double last_wall_s = 0.0;
    double reference_step_us = -1.0;
    for (std::size_t i = 0; i < opts.thread_counts.size(); ++i) {
      const int threads = opts.thread_counts[i];
      models::HarnessOptions hopts;
      hopts.warmup_steps = opts.warmup_steps;
      hopts.measured_steps = opts.measured_steps;
      hopts.execution = sim::ExecutionConfig::from_threads(threads);

      const auto wall_start = std::chrono::steady_clock::now();
      const models::RunResult result =
          harness.run(model, plan, models::FrameworkModel::raw(), hopts);
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
              .count();

      // The engines must agree on virtual time exactly — the traces are
      // byte-identical, so the derived step time is too. Any drift here is
      // a determinism bug, not measurement noise.
      if (reference_step_us < 0.0) {
        reference_step_us = result.step_time_us;
      } else {
        MCRDL_REQUIRE(result.step_time_us == reference_step_us,
                      "execution engines disagree on virtual step time");
      }
      if (threads <= 1) serial_wall_s = wall_s;
      last_wall_s = wall_s;

      BenchPoint p;
      p.world = gpus;
      p.bytes = static_cast<std::size_t>(std::max(threads, 1));  // thread count
      p.virtual_us = result.step_time_us;
      p.items_per_s = wall_s > 0.0 ? opts.measured_steps / wall_s : 0.0;
      report.series[i].points.push_back(p);
    }

    BenchPoint ratio;
    ratio.world = gpus;
    ratio.bytes = static_cast<std::size_t>(opts.thread_counts.back());
    ratio.virtual_us = reference_step_us;
    ratio.items_per_s = last_wall_s > 0.0 ? serial_wall_s / last_wall_s : 0.0;
    speedup.points.push_back(ratio);
  }
  report.series.push_back(std::move(speedup));
  return report;
}

// --- online adaptation ------------------------------------------------------

namespace {

// One blocking all_reduce loop through the full facade; returns rank 0's
// per-step durations. `mutate_options` tweaks the McrDlOptions (fault plan,
// online tuner); `after_run` sees the McrDl before finalize (tuner counters).
std::vector<double> run_auto_loop(const net::SystemConfig& sys, const AdaptOptions& opts,
                                  const std::vector<std::string>& backends,
                                  const std::string& backend_string, const TuningTable* table,
                                  const std::function<void(McrDlOptions&)>& mutate_options,
                                  const std::function<void(McrDl&)>& after_run) {
  ClusterContext cluster(sys);
  McrDlOptions mopts;
  if (mutate_options) mutate_options(mopts);
  McrDl mcr(&cluster, mopts);
  mcr.init(backends);
  if (table != nullptr) mcr.set_tuning_table(*table);
  std::vector<double> step_us(static_cast<std::size_t>(opts.steps), 0.0);
  const std::int64_t numel =
      std::max<std::int64_t>(static_cast<std::int64_t>(opts.bytes / 4), 1);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    for (int s = 0; s < opts.steps; ++s) {
      const SimTime start = cluster.scheduler().now();
      Tensor t = Tensor::phantom({numel}, DType::F32, dev);
      api.all_reduce(backend_string, t, ReduceOp::Sum, /*async_op=*/false);
      api.synchronize();
      if (rank == 0) step_us[static_cast<std::size_t>(s)] = cluster.scheduler().now() - start;
    }
  });
  if (after_run) after_run(mcr);
  mcr.finalize();
  return step_us;
}

double median_of(std::vector<double> v) {
  MCRDL_REQUIRE(!v.empty(), "median of an empty window");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median step time of the run's final window — robust to the occasional
// re-probe of the quarantined backend, which is exploration cost rather
// than steady-state routing.
double last_window_median(const std::vector<double>& steps, int window) {
  const std::size_t w = static_cast<std::size_t>(window);
  return median_of(std::vector<double>(steps.end() - static_cast<std::ptrdiff_t>(w), steps.end()));
}

BenchSeries windowed_series(const std::string& name, const std::string& backend,
                            const std::vector<double>& steps, const AdaptOptions& opts) {
  BenchSeries series;
  series.name = name;
  series.backend = backend;
  for (int s = 0; s + opts.window <= static_cast<int>(steps.size()); s += opts.window) {
    double sum = 0.0;
    for (int i = s; i < s + opts.window; ++i) sum += steps[static_cast<std::size_t>(i)];
    BenchPoint p;
    p.world = opts.world;
    p.bytes = static_cast<std::size_t>(s);  // window start step — the time axis
    p.virtual_us = sum / opts.window;
    p.items_per_s = p.virtual_us > 0.0 ? 1e6 / p.virtual_us : 0.0;
    series.points.push_back(p);
  }
  return series;
}

}  // namespace

AdaptReport run_adapt(const AdaptOptions& options) {
  AdaptOptions opts = options;
  if (opts.quick) {
    opts.steps = 96;
    opts.window = 12;
  }
  MCRDL_REQUIRE(opts.world % 4 == 0, "adapt runs on Lassen (4 GPUs per node)");
  MCRDL_REQUIRE(opts.steps >= 3 * opts.window, "adapt needs >= 3 windows of steps");
  const net::SystemConfig sys = net::SystemConfig::lassen(opts.world / 4);
  const std::vector<std::string> backends = {"nccl", "mv2-gdr"};

  // Calibrate: a short clean loop per backend finds the static winner (the
  // backend to degrade) and the best undegraded alternative.
  AdaptOptions calib = opts;
  calib.steps = 8;
  std::map<std::string, double> calib_us;
  for (const auto& name : backends) {
    calib_us[name] = median_of(
        run_auto_loop(sys, calib, backends, name, nullptr, nullptr, nullptr));
  }
  std::string winner = backends.front();
  for (const auto& name : backends) {
    if (calib_us[name] < calib_us[winner]) winner = name;
  }
  std::string alt = backends.front() == winner ? backends[1] : backends.front();
  for (const auto& name : backends) {
    if (name != winner && calib_us[name] < calib_us[alt]) alt = name;
  }

  // The static table the paper's workflow would have produced: the winner at
  // this grid point. It doubles as the online tuner's prior.
  TuningTable table;
  table.set(OpType::AllReduce, opts.world, tune::OnlineTuner::bucket(opts.bytes), winner);

  // Degrade the winner's links after the first third of the run (paced by
  // its own calibrated step time, so the instant scales with the grid).
  const double degrade_from_us = calib_us[winner] * (opts.steps / 3.0);
  const auto degraded = [&](McrDlOptions& m) {
    m.fault.enabled = true;
    m.fault.plan.specs.push_back(fault::FaultSpec::degrade_links(
        winner, opts.degrade_factor, fault::LinkScope::All, degrade_from_us));
  };

  AdaptReport report;
  report.degraded_backend = winner;
  report.adapted_backend = alt;
  report.degrade_from_us = degrade_from_us;
  report.bench.experiment = "adapt";

  const std::vector<double> static_steps =
      run_auto_loop(sys, opts, backends, "auto", &table, degraded, nullptr);
  const std::vector<double> online_steps = run_auto_loop(
      sys, opts, backends, "auto", &table,
      [&](McrDlOptions& m) {
        degraded(m);
        m.online_tuning.enabled = true;
        m.online_tuning.seed = opts.seed;
      },
      [&](McrDl& mcr) {
        const tune::OnlineTuner* tuner = mcr.online_tuner();
        report.switches = tuner->switches();
        report.quarantines = tuner->quarantines();
        report.learned_table = mcr.online_tuner()->to_table().serialize();
      });
  const std::vector<double> alt_steps =
      run_auto_loop(sys, opts, backends, alt, nullptr, nullptr, nullptr);

  report.bench.series.push_back(windowed_series("static", "auto", static_steps, opts));
  report.bench.series.push_back(windowed_series("online", "auto", online_steps, opts));
  report.bench.series.push_back(windowed_series("alt-best", alt, alt_steps, opts));
  report.static_post_us = last_window_median(static_steps, opts.window);
  report.online_post_us = last_window_median(online_steps, opts.window);
  report.alt_best_us = last_window_median(alt_steps, opts.window);
  return report;
}

// --- resilience -------------------------------------------------------------

namespace {

struct ResilienceRun {
  std::vector<double> step_us;      // rank 0 durations, phase one then two
  std::vector<double> done_at_us;   // rank 0 completion instants, same order
  std::vector<int> alive_at_done;   // ranks alive at each completion
  std::size_t phase_two_begin = 0;  // index of phase two's first step
  fault::ResilienceReport report;
  int alive = 0;                    // ranks alive at the end of the run
};

// The shared two-phase loop under fault plan `specs`: phase one runs until
// the step count or the rank's loss, every rank parks until `wake_at`, and
// phase two runs over whatever is alive. The shrink-only run simply omits
// the rank_rejoin spec, so the casualty stays dead through phase two and the
// two runs differ in nothing but the grow.
ResilienceRun run_resilience_loop(const ResilienceOptions& opts,
                                  std::vector<fault::FaultSpec> specs, SimTime wake_at) {
  const net::SystemConfig sys = net::SystemConfig::lassen(opts.world / 4);
  ClusterContext cluster(sys);
  McrDlOptions mopts;
  mopts.fault.enabled = true;
  mopts.fault.plan.specs = std::move(specs);
  McrDl mcr(&cluster, mopts);
  mcr.init({"nccl", "mv2-gdr"});

  ResilienceRun out;
  const auto alive = [&] {
    int n = 0;
    for (int r = 0; r < opts.world; ++r) n += cluster.faults().rank_lost(r) ? 0 : 1;
    return n;
  };
  const std::int64_t numel =
      std::max<std::int64_t>(static_cast<std::int64_t>(opts.bytes / 4), 1);
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    const auto one_step = [&] {
      const SimTime start = cluster.scheduler().now();
      Tensor t = Tensor::phantom({numel}, DType::F32, dev);
      api.all_reduce("nccl", t, ReduceOp::Sum, /*async_op=*/false);
      api.synchronize("nccl");
      if (rank == 0) {
        out.step_us.push_back(cluster.scheduler().now() - start);
        out.done_at_us.push_back(cluster.scheduler().now());
        out.alive_at_done.push_back(alive());
      }
      if (opts.interval_us > 0.0) cluster.scheduler().sleep_for(opts.interval_us);
    };
    for (int s = 0; s < opts.steps; ++s) {
      if (cluster.faults().rank_lost(rank)) break;
      try {
        one_step();
      } catch (const RankLostError&) {
        break;  // the casualty itself; survivors get the op replayed
      }
    }
    if (rank == 0) out.phase_two_begin = out.step_us.size();
    // Virtual-time barrier past the rejoin instant, so the grow event (when
    // planned) fires into an idle cluster in both runs alike.
    if (cluster.scheduler().now() < wake_at) {
      cluster.scheduler().sleep_for(wake_at - cluster.scheduler().now());
    }
    for (int s = 0; s < opts.steps; ++s) {
      if (cluster.faults().rank_lost(rank)) break;
      one_step();
    }
  });
  out.report = mcr.failover()->report();
  out.alive = alive();
  mcr.finalize();
  return out;
}

BenchSeries resilience_step_series(const std::string& name, const ResilienceRun& run) {
  BenchSeries series;
  series.name = name;
  series.backend = "nccl";
  for (std::size_t s = 0; s < run.step_us.size(); ++s) {
    BenchPoint p;
    p.world = run.alive_at_done[s];
    p.bytes = s;  // step index — the time axis
    p.virtual_us = run.step_us[s];
    p.items_per_s = p.virtual_us > 0.0 ? 1e6 / p.virtual_us : 0.0;
    series.points.push_back(p);
  }
  return series;
}

// Latency from `event_us` to the first collective completed after it.
double recovery_latency_us(const ResilienceRun& run, SimTime event_us) {
  for (double done : run.done_at_us) {
    if (done > event_us) return done - event_us;
  }
  return 0.0;
}

// Post-recovery throughput in rank-steps/s: how much aggregate work the
// cluster completes per second once it has settled after the event.
double post_throughput(const ResilienceRun& run, int alive) {
  std::vector<double> phase_two(run.step_us.begin() +
                                    static_cast<std::ptrdiff_t>(run.phase_two_begin),
                                run.step_us.end());
  if (phase_two.empty()) return 0.0;
  const double med = median_of(std::move(phase_two));
  return med > 0.0 ? static_cast<double>(alive) * 1e6 / med : 0.0;
}

}  // namespace

ResilienceBenchReport run_resilience(const ResilienceOptions& options) {
  ResilienceOptions opts = options;
  if (opts.quick) opts.steps = 6;
  MCRDL_REQUIRE(opts.world % 4 == 0, "resilience runs on Lassen (4 GPUs per node)");
  MCRDL_REQUIRE(opts.world >= 2, "resilience needs a survivor");
  MCRDL_REQUIRE(opts.lost_rank >= 0 && opts.lost_rank < opts.world,
                "lost rank out of range");
  MCRDL_REQUIRE(opts.steps >= 2, "resilience needs at least two steps per phase");
  MCRDL_REQUIRE(opts.interval_us > 0.0, "resilience places the loss in the gap between steps");

  // The loss is placed from a measured step boundary of a clean run: the
  // casualty falls silent halfway through the idle gap before step steps/2
  // (its last op done, the next not yet posted) and is declared lost two
  // intervals later. The survivors post that step and park on the silent
  // casualty until the loss, so the step's measured window holds the whole
  // wait whatever a clean step costs. The rejoin lands far enough past the
  // loss that the survivors have certainly finished phase one (virtual
  // time is free).
  const ResilienceRun clean = run_resilience_loop(opts, {}, 0.0);
  const std::size_t loss_step = static_cast<std::size_t>(opts.steps / 2);
  const SimTime silent_from = clean.done_at_us[loss_step - 1] + 0.5 * opts.interval_us;
  const SimTime loss_at = silent_from + 2.0 * opts.interval_us;
  const SimTime rejoin_at = loss_at + 100.0 * opts.steps * (opts.interval_us + 1000.0);
  const std::vector<fault::FaultSpec> loss = {
      fault::FaultSpec::straggler(opts.lost_rank, 10.0 * loss_at + 1000.0, silent_from, loss_at),
      fault::FaultSpec::lose_rank(opts.lost_rank, loss_at)};
  std::vector<fault::FaultSpec> loss_and_rejoin = loss;
  loss_and_rejoin.push_back(fault::FaultSpec::rejoin_rank(opts.lost_rank, rejoin_at));
  const SimTime wake_at = rejoin_at + opts.interval_us + 1.0;

  const ResilienceRun shrink = run_resilience_loop(opts, loss, wake_at);
  const ResilienceRun rejoin = run_resilience_loop(opts, loss_and_rejoin, wake_at);
  MCRDL_REQUIRE(shrink.alive == opts.world - 1, "shrink run did not lose exactly one rank");
  MCRDL_REQUIRE(rejoin.alive == opts.world, "rejoin run did not restore the full world");

  ResilienceBenchReport report;
  report.bench.experiment = "resilience";
  report.loss_at_us = loss_at;
  report.rejoin_at_us = rejoin_at;
  report.shrink_report = shrink.report;
  report.rejoin_report = rejoin.report;
  report.shrink_recovery_us = recovery_latency_us(shrink, loss_at);
  report.rejoin_recovery_us = recovery_latency_us(rejoin, rejoin_at);
  report.shrink_post_rank_steps_per_s = post_throughput(shrink, shrink.alive);
  report.rejoin_post_rank_steps_per_s = post_throughput(rejoin, rejoin.alive);

  report.bench.series.push_back(resilience_step_series("steps/shrink", shrink));
  report.bench.series.push_back(resilience_step_series("steps/rejoin", rejoin));
  BenchSeries shrink_summary;
  shrink_summary.name = "recovery/shrink";
  shrink_summary.backend = "nccl";
  shrink_summary.points.push_back(
      point(shrink.alive, 0, report.shrink_recovery_us, report.shrink_post_rank_steps_per_s));
  report.bench.series.push_back(std::move(shrink_summary));
  BenchSeries rejoin_summary;
  rejoin_summary.name = "recovery/rejoin";
  rejoin_summary.backend = "nccl";
  rejoin_summary.points.push_back(
      point(rejoin.alive, 0, report.rejoin_recovery_us, report.rejoin_post_rank_steps_per_s));
  report.bench.series.push_back(std::move(rejoin_summary));
  return report;
}

// --- hotpath ----------------------------------------------------------------

namespace {

struct HotpathRun {
  double wall_s = 0.0;      // host clock around the dispatch loop
  double virtual_us = 0.0;  // final virtual instant of the run
};

// One dispatch loop: every rank issues `ops_per_rank` async small
// all_reduces, draining its stream every `sync_every` ops. The workload
// (tensor construction, issue cadence) is identical across modes so the
// wall-clock delta isolates bucketing.
HotpathRun run_hotpath_loop(const HotpathOptions& opts, std::size_t bytes, bool bucketed) {
  ClusterContext cluster(net::SystemConfig::lassen(opts.world / 4));
  McrDlOptions mopts;
  if (bucketed) {
    mopts.fusion.enabled = true;
    mopts.fusion.buffer_bytes = 64u << 10;  // coalesce a sync_every window
    mopts.fusion.flush_timeout_us = 50.0;
    mopts.fusion.max_tensor_bytes = 16u << 10;
  }
  McrDl mcr(&cluster, mopts);
  mcr.init({"nccl"});
  const int elems = static_cast<int>(std::max<std::size_t>(1, bytes / 4));

  const auto wall_start = std::chrono::steady_clock::now();
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    // Phantom payloads, like every other driver here: the experiment measures
    // the dispatch machinery, and materialized data would bill both modes the
    // same simulated elementwise math. One tensor per in-flight slot, reused
    // every window once the stream is drained — no allocator traffic either.
    std::vector<Tensor> grads;
    grads.reserve(static_cast<std::size_t>(opts.sync_every));
    for (int i = 0; i < opts.sync_every; ++i) {
      grads.push_back(Tensor::phantom({elems}, DType::F32, dev));
    }
    for (int i = 0; i < opts.ops_per_rank; ++i) {
      api.all_reduce("nccl", grads[static_cast<std::size_t>(i % opts.sync_every)],
                     ReduceOp::Sum, true);
      if ((i + 1) % opts.sync_every == 0) api.synchronize();
    }
    api.synchronize();
  });
  HotpathRun run;
  run.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  run.virtual_us = cluster.scheduler().now();
  return run;
}

}  // namespace

BenchReport run_hotpath(const HotpathOptions& options) {
  HotpathOptions opts = options;
  if (opts.sizes.empty()) opts.sizes = {256, 1024, 4096};
  if (opts.quick) {
    opts.sizes = {256, 1024};
    opts.ops_per_rank = 256;
  }
  MCRDL_REQUIRE(opts.world % 4 == 0, "hotpath runs on Lassen (4 GPUs per node)");
  MCRDL_REQUIRE(opts.ops_per_rank % opts.sync_every == 0,
                "ops_per_rank must be a multiple of sync_every");

  struct Mode {
    const char* name;
    bool bucketed;
  };
  const Mode modes[] = {{"dispatch/unbucketed", false}, {"dispatch/bucketed", true}};

  BenchReport report;
  report.experiment = "hotpath";
  for (const Mode& mode : modes) {
    BenchSeries series;
    series.name = mode.name;
    series.backend = "nccl";
    report.series.push_back(std::move(series));
  }
  BenchSeries speedup;
  speedup.name = "speedup";
  speedup.backend = "derived";

  const double total_ops = static_cast<double>(opts.ops_per_rank) * opts.world;
  for (std::size_t bytes : opts.sizes) {
    double ops_per_s[2] = {0.0, 0.0};
    double unbucketed_virtual_us = 0.0;
    for (std::size_t m = 0; m < 2; ++m) {
      const HotpathRun run = run_hotpath_loop(opts, bytes, modes[m].bucketed);
      if (!modes[m].bucketed) unbucketed_virtual_us = run.virtual_us;
      ops_per_s[m] = run.wall_s > 0.0 ? total_ops / run.wall_s : 0.0;

      BenchPoint p;
      p.world = opts.world;
      p.bytes = bytes;
      p.virtual_us = run.virtual_us;
      p.items_per_s = ops_per_s[m];
      report.series[m].points.push_back(p);
    }
    BenchPoint ratio;
    ratio.world = opts.world;
    ratio.bytes = bytes;
    ratio.virtual_us = unbucketed_virtual_us;
    ratio.items_per_s = ops_per_s[0] > 0.0 ? ops_per_s[1] / ops_per_s[0] : 0.0;
    speedup.points.push_back(ratio);
  }
  report.series.push_back(std::move(speedup));
  return report;
}

// --- hier -------------------------------------------------------------------

namespace {

// The two levels of a "hier:<intra>+<inter>" string (or the backend itself
// for a flat algorithm) — the engines a hier run must bring up.
std::vector<std::string> hier_engines(std::initializer_list<std::string> algos) {
  std::vector<std::string> engines;
  auto add = [&engines](const std::string& b) {
    if (std::find(engines.begin(), engines.end(), b) == engines.end()) engines.push_back(b);
  };
  for (const std::string& algo : algos) {
    if (std::optional<coll::CompositeSpec> spec = coll::parse(algo)) {
      add(spec->intra);
      if (!spec->inter.empty()) add(spec->inter);
    } else {
      add(algo);
    }
  }
  return engines;
}

// One synchronous allreduce on `algo`, averaged over `iterations` in virtual
// time. Fresh cluster per configuration so the runs are independent. The
// synchronize before the closing barrier matters: stream-backend allreduces
// return once enqueued, so without a drain a flat nccl loop measures zero.
double hier_allreduce_us(const HierOptions& opts, const std::string& algo, int nodes,
                         std::size_t bytes, bool overlap) {
  ClusterContext cluster(net::SystemConfig::lassen(nodes));
  McrDlOptions mopts;
  mopts.coll.enabled = true;
  mopts.coll.overlap = overlap;
  McrDl mcr(&cluster, mopts);
  mcr.init(hier_engines({opts.flat_backend, algo}));
  const std::int64_t elems = static_cast<std::int64_t>(std::max<std::size_t>(1, bytes / 4));

  double elapsed_us = 0.0;
  SimTime start = 0.0;
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    for (int i = 0; i < opts.warmup; ++i) {
      api.all_reduce(algo, Tensor::phantom({elems}, DType::F32, dev));
    }
    api.synchronize();
    api.barrier(opts.flat_backend);
    if (rank == 0) start = cluster.scheduler().now();
    for (int i = 0; i < opts.iterations; ++i) {
      api.all_reduce(algo, Tensor::phantom({elems}, DType::F32, dev));
    }
    api.synchronize();
    api.barrier(opts.flat_backend);
    if (rank == 0) elapsed_us = (cluster.scheduler().now() - start) / opts.iterations;
  });
  return elapsed_us;
}

}  // namespace

BenchReport run_hier(const HierOptions& options) {
  HierOptions opts = options;
  if (opts.node_counts.empty()) opts.node_counts = {1, 2, 4};
  if (opts.sizes.empty()) {
    opts.sizes = {64u << 10, 256u << 10, 1u << 20, 4u << 20, 16u << 20, 64u << 20};
  }
  if (opts.model_worlds.empty()) opts.model_worlds = {8, 16};
  if (opts.quick) {
    opts.node_counts = {1, 2};
    opts.sizes = {256u << 10, 4u << 20, 16u << 20};
    opts.model_worlds = {8};
    opts.iterations = 1;
    opts.warmup = 0;
    opts.measured_steps = 1;
    opts.warmup_steps = 0;
  }
  const std::optional<coll::CompositeSpec> overlap_spec = coll::parse(opts.overlap_algo);
  MCRDL_REQUIRE(overlap_spec.has_value() && overlap_spec->algo == coll::CompositeAlgo::Hier,
                "HierOptions::overlap_algo must be a hier:<intra>+<inter> composite");

  BenchReport report;
  report.experiment = "hier";

  // Microbench sweep per node count: the flat incumbent, the same-runtime
  // composite (algorithm-only gain), and the mixed composite under the
  // overlap scheduler (algorithm + schedule).
  struct Variant {
    const char* tag;
    const std::string* algo;
    bool overlap;
  };
  const Variant variants[] = {{"flat", &opts.flat_backend, false},
                              {"hier", &opts.hier_algo, false},
                              {"hier+overlap", &opts.overlap_algo, true}};
  for (int nodes : opts.node_counts) {
    for (const Variant& v : variants) {
      BenchSeries series;
      series.name = std::string("all_reduce/") + v.tag + "/n" + std::to_string(nodes);
      series.backend = *v.algo;
      for (std::size_t bytes : opts.sizes) {
        BenchPoint p;
        p.world = nodes * 4;  // Lassen
        p.bytes = bytes;
        p.virtual_us = hier_allreduce_us(opts, *v.algo, nodes, bytes, v.overlap);
        series.points.push_back(p);
      }
      report.series.push_back(std::move(series));
    }
  }

  // Model sweep: 3D-CNN step time under the three plans. Both composite
  // variants run the identical mixed plan — the only delta between "hier"
  // and "hier+overlap" is the scheduler, so the model comparison isolates
  // what overlapping the levels is worth.
  struct PlanVariant {
    const char* tag;
    models::CommPlan plan;
    bool coll;
    bool overlap;
  };
  const PlanVariant plan_variants[] = {
      {"flat", models::CommPlan::pure(opts.flat_backend, "flat"), false, false},
      {"hier",
       models::CommPlan::hier_allreduce(opts.flat_backend, overlap_spec->intra,
                                        overlap_spec->inter, "hier"),
       true, false},
      {"hier+overlap",
       models::CommPlan::hier_allreduce(opts.flat_backend, overlap_spec->intra,
                                        overlap_spec->inter, "hier+overlap"),
       true, true}};

  std::vector<BenchSeries> model_series(3);
  for (std::size_t i = 0; i < 3; ++i) {
    model_series[i].name = std::string("cnn3d/") + plan_variants[i].tag;
    model_series[i].backend = plan_variants[i].coll ? opts.overlap_algo : opts.flat_backend;
  }
  for (int world : opts.model_worlds) {
    MCRDL_REQUIRE(world % 4 == 0, "hier model sweep runs on Lassen (4 GPUs per node)");
    net::SystemConfig sys = net::SystemConfig::lassen(world / 4);
    models::TrainingHarness harness(sys);
    models::Cnn3dModel model(models::Cnn3dConfig{}, sys);
    for (std::size_t i = 0; i < 3; ++i) {
      models::HarnessOptions hopts;
      hopts.warmup_steps = opts.warmup_steps;
      hopts.measured_steps = opts.measured_steps;
      hopts.mcr_options.coll.enabled = plan_variants[i].coll;
      hopts.mcr_options.coll.overlap = plan_variants[i].overlap;
      const models::RunResult result =
          harness.run(model, plan_variants[i].plan, models::FrameworkModel::raw(), hopts);
      BenchPoint p;
      p.world = world;
      p.bytes = 0;  // whole-step measurement
      p.virtual_us = result.step_time_us;
      p.items_per_s = result.throughput;
      model_series[i].points.push_back(p);
    }
  }
  for (auto& s : model_series) report.series.push_back(std::move(s));
  return report;
}

const std::vector<Experiment>& experiment_registry() {
  static const std::vector<Experiment> registry = {
      {"fig1", "computation vs communication and per-op breakdown (paper Figure 1)", run_fig1},
      {"fig2", "collective microbenchmark across backends (paper Figure 2)",
       [](const ExperimentOptions& o) {
         Fig2Options options;
         options.quick = o.quick;
         return run_fig2(options);
       }},
      {"table2", "all_gather tuning table, 64 Lassen GPUs (paper Table II)", run_table2},
      {"fig7", "framework overhead over OMB, MPI Alltoall (paper Figure 7)", run_fig7},
      {"fig8", "DS-MoE scaling across communication plans (paper Figure 8)",
       [](const ExperimentOptions& o) {
         ScalingOptions options;
         options.quick = o.quick;
         options.execution = sim::ExecutionConfig::from_threads(o.threads);
         return run_fig8(options);
       }},
      {"fig9", "DLRM scaling across communication plans (paper Figure 9)",
       [](const ExperimentOptions& o) {
         ScalingOptions options;
         options.quick = o.quick;
         options.execution = sim::ExecutionConfig::from_threads(o.threads);
         return run_fig9(options);
       }},
      {"fig10", "dense Megatron-DeepSpeed scaling, MV2-GDR vs SCCL vs mix (paper Figure 10)",
       run_fig10},
      {"fig11", "framework comparison on DS-MoE, 256 Lassen GPUs (paper Figure 11)", run_fig11},
      {"fig12", "communication-share reduction with MCR-DL (paper Figure 12)", run_fig12},
      {"ablation-sync", "naive host sync vs events, and the comm-stream pool (Section V-C)",
       run_ablation_sync},
      {"ablation-fusion", "fusion buffer size, flush timeout, cross-backend flush (Section V-E)",
       run_ablation_fusion},
      {"ablation-compression", "codec rate vs time vs reconstruction error (Section V-E)",
       run_ablation_compression},
      {"ablation-transfer", "tuning-table winners on Lassen vs ThetaGPU (Section V-F)",
       run_ablation_transfer},
      {"scale", "execution-engine wall-clock scaling, serial vs sharded (DESIGN.md §11)",
       [](const ExperimentOptions& o) {
         ScaleOptions options;
         options.quick = o.quick;
         if (o.threads > 1) options.thread_counts = {1, o.threads};
         return run_scale(options);
       }},
      {"adapt", "online tuner rerouting around a mid-run degrade (DESIGN.md §9)",
       [](const ExperimentOptions& o) {
         AdaptOptions options;
         options.quick = o.quick;
         return run_adapt(options).bench;
       }},
      {"serve", "multi-tenant trace replay, clean vs chaos latency (DESIGN.md §10)",
       [](const ExperimentOptions& o) {
         ServeExperimentOptions options;
         options.quick = o.quick;
         return run_serve(options).bench;
       }},
      {"resilience", "recovery latency and throughput, shrink-only vs grow-back (DESIGN.md §13)",
       [](const ExperimentOptions& o) {
         ResilienceOptions options;
         options.quick = o.quick;
         return run_resilience(options).bench;
       }},
      {"hotpath", "dispatch wall-clock throughput: unbucketed vs bucketed (DESIGN.md §14)",
       [](const ExperimentOptions& o) {
         HotpathOptions options;
         options.quick = o.quick;
         return run_hotpath(options);
       }},
      {"hier", "hierarchical composite allreduce vs flat, plus overlap (DESIGN.md §15)",
       [](const ExperimentOptions& o) {
         HierOptions options;
         options.quick = o.quick;
         return run_hier(options);
       }},
  };
  return registry;
}

const Experiment* find_experiment(const std::string& name) {
  for (const Experiment& experiment : experiment_registry()) {
    if (experiment.name == name) return &experiment;
  }
  return nullptr;
}

std::string experiment_names() {
  std::string names;
  for (const Experiment& experiment : experiment_registry()) {
    if (!names.empty()) names += "|";
    names += experiment.name;
  }
  return names;
}

}  // namespace mcrdl::bench
