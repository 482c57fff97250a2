// moe-256: DS-MoE training (default DSMoEConfig, phantom F16 tensors) on
// Lassen, 64 nodes x 4 GPUs, under the MCR-DL-T plan on the ParallelShards
// engine. Closed loop, step after step. The seed only moves the GPUs'
// achieved throughput and the NIC bandwidth within +-0.5% (seeded_lassen).
#include <algorithm>
#include <thread>

#include "perfbench/runtime_stats.h"
#include "perfbench/workload.h"
#include "src/models/moe.h"

namespace perfbench {
namespace {

using namespace mcrdl;

class Moe256 final : public Workload {
 public:
  explicit Moe256(const Options& o)
      : nodes_(o.trimmed ? 4 : 64),
        sys_(seeded_lassen(nodes_, o.seed)),
        workers_(std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4)),
        plan_(models::CommPlan::mcr_dl_tuned()),
        framework_(models::FrameworkModel::raw()) {}

  void setup() override {
    // The static table fig8 builds for MCR-DL-T at this scale.
    TuningConfig tcfg;
    tcfg.backends = {"nccl", "mv2-gdr"};
    tcfg.ops = {OpType::AllReduce, OpType::AllToAllSingle, OpType::Barrier};
    tcfg.sizes = {64u << 10, 1u << 20, 4u << 20, 16u << 20, 32u << 20};
    tcfg.world_sizes = {sys_.world_size()};
    tcfg.iterations = 1;
    const double t0 = host_now_s();
    {
      Span span("tune.generate");
      TuningSuite suite(sys_);
      table_ = suite.generate(tcfg);
    }
    table_gen_s_ = host_now_s() - t0;
    build_runtime();
    model_ = std::make_unique<models::DSMoEModel>(models::DSMoEConfig{}, sys_);
    tally_ = CommTally{};
    counters_ = BackendCounters{};
    step_us_.clear();
    rank0_elapsed_us_ = 0.0;
    round_elapsed_us_ = 0.0;
  }

  RoundStats round(int index, Result& result) override {
    // A cluster runs one SPMD program, so every round after the first
    // rebuilds the runtime (outside the round's host time) and repeats the
    // same virtual outcome.
    const Stopwatch rebuild;
    if (index > 0) build_runtime();
    const double untimed_s = rebuild.wall_s();
    const double untimed_cpu_s = rebuild.cpu_s();
    const int world = cluster_->world_size();
    const bool counted = index < virtual_rounds();
    const BackendCounters before = BackendCounters::read(*cluster_);
    std::vector<SimTime> begin(world), end(world);
    std::vector<std::vector<double>> steps(world);
    const std::uint64_t group = static_cast<std::uint64_t>(index) + 1;
    {
      Span spmd("sim.run_spmd", group);
      const std::uint64_t parent = spmd.id();
      cluster_->run_spmd([&](int rank) {
        Span actor("models.rank", group, parent);
        models::CommIssuer comm(mcr_->on(rank), plan_, framework_);
        begin[rank] = cluster_->scheduler().now();
        SimTime step_start = begin[rank];
        for (int step = 0; step < kStepsPerRound; ++step) {
          {
            Span span("models.run_steps", group);
            model_->run_steps(comm, rank, 1);
          }
          {
            Span span("sim.synchronize", group);
            comm.synchronize();
          }
          const SimTime now = cluster_->scheduler().now();
          steps[rank].push_back(now - step_start);
          step_start = now;
        }
        end[rank] = step_start;
      });
    }
    std::string why;
    result.gate(ranks_agree(mcr_->logger(), world, &why), "moe-256 ranks disagree: " + why);
    const std::uint64_t ops = logged_ops(mcr_->logger(), world);
    const SimTime round_end = *std::max_element(end.begin(), end.end());
    if (index == 0) first_round_end_ = round_end;
    result.gate(round_end == first_round_end_,
                "moe-256 round " + std::to_string(index) + " ended at a different virtual time");
    if (counted) {
      tally_.add(mcr_->logger());
      counters_ += BackendCounters::read(*cluster_) - before;
      for (const auto& s : steps) step_us_.insert(step_us_.end(), s.begin(), s.end());
      rank0_elapsed_us_ += end[0] - begin[0];
      round_elapsed_us_ += round_end - begin[0];
    }
    mcr_->logger().clear();
    RoundStats s;
    s.ops = ops;
    s.units = kStepsPerRound;
    s.untimed_s = untimed_s;
    s.untimed_cpu_s = untimed_cpu_s;
    return s;
  }

  std::map<std::string, Metric> virtual_metrics() const override {
    const double steps = static_cast<double>(virtual_rounds() * kStepsPerRound);
    const double samples = model_->samples_per_step(cluster_->world_size()) * steps;
    return {
        {"virtual_samples_per_s", {samples / (round_elapsed_us_ / kSecond), "1/s"}},
        {"virtual_op_us_p50", {percentile(tally_.op_us, 50), "us"}},
        {"virtual_op_us_p99", {percentile(tally_.op_us, 99), "us"}},
        {"job_latency_us_p50", {percentile(step_us_, 50), "us"}},
        {"job_latency_us_p99", {percentile(step_us_, 99), "us"}},
    };
  }

  std::map<std::string, Metric> layer_metrics() const override {
    std::map<std::string, Metric> m;
    const double steps = static_cast<double>(virtual_rounds() * kStepsPerRound);
    backend_layer_metrics(m, tally_, counters_, steps, static_cast<double>(tally_.records),
                          rank0_elapsed_us_);
    zero_layer_metrics(m);
    return m;
  }

  std::map<std::string, std::string> sizes() const override {
    return {{"ranks", std::to_string(nodes_ * 4)},
            {"steps_per_round", std::to_string(kStepsPerRound)},
            {"counted_rounds", std::to_string(virtual_rounds())},
            {"samples.virtual_op_us", std::to_string(tally_.op_us.size())},
            {"samples.job_latency_us", std::to_string(step_us_.size())},
            {"plan", plan_.name}};
  }

  // Two rounds give 1024 per-rank step samples, ten beyond the p99.
  int virtual_rounds() const override { return 2; }
  double table_gen_s() const override { return table_gen_s_; }
  std::string engine() const override {
    return sim::ExecutionConfig::parallel(workers_).describe();
  }

 private:
  static constexpr int kStepsPerRound = 2;

  void build_runtime() {
    mcr_.reset();
    cluster_.reset();
    {
      Span span("sim.cluster_build");
      cluster_ = std::make_unique<ClusterContext>(sys_, sim::ExecutionConfig::parallel(workers_));
    }
    McrDlOptions opts;
    opts.logging_enabled = true;
    mcr_ = std::make_unique<McrDl>(cluster_.get(), opts);
    {
      Span span("core.init");
      mcr_->init(plan_.backends_needed(available_backend_names()));
    }
    mcr_->set_tuning_table(table_);
  }

  const int nodes_;
  const net::SystemConfig sys_;
  const int workers_;
  const models::CommPlan plan_;
  const models::FrameworkModel framework_;
  std::unique_ptr<ClusterContext> cluster_;
  std::unique_ptr<McrDl> mcr_;
  std::unique_ptr<models::DSMoEModel> model_;
  TuningTable table_;
  double table_gen_s_ = 0.0;
  CommTally tally_;
  BackendCounters counters_;
  std::vector<double> step_us_;
  double rank0_elapsed_us_ = 0.0;
  double round_elapsed_us_ = 0.0;
  SimTime first_round_end_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_moe_256(const Options& options) {
  return std::make_unique<Moe256>(options);
}

}  // namespace perfbench
