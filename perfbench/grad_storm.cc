// grad-storm: data-parallel gradient traffic on Lassen, 2 nodes = 8 ranks,
// serial engine. Every rank issues the same seeded mix: log-uniform
// 256 B - 256 KiB async all_reduce calls on nccl plus about 1 in 8 broadcast
// calls on mv2-gdr, with bucketing on for AllReduce and Broadcast, and
// synchronises every 64 calls. Payloads are phantom in the timed rounds; an
// untimed materialised pass of the same mix is checked first.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "perfbench/runtime_stats.h"
#include "perfbench/workload.h"

namespace perfbench {
namespace {

using namespace mcrdl;

constexpr int kCallsPerWindow = 64;
constexpr std::size_t kMinBytes = 256;
constexpr std::size_t kMaxBytes = 256u << 10;

struct Call {
  OpType op = OpType::AllReduce;
  std::int64_t numel = 0;  // F32 elements
  int root = 0;            // broadcast only
};

std::vector<Call> make_mix(std::uint64_t seed, int calls, int world) {
  Rng rng = Rng(seed).split(0x67726164ull);
  const double span = std::log2(static_cast<double>(kMaxBytes) / kMinBytes);
  std::vector<Call> mix(calls);
  for (auto& c : mix) {
    const bool bcast = rng.next_below(8) == 0;
    c.op = bcast ? OpType::Broadcast : OpType::AllReduce;
    const double bytes = kMinBytes * std::exp2(span * rng.next_double());
    c.numel = std::max<std::int64_t>(1, static_cast<std::int64_t>(bytes) / 4);
    c.root = bcast ? static_cast<int>(rng.next_below(world)) : 0;
  }
  return mix;
}

McrDlOptions storm_options() {
  McrDlOptions o;
  o.logging_enabled = true;
  o.fusion.enabled = true;
  o.fusion.ops = {OpType::AllReduce, OpType::Broadcast};
  return o;
}

Work issue(Api& api, const Call& c, Tensor t) {
  if (c.op == OpType::Broadcast) return api.broadcast("mv2-gdr", std::move(t), c.root, true);
  return api.all_reduce("nccl", std::move(t), ReduceOp::Sum, true);
}

class GradStorm final : public Workload {
 public:
  explicit GradStorm(const Options& o)
      : windows_(o.trimmed ? 16 : 160),
        mix_(make_mix(o.seed, windows_ * kCallsPerWindow, kWorld)) {}

  void precheck(Result& result) override {
    // The first windows of the mix with materialised F32 payloads: rank r
    // contributes r + 1 + (call % 5) to call `call`, so an allreduce must
    // read the sum over ranks and a broadcast the root's value everywhere.
    ClusterContext cluster(net::SystemConfig::lassen(kWorld / 4));
    McrDl mcr(&cluster, storm_options());
    mcr.init({"nccl", "mv2-gdr"});
    const int calls = std::min<int>(kCheckWindows * kCallsPerWindow, mix_.size());
    std::vector<std::string> errors(kWorld);
    cluster.run_spmd([&](int rank) {
      Api api = mcr.on(rank);
      auto value = [](int r, int call) { return static_cast<float>(r + 1 + call % 5); };
      std::vector<Tensor> live;
      for (int i = 0; i < calls; ++i) {
        Tensor t = Tensor::full({mix_[i].numel}, DType::F32, value(rank, i), cluster.device(rank));
        live.push_back(t);
        issue(api, mix_[i], t);
        if ((i + 1) % kCallsPerWindow != 0 && i + 1 != calls) continue;
        api.synchronize();
        const int first = i + 1 - static_cast<int>(live.size());
        for (std::size_t k = 0; k < live.size() && errors[rank].empty(); ++k) {
          const int call = first + static_cast<int>(k);
          float want = 0.0f;
          if (mix_[call].op == OpType::Broadcast) {
            want = value(mix_[call].root, call);
          } else {
            for (int r = 0; r < kWorld; ++r) want += value(r, call);
          }
          std::vector<float> got(static_cast<std::size_t>(live[k].numel()));
          std::memcpy(got.data(), live[k].raw_data(), got.size() * sizeof(float));
          for (float g : got) {
            if (g != want) {
              errors[rank] = "call " + std::to_string(call) + " read " + std::to_string(g) +
                             ", want " + std::to_string(want);
              break;
            }
          }
        }
        live.clear();
      }
    });
    for (int r = 0; r < kWorld; ++r) {
      result.gate(errors[r].empty(), "grad-storm materialised pass, rank " + std::to_string(r) +
                                         ": " + errors[r]);
    }
  }

  void setup() override {
    build_runtime();
    tally_ = CommTally{};
    counters_ = BackendCounters{};
    window_us_.clear();
    rank0_elapsed_us_ = 0.0;
    round_elapsed_us_ = 0.0;
  }

  RoundStats round(int index, Result& result) override {
    const bool counted = index < virtual_rounds();
    // Each round is one SPMD program on a fresh runtime (round 0 uses the
    // one set-up built), so every round repeats the same virtual outcome.
    const Stopwatch rebuild;
    if (index > 0) build_runtime();
    const double untimed_s = rebuild.wall_s();
    const double untimed_cpu_s = rebuild.cpu_s();
    const BackendCounters before = BackendCounters::read(*cluster_);
    const std::uint64_t group = static_cast<std::uint64_t>(index) + 1;
    std::vector<SimTime> begin(kWorld), end(kWorld);
    std::vector<std::vector<double>> windows(kWorld);
    {
      Span spmd("sim.run_spmd", group);
      const std::uint64_t parent = spmd.id();
      cluster_->run_spmd([&](int rank) {
        Span actor("models.rank", group, parent);
        Api api = mcr_->on(rank);
        sim::Device* dev = cluster_->device(rank);
        begin[rank] = cluster_->scheduler().now();
        SimTime window_start = begin[rank];
        for (std::size_t i = 0; i < mix_.size(); ++i) {
          {
            Span span("core.call", group);
            issue(api, mix_[i], Tensor::phantom({mix_[i].numel}, DType::F32, dev));
          }
          if ((i + 1) % kCallsPerWindow == 0) {
            {
              Span span("sim.synchronize", group);
              api.synchronize();
            }
            const SimTime now = cluster_->scheduler().now();
            windows[rank].push_back(now - window_start);
            window_start = now;
          }
        }
        end[rank] = cluster_->scheduler().now();
      });
    }
    const std::uint64_t calls = static_cast<std::uint64_t>(kWorld) * mix_.size();
    const std::uint64_t logged = logged_ops(mcr_->logger(), kWorld);
    result.gate(logged == calls, "grad-storm logged " + std::to_string(logged) + " records for " +
                                     std::to_string(calls) + " calls");
    const SimTime round_end = *std::max_element(end.begin(), end.end());
    if (index == 0) first_round_end_ = round_end;
    result.gate(round_end == first_round_end_,
                "grad-storm round " + std::to_string(index) + " ended at a different virtual time");
    if (counted) {
      tally_.add(mcr_->logger());
      counters_ += BackendCounters::read(*cluster_) - before;
      for (const auto& w : windows) window_us_.insert(window_us_.end(), w.begin(), w.end());
      rank0_elapsed_us_ += end[0] - begin[0];
      round_elapsed_us_ += round_end - begin[0];
    }
    mcr_->logger().clear();
    RoundStats s;
    s.ops = calls;
    s.units = static_cast<std::uint64_t>(kWorld) * windows_;
    s.untimed_s = untimed_s;
    s.untimed_cpu_s = untimed_cpu_s;
    return s;
  }

  std::map<std::string, Metric> virtual_metrics() const override {
    const double calls = static_cast<double>(virtual_rounds()) * kWorld * mix_.size();
    return {
        {"virtual_samples_per_s", {calls / (round_elapsed_us_ / kSecond), "1/s"}},
        {"virtual_op_us_p50", {percentile(tally_.op_us, 50), "us"}},
        {"virtual_op_us_p99", {percentile(tally_.op_us, 99), "us"}},
        {"job_latency_us_p50", {percentile(window_us_, 50), "us"}},
        {"job_latency_us_p99", {percentile(window_us_, 99), "us"}},
    };
  }

  std::map<std::string, Metric> layer_metrics() const override {
    std::map<std::string, Metric> m;
    const double calls = static_cast<double>(virtual_rounds()) * kWorld * mix_.size();
    backend_layer_metrics(m, tally_, counters_, static_cast<double>(virtual_rounds()) * windows_,
                          calls, rank0_elapsed_us_);
    zero_layer_metrics(m);
    return m;
  }

  std::map<std::string, std::string> sizes() const override {
    std::size_t bcast = 0, bucketed = 0;
    for (const auto& c : mix_) {
      bcast += c.op == OpType::Broadcast ? 1 : 0;
      bucketed += static_cast<std::size_t>(c.numel) * 4 <= (64u << 10) ? 1 : 0;
    }
    return {{"ranks", std::to_string(kWorld)},
            {"calls_per_rank_per_round", std::to_string(mix_.size())},
            {"windows_per_rank_per_round", std::to_string(windows_)},
            {"broadcast_calls_per_rank", std::to_string(bcast)},
            {"bucketable_calls_per_rank", std::to_string(bucketed)},
            {"precheck_calls_per_rank",
             std::to_string(std::min<std::size_t>(kCheckWindows * kCallsPerWindow, mix_.size()))},
            {"samples.virtual_op_us", std::to_string(tally_.op_us.size())},
            {"samples.job_latency_us", std::to_string(window_us_.size())}};
  }

  std::string engine() const override { return sim::ExecutionConfig::serial().describe(); }

 private:
  static constexpr int kWorld = 8;
  static constexpr int kCheckWindows = 4;

  void build_runtime() {
    mcr_.reset();
    cluster_.reset();
    {
      Span span("sim.cluster_build");
      cluster_ = std::make_unique<ClusterContext>(net::SystemConfig::lassen(kWorld / 4));
    }
    mcr_ = std::make_unique<McrDl>(cluster_.get(), storm_options());
    Span span("core.init");
    mcr_->init({"nccl", "mv2-gdr"});
  }

  const int windows_;
  const std::vector<Call> mix_;
  std::unique_ptr<ClusterContext> cluster_;
  std::unique_ptr<McrDl> mcr_;
  CommTally tally_;
  BackendCounters counters_;
  std::vector<double> window_us_;
  double rank0_elapsed_us_ = 0.0;
  double round_elapsed_us_ = 0.0;
  SimTime first_round_end_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_grad_storm(const Options& options) {
  return std::make_unique<GradStorm>(options);
}

}  // namespace perfbench
