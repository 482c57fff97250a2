// chaos-payload: Lassen, 2 nodes = 8 ranks, serial engine, materialised F32
// tensors of 256 KiB - 4 MiB. Allreduces mix three routes - "auto" through
// the online tuner with composite arms, explicit "hier:nccl+mv2-gdr" and
// explicit "rsag" - under a seeded fault plan: transient faults at p = 0.05
// on plain nccl allreduces, with retry and failover. Every result is checked
// against a host reference sum.
//
// The faults spare composite legs and there is no straggler rank, because of
// runtime defects that would fail the run: transient faults on every nccl op
// deadlock an rsag allreduce in virtual time (seed 601, sixth round, online
// tuner on or off), and a straggler (rank 5, 200 us) with those faults
// deadlocks a hier one (seed 507, fourth round).
#include <algorithm>
#include <cmath>
#include <cstring>

#include "perfbench/runtime_stats.h"
#include "perfbench/workload.h"

namespace perfbench {
namespace {

using namespace mcrdl;

constexpr int kWorld = 8;
constexpr std::size_t kMinBytes = 256u << 10;
constexpr std::size_t kMaxBytes = 4u << 20;
const char* const kRoutes[] = {"auto", "hier:nccl+mv2-gdr", "rsag"};

struct Call {
  const char* route = "auto";
  std::int64_t numel = 0;
};

// Inputs are small integers, so every partial sum is exact in F32 whatever
// the reduction order: element i of rank r's input to call c is
// pattern[(c * 7 + r * 3) % 11 + i], with pattern[j] = j % 11 - 5. Copying
// a window of one precomputed pattern makes building an input a memcpy.
constexpr int kPeriod = 11;

std::size_t pattern_offset(int call, int rank) {
  return static_cast<std::size_t>((call * 7 + rank * 3) % kPeriod);
}

class ChaosPayload final : public Workload {
 public:
  explicit ChaosPayload(const Options& o)
      : seed_(o.seed),
        calls_per_round_(o.trimmed ? 9 : 36),
        counted_rounds_(o.trimmed ? 2 : 6) {
    Rng rng = Rng(o.seed).split(0x63686173ull);
    // Every round gives each route the same stratified log-uniform sizes:
    // one draw inside each of per_route equal-width log2 bins. The seed moves
    // sizes within their bins and shuffles the call order, so the mix keeps
    // its shape from seed to seed. Rounds past the counted ones wrap around.
    const double span = std::log2(static_cast<double>(kMaxBytes) / kMinBytes);
    const int per_route = calls_per_round_ / 3;
    for (int round = 0; round < counted_rounds_; ++round) {
      std::vector<Call> calls;
      for (const char* route : kRoutes) {
        for (int bin = 0; bin < per_route; ++bin) {
          const double u = (bin + rng.next_double()) / per_route;
          calls.push_back({route, static_cast<std::int64_t>(kMinBytes * std::exp2(span * u)) / 4});
        }
      }
      for (std::size_t i = calls.size(); i > 1; --i) {
        std::swap(calls[i - 1], calls[rng.next_below(i)]);
      }
      calls_.insert(calls_.end(), calls.begin(), calls.end());
    }
    pattern_.resize(kMaxBytes / 4 + kPeriod);
    for (std::size_t j = 0; j < pattern_.size(); ++j) {
      pattern_[j] = static_cast<float>(j % kPeriod) - 5.0f;
    }
  }

  void setup() override {
    TuningConfig tcfg;
    tcfg.backends = {"nccl", "mv2-gdr"};
    tcfg.ops = {OpType::AllReduce};
    tcfg.sizes = {256u << 10, 1u << 20, 4u << 20};
    tcfg.world_sizes = {kWorld};
    tcfg.iterations = 1;
    const double t0 = host_now_s();
    {
      Span span("tune.generate");
      TuningSuite suite(net::SystemConfig::lassen(kWorld / 4));
      table_ = suite.generate(tcfg);
    }
    table_gen_s_ = host_now_s() - t0;
    build_runtime();
    tally_ = CommTally{};
    counters_ = BackendCounters{};
    call_us_.clear();
    rank0_elapsed_us_ = 0.0;
    round_elapsed_us_ = 0.0;
    bytes_reduced_ = 0.0;
    reduced_all_rounds_ = 0.0;
    reduce_host_s_ = 0.0;
    verify_s_ = 0.0;
    explore_ = exploit_ = quarantines_ = 0.0;
  }

  RoundStats round(int index, Result& result) override {
    // A cluster runs one SPMD program, so every round after the first
    // rebuilds the runtime (tuner, fault state) outside the round's host time.
    const Stopwatch rebuild;
    if (index > 0) build_runtime();
    double untimed_s = rebuild.wall_s();
    double untimed_cpu_s = rebuild.cpu_s();
    const bool counted = index < virtual_rounds();
    const std::uint64_t group = static_cast<std::uint64_t>(index) + 1;
    const std::size_t first = (static_cast<std::size_t>(index) * calls_per_round_) % calls_.size();

    const BackendCounters before = BackendCounters::read(*cluster_);
    const auto& m = cluster_->metrics();
    std::vector<SimTime> begin(kWorld), end(kWorld);
    std::vector<std::vector<double>> lat(kWorld);
    std::vector<std::uint64_t> failed(kWorld, 0);
    std::vector<double> verify_s(kWorld, 0.0), verify_cpu_s(kWorld, 0.0);
    std::vector<std::string> wrong(kWorld);
    const double t_spmd = host_now_s();
    {
      Span spmd("sim.run_spmd", group);
      const std::uint64_t parent = spmd.id();
      cluster_->run_spmd([&](int rank) {
        Span actor("models.rank", group, parent);
        Api api = mcr_->on(rank);
        begin[rank] = cluster_->scheduler().now();
        for (int k = 0; k < calls_per_round_; ++k) {
          const int call = static_cast<int>(first) + k;
          const std::int64_t n = calls_[call].numel;
          Tensor t = Tensor::zeros({n}, DType::F32, cluster_->device(rank));
          std::memcpy(t.raw_data(), pattern_.data() + pattern_offset(call, rank), n * 4);
          const SimTime posted = cluster_->scheduler().now();
          try {
            {
              Span span("core.call", group);
              api.all_reduce(calls_[call].route, t, ReduceOp::Sum);
            }
            Span span("sim.synchronize", group);
            api.synchronize();
          } catch (const DeadlockError&) {
            throw;  // every rank is stuck; counting it would desynchronise them
          } catch (const Error&) {
            ++failed[rank];
          }
          lat[rank].push_back(cluster_->scheduler().now() - posted);
          // Reference check against the host sum. Only one actor runs at a
          // time on the serial engine, so its host time is subtracted below.
          const double t_verify = host_now_s();
          const double cpu_verify = thread_cpu_s();
          Span span("tensor.verify", group);
          // The expected sum has the pattern's period.
          float want[kPeriod];
          for (int j = 0; j < kPeriod; ++j) {
            want[j] = 0.0f;
            for (int r = 0; r < kWorld; ++r) want[j] += pattern_[pattern_offset(call, r) + j];
          }
          const float* got = reinterpret_cast<const float*>(t.raw_data());
          for (std::int64_t i = 0; i < n && wrong[rank].empty(); ++i) {
            if (got[i] != want[i % kPeriod]) {
              wrong[rank] = "call " + std::to_string(call) + " (" + calls_[call].route +
                            ") element " + std::to_string(i) + " read " + std::to_string(got[i]) +
                            ", want " + std::to_string(want[i % kPeriod]);
            }
          }
          verify_s[rank] += host_now_s() - t_verify;
          verify_cpu_s[rank] += thread_cpu_s() - cpu_verify;
        }
        end[rank] = cluster_->scheduler().now();
      });
    }
    double round_verify_s = 0.0;
    for (int r = 0; r < kWorld; ++r) {
      result.gate(wrong[r].empty(), "chaos-payload rank " + std::to_string(r) + ": " + wrong[r]);
      round_verify_s += verify_s[r];
      untimed_cpu_s += verify_cpu_s[r];
    }
    const double spmd_s = host_now_s() - t_spmd - round_verify_s;
    untimed_s += round_verify_s;
    verify_s_ += round_verify_s;
    reduce_host_s_ += spmd_s;
    // The least reduction work one allreduce needs: world - 1 operand bytes
    // per result byte.
    double round_bytes = 0.0;
    for (int k = 0; k < calls_per_round_; ++k) {
      round_bytes += static_cast<double>(kWorld - 1) * calls_[first + k].numel * 4;
    }
    reduced_all_rounds_ += round_bytes;

    const SimTime round_end = *std::max_element(end.begin(), end.end());
    if (counted) {
      tally_.add(mcr_->logger());
      counters_ += BackendCounters::read(*cluster_) - before;
      for (const auto& l : lat) call_us_.insert(call_us_.end(), l.begin(), l.end());
      rank0_elapsed_us_ += end[0] - begin[0];
      round_elapsed_us_ += round_end - begin[0];
      bytes_reduced_ += round_bytes;
      explore_ += m.counter_value("tune_decisions", {{"mode", "explore"}});
      exploit_ += m.counter_value("tune_decisions", {{"mode", "exploit"}});
      quarantines_ += static_cast<double>(m.counter_total("tune_quarantines"));
    }
    mcr_->logger().clear();
    std::uint64_t failed_ops = 0;
    for (auto f : failed) failed_ops += f;
    RoundStats s;
    s.ops = static_cast<std::uint64_t>(kWorld) * calls_per_round_;
    s.units = s.ops;
    s.failed = failed_ops;
    s.untimed_s = untimed_s;
    s.untimed_cpu_s = untimed_cpu_s;
    return s;
  }

  int virtual_rounds() const override { return counted_rounds_; }

  std::map<std::string, Metric> virtual_metrics() const override {
    const double calls = static_cast<double>(counted_rounds_) * kWorld * calls_per_round_;
    return {
        {"virtual_samples_per_s", {calls / (round_elapsed_us_ / kSecond), "1/s"}},
        {"virtual_op_us_p50", {percentile(tally_.op_us, 50), "us"}},
        {"virtual_op_us_p99", {percentile(tally_.op_us, 99), "us"}},
        {"job_latency_us_p50", {percentile(call_us_, 50), "us"}},
        {"job_latency_us_p99", {percentile(call_us_, 99), "us"}},
    };
  }

  std::map<std::string, Metric> layer_metrics() const override {
    std::map<std::string, Metric> m;
    const double calls = static_cast<double>(counted_rounds_) * kWorld * calls_per_round_;
    backend_layer_metrics(m, tally_, counters_, calls / kWorld, calls, rank0_elapsed_us_);
    m["tensor.bytes_reduced"] = {bytes_reduced_, "B"};
    m["tensor.reduce_gbps"] = {
        reduce_host_s_ > 0.0 ? reduced_all_rounds_ / reduce_host_s_ / 1e9 : 0.0, "GB/s"};
    m["tune.explore_share"] = {explore_ + exploit_ > 0.0 ? explore_ / (explore_ + exploit_) : 0.0,
                               "ratio"};
    m["tune.quarantines"] = {quarantines_, "count"};
    zero_layer_metrics(m);
    return m;
  }

  std::map<std::string, std::string> sizes() const override {
    std::size_t per_route[3] = {0, 0, 0};
    for (const auto& c : calls_) {
      for (int i = 0; i < 3; ++i) per_route[i] += c.route == kRoutes[i] ? 1 : 0;
    }
    return {{"ranks", std::to_string(kWorld)},
            {"calls_per_round", std::to_string(calls_per_round_)},
            {"counted_rounds", std::to_string(counted_rounds_)},
            {"counted_calls.auto", std::to_string(per_route[0])},
            {"counted_calls.hier", std::to_string(per_route[1])},
            {"counted_calls.rsag", std::to_string(per_route[2])},
            {"samples.virtual_op_us", std::to_string(tally_.op_us.size())},
            {"samples.job_latency_us", std::to_string(call_us_.size())}};
  }

  double verify_host_s() const override { return verify_s_; }
  double table_gen_s() const override { return table_gen_s_; }
  std::string engine() const override { return sim::ExecutionConfig::serial().describe(); }

 private:
  void build_runtime() {
    mcr_.reset();
    cluster_.reset();
    {
      Span span("sim.cluster_build");
      cluster_ = std::make_unique<ClusterContext>(net::SystemConfig::lassen(kWorld / 4));
    }
    McrDlOptions opts;
    opts.logging_enabled = true;
    opts.fault.enabled = true;
    opts.fault.plan.seed = seed_;
    opts.fault.plan.specs.push_back(fault::FaultSpec::transient_op("nccl", OpType::AllReduce, 0.05));
    opts.online_tuning.enabled = true;
    opts.online_tuning.seed = seed_;
    opts.coll.enabled = true;
    opts.coll.tuner_arms = true;
    mcr_ = std::make_unique<McrDl>(cluster_.get(), opts);
    {
      Span span("core.init");
      mcr_->init({"nccl", "mv2-gdr"});
    }
    mcr_->set_tuning_table(table_);
  }

  const std::uint64_t seed_;
  const int calls_per_round_;
  const int counted_rounds_;
  std::vector<Call> calls_;
  std::vector<float> pattern_;
  std::unique_ptr<ClusterContext> cluster_;
  std::unique_ptr<McrDl> mcr_;
  TuningTable table_;
  double table_gen_s_ = 0.0;
  CommTally tally_;
  BackendCounters counters_;
  std::vector<double> call_us_;
  double rank0_elapsed_us_ = 0.0;
  double round_elapsed_us_ = 0.0;
  double bytes_reduced_ = 0.0;       // counted rounds
  double reduced_all_rounds_ = 0.0;  // with reduce_host_s_, every round
  double reduce_host_s_ = 0.0;
  double verify_s_ = 0.0;
  double explore_ = 0.0, exploit_ = 0.0, quarantines_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_chaos_payload(const Options& options) {
  return std::make_unique<ChaosPayload>(options);
}

}  // namespace perfbench
