// serve-chaos: open-loop replay of a seeded multi-tenant arrival trace, as
// mcrdl_serve does it: 6 tenants over gold, silver and bronze QoS on Lassen
// 16 nodes, mixed plan, 2x fabric oversubscription, a x8 fabric chaos window
// in each of 20 episodes of the trace and one capacity dip. Every round
// replays the trace on a fresh scheduler, so the job cost cache starts cold
// each time. Latency counts from each job's arrival time.
#include "perfbench/runtime_stats.h"
#include "perfbench/workload.h"
#include "src/sched/serve.h"

namespace perfbench {
namespace {

using namespace mcrdl;

class ServeChaos final : public Workload {
 public:
  explicit ServeChaos(const Options& o) : seed_(o.seed), jobs_(o.trimmed ? 1000 : 20000) {}

  void setup() override {
    sched::TraceConfig tc;
    tc.num_jobs = jobs_;
    tc.seed = seed_;
    tc.num_tenants = 6;
    // Lighter than mcrdl_serve's 60 ms default: at that load the median
    // job sits between two service-time modes and jumps between them from
    // seed to seed.
    tc.mean_interarrival_us = 80000.0;
    {
      Span span("sched.generate_trace");
      trace_ = sched::generate_trace(tc);
    }
    // The trace is kEpisodes back-to-back episodes, each with one x8 chaos
    // window at fixed fractions of its expected span, so the tail averages
    // over several backlogs instead of hanging on one. One capacity dip
    // takes 2 nodes away in the middle of the trace.
    const double span_us = tc.mean_interarrival_us * jobs_;
    const double episode_us = span_us / kEpisodes;
    config_ = sched::ServeConfig{};
    config_.system = seeded_lassen(16, seed_);
    config_.plan = "mixed";
    config_.fabric_oversubscription = 2.0;
    for (int e = 0; e < kEpisodes; ++e) {
      config_.chaos.push_back(
          sched::ChaosWindow{(e + 0.20) * episode_us, (e + 0.30) * episode_us, 8.0});
    }
    config_.dips.push_back(sched::CapacityDip{0.55 * span_us, 0.60 * span_us, 2});
    first_ = sched::ServeResult{};
    cache_entries_ = 0;
  }

  RoundStats round(int index, Result& result) override {
    sched::ServeScheduler scheduler(config_);
    sched::ServeResult res;
    {
      Span span("sched.run", static_cast<std::uint64_t>(index) + 1);
      res = scheduler.run(trace_);
    }
    const std::uint64_t submitted = trace_.jobs.size();
    result.gate(res.deadlocks == 0, "serve-chaos reported " + std::to_string(res.deadlocks) +
                                        " deadlocks");
    result.gate(res.completed + res.rejected + res.shed == submitted,
                "serve-chaos completed + rejected + shed != submitted");
    if (index == 0) {
      first_ = std::move(res);
      cache_entries_ = scheduler.cost_cache().entries();
    } else {
      // A cold-cache replay of one trace is deterministic.
      result.gate(res.completed == first_.completed && res.rejected == first_.rejected &&
                      res.shed == first_.shed && res.p99_latency_us == first_.p99_latency_us &&
                      res.makespan_us == first_.makespan_us,
                  "serve-chaos replay " + std::to_string(index) + " differs from the first");
    }
    return RoundStats{submitted, submitted, 0};
  }

  std::map<std::string, Metric> virtual_metrics() const override {
    std::vector<double> latency, service;
    for (const auto& job : first_.jobs) {
      if (job.state != sched::JobState::Completed) continue;
      latency.push_back(job.latency_us());
      service.push_back(job.finish_us - job.start_us);
    }
    const double makespan_s = first_.makespan_us / kSecond;
    return {
        {"virtual_samples_per_s",
         {makespan_s > 0.0 ? static_cast<double>(first_.completed) / makespan_s : 0.0, "1/s"}},
        {"virtual_op_us_p50", {percentile(service, 50), "us"}},
        {"virtual_op_us_p99", {percentile(service, 99), "us"}},
        {"job_latency_us_p50", {percentile(latency, 50), "us"}},
        {"job_latency_us_p99", {percentile(latency, 99), "us"}},
    };
  }

  std::map<std::string, Metric> layer_metrics() const override {
    const double submitted = static_cast<double>(trace_.jobs.size());
    std::map<std::string, Metric> m = {
        {"sched.cost_cache_entries", {static_cast<double>(cache_entries_), "count"}},
        {"sched.avg_utilization", {first_.avg_utilization, "ratio"}},
        {"sched.peak_contention", {first_.peak_contention, "x"}},
        {"sched.rejected", {static_cast<double>(first_.rejected), "count"}},
        {"sched.shed", {static_cast<double>(first_.shed), "count"}},
        {"sched.deadlocks", {static_cast<double>(first_.deadlocks), "count"}},
        {"failed_share",
         {static_cast<double>(first_.rejected + first_.shed + first_.deadlocks) / submitted,
          "ratio"}},
    };
    zero_layer_metrics(m);
    return m;
  }

  std::map<std::string, std::string> sizes() const override {
    return {{"jobs", std::to_string(jobs_)},
            {"episodes", std::to_string(kEpisodes)},
            {"tenants", "6"},
            {"nodes", "16"},
            {"samples.job_latency_us", std::to_string(first_.completed)},
            {"samples.virtual_op_us", std::to_string(first_.completed)}};
  }

  std::string engine() const override { return "serve replay (virtual-time event loop)"; }

 private:
  static constexpr int kEpisodes = 20;

  const std::uint64_t seed_;
  const int jobs_;
  sched::ArrivalTrace trace_;
  sched::ServeConfig config_;
  sched::ServeResult first_;
  std::size_t cache_entries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_chaos(const Options& options) {
  return std::make_unique<ServeChaos>(options);
}

}  // namespace perfbench
