// Measures one workload: timed set-ups, then rounds until the budget is
// spent, untraced for the end-to-end metrics or untraced-then-traced for the
// per-layer metrics.
#include <cmath>
#include <exception>
#include <string>

#include "perfbench/workload.h"

namespace perfbench {

const std::vector<std::string> kBackends = {"nccl", "mv2-gdr", "ompi", "sccl"};

const std::vector<std::pair<std::string, std::string>> kEndToEndMetrics = {
    {"host_ops_per_s", "1/s"},        {"host_jobs_per_s", "1/s"},
    {"setup_s", "s"},                 {"peak_rss_mb", "MiB"},
    {"virtual_samples_per_s", "1/s"}, {"virtual_op_us_p50", "us"},
    {"virtual_op_us_p99", "us"},      {"job_latency_us_p50", "us"},
    {"job_latency_us_p99", "us"},
};

namespace {

std::vector<std::pair<std::string, std::string>> per_layer_list() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"sim.sys_cpu_share", "ratio"},
      {"sim.ctx_switches_per_op", "count"},
      {"sim.sync_host_s", "s"},
      {"sim.cpu_per_wall", "ratio"},
      {"core.call_host_us_p50", "us"},
      {"core.call_host_us_p99", "us"},
      {"core.issues_per_call", "ratio"},
      {"core.fused_share", "ratio"},
      {"backends.comm_us_per_step", "us"},
      {"backends.comm_fraction", "ratio"},
  };
  for (const auto& b : kBackends) m.push_back({"backends.comm_us_per_step." + b, "us"});
  for (const auto& b : kBackends) m.push_back({"backends.bytes." + b, "B"});
  for (const auto& b : kBackends) m.push_back({"backends.ops." + b, "count"});
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"tensor.bytes_reduced", "B"},
      {"tensor.reduce_gbps", "GB/s"},
      {"tensor.verify_host_s", "s"},
      {"tune.table_gen_s", "s"},
      {"tune.explore_share", "ratio"},
      {"tune.quarantines", "count"},
      {"fault.retries_per_op", "ratio"},
      {"fault.reroute_share", "ratio"},
      {"coll.composite_share", "ratio"},
      {"sched.cost_cache_entries", "count"},
      {"sched.avg_utilization", "ratio"},
      {"sched.peak_contention", "x"},
      {"sched.rejected", "count"},
      {"sched.shed", "count"},
      {"sched.deadlocks", "count"},
      {"failed_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (const char* layer : {"bench", "sim", "core", "models", "tune", "tensor", "sched"}) {
    m.push_back({std::string(layer) + ".self_share", "ratio"});
  }
  return m;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>> kPerLayerMetrics = per_layer_list();

namespace {

// Rounds measured at least, so every host rate is a median of several.
constexpr int kMinRounds = 3;
// Set-ups per untraced run, setup_s being their median: at least
// kMinSetupReps, and more, up to kMaxSetupReps, while they have taken less
// than kSetupBudgetS, so that set-ups of a millisecond get a stable median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 100;
constexpr double kSetupBudgetS = 0.3;
// Spans written to the trace file at most (the per-layer numbers use all).
constexpr std::size_t kMaxSpansWritten = 200000;

// Host rates are per CPU second of the benchmark process (user + system, all
// threads): on a shared virtual machine, wall time also counts whatever the
// host steals, which moved run medians by up to 2.6x between otherwise equal
// runs. The wall-clock rates are kept for the metadata line, and their
// ratio, sim.cpu_per_wall, shows what parallel engines gain on the wall.
struct Phase {
  std::vector<double> op_rates;    // per round: ops / CPU s
  std::vector<double> unit_rates;  // per round: units / CPU s
  std::vector<double> wall_op_rates;  // per round: ops / wall s
  double cpu_s = 0.0;              // timed CPU seconds of all rounds
  double wall_s = 0.0;             // timed wall seconds of all rounds
  HostUsage usage;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  int rounds = 0;
  std::map<std::string, Metric> virt;
  std::map<std::string, Metric> layers;
  double verify_s = 0.0;
};

Phase run_phase(Workload& w, double budget_s, Result& result) {
  Phase p;
  const HostUsage u0 = HostUsage::now();
  const double t0 = host_now_s();
  for (int i = 0;; ++i) {
    if (i >= w.virtual_rounds() && i >= kMinRounds && host_now_s() - t0 >= budget_s) break;
    const Stopwatch watch;
    RoundStats s;
    try {
      Span span("bench.round", static_cast<std::uint64_t>(i) + 1);
      s = w.round(i, result);
    } catch (const std::exception& e) {
      result.gate(false, std::string("round threw: ") + e.what());
      p.failed += 1;
      p.ops += 1;
      break;
    }
    const double cpu = watch.cpu_s() - s.untimed_cpu_s;
    const double wall = watch.wall_s() - s.untimed_s;
    p.op_rates.push_back(static_cast<double>(s.ops) / cpu);
    p.unit_rates.push_back(static_cast<double>(s.units) / cpu);
    p.wall_op_rates.push_back(static_cast<double>(s.ops) / wall);
    p.cpu_s += cpu;
    p.wall_s += wall;
    p.ops += s.ops;
    p.failed += s.failed;
    p.rounds = i + 1;
  }
  p.usage = HostUsage::now() - u0;
  p.virt = w.virtual_metrics();
  p.layers = w.layer_metrics();
  p.verify_s = w.verify_host_s();
  return p;
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

std::string join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : " ") + std::to_string(std::llround(v));
  return out;
}

}  // namespace

Result measure(Workload& w, const Options& options) {
  Result r;
  w.precheck(r);
  // One untimed round first: the process's first round pays for thread
  // stacks, allocator arenas and page faults that later rounds reuse.
  w.setup();
  (void)w.round(0, r);
  if (!options.trace) {
    std::vector<double> setups;
    double spent = 0.0;
    while (setups.size() < (options.trimmed ? 1u : static_cast<std::size_t>(kMinSetupReps)) ||
           (!options.trimmed && spent < kSetupBudgetS && setups.size() < kMaxSetupReps)) {
      const Stopwatch watch;
      w.setup();
      setups.push_back(watch.cpu_s());
      spent += watch.wall_s();
    }
    const Phase p = run_phase(w, options.seconds, r);
    r.attempted += p.ops;
    r.failed += p.failed;
    r.end_to_end = p.virt;
    r.end_to_end["host_ops_per_s"] = {median(p.op_rates), "1/s"};
    r.end_to_end["host_jobs_per_s"] = {median(p.unit_rates), "1/s"};
    r.end_to_end["setup_s"] = {median(setups), "s"};
    r.end_to_end["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
    r.sizes = w.sizes();
    r.sizes["rounds"] = std::to_string(p.rounds);
    r.sizes["setup_reps"] = std::to_string(setups.size());
    r.sizes["round_cpu_op_rates"] = join(p.op_rates);
    r.sizes["round_wall_op_rates"] = join(p.wall_op_rates);
    return r;
  }

  // Untraced half: counters, host usage and the reference host rate.
  w.setup();
  const double table_gen_s = w.table_gen_s();
  const Phase plain = run_phase(w, options.seconds / 2, r);

  // Traced half: the same work from a fresh set-up, spans on.
  Tracer& tracer = Tracer::get();
  tracer.set_enabled(true);
  Phase traced;
  {
    {
      Span span("bench.setup");
      w.setup();
    }
    traced = run_phase(w, options.seconds / 2, r);
  }
  tracer.set_enabled(false);
  const std::vector<SpanRecord> spans = tracer.take();

  r.attempted += plain.ops + traced.ops;
  r.failed += plain.failed + traced.failed;
  for (const auto& [name, m] : plain.virt) {
    auto it = traced.virt.find(name);
    r.gate(it != traced.virt.end() && it->second.value == m.value,
           "traced run changed virtual metric " + name);
  }

  const LayerTimes lt = layer_times(spans);
  auto& L = r.per_layer;
  L = plain.layers;
  const double calls = static_cast<double>(plain.ops);
  L["sim.sys_cpu_share"] = {share(plain.usage.sys_s, plain.usage.user_s + plain.usage.sys_s),
                            "ratio"};
  L["sim.ctx_switches_per_op"] = {share(plain.usage.ctx_switches, calls), "count"};
  L["sim.cpu_per_wall"] = {share(plain.cpu_s, plain.wall_s), "ratio"};
  // CPU time the actors spent inside synchronize calls, per round.
  auto sync = lt.cpu_s.find("sim.synchronize");
  L["sim.sync_host_s"] = {share(sync == lt.cpu_s.end() ? 0.0 : sync->second, traced.rounds), "s"};
  const auto calls_it = lt.durations_us.find("core.call");
  const std::vector<double> call_us =
      calls_it == lt.durations_us.end() ? std::vector<double>{} : calls_it->second;
  L["core.call_host_us_p50"] = {percentile(call_us, 50), "us"};
  L["core.call_host_us_p99"] = {percentile(call_us, 99), "us"};
  L["tensor.verify_host_s"] = {share(plain.verify_s, plain.rounds), "s"};
  L["tune.table_gen_s"] = {table_gen_s, "s"};
  L.emplace("failed_share", Metric{share(static_cast<double>(plain.failed), calls), "ratio"});
  L["trace.overhead_share"] = {1.0 - share(median(traced.op_rates), median(plain.op_rates)),
                               "ratio"};
  double self_total = 0.0;
  for (const auto& [layer, s] : lt.self_cpu_s) self_total += s;
  for (const char* layer : {"bench", "sim", "core", "models", "tune", "tensor", "sched"}) {
    auto it = lt.self_cpu_s.find(layer);
    L[std::string(layer) + ".self_share"] = {
        share(it == lt.self_cpu_s.end() ? 0.0 : it->second, self_total), "ratio"};
  }

  r.sizes = w.sizes();
  r.sizes["rounds"] = std::to_string(plain.rounds);
  r.sizes["traced_rounds"] = std::to_string(traced.rounds);
  r.sizes["spans"] = std::to_string(spans.size());
  r.sizes["samples.core.call_host_us"] = std::to_string(call_us.size());
  const std::string path = options.out_dir + "/spans-" + options.workload + ".tsv";
  write_spans(path, spans, kMaxSpansWritten);
  r.sizes["span_file"] = path;
  return r;
}

}  // namespace perfbench
