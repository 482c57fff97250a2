// The shape every workload shares, and measure(), which runs one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {

// What one measured round did, counted by the benchmark from the outside.
struct RoundStats {
  // Public calls completed: collective calls summed over ranks (the serve
  // workload counts replayed jobs, the serving layer's unit of work).
  std::uint64_t ops = 0;
  // Closed-loop iterations: training steps, sync windows, verified calls or
  // replayed jobs.
  std::uint64_t units = 0;
  // Operations that threw after the runtime's own retries.
  std::uint64_t failed = 0;
  // Wall and process CPU seconds of the round spent outside the measured
  // program (rebuilding the runtime, reference checks); excluded from the
  // round's host time.
  double untimed_s = 0.0;
  double untimed_cpu_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds everything the measured phase needs from scratch (cluster, init,
  // tuning table, inputs). Timed and repeated; the last instance is measured.
  virtual void setup() = 0;
  // Untimed correctness pass run once before the first measured phase.
  virtual void precheck(Result&) {}
  // One round of measured work. Rounds [0, virtual_rounds()) of a phase feed
  // the virtual-time and per-layer counters; later rounds only add host time.
  // Correctness gates are checked in every round.
  virtual RoundStats round(int index, Result& result) = 0;
  virtual int virtual_rounds() const { return 1; }
  // Virtual metrics of the phase's counted rounds. Keys are end-to-end
  // metric names; every value must be a pure function of the seed.
  virtual std::map<std::string, Metric> virtual_metrics() const = 0;
  // Per-layer counters of the phase's counted rounds (idle layers report 0).
  virtual std::map<std::string, Metric> layer_metrics() const = 0;
  // Sizes and sample counts for the metadata line.
  virtual std::map<std::string, std::string> sizes() const = 0;
  // Host seconds the workload spent on reference checks in the phase.
  virtual double verify_host_s() const { return 0.0; }
  // Host seconds of TuningSuite::generate in the last setup (0 when unused).
  virtual double table_gen_s() const { return 0.0; }
  // Engine description for the metadata line.
  virtual std::string engine() const = 0;
};

std::unique_ptr<Workload> make_moe_256(const Options& options);
std::unique_ptr<Workload> make_grad_storm(const Options& options);
std::unique_ptr<Workload> make_chaos_payload(const Options& options);
std::unique_ptr<Workload> make_serve_chaos(const Options& options);

// Runs the workload as the options say and fills the result: with
// options.trace false the end-to-end metrics, with it true the per-layer
// metrics (an untraced phase, then a traced phase of equal budget).
Result measure(Workload& workload, const Options& options);

// Names, units of every metric, in the order BENCHMARK.json lists them.
extern const std::vector<std::pair<std::string, std::string>> kEndToEndMetrics;
extern const std::vector<std::pair<std::string, std::string>> kPerLayerMetrics;
extern const std::vector<std::string> kBackends;

}  // namespace perfbench
