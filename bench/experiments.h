// The experiment harness: every paper figure, table and ablation, plus the
// beyond-the-paper subsystem studies, as one registry of runners that each
// return a BenchReport, and the stable BENCH_*.json export schema.
//
// `tools/bench_export` is the single entry point: `--list` prints the
// registry, `--experiment <name>` runs one entry, prints its points as one
// table and writes BENCH_<name>.json, and `--check` validates a file with
// check_report().
//
// Schema (mcrdl-bench-v1):
//   {"schema":"mcrdl-bench-v1","experiment":"fig2",
//    "series":[{"name":"all_reduce/nccl","backend":"nccl",
//               "points":[{"world":64,"bytes":1024,"virtual_us":12.3,
//                          "items_per_s":0.0},...]},...]}
// `world` is a GPU count, `bytes` a message size (0 for whole-step or
// whole-workload timings), `virtual_us` a latency or step time and
// `items_per_s` a throughput. A categorical axis (framework, plan, model,
// winning backend) gets one series per category, and the few quantities
// that are neither a time nor a rate go in a point's optional `values` map.
// Microbench sweeps vary `bytes` (increasing within a series); scaling
// sweeps vary `world`. Four older exports still put another axis in
// `bytes`: serve a percentile rank, adapt a window's first step, scale a
// thread count and resilience a step index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/fault/failover.h"
#include "src/obs/json.h"
#include "src/sched/serve.h"
#include "src/sim/execution_model.h"

namespace mcrdl::bench {

inline constexpr const char* kBenchSchema = "mcrdl-bench-v1";

struct BenchPoint {
  int world = 0;
  std::size_t bytes = 0;        // 0 for model sweeps (whole-step timing)
  double virtual_us = 0.0;      // per-op latency or per-step time
  double items_per_s = 0.0;     // throughput where the experiment has one
  // Named counts and errors that are neither a time nor a rate (fusion
  // "flushes"/"overlap_flushes", compression "max_error"). Emitted sorted by
  // name as `"values":{...}`, and only when non-empty; every entry must be a
  // finite number.
  std::map<std::string, double> values;
};

struct BenchSeries {
  std::string name;             // "all_reduce/nccl", "MCR-DL-T", ...
  std::string backend;          // backend or plan routing ("mixed", "auto")
  std::vector<BenchPoint> points;
};

struct BenchReport {
  std::string experiment;       // the registry name: "fig2", "fig8", ...
  std::vector<BenchSeries> series;

  const BenchSeries* find(const std::string& name) const;
};

// Serialises a report in the mcrdl-bench-v1 schema (strictly valid JSON).
std::string to_bench_json(const BenchReport& report);

// Validates a parsed mcrdl-bench-v1 document; throws InvalidArgument on the
// first violation. Beyond the schema it applies each experiment's named
// rules: fig2 needs a strictly increasing message-size sweep, hotpath a
// speedup series at >= 1.5x, hier its two orderings, and resilience the rule
// "loss step > clean step" on every `steps/*` series.
void check_report(const obs::JsonValue& doc);

// --- experiment drivers -----------------------------------------------------

// Figure 2: collective microbenchmark across backends on 64 Lassen GPUs.
struct Fig2Options {
  std::vector<std::size_t> sizes;       // empty = the paper's 1KB..64MB grid
  std::vector<std::string> backends;    // empty = all four backends
  int world = 64;
  int iterations = 2;
  int warmup = 1;
  bool quick = false;                   // trim the grid for CI smoke runs
};
BenchReport run_fig2(const Fig2Options& options = {});

// Figures 8/9: end-to-end model scaling sweeps (DS-MoE on Lassen, DLRM on
// ThetaGPU) across the four communication plans.
struct ScalingOptions {
  std::vector<int> scales;              // empty = the figure's GPU counts
  int warmup_steps = -1;                // -1 = the figure's defaults
  int measured_steps = -1;
  bool quick = false;                   // fewest scales/steps for CI
  // Execution engine for the harness runs (DESIGN.md §11). Virtual-time
  // results are engine-independent; parallel shards only change wall clock.
  sim::ExecutionConfig execution = sim::ExecutionConfig::serial();
};
BenchReport run_fig8(const ScalingOptions& options = {});
BenchReport run_fig9(const ScalingOptions& options = {});

// Execution-engine scaling experiment (DESIGN.md §11): the same DS-MoE
// sweep timed on the host clock under the serial baton and under parallel
// shards. Unlike every other experiment the quantity of interest is *wall
// clock*, not virtual time: each series is one engine config ("serial",
// "threads2", ...; `bytes` holds the thread count), each point one model
// scale, with `virtual_us` the simulated step time (identical across
// engines — the run aborts if it ever is not) and `items_per_s` the
// simulator's wall-clock throughput in measured steps per second. A final
// "speedup" series reports, per scale, the serial/parallel wall-clock ratio
// at the largest thread count.
struct ScaleOptions {
  std::vector<int> thread_counts;       // empty = {1, 2, 4}
  std::vector<int> scales;              // GPU counts; empty = {32, 64, 128, 256}
  int warmup_steps = 1;
  int measured_steps = 6;
  bool quick = false;                   // one small scale for CI smoke runs
};
BenchReport run_scale(const ScaleOptions& options = {});

// Online-adaptation experiment (DESIGN.md §9): a fixed-size all_reduce loop
// dispatched on "auto" while the statically-best backend's links degrade
// mid-run. Three series show the contrast:
//
//   "static"   — static-table resolution only; throughput never recovers
//   "online"   — the online tuner quarantines the degraded backend and
//                re-routes; throughput recovers to the best alternative
//   "alt-best" — the best undegraded backend, run clean, as the target line
//
// Unlike the other experiments the sweep axis is *time*: each point is one
// window of `window` steps, `bytes` holds the window's first step index and
// `virtual_us` the window's mean step time (items_per_s = steps/second).
struct AdaptOptions {
  int world = 8;                   // Lassen, world/4 nodes
  std::size_t bytes = 256u << 10;  // all_reduce payload
  int steps = 240;                 // loop length per series
  int window = 20;                 // steps per reported point
  double degrade_factor = 8.0;     // beta multiplier injected on the winner
  std::uint64_t seed = 42;         // online-tuner seed
  bool quick = false;              // trim for CI smoke runs
};

struct AdaptReport {
  BenchReport bench;
  std::string degraded_backend;    // statically-best backend (the casualty)
  std::string adapted_backend;     // best undegraded alternative
  std::uint64_t switches = 0;      // online-tuner incumbent switches
  std::uint64_t quarantines = 0;   // drift quarantines
  double degrade_from_us = 0.0;    // virtual instant the degrade starts
  double online_post_us = 0.0;     // median step time, last window, online
  double static_post_us = 0.0;     // same for the static-table run
  double alt_best_us = 0.0;        // same for the clean alternative run
  std::string learned_table;       // tuner's learned table (text format)
};
AdaptReport run_adapt(const AdaptOptions& options = {});

// Multi-tenant serving experiment (DESIGN.md §10): replay a seeded arrival
// trace through the ServeScheduler twice — once clean, once with a chaos
// window degrading the shared fabric mid-trace — and report job-latency
// percentiles. The sweep axis is the *percentile rank*: each series carries
// points at p50/p90/p99 (`bytes` holds the rank so the generic
// increasing-bytes schema check applies), `virtual_us` the latency, and
// `items_per_s` the run's completed-jobs-per-second. Series cover the
// aggregate plus each QoS class, for the clean and chaos runs.
struct ServeExperimentOptions {
  int nodes = 16;                  // Lassen nodes shared by all tenants
  int jobs = 1000;                 // trace length
  std::uint64_t seed = 7;          // arrival-trace seed
  double chaos_degrade = 8.0;      // fabric slowdown inside the window
  bool quick = false;              // smaller trace/world for CI smoke runs
};

struct ServeBenchReport {
  BenchReport bench;
  sched::ServeResult clean;
  sched::ServeResult chaos;
};
ServeBenchReport run_serve(const ServeExperimentOptions& options = {});

// Resilience experiment (DESIGN.md §13): a fixed-size allreduce loop that
// loses one rank mid-run, compared shrink-only vs shrink-then-rejoin. Both
// runs share the same two-phase shape — phase one absorbs the loss (the
// survivors shrink and finish), every rank then parks until just past the
// rejoin instant, and phase two runs over whatever world is alive: the
// shrunk survivors in the shrink-only run, the restored full world in the
// rejoin run. The loss is placed from a clean calibration run: the casualty
// falls silent in the idle gap before step steps/2 and is declared lost two
// intervals later, so the survivors' wait lands inside that step's measured
// window. Series "steps/shrink" and "steps/rejoin" carry rank 0's per-step
// times (`bytes` is the step index, `world` the ranks alive when the step
// completed, so the first point with a smaller world is the loss step);
// "recovery/shrink" and "recovery/rejoin" carry one point each with `world`
// the post-recovery alive count, `virtual_us` the recovery latency
// (loss/rejoin instant to the first collective completed afterwards) and
// `items_per_s` the post-recovery throughput in rank-steps/s — the number
// grow-back restores.
struct ResilienceOptions {
  int world = 8;                   // Lassen, world/4 nodes
  std::size_t bytes = 1u << 20;    // all_reduce payload
  int steps = 12;                  // per phase
  int lost_rank = 1;               // the casualty (and rejoiner)
  double interval_us = 200.0;      // virtual gap between steps
  bool quick = false;              // trim for CI smoke runs
};

struct ResilienceBenchReport {
  BenchReport bench;
  double loss_at_us = 0.0;             // the shared loss instant
  double rejoin_at_us = 0.0;           // the rejoin instant (rejoin run only)
  double shrink_recovery_us = 0.0;     // loss -> first completed collective
  double rejoin_recovery_us = 0.0;     // rejoin -> first completed collective
  double shrink_post_rank_steps_per_s = 0.0;  // alive x steps/s after recovery
  double rejoin_post_rank_steps_per_s = 0.0;
  fault::ResilienceReport shrink_report;
  fault::ResilienceReport rejoin_report;
};
ResilienceBenchReport run_resilience(const ResilienceOptions& options = {});

// Hot-path dispatch experiment (DESIGN.md §14): wall-clock throughput of a
// small-allreduce loop in two modes on the same workload —
//
//   "dispatch/unbucketed" — every op dispatched and issued on its own
//   "dispatch/bucketed"   — gradient bucketing coalesces the small
//                           collectives into fused issues
//
// Like "scale", the quantity of interest is wall clock: each point is one
// message size (`bytes`), `virtual_us` the run's final virtual instant and
// `items_per_s` the host-clock dispatch throughput in ops/s across all
// ranks. Bucketing legitimately changes the schedule, so the two modes'
// virtual times differ. A final "speedup" series reports, per size, the
// bucketed/unbucketed throughput ratio.
struct HotpathOptions {
  int world = 8;                        // Lassen, world/4 nodes
  std::vector<std::size_t> sizes;       // empty = {256, 1024, 4096}
  int ops_per_rank = 4096;              // dispatches per rank per run
  int sync_every = 64;                  // drain the stream every N ops
  bool quick = false;                   // trim for CI smoke runs
};
BenchReport run_hotpath(const HotpathOptions& options = {});

// Composite-collective experiment (DESIGN.md §15): where does a two-level
// hierarchical allreduce beat the flat single-backend choice, and what does
// the overlap scheduler add on top? Two sweeps in one report:
//
//   * microbench — for each node count n, series "all_reduce/flat/n<n>",
//     "all_reduce/hier/n<n>" and "all_reduce/hier+overlap/n<n>" sweep the
//     message grid (strictly increasing `bytes`), measuring one synchronous
//     allreduce per point in virtual time. Flat wins small messages (one
//     launch vs three); `hier_algo` (same runtime at both levels) wins large
//     messages at n >= 2 — the NIC hop carries 1/gpus_per_node of the
//     traffic, rail-striped by the leaders. At n == 1 the composite
//     degenerates to reduce+broadcast and loses everywhere — kept in the
//     export as the honest baseline.
//
//   * model — series "cnn3d/flat", "cnn3d/hier" and "cnn3d/hier+overlap"
//     carry the 3D-CNN step time per world size (`bytes` = 0). Both
//     composite variants run the *same* `overlap_algo` plan so the only
//     delta is the scheduler: without overlap the host-MPI inter hop is
//     pure added tax and the plan loses to flat; with overlap the chunks of
//     independent gradient buckets interleave the NVLink and NIC levels and
//     the plan wins outright — the paper-style "algorithm *and* schedule"
//     crossover.
//
// Why two composite strings: a single-runtime composite ("hier:nccl+nccl")
// issues both levels on the same device stream, which orders them — it can
// improve the *algorithm* but the overlap scheduler cannot interleave its
// phases. Pairing a stream runtime intra-node with a host-progressed MPI
// runtime inter-node ("hier:nccl+mv2-gdr") is what makes the levels truly
// concurrent — the mix-and-match thesis in one experiment.
struct HierOptions {
  std::vector<int> node_counts;         // empty = {1, 2, 4}
  std::vector<std::size_t> sizes;       // empty = 64KiB..64MiB grid
  std::string flat_backend = "nccl";    // the single-backend incumbent
  std::string hier_algo = "hier:nccl+nccl";           // algorithm-only gain
  std::string overlap_algo = "hier:nccl+mv2-gdr";     // mixed, overlappable
  std::vector<int> model_worlds;        // empty = {8, 16}
  int iterations = 2;
  int warmup = 1;
  int measured_steps = 3;
  int warmup_steps = 1;
  bool quick = false;                   // trim grids for CI smoke runs
};
BenchReport run_hier(const HierOptions& options = {});

// --- experiment registry ----------------------------------------------------
//
// Name -> runner table shared by bench_export (and anything else that runs
// experiments by name); adding an experiment here is all it takes to make
// `bench_export --experiment <name>` and `--list` know about it.
struct ExperimentOptions {
  bool quick = false;  // trim the sweep for CI smoke runs
  // Execution engine: <=1 runs the serial baton, N>1 runs ParallelShards
  // with N worker threads. Applies to the harness-driven experiments
  // (fig8/fig9); for "scale" it sets the largest thread count compared
  // against serial. Every other experiment pins the serial referee (the
  // tuning suite and the online tuner's exploration are calibrated
  // against it).
  int threads = 1;
};

struct Experiment {
  std::string name;
  std::string description;  // one line for --list
  std::function<BenchReport(const ExperimentOptions&)> run;
};

// Registered experiments in a stable order: the paper's figures and tables
// (fig1, fig2, table2, fig7-fig12), the ablations (ablation-sync,
// ablation-fusion, ablation-compression, ablation-transfer), then the
// subsystem studies (scale, adapt, serve, resilience, hotpath, hier).
const std::vector<Experiment>& experiment_registry();
// The registry entry for `name`, or nullptr when unknown.
const Experiment* find_experiment(const std::string& name);
// "fig2|fig8|..." — the registry's names joined for usage strings.
std::string experiment_names();

}  // namespace mcrdl::bench
