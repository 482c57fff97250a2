// The composable operation pipeline behind the MCR-DL facade.
//
// Every Listing-1 call is packed into an OpRequest (src/backends/op_request.h)
// and executed by the OpPipeline, a middleware chain of OpStages. A stage
// receives the in-flight OpCall plus a `next` continuation; it may adjust the
// call, invoke `next()` zero or more times (the fault stage re-invokes it per
// retry/failover attempt), and post-process the returned Work. The request
// path runs through the stages in list order; the completion path unwinds in
// reverse, so the logging stage — though listed before routing — observes the
// final outcome of the whole retry loop.
//
// Built-in order (OpPipeline::stage_names()):
//
//   overhead     per-call host overhead (paper C3)
//   resolve      backend-string resolution; "auto" -> tuning table (V-F)
//   fusion       bucketing admission for small collectives (V-C)
//   compression  compression admission by op/dtype/size (V-E)
//   finish       attaches the CommLogger record on completion (V-D)
//   recover      elastic rank-loss recovery: epoch stamp + replay (src/fault/)
//   route        fault-aware retry/backoff/failover (src/fault/)
//   issue        terminal: fused / compressed / native / emulated issue (V-B)
//
// To add a layer (per-op metrics, batching, persistent-collective caching...),
// implement OpStage and call insert_before/insert_after with a neighbour's
// name — no per-op code needed, the stage sees every operation.
//
// Hot path (DESIGN.md §14). Dispatch has one shape: execute() builds a
// fresh OpCall on its own stack frame and runs every stage in list order.
// Stages that have nothing to do (overhead 0, fusion off, ...) pass straight
// through to `next()`. The finish stage resolves its metric handles once per
// (backend, op) pair and reuses them, so no per-call label maps are built.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/backends/op_request.h"
#include "src/backends/work.h"
#include "src/coll/spec.h"
#include "src/obs/metrics.h"

namespace mcrdl {

class Api;
class Backend;
class Comm;
class McrDl;
class OpPipeline;

// The mutable state of one operation travelling through the pipeline.
struct OpCall {
  McrDl* ctx = nullptr;
  int rank = 0;                  // caller's global rank
  std::vector<int> group;        // empty = world communicator
  OpRequest req;

  // Filled by the resolve stage.
  std::size_t bytes = 0;         // payload size (tuning/logging convention)
  Backend* resolved = nullptr;   // preferred backend after "auto" resolution
  std::string requested;         // its name; CommRecord.requested_backend

  // Filled by the resolve stage when the choice is a composite algorithm
  // ("hier:...", "rsag..."): `resolved` stays null and the coll stage hands
  // the call to coll::launch instead of the route/issue tail.
  bool is_composite = false;
  coll::CompositeSpec composite;

  // Filled by the admission stages.
  bool admit_fusion = false;
  bool admit_compression = false;

  // Maintained by the routing stage across attempts.
  Backend* attempt_backend = nullptr;  // backend for the current attempt
  int attempts = 1;
  bool rerouted = false;
  std::string fault;             // last injected failure: "", "transient",
                                 // "unavailable", "rank_lost"
  std::string completed_on;      // backend name the op finally completed on

  // Maintained by the recover stage: true once the op was replayed on a
  // shrunk communicator after a rank loss (req.epoch carries the epoch).
  bool recovered = false;

  // Outcome of the current issue attempt (reset by the issue stage).
  bool fused = false;
  bool compressed = false;

  // Size of the call's communicator (group or world).
  int world_size() const;
  // The group/world communicator of `b` for this call.
  Comm* comm_for(Backend* b) const;
};

// Continuation invoking the remainder of the pipeline on the current call.
// A plain (pipeline, call, position, accumulator) tuple — constructing and
// copying one never allocates. `child_us` points at the invoking stage's
// accumulator of downstream virtual time, which lives in that stage's
// invoke() frame and outlives every call of this continuation.
class OpNext {
 public:
  Work operator()() const;

 private:
  friend class OpPipeline;
  OpNext(OpPipeline* pipeline, OpCall* call, std::size_t pos, double* child_us)
      : pipeline_(pipeline), call_(call), pos_(pos), child_us_(child_us) {}

  OpPipeline* pipeline_;
  OpCall* call_;
  std::size_t pos_;
  double* child_us_;
};

class OpStage {
 public:
  virtual ~OpStage() = default;
  virtual const char* name() const = 0;
  virtual Work run(OpCall& call, const OpNext& next) = 0;
};

class OpPipeline {
 public:
  explicit OpPipeline(McrDl* ctx);
  ~OpPipeline();
  OpPipeline(const OpPipeline&) = delete;
  OpPipeline& operator=(const OpPipeline&) = delete;

  // Runs `req` through all stages on behalf of `rank`; `group` empty = world.
  Work execute(int rank, const std::vector<int>& group, OpRequest req);

  // Stage names in request-path order.
  std::vector<std::string> stage_names() const;
  // Insert a custom stage relative to an existing one (by name); throws
  // InvalidArgument if no stage has that name. Setup-time API: the stage
  // list (and its histogram cache) is read lock-free by every rank's actor,
  // so stages must be in place before operations start flowing.
  void insert_before(const std::string& name, std::unique_ptr<OpStage> stage);
  void insert_after(const std::string& name, std::unique_ptr<OpStage> stage);

 private:
  friend class OpNext;

  // Runs stage `pos` on `call`; `parent_child_us` is the invoking stage's
  // accumulator (null for the first stage).
  Work invoke(std::size_t pos, OpCall& call, double* parent_child_us);
  std::size_t index_of(const std::string& name) const;
  void rebuild_stage_histograms();

  McrDl* ctx_;
  std::vector<std::unique_ptr<OpStage>> stages_;
  // `pipeline_stage_us{stage=...}` histogram per stage, parallel to stages_;
  // resolved eagerly at construction/insert time (registry references are
  // stable) so the per-invocation read takes no lock.
  std::vector<obs::Histogram*> stage_hist_;
};

}  // namespace mcrdl
