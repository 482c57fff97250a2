#include "src/coll/composite.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "src/common/status.h"

namespace mcrdl::coll {

namespace {

// Scratch with the payload's storage mode: materialized composites do real
// reduction math on real buffers, phantom (paper-scale) ones stay
// metadata-only through the very same phase structure. Materialized scratch
// is uninitialised: every caller writes each byte before anything reads it.
Tensor scratch_like(const Tensor& like, std::int64_t numel) {
  if (like.materialized()) return Tensor::empty({numel}, like.dtype(), like.device());
  return Tensor::phantom({numel}, like.dtype(), like.device());
}

// The phases of a two-level hierarchical allreduce of `tensor` for `rank`
// over `members`. In-place: the intra reduce accumulates into the leader's
// buffer, the leader allreduce combines across nodes, the broadcast fans the
// result back out — each level a first-class pipeline op on its own backend.
std::vector<ChainPhase> hier_phases(const LaunchContext& ctx, const CompositeSpec& spec,
                                    int rank, const net::NodePartition& part, Tensor tensor,
                                    ReduceOp rop, std::uint64_t epoch) {
  std::vector<int> intra;
  for (const auto& node : part.intra) {
    if (std::find(node.begin(), node.end(), rank) != node.end()) intra = node;
  }
  MCRDL_REQUIRE(!intra.empty(), "rank is not a member of the composite's group");
  const bool leader = intra.front() == rank;
  const std::vector<int> leaders = part.leaders;

  std::vector<ChainPhase> phases;
  if (intra.size() > 1) {
    phases.push_back([&ctx, spec, rank, intra, tensor, rop, epoch] {
      OpRequest req;
      req.op = OpType::Reduce;
      req.backend = spec.intra;
      req.tensor = tensor;
      req.root = 0;  // group-rank of the leader (lowest rank, sorted first)
      req.rop = rop;
      req.async_op = true;
      req.epoch = epoch;
      return std::vector<Work>{ctx.dispatch(rank, intra, std::move(req))};
    });
  }
  if (leaders.size() > 1) {
    if (leader) {
      phases.push_back([&ctx, spec, rank, leaders, tensor, rop, epoch] {
        OpRequest req;
        req.op = OpType::AllReduce;
        req.backend = spec.inter;
        req.tensor = tensor;
        req.rop = rop;
        req.async_op = true;
        req.epoch = epoch;
        return std::vector<Work>{ctx.dispatch(rank, leaders, std::move(req))};
      });
    } else {
      // Non-leaders sit the inter-node hop out; the empty phase keeps the
      // phase indices aligned so the closing broadcast is everyone's phase 3.
      phases.push_back([] { return std::vector<Work>{}; });
    }
  }
  if (intra.size() > 1) {
    phases.push_back([&ctx, spec, rank, intra, tensor, epoch] {
      OpRequest req;
      req.op = OpType::Broadcast;
      req.backend = spec.intra;
      req.tensor = tensor;
      req.root = 0;
      req.async_op = true;
      req.epoch = epoch;
      return std::vector<Work>{ctx.dispatch(rank, intra, std::move(req))};
    });
  }
  return phases;
}

// Ring-style decomposition: reduce-scatter the zero-padded payload, then
// allgather the reduced blocks; the finalize closure slices the unpadded
// prefix back. Padding copies are data movement only — no virtual time.
// Only padded_in's tail is zeroed: its prefix is the payload copy, the
// reduce-scatter writes all of block_out, and the allgather all of
// padded_out, before either is read.
std::vector<ChainPhase> rsag_phases(const LaunchContext& ctx, const CompositeSpec& spec,
                                    int rank, const std::vector<int>& members, Tensor tensor,
                                    ReduceOp rop, std::uint64_t epoch,
                                    std::function<void()>* finalize) {
  const auto n = static_cast<std::int64_t>(members.size());
  const std::int64_t numel = tensor.numel();
  const std::int64_t block = (numel + n - 1) / n;
  Tensor padded_in = scratch_like(tensor, block * n);
  Tensor block_out = scratch_like(tensor, block);
  Tensor padded_out = scratch_like(tensor, block * n);
  padded_in.view(0, numel).copy_from(tensor);
  padded_in.view(numel, block * n - numel).fill(0.0);

  std::vector<ChainPhase> phases;
  phases.push_back([&ctx, spec, rank, members, block_out, padded_in, rop, epoch] {
    OpRequest req;
    req.op = OpType::ReduceScatter;
    req.backend = spec.intra;
    req.output = block_out;
    req.input = padded_in;
    req.rop = rop;
    req.async_op = true;
    req.epoch = epoch;
    return std::vector<Work>{ctx.dispatch(rank, members, std::move(req))};
  });
  phases.push_back([&ctx, spec, rank, members, padded_out, block_out, epoch] {
    OpRequest req;
    req.op = OpType::AllGather;
    req.backend = spec.intra;
    req.output = padded_out;
    req.input = block_out;
    req.async_op = true;
    req.epoch = epoch;
    return std::vector<Work>{ctx.dispatch(rank, members, std::move(req))};
  });
  *finalize = [tensor, padded_out, numel]() mutable { tensor.copy_from(padded_out.view(0, numel)); };
  return phases;
}

std::shared_ptr<ChainWork> launch_chunk(const LaunchContext& ctx, const CompositeSpec& spec,
                                        int rank, const std::vector<int>& members,
                                        const net::NodePartition& part, Tensor slice,
                                        ReduceOp rop, std::uint64_t epoch,
                                        std::function<void()> restore,
                                        std::function<void()> recover) {
  std::vector<ChainPhase> phases;
  std::function<void()> finalize;
  if (spec.algo == CompositeAlgo::Hier) {
    // Phases run on a private working copy, never the caller's slice. A
    // failed chain's *started* sub-ops still deliver after the epoch bump
    // (the quiesce only cancels pending rendezvous), and an in-place chain
    // would let those late deliveries clobber payload bytes behind the
    // pristine restore. Success publishes once, in the finalize under the
    // chain lock — the same contract as rsag's slice-back copy. The copies
    // are data movement only (no virtual time), so timings are unchanged.
    Tensor work = slice.clone();
    phases = hier_phases(ctx, spec, rank, part, work, rop, epoch);
    finalize = [slice, work]() mutable { slice.copy_from(work); };
  } else {
    phases = rsag_phases(ctx, spec, rank, members, slice, rop, epoch, &finalize);
  }
  auto chain = ctx.overlap->make_chain(rank, epoch, std::move(phases), std::move(finalize));
  chain->op = OpType::AllReduce;
  chain->backend_name = spec.text;
  chain->posted_at = ctx.sched->now();
  if (restore) chain->set_restore(std::move(restore));
  if (recover) chain->set_recover(std::move(recover));
  return chain;
}

}  // namespace

Work launch(const LaunchContext& ctx, const CompositeSpec& spec, int rank,
            const std::vector<int>& group, const OpRequest& req) {
  MCRDL_REQUIRE(ctx.sched != nullptr && ctx.topo != nullptr && ctx.overlap != nullptr &&
                    ctx.dispatch && ctx.redispatch,
                "composite launch needs a fully wired LaunchContext");
  MCRDL_REQUIRE(req.op == OpType::AllReduce, "composite algorithms support all_reduce only");
  MCRDL_REQUIRE(!spec.intra.empty(), "composite spec backends must be resolved before launch");
  std::vector<int> members = group;
  if (members.empty()) {
    members.reserve(static_cast<std::size_t>(ctx.topo->world_size()));
    for (int r = 0; r < ctx.topo->world_size(); ++r) members.push_back(r);
  }
  // The casualty's own replay arrives with a remapped group that no longer
  // contains it; surface the same retriable error a flat engine raises so
  // the caller's rank-loss handling stays uniform across op kinds.
  if (std::find(members.begin(), members.end(), rank) == members.end()) {
    throw RankLostError("rank " + std::to_string(rank) +
                        " is not in the remapped composite group; declared lost");
  }
  // Launch-time derivation: after an elastic shrink the recover stage hands
  // us the remapped group, and the partition of *that* list is exactly the
  // post-loss two-level shape — no cached subgroups to invalidate.
  const net::NodePartition part = net::node_partition(*ctx.topo, members);

  const Tensor& tensor = req.tensor;
  if (members.size() <= 1) {
    // A single-member allreduce is the identity: a zero-phase chain that
    // completes on the spot, so callers still get a well-formed handle.
    auto chain = ctx.overlap->make_chain(rank, req.epoch, {}, {});
    chain->op = OpType::AllReduce;
    chain->backend_name = spec.text;
    chain->posted_at = ctx.sched->now();
    return chain;
  }
  const std::int64_t numel = tensor.numel();
  std::int64_t chunks = ctx.overlap->chunks();
  chunks = std::max<std::int64_t>(
      1, std::min<std::int64_t>(chunks, std::max<std::int64_t>(1, numel)));

  // Elastic-replay closures — shared by every chunk chain so recovery stays
  // op-granularity whatever the launch shape, exactly like a flat op: either
  // the whole tensor keeps the pre-loss reduction or the whole tensor is
  // replayed on the survivors. Per-chunk restores would be wrong under
  // chunking: chunk chains that completed before the loss can no longer be
  // failed (their restore already ran out in maybe_complete), yet their
  // slices hold published full-world sums which a whole-tensor replay would
  // re-reduce into survivors*old_sum. So any failing chunk restores the
  // *whole* payload from one pristine copy, rewinding completed siblings
  // too. Re-running the restore is idempotent (it re-copies the same
  // original bytes), and it cannot itself be clobbered: both algorithms run
  // their phases on private scratch, so the only writers of the payload are
  // success-path finalizes (under the chain lock, before the loss) and this
  // restore. Unchunked launches need no restore at all — a failed chain's
  // finalize never ran, so the payload still holds the caller's bytes.
  std::function<void()> restore;
  Tensor payload = tensor;  // non-const handle onto the same storage
  if (tensor.materialized() && chunks > 1) {
    Tensor pristine = tensor.clone();
    restore = [payload, pristine]() mutable { payload.copy_from(pristine); };
  }
  std::function<void()> recover;
  if (req.async_op) {
    // The parent pipeline frame returns before a failure can surface, so the
    // chains carry their own replay: re-dispatch the whole tensor — with the
    // same composite string — as a fresh synchronous top-level op whose
    // recover stage parks, remaps and replays. The flag makes the replay
    // fire exactly once when several chunk chains failed; the later chunks'
    // wait() then just completes their handles against the replayed data.
    auto replayed = std::make_shared<std::atomic<bool>>(false);
    recover = [redispatch = ctx.redispatch, spec, rank, members, payload, rop = req.rop,
               replayed] {
      if (replayed->exchange(true)) return;
      OpRequest r;
      r.op = OpType::AllReduce;
      r.backend = spec.text;
      r.tensor = payload;
      r.rop = rop;
      redispatch(rank, members, std::move(r));
    };
  }
  if (chunks == 1) {
    return launch_chunk(ctx, spec, rank, members, part, tensor, req.rop, req.epoch,
                        std::move(restore), std::move(recover));
  }
  const std::int64_t base = numel / chunks;
  const std::int64_t rem = numel % chunks;
  std::vector<std::shared_ptr<ChainWork>> parts;
  std::int64_t offset = 0;
  for (std::int64_t i = 0; i < chunks; ++i) {
    const std::int64_t size = base + (i < rem ? 1 : 0);
    if (size == 0) continue;
    parts.push_back(launch_chunk(ctx, spec, rank, members, part, tensor.view(offset, size),
                                 req.rop, req.epoch, restore, recover));
    offset += size;
  }
  auto group_work = std::make_shared<ChainGroupWork>(std::move(parts));
  group_work->arm();
  group_work->op = OpType::AllReduce;
  group_work->backend_name = spec.text;
  group_work->posted_at = ctx.sched->now();
  return group_work;
}

}  // namespace mcrdl::coll
