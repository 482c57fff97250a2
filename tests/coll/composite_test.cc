// Composite collective correctness: a hierarchical or reduce-scatter+
// allgather allreduce must produce exactly the data a flat allreduce does —
// on the world, on sub-communicators, sync or async — and the runtime must
// reject composite strings it cannot honour (wrong op, unknown backend,
// subsystem disabled). Also pins that "auto" with tuner arms converges to a
// composite for large messages on a multi-node machine, the acceptance
// criterion of DESIGN.md §15.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/mcr_dl.h"

namespace mcrdl {
namespace {

class CompositeTest : public ::testing::Test {
 protected:
  void make(int nodes, McrDlOptions opts) {
    cluster_ = std::make_unique<ClusterContext>(net::SystemConfig::lassen(nodes));
    mcr_ = std::make_unique<McrDl>(cluster_.get(), opts);
  }
  static McrDlOptions coll_opts() {
    McrDlOptions opts;
    opts.coll.enabled = true;
    return opts;
  }
  int world() const { return cluster_->world_size(); }

  // Runs one allreduce-sum of `elems` floats (rank r starts at r+1) on every
  // rank through `algo` and returns the final per-rank values.
  std::vector<double> run_allreduce(const std::string& algo, int elems, bool async) {
    std::vector<double> finals(static_cast<std::size_t>(world()), 0.0);
    cluster_->run_spmd([&](int rank) {
      Api api = mcr_->on(rank);
      Tensor t = Tensor::full({elems}, DType::F32, static_cast<double>(rank + 1),
                              cluster_->device(rank));
      Work w = api.all_reduce(algo, t, ReduceOp::Sum, async);
      if (async) w->wait();
      api.synchronize();
      finals[static_cast<std::size_t>(rank)] = t.get(0);
    });
    return finals;
  }

  std::unique_ptr<ClusterContext> cluster_;
  std::unique_ptr<McrDl> mcr_;
};

double world_sum(int world) { return static_cast<double>(world) * (world + 1) / 2.0; }

TEST_F(CompositeTest, HierMatchesFlatAllreduce) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  for (const double v : run_allreduce("hier:nccl+mv2-gdr", 64, /*async=*/false)) {
    EXPECT_DOUBLE_EQ(v, world_sum(world()));
  }
}

TEST_F(CompositeTest, HierSingleNodeDegeneratesToIntraOnly) {
  // One node: no leader hop exists — the composite is intra reduce +
  // broadcast and must still equal the flat result.
  make(1, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  for (const double v : run_allreduce("hier:nccl+mv2-gdr", 64, /*async=*/false)) {
    EXPECT_DOUBLE_EQ(v, world_sum(world()));
  }
}

TEST_F(CompositeTest, RsagMatchesFlatIncludingNonDivisibleLength) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  // 13 elements over 8 ranks: the padded reduce-scatter and the slice-back
  // finalize must leave exactly the unpadded prefix reduced.
  for (const double v : run_allreduce("rsag:mv2-gdr", 13, /*async=*/false)) {
    EXPECT_DOUBLE_EQ(v, world_sum(world()));
  }
}

TEST_F(CompositeTest, BareRsagUsesDefaultBackend) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  for (const double v : run_allreduce("rsag", 64, /*async=*/false)) {
    EXPECT_DOUBLE_EQ(v, world_sum(world()));
  }
}

TEST_F(CompositeTest, AsyncCompositeCompletesOnWait) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  for (const double v : run_allreduce("hier:nccl+mv2-gdr", 64, /*async=*/true)) {
    EXPECT_DOUBLE_EQ(v, world_sum(world()));
  }
}

TEST_F(CompositeTest, SubgroupCompositeReducesOnlyMembers) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  // Two ranks per node (lassen is 4 per node): the derived partition has two
  // single-leader intra groups and a two-rank leader hop.
  const std::vector<int> members = {0, 1, 4, 5};
  std::vector<double> finals(static_cast<std::size_t>(world()), 0.0);
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({32}, DType::F32, static_cast<double>(rank + 1),
                            cluster_->device(rank));
    const bool member = std::find(members.begin(), members.end(), rank) != members.end();
    if (member) {
      Api sub = api.group(members);
      sub.all_reduce("hier:nccl+mv2-gdr", t, ReduceOp::Sum);
    }
    api.synchronize();
    finals[static_cast<std::size_t>(rank)] = t.get(0);
  });
  const double member_sum = 1.0 + 2.0 + 5.0 + 6.0;
  for (int r = 0; r < world(); ++r) {
    const bool member = std::find(members.begin(), members.end(), r) != members.end();
    EXPECT_DOUBLE_EQ(finals[static_cast<std::size_t>(r)],
                     member ? member_sum : static_cast<double>(r + 1));
  }
}

TEST_F(CompositeTest, SingleRankGroupIsIdentity) {
  make(1, coll_opts());
  mcr_->init({"nccl"});
  cluster_->run_spmd([&](int rank) {
    if (rank != 0) return;
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({8}, DType::F32, 7.0, cluster_->device(rank));
    Api solo = api.group({0});
    Work w = solo.all_reduce("hier:nccl+nccl", t, ReduceOp::Sum);
    ASSERT_NE(w, nullptr);
    EXPECT_TRUE(w->test());
    EXPECT_DOUBLE_EQ(t.get(0), 7.0);
  });
}

TEST_F(CompositeTest, CompositeOnNonAllreduceThrows) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({8}, DType::F32, 1.0, cluster_->device(rank));
    EXPECT_THROW(api.broadcast("hier:nccl+mv2-gdr", t, /*root=*/0), InvalidArgument);
  });
}

TEST_F(CompositeTest, CompositeNamingUninitialisedBackendThrows) {
  make(2, coll_opts());
  mcr_->init({"nccl", "mv2-gdr"});
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({8}, DType::F32, 1.0, cluster_->device(rank));
    EXPECT_THROW(api.all_reduce("hier:nccl+bogus", t), InvalidArgument);
    EXPECT_THROW(api.all_reduce("rsag:bogus", t), InvalidArgument);
  });
}

TEST_F(CompositeTest, DisabledSubsystemRejectsCompositeStrings) {
  make(2, McrDlOptions{});  // coll.enabled defaults to false
  mcr_->init({"nccl", "mv2-gdr"});
  EXPECT_FALSE(mcr_->coll_enabled());
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::full({8}, DType::F32, 1.0, cluster_->device(rank));
    // Rejected exactly like any unknown backend name — the disabled
    // subsystem must not even recognise the grammar.
    EXPECT_THROW(api.all_reduce("hier:nccl+mv2-gdr", t), InvalidArgument);
  });
}

TEST_F(CompositeTest, AutoWithTunerArmsConvergesToAComposite) {
  McrDlOptions opts = coll_opts();
  opts.coll.tuner_arms = true;
  opts.online_tuning.enabled = true;
  opts.online_tuning.explore_period = 4;  // probe all arms quickly
  make(2, opts);
  mcr_->init({"nccl", "mv2-gdr"});
  ASSERT_NE(mcr_->online_tuner(), nullptr);

  // 16 MiB gradients on two lassen nodes: the rail-striped leader hop makes
  // the hierarchical arms measurably cheaper than any flat backend (past the
  // tuner's switch hysteresis), so the measured-best incumbent must end on a
  // composite arm.
  constexpr int kElems = 4 * 1024 * 1024;
  constexpr int kIters = 80;
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::phantom({kElems}, DType::F32, cluster_->device(rank));
    for (int i = 0; i < kIters; ++i) {
      api.all_reduce("auto", t, ReduceOp::Sum);
      // Stream-backend completions are observed off the host path; sync each
      // step so every decision sees the previous step's measurements — the
      // cadence of a real training loop.
      api.synchronize();
    }
  });

  bool composite_incumbent = false;
  for (const auto& arm : mcr_->online_tuner()->arms()) {
    if (arm.op == OpType::AllReduce && arm.incumbent && coll::parse(arm.backend).has_value()) {
      composite_incumbent = true;
    }
  }
  EXPECT_TRUE(composite_incumbent)
      << "online tuner did not converge to a composite arm for large allreduces";
}

// --- scratch buffers -----------------------------------------------------
//
// The composites' private scratch (hier's working copy, rsag's block_out and
// padded_out, the chunked launch's pristine copy) is allocated
// uninitialised; only rsag's padding tail is zeroed. A length no group size
// divides, with per-element distinct values, shows any byte that is read
// before it is written.

// Rank r's element i: small integers, so every partial sum is exact in F32
// whatever the reduction order.
double pattern(int rank, std::int64_t i) { return (rank + 1) * static_cast<double>(i % 5 - 2); }

class CompositeScratchTest
    : public CompositeTest,
      public ::testing::WithParamInterface<std::tuple<std::string, bool>> {};

TEST_P(CompositeScratchTest, NonDivisibleLengthEqualsHostSum) {
  const auto [algo, overlap] = GetParam();
  McrDlOptions opts = coll_opts();
  opts.coll.overlap = overlap;  // chunked: four chunk chains per composite
  make(2, opts);
  mcr_->init({"nccl", "mv2-gdr"});
  constexpr std::int64_t kNumel = 1003;  // not a multiple of 8 ranks, 4 per node, or 4 chunks
  std::vector<int> bad(static_cast<std::size_t>(world()), -1);
  cluster_->run_spmd([&](int rank) {
    Api api = mcr_->on(rank);
    Tensor t = Tensor::empty({kNumel}, DType::F32, cluster_->device(rank));
    for (std::int64_t i = 0; i < kNumel; ++i) t.set(i, pattern(rank, i));
    api.all_reduce(algo, t, ReduceOp::Sum);
    api.synchronize();
    for (std::int64_t i = 0; i < kNumel; ++i) {
      double want = 0.0;
      for (int r = 0; r < world(); ++r) want += pattern(r, i);
      if (t.get(i) != want) {
        bad[static_cast<std::size_t>(rank)] = static_cast<int>(i);
        break;
      }
    }
  });
  for (int r = 0; r < world(); ++r) {
    EXPECT_EQ(bad[static_cast<std::size_t>(r)], -1) << "rank " << r << " first wrong element";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algos, CompositeScratchTest,
    ::testing::Combine(::testing::Values(std::string("hier:nccl+mv2-gdr"),
                                         std::string("rsag:mv2-gdr")),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      const std::string& algo = std::get<0>(info.param);
      return std::string(algo.rfind("hier", 0) == 0 ? "hier" : "rsag") +
             (std::get<1>(info.param) ? "_chunked" : "_unchunked");
    });

// --- breaker scope ----------------------------------------------------------
//
// A composite's legs run on subgroups: each node reduces and broadcasts on
// its own intra-node communicator. Transient faults that exhaust one node's
// retries on a leg open the backend's breaker for that node's ranks only. A
// breaker shared with world ops would reroute just those ranks on the next
// world op on the same backend (here rsag's world reduce-scatter on nccl)
// while the other node stayed on nccl: a virtual-time deadlock. Breakers are
// therefore kept per communicator, and the world op must stay aligned.
void run_hier_then_rsag(ClusterContext& cluster, McrDl& mcr, int iters) {
  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    const int world = cluster.world_size();
    for (int i = 0; i < iters; ++i) {
      for (const char* algo : {"hier:nccl+mv2-gdr", "rsag"}) {
        Tensor t = Tensor::full({64}, DType::F32, static_cast<double>(rank + 1),
                                cluster.device(rank));
        api.all_reduce(algo, t, ReduceOp::Sum);
        api.synchronize();
        EXPECT_EQ(t.get(63), world * (world + 1) / 2.0) << algo << " iteration " << i;
      }
    }
  });
}

TEST_F(CompositeTest, LegFaultsOnOneNodeDoNotSplitLaterWorldOps) {
  McrDlOptions opts = coll_opts();
  opts.fault.enabled = true;
  opts.fault.plan.seed = 3;
  // Only the hier legs' intra-node broadcasts fail; rsag's world legs never do.
  opts.fault.plan.specs.push_back(fault::FaultSpec::transient_op("nccl", OpType::Broadcast, 0.5));
  make(2, opts);
  mcr_->init({"nccl", "mv2-gdr"});
  run_hier_then_rsag(*cluster_, *mcr_, /*iters=*/8);
  EXPECT_GT(mcr_->failover()->report().breakers_tripped, 0u);
  // Nothing failed on a world communicator, so no rank's world breaker moved.
  for (int r = 0; r < world(); ++r) EXPECT_TRUE(mcr_->failover()->healthy("nccl", r));
}

TEST_F(CompositeTest, LegFaultsWithAStragglerDoNotSplitLaterWorldOps) {
  McrDlOptions opts = coll_opts();
  opts.fault.enabled = true;
  opts.fault.plan.seed = 3;
  opts.fault.plan.specs.push_back(fault::FaultSpec::transient_op("nccl", OpType::Reduce, 0.5));
  opts.fault.plan.specs.push_back(fault::FaultSpec::straggler(5, 200.0));
  make(2, opts);
  mcr_->init({"nccl", "mv2-gdr"});
  run_hier_then_rsag(*cluster_, *mcr_, /*iters=*/8);
  EXPECT_GT(mcr_->failover()->report().breakers_tripped, 0u);
}

}  // namespace
}  // namespace mcrdl
