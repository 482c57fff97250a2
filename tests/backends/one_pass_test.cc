// The engine's reducing collectives (AllReduce, Reduce, ReduceScatter) run
// one N-ary pass over every rank's input. Each result must equal, byte for
// byte, a host reference that folds the inputs in rank order one element at
// a time through Tensor::get/set — the pairwise accumulate-then-copy the
// engine did before — across dtypes, ReduceOps and backends, including
// aliased operands.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/backends/backend.h"
#include "src/backends/engine.h"

namespace mcrdl {
namespace {

constexpr int kWorld = 8;           // two Lassen nodes
constexpr std::int64_t kNumel = 1003;  // not a multiple of kWorld

// Rank r's element i: fractional for the float dtypes (so fold order shows
// in the low bits), signed integers for I32.
double input_value(DType dtype, int rank, std::int64_t i) {
  const double x = static_cast<double>((rank * 131 + i * 37) % 997) - 498.0;
  return dtype == DType::I32 ? x * 1001.0 : x / 7.0 + rank * 0.3;
}

Tensor make_input(DType dtype, int rank, sim::Device* device, std::int64_t numel = kNumel) {
  Tensor t = Tensor::empty({numel}, dtype, device);
  for (std::int64_t i = 0; i < numel; ++i) t.set(i, input_value(dtype, rank, i));
  return t;
}

double combine(double a, double b, ReduceOp op) {
  switch (op) {
    case ReduceOp::Prod: return a * b;
    case ReduceOp::Min: return std::min(a, b);
    case ReduceOp::Max: return std::max(a, b);
    default: return a + b;
  }
}

// Folds `inputs` in order, narrowing after every step, then scales for Avg.
Tensor host_reference(const std::vector<Tensor>& inputs, ReduceOp op, int size) {
  Tensor acc = inputs.front().clone();
  for (std::size_t k = 1; k < inputs.size(); ++k) {
    for (std::int64_t i = 0; i < acc.numel(); ++i) {
      acc.set(i, combine(acc.get(i), inputs[k].get(i), op));
    }
  }
  if (op == ReduceOp::Avg) {
    for (std::int64_t i = 0; i < acc.numel(); ++i) acc.set(i, acc.get(i) * (1.0 / size));
  }
  return acc;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.bytes() == b.bytes() && std::memcmp(a.raw_data(), b.raw_data(), a.bytes()) == 0;
}

std::vector<Tensor> all_inputs(DType dtype) {
  std::vector<Tensor> out;
  for (int r = 0; r < kWorld; ++r) out.push_back(make_input(dtype, r, nullptr));
  return out;
}

// --- through the backends ------------------------------------------------------

using Param = std::tuple<std::string, DType, ReduceOp>;

class OnePassTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<ClusterContext>(net::SystemConfig::lassen(kWorld / 4));
    backend_ = make_backend(std::get<0>(GetParam()), cluster_.get());
    backend_->init();
  }
  DType dtype() const { return std::get<1>(GetParam()); }
  ReduceOp op() const { return std::get<2>(GetParam()); }
  Comm& world() { return *backend_->world(); }

  std::unique_ptr<ClusterContext> cluster_;
  std::unique_ptr<Backend> backend_;
};

TEST_P(OnePassTest, AllReduceEqualsHostReference) {
  const Tensor want = host_reference(all_inputs(dtype()), op(), kWorld);
  std::vector<int> ok(kWorld, 0);
  cluster_->run_spmd([&](int rank) {
    Tensor t = make_input(dtype(), rank, cluster_->device(rank));
    world().all_reduce(rank, t, op(), /*async_op=*/false);
    backend_->synchronize(rank);
    ok[static_cast<std::size_t>(rank)] = same_bytes(t, want);
  });
  for (int r = 0; r < kWorld; ++r) EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
}

TEST_P(OnePassTest, ReduceInPlaceLandsOnRootOnly) {
  constexpr int kRoot = 5;
  const std::vector<Tensor> inputs = all_inputs(dtype());
  const Tensor want = host_reference(inputs, op(), kWorld);
  std::vector<int> ok(kWorld, 0);
  cluster_->run_spmd([&](int rank) {
    Tensor t = make_input(dtype(), rank, cluster_->device(rank));
    world().reduce(rank, t, kRoot, op(), /*async_op=*/false);
    backend_->synchronize(rank);
    ok[static_cast<std::size_t>(rank)] =
        same_bytes(t, rank == kRoot ? want : inputs[static_cast<std::size_t>(rank)]);
  });
  for (int r = 0; r < kWorld; ++r) EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
}

TEST_P(OnePassTest, ReduceScatterEqualsHostReference) {
  // The Comm API wants size() whole blocks; the remainder shape is covered
  // at the engine level below.
  constexpr std::int64_t kBlock = kNumel / kWorld;
  std::vector<Tensor> inputs;
  for (const Tensor& t : all_inputs(dtype())) inputs.push_back(t.view(0, kBlock * kWorld));
  const Tensor want = host_reference(inputs, op(), kWorld);
  std::vector<int> ok(kWorld, 0);
  cluster_->run_spmd([&](int rank) {
    Tensor in = make_input(dtype(), rank, cluster_->device(rank)).view(0, kBlock * kWorld);
    Tensor out = Tensor::empty({kBlock}, dtype(), cluster_->device(rank));
    world().reduce_scatter(rank, out, in, op(), /*async_op=*/false);
    backend_->synchronize(rank);
    ok[static_cast<std::size_t>(rank)] = same_bytes(out, want.view(rank * kBlock, kBlock));
  });
  for (int r = 0; r < kWorld; ++r) EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(
    BackendsDtypesOps, OnePassTest,
    ::testing::Combine(::testing::Values("nccl", "mv2-gdr"),
                       ::testing::Values(DType::F32, DType::F16, DType::I32),
                       ::testing::Values(ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = std::get<0>(info.param) + "_" + dtype_name(std::get<1>(info.param)) +
                         "_" + reduce_op_name(std::get<2>(info.param));
      for (char& c : name) c = c == '-' ? '_' : c;
      return name;
    });

// --- engine slots: layouts the Comm API cannot express ----------------------------

using backends_detail::apply_collective;
using backends_detail::ArrivalSlot;

TEST(OnePassEngine, ReduceIntoDistinctRootOutput) {
  for (DType dt : {DType::F32, DType::F16, DType::I32}) {
    for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max}) {
      const std::vector<Tensor> inputs = all_inputs(dt);
      std::vector<ArrivalSlot> slots(kWorld);
      for (int r = 0; r < kWorld; ++r) {
        slots[static_cast<std::size_t>(r)].input = inputs[static_cast<std::size_t>(r)].clone();
      }
      slots[2].output = Tensor::empty({kNumel}, dt, nullptr);
      apply_collective({OpType::Reduce, kNumel * dtype_size(dt), 2, op}, slots);
      EXPECT_TRUE(same_bytes(slots[2].output, host_reference(inputs, op, kWorld)))
          << dtype_name(dt) << "/" << reduce_op_name(op);
      for (int r = 0; r < kWorld; ++r) {
        EXPECT_TRUE(same_bytes(slots[static_cast<std::size_t>(r)].input,
                               inputs[static_cast<std::size_t>(r)]))
            << "input of rank " << r << " changed";
      }
    }
  }
}

TEST(OnePassEngine, ReduceScatterWithRemainder) {
  // 1003 elements over 8 ranks: 125-element blocks; the last 3 elements are
  // reduced into no output, and outputs longer than a block keep their tail.
  constexpr std::int64_t kBlock = kNumel / kWorld;
  for (DType dt : {DType::F32, DType::F16, DType::I32}) {
    for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max}) {
      const std::vector<Tensor> inputs = all_inputs(dt);
      const Tensor want = host_reference(inputs, op, kWorld);
      std::vector<ArrivalSlot> slots(kWorld);
      for (int r = 0; r < kWorld; ++r) {
        slots[static_cast<std::size_t>(r)].input = inputs[static_cast<std::size_t>(r)];
        slots[static_cast<std::size_t>(r)].output = Tensor::full({kBlock + 1}, dt, 9.0, nullptr);
      }
      apply_collective({OpType::ReduceScatter, kNumel * dtype_size(dt), 0, op}, slots);
      for (int r = 0; r < kWorld; ++r) {
        const Tensor& out = slots[static_cast<std::size_t>(r)].output;
        EXPECT_TRUE(same_bytes(out.view(0, kBlock), want.view(r * kBlock, kBlock)))
            << dtype_name(dt) << "/" << reduce_op_name(op) << " rank " << r;
        EXPECT_EQ(out.get(kBlock), 9.0);
      }
    }
  }
}

TEST(OnePassEngine, OverlappingViewsAtDifferentOffsets) {
  // Every rank's input is a window of one storage, each shifted by 7
  // elements, and the root's output is another window of it: each output
  // block overlaps inputs that later blocks still read (the windows span
  // several of the kernel's blocks). The result must be the reduction of
  // the windows as they were before the collective.
  constexpr int kRanks = 4;
  constexpr std::int64_t kShift = 7;
  constexpr std::int64_t kStorage = 40011;
  for (DType dt : {DType::F32, DType::F16, DType::I32}) {
    for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max}) {
      Tensor storage = make_input(dt, 3, nullptr, kStorage);
      std::vector<Tensor> before;
      std::vector<ArrivalSlot> slots(kRanks);
      const std::int64_t n = kStorage - kShift * kRanks;
      for (int r = 0; r < kRanks; ++r) {
        slots[static_cast<std::size_t>(r)].input = storage.view(r * kShift, n);
        before.push_back(storage.view(r * kShift, n).clone());
      }
      slots[1].output = storage.view(kShift * kRanks - 3, n);
      apply_collective({OpType::Reduce, n * dtype_size(dt), 1, op}, slots);
      EXPECT_TRUE(same_bytes(slots[1].output, host_reference(before, op, kRanks)))
          << dtype_name(dt) << "/" << reduce_op_name(op);
    }
  }
}

TEST(OnePassEngine, AllReduceOverOverlappingInputsWritesInRankOrder) {
  // In-place AllReduce whose inputs overlap one another: every input is
  // also an output, the outputs overlap at different offsets, and the
  // later rank's copy of the result wins where they overlap.
  constexpr int kRanks = 3;
  constexpr std::int64_t kShift = 5;
  constexpr std::int64_t kStorage = 40011;
  for (DType dt : {DType::F32, DType::F16, DType::I32}) {
    Tensor storage = make_input(dt, 1, nullptr, kStorage);
    const std::int64_t n = kStorage - kShift * kRanks;
    std::vector<Tensor> before;
    std::vector<ArrivalSlot> slots(kRanks);
    for (int r = 0; r < kRanks; ++r) {
      slots[static_cast<std::size_t>(r)].input = storage.view(r * kShift, n);
      before.push_back(storage.view(r * kShift, n).clone());
    }
    Tensor want = make_input(dt, 1, nullptr, kStorage);
    const Tensor result = host_reference(before, ReduceOp::Sum, kRanks);
    for (int r = 0; r < kRanks; ++r) want.view(r * kShift, n).copy_from(result);
    apply_collective({OpType::AllReduce, n * dtype_size(dt), 0, ReduceOp::Sum}, slots);
    EXPECT_TRUE(same_bytes(storage, want)) << dtype_name(dt);
  }
}

}  // namespace
}  // namespace mcrdl
